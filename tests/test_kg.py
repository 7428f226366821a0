import json
import random
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenlink import jsonl
from eigenlink.errors import EigenlinkError, FormatError, IntegrityError
from eigenlink.kg import _parse_record, catalog_lines, compute_degrees, load_edges
from tests.test_jsonl import MUTATION, mutate


def write_lines(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def test_load_two_entities(tmp_path):
    path = tmp_path / "catalog.jsonl"
    write_lines(
        path,
        [
            {"qid": "Q41421", "name": "Michael Jordan", "aliases": ["MJ"], "degree": 900},
            {"qid": "Q3308285", "name": "Michael Jordan", "degree": 40},
        ],
    )
    assert list(catalog_lines(str(path))) == [
        ("Q41421", "Michael Jordan", ["MJ"], 900),
        ("Q3308285", "Michael Jordan", [], 40),
    ]


def test_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert list(catalog_lines(str(path))) == []


def test_missing_degree_defaults_to_zero(tmp_path):
    path = tmp_path / "catalog.jsonl"
    write_lines(path, [{"qid": "Q1", "name": "x"}])
    assert list(catalog_lines(str(path))) == [("Q1", "x", [], 0)]


def test_duplicate_qid_rejected(tmp_path):
    path = tmp_path / "catalog.jsonl"
    write_lines(path, [{"qid": "Q1", "name": "a"}, {"qid": "Q1", "name": "b"}])
    with pytest.raises(IntegrityError):
        list(catalog_lines(str(path)))


@pytest.mark.parametrize(
    "row",
    [
        {"name": "missing qid"},
        {"qid": "", "name": "empty qid"},
        {"qid": "Q1"},
        {"qid": "Q1", "name": ""},
        {"qid": "Q1", "name": "x", "degree": -1},
        {"qid": "Q1", "name": "x", "aliases": "notalist"},
    ],
)
def test_malformed_records_rejected(tmp_path, row):
    path = tmp_path / "catalog.jsonl"
    write_lines(path, [row])
    with pytest.raises(FormatError) as exc:
        list(catalog_lines(str(path)))
    assert "line 1" in str(exc.value)


def test_invalid_json_reports_line_number(tmp_path):
    path = tmp_path / "catalog.jsonl"
    path.write_text('{"qid": "Q1", "name": "ok"}\n{{{\n')
    with pytest.raises(FormatError) as exc:
        list(catalog_lines(str(path)))
    assert "line 2" in str(exc.value)


def test_thousand_record_roundtrip(tmp_path):
    rng = random.Random(7)
    rows = [
        {
            "qid": f"Q{i}",
            "name": f"entity {i} {rng.choice('abcdef')}",
            "aliases": [f"alias {i}"] if i % 3 == 0 else [],
            "degree": rng.randrange(0, 500),
        }
        for i in range(1000)
    ]
    path = tmp_path / "catalog.jsonl"
    write_lines(path, rows)
    assert list(catalog_lines(str(path))) == [
        (row["qid"], row["name"], row["aliases"], row["degree"]) for row in rows
    ]


def test_degrees_path_graph():
    assert compute_degrees([("a", "b"), ("b", "c")]) == {"a": 1, "b": 2, "c": 1}


def test_degrees_undirected_dedup():
    assert compute_degrees([("a", "b"), ("b", "a")]) == {"a": 1, "b": 1}


def test_degrees_self_loop_counts_once():
    assert compute_degrees([("a", "a"), ("a", "b")]) == {"a": 2, "b": 1}


def test_degrees_random_multigraph_matches_adjacency_sets():
    rng = random.Random(13)
    nodes = [f"n{i}" for i in range(12)]
    edges = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(50)]

    # Independent oracle: undirected adjacency sets, self-loops tracked apart.
    neighbours = {v: set() for v in nodes}
    loops = set()
    for a, b in edges:
        if a == b:
            loops.add(a)
        else:
            neighbours[a].add(b)
            neighbours[b].add(a)
    expected = {}
    for v in nodes:
        deg = len(neighbours[v]) + (1 if v in loops else 0)
        if deg:
            expected[v] = deg

    assert compute_degrees(edges) == expected


def test_degree_sum_identity():
    rng = random.Random(3)
    nodes = [f"n{i}" for i in range(9)]
    edges = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(40)]
    dedup = {(a, b) if a <= b else (b, a) for a, b in edges}
    self_loops = sum(1 for a, b in dedup if a == b)
    degrees = compute_degrees(edges)
    assert sum(degrees.values()) == 2 * len(dedup) - self_loops


def test_edge_list_file_and_supplied_degree_precedence(tmp_path):
    catalog_path = tmp_path / "catalog.jsonl"
    write_lines(
        catalog_path,
        [
            {"qid": "a", "name": "a", "degree": 99},
            {"qid": "b", "name": "b"},
            {"qid": "c", "name": "c"},
        ],
    )
    edges_path = tmp_path / "edges.tsv"
    edges_path.write_text("a\tb\nb\tc\n")
    assert load_edges(str(edges_path)) == [("a", "b"), ("b", "c")]

    lines = catalog_lines(str(catalog_path), edges_path=str(edges_path))
    # the explicit value wins
    assert list(lines) == [("a", "a", [], 99), ("b", "b", [], 2), ("c", "c", [], 1)]


def test_bad_edge_line(tmp_path):
    path = tmp_path / "edges.tsv"
    path.write_text("a\n")
    with pytest.raises(FormatError):
        load_edges(str(path))


# The block path against a line-by-line reference. Lines that are not one
# plain valid record; each takes the per-line path.
ODD_LINES = [
    '{"qid": "Q7", "name": }',
    '{"qid": "Q7", "name": "a", "name": "b"}',
    '{"qid": "Q7", "name": "a", "degree": true}',
    '{"qid": "Q7", "name": "a", "degree": -1}',
    '{"qid": "Q7", "name": "a", "degree": 1.0}',
    '{"qid": "Q7", "name": "a", "degree": null}',
    '{"qid": "Q7", "name": "a", "aliases": "x"}',
    '{"qid": "Q7", "name": "a", "aliases": [1]}',
    '{"qid": "Q7", "name": "a", "aliases": null}',
    '{"qid": "Q7", "name": "a"} x',
    '{"qid": "Q7", "name": "\\ud800"}',
    '{"qid": "Q7"}',
    '{"qid": "", "name": "a"}',
    '{"qid": "Q7", "name": ""}',
    '{"qid": "Q7", "name": 7}',
    '{"qid": 7, "name": "a"}',
    '["Q7", "a"]',
    '{"qid": "Q\\u0037", "name": "\\u00e9"}',
]


@st.composite
def catalog_texts(draw):
    """Catalog lines over a few qids, so that repeats are common, in mixed
    spellings (indents, escapes, CRLF), with blank and odd lines among them."""
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["record", "record", "record", "blank", "odd"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t", "\x0c"])))
        elif kind == "odd":
            lines.append(draw(st.sampled_from(ODD_LINES)))
        else:
            qid, name = f"Q{draw(st.integers(1, 5))}", draw(st.sampled_from(["acme", "zürich"]))
            row = {"qid": qid, "name": name}
            if draw(st.booleans()):
                row["aliases"] = draw(st.lists(st.sampled_from(["x", "ü", ""]), max_size=2))
            if draw(st.booleans()):
                row["degree"] = draw(st.integers(0, 9))
            indent = draw(st.sampled_from(["", " "]))
            lines.append(indent + json.dumps(row, ensure_ascii=draw(st.booleans())))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(line + ending for line in lines)


def reference_catalog_lines(path, degrees):
    """``catalog_lines`` a line at a time, with a set of the qids seen: its lines or its message."""
    seen, out = set(), []
    with open(path, "rb") as fh:
        try:
            for lineno, text in jsonl.lines(fh):
                try:
                    obj = jsonl.loads(text.strip(), lineno, jsonl.unique_keys)
                except jsonl.RepeatedKeyError as exc:
                    return f"line {lineno}: {exc}"
                qid, name, aliases, degree = _parse_record(obj, lineno)
                if qid in seen:
                    return f"line {lineno}: duplicate qid {qid!r}"
                seen.add(qid)
                out.append((qid, name, aliases, degrees.get(qid, 0) if degree is None else degree))
        except FormatError as exc:
            return str(exc)
    return out


def block_catalog_lines(path, edges_path, block_bytes):
    """``catalog_lines`` read in blocks of ``block_bytes``: its lines or its message."""
    try:
        with patch.object(jsonl, "_BLOCK_BYTES", block_bytes):
            return list(catalog_lines(str(path), edges_path))
    except EigenlinkError as exc:
        return str(exc)


@pytest.fixture(scope="module")
def catalog_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("catalog_blocks")
    (path / "edges.tsv").write_text("Q1\tQ2\nQ2\tQ3\nQ3\tQ3\n")
    return path


@settings(max_examples=300, deadline=None)
@given(
    text=catalog_texts(),
    mutations=st.lists(MUTATION, max_size=3),
    block_bytes=st.one_of(st.integers(1, 200), st.just(jsonl._BLOCK_BYTES)),
    edges=st.booleans(),
)
def test_catalog_lines_in_blocks_match_the_line_by_line_reference(
    catalog_dir, text, mutations, block_bytes, edges
):
    path, edges_path = catalog_dir / "catalog.jsonl", catalog_dir / "edges.tsv"
    path.write_bytes(mutate(text, mutations))
    degrees = compute_degrees(load_edges(str(edges_path))) if edges else {}
    got = block_catalog_lines(path, str(edges_path) if edges else None, block_bytes)
    assert got == reference_catalog_lines(path, degrees)


@pytest.mark.parametrize("odd", ODD_LINES)
@pytest.mark.parametrize("block_bytes", [1, 40, jsonl._BLOCK_BYTES])
def test_each_odd_line_takes_the_per_line_path(tmp_path, odd, block_bytes):
    # a repeat before the odd line, then one after it
    rows = ['{"qid": "Q1", "name": "a"}', '{"qid": "Q2", "name": "b"}']
    path = tmp_path / "catalog.jsonl"
    for lines in ([*rows, odd, rows[0]], [*rows, rows[0], odd], [odd, *rows]):
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert block_catalog_lines(path, None, block_bytes) == reference_catalog_lines(path, {})
