import json
import random

import pytest

from eigenlink.errors import FormatError, IntegrityError
from eigenlink.kg import catalog_lines, compute_degrees, load_edges


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
