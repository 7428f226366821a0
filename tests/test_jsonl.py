"""The shared JSONL reader and writer, and byte-mutation fuzzing of every text loader."""

import json
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenlink import jsonl
from eigenlink.cli import _read_config_file
from eigenlink.dataset import DOCUMENT, load_dataset
from eigenlink.errors import EigenlinkError, FormatError
from eigenlink.evaluation import read_predictions
from eigenlink.kg import CATALOG, load_edges
from eigenlink.weighting import DESCRIPTIONS, load_descriptions
from tests.conftest import read_catalog

# A record with a required key, an optional field, and one whose default is
# None, so that a null counts as missing.
ROW = jsonl.Table("a row must be a JSON object", (
    jsonl.Field("id", str, "missing or empty 'id'", checks=("v != ''",)),
    jsonl.Field("n", int, "'n' must be an integer", 0, (("v < 10", "'n' is 10 or more"),)),
    jsonl.Field("words", list, "'words' must be a list of strings", None, (jsonl.STRINGS,)),
))


def read_rows(path, table=ROW, key="id"):
    return list(jsonl.records(str(path), table, key))


def test_rows_skip_blank_lines_and_number_the_rest(tmp_path):
    path = tmp_path / "rows.jsonl"
    rows = b'{"id": "a"}\n\n  \t\r\n{"id": "b", "n": 2}\r\n\x0c\n{"id": "c", "words": null}'
    path.write_bytes(rows)
    assert read_rows(path) == [("a", 0, None), ("b", 2, None), ("c", 0, None)]
    path.write_bytes(rows + b'\n{"id": "b"}\n')
    with pytest.raises(EigenlinkError, match="^line 7: duplicate id 'b'$"):
        read_rows(path)
    path.write_bytes(rows.replace(b'"n": 2', b'"n": 12'))
    with pytest.raises(FormatError, match="^line 4: 'n' is 10 or more$"):
        read_rows(path)


def test_defaults_are_copies(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"id": "a"}\n{"id": "b"}\n{"id": "c", "n": "x"}\n')
    table = jsonl.Table(ROW.message, (*ROW.fields[:2], ROW.fields[2]._replace(default=[])))
    rows = jsonl.records(str(path), table, "id")
    (_, _, first), (_, _, second) = next(rows), next(rows)
    assert first == second == [] and first is not second
    with pytest.raises(FormatError, match="^line 3: 'n' must be an integer$"):
        next(rows)


@pytest.mark.parametrize(
    "row,message",
    [
        ("[1]", "a row must be a JSON object"),
        ('{"n": 1}', "missing or empty 'id'"),
        ('{"id": 7}', "missing or empty 'id'"),
        ('{"id": ""}', "missing or empty 'id'"),
        ('{"id": "b", "n": true}', "'n' must be an integer"),
        ('{"id": "b", "n": null}', "'n' must be an integer"),
        ('{"id": "b", "words": ["x", 1]}', "'words' must be a list of strings"),
        ('{"id": "b", "words": "x"}', "'words' must be a list of strings"),
        # the first field in table order that is wrong names the error
        ('{"id": "", "n": "x"}', "missing or empty 'id'"),
        ('{"id": "b", "n": 99, "words": 1}', "'n' is 10 or more"),
        # a field error on a line comes before a repeat of its key
        ('{"id": "a", "n": 99}', "'n' is 10 or more"),
        ('{"id": "a", "other": 1}', "duplicate id 'a'"),
        ('{"id": "a", "n": 1, "n": 1}', "key 'n' is given twice"),
    ],
)
@pytest.mark.parametrize("escape", [False, True], ids=["plain", "escaped"])
def test_first_fault_of_a_line_names_it(tmp_path, row, message, escape):
    # An escape sends a line to the per-line path; a plain line is checked by the compiled tests.
    path = tmp_path / "rows.jsonl"
    if escape:
        row = row.replace('"a"', '"\\u0061"').replace('"b"', '"\\u0062"')
    path.write_text('{"id": "a"}\n' + row + "\n", encoding="utf-8")
    with pytest.raises(EigenlinkError) as info:
        read_rows(path)
    assert str(info.value) == f"line 2: {message}"


def test_a_rejected_record_is_reported_after_an_earlier_repeat(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"id": "a"}\n{"id": "b"}\n{"id": "a"}\n{"id": "c"}\n', encoding="utf-8")
    for at, message in ((4, "line 3: duplicate id 'a'"), (3, "line 3: rejected")):
        rows = jsonl.records(str(path), ROW, "id")
        with pytest.raises(EigenlinkError) as info:
            for lineno, _ in enumerate(rows, 1):
                if lineno == at:
                    rows.throw(FormatError("rejected"))
        assert str(info.value) == message


@pytest.mark.parametrize(
    "rows,message",
    [
        (
            ['{"doc_id": "d", "mentions": []}'] * 2 + ['{"doc_id": "e", "mentions": [1]}'],
            "line 2: duplicate doc_id 'd'",
        ),
        (['{"doc_id": "d", "mentions": []}', '{"doc_id": "d", "mentions": [1]}'],
         "line 2: a mention must be a JSON object"),
    ],
    ids=["repeat-before-bad-mention", "bad-mention-on-the-repeat"],
)
def test_dataset_reports_its_first_error_in_file_order(tmp_path, rows, message):
    path = tmp_path / "dataset.jsonl"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    with pytest.raises(EigenlinkError) as info:
        load_dataset(str(path))
    assert str(info.value) == message


def test_lone_cr_is_not_a_line_break(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b'{"id": "a"}\r{"id": "b"}\n')
    with pytest.raises(FormatError, match=r"^line 1: invalid JSON \(Extra data\)$"):
        read_rows(path)


@pytest.mark.parametrize(
    "raw,message",
    [
        (b'{"id": "a"}\n\xff\n', "line 2: not valid UTF-8"),
        (b'{"id": "a"}\n[1,\n\n', "line 2: invalid JSON (Expecting value)"),
        (b'{"id": "a"}\n' + b"[" * 100_000 + b"\n", "line 2: JSON nested too deeply"),
        (b'{"id": "a"}\n' + b"7" * 5000 + b"\n", "line 2: number too long"),
        # each line alone is bad JSON, though the two joined into one array are not
        (
            b'{"qid": "Q1", "name": "a", "aliases": ["x"\n"y"]}, {"qid": "Q2", "name": "b"}\n',
            "line 1: invalid JSON (Expecting ',' delimiter)",
        ),
    ],
    ids=["utf8", "json", "nesting", "long-int", "array-split-across-lines"],
)
def test_bad_line_names_its_line(tmp_path, raw, message):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(raw)
    with pytest.raises(FormatError) as info:
        read_rows(path)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "load,rows,message",
    [
        (
            read_catalog,
            ['{"qid": "Q1", "name": "a"}', '{"qid": "Q2", "name": "b", "name": "c"}'],
            "line 2: key 'name' is given twice",
        ),
        (
            load_dataset,
            ['{"doc_id": "d1", "mentions": []}', '{"doc_id": "d2", "mentions": [{"surface": '
             '"x", "gold_qid": null, "gold_qid": "Q1"}]}'],
            "line 2: key 'gold_qid' is given twice",
        ),
        (
            load_descriptions,
            ['{"qid": "Q1", "description": "a"}', '{"qid": "Q2", "qid": "Q3", "description": ""}'],
            "line 2: key 'qid' is given twice",
        ),
        (
            read_catalog,
            ['{"qid": "Q1", "name": "a"}', '{"qid": "Q2", "n\\u0061me": "b", "name": "b"}'],
            "line 2: key 'name' is given twice",
        ),
    ],
    ids=["catalog", "dataset-mention", "descriptions", "escaped-key"],
)
def test_repeated_key_names_its_line_and_key(tmp_path, load, rows, message):
    path = tmp_path / "rows.jsonl"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    with pytest.raises(FormatError) as info:
        load(str(path))
    assert str(info.value) == message


def test_unique_keys_passes_objects_and_names_the_first_repeat():
    assert jsonl.unique_keys([("a", 1), ("b", 2)]) == {"a": 1, "b": 2}
    with pytest.raises(jsonl.RepeatedKeyError) as info:
        jsonl.unique_keys([("a", 1), ("b", 2), ("b", 2), ("a", 1)])
    assert info.value.key == "b"


# é, a surrogate pair and an escaped backslash: escapes UTF-8 can hold
GOOD_ESCAPES = b'{"id": "\\u00e9"}\n{"id": "\\ud83d\\ude00"}\n{"id": "\\\\ud800"}\n'


@pytest.mark.parametrize(
    "raw",
    [b'"Q\\ud800"', b'{"a\\udc00": 1}', b'["\\ude00\\ud83d"]'],
    ids=["high", "key", "reversed"],
)
def test_lone_surrogate_escape_names_its_line(tmp_path, raw):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(GOOD_ESCAPES)
    assert read_rows(path) == [("é", 0, None), ("\U0001f600", 0, None), ("\\ud800", 0, None)]
    path.write_bytes(GOOD_ESCAPES + raw + b"\n")
    with pytest.raises(FormatError) as info:
        read_rows(path)
    assert str(info.value) == "line 4: escape of a lone surrogate"


def test_only_a_surrogate_escape_leaves_the_scanner(tmp_path):
    # json.dumps escapes every non-ASCII character by default; those lines
    # are decoded by the C scanner, and only a surrogate escape reaches _value.
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b'{"id": "\\u00e9\\u4e2d\\uFFFD\\u0075d800"}\n{"id": "\\ud83d\\ude00"}\n')
    with patch.object(jsonl, "_value", side_effect=AssertionError("per-line path")):
        with pytest.raises(AssertionError, match="^per-line path$"):
            read_rows(path)
    path.write_bytes(b'{"id": "\\u00e9\\u4e2d\\uFFFD\\u0075d800"}\n')
    with patch.object(jsonl, "_value", side_effect=AssertionError("per-line path")):
        assert read_rows(path) == [("\u00e9\u4e2d\ufffdud800", 0, None)]


@pytest.mark.parametrize(
    "raw,message",
    [
        (b'{\n "k": 4,\n "T": \xff\n}', "line 3: not valid UTF-8"),
        (b'{\n "k": 4,\n "T" 2\n}', "line 3: invalid JSON (Expecting ':' delimiter)"),
        (b"", "line 1: invalid JSON (Expecting value)"),
    ],
    ids=["utf8", "json", "empty"],
)
def test_parse_names_the_line_inside_a_document(raw, message):
    with pytest.raises(FormatError) as info:
        jsonl.parse(raw)
    assert str(info.value) == message


def test_write_rows_keeps_non_ascii_text(tmp_path):
    path = tmp_path / "rows.jsonl"
    jsonl.write_rows(str(path), [{"id": "Zürich", "q": [1, None]}, {"id": "x", "words": ["é"]}])
    expected = '{"id": "Zürich", "q": [1, null]}\n{"id": "x", "words": ["é"]}\n'
    assert path.read_bytes() == expected.encode()
    assert read_rows(path) == [("Zürich", 0, None), ("x", 0, ["é"])]


def test_crlf_edge_list_parses_like_lf(tmp_path):
    lf, crlf = tmp_path / "lf.tsv", tmp_path / "crlf.tsv"
    lf.write_bytes(b"Q1\tQ2\n\nQ2\tQ3\n")
    crlf.write_bytes(b"Q1\tQ2\r\n\r\nQ2\tQ3\r\n")
    assert load_edges(str(crlf)) == load_edges(str(lf)) == [("Q1", "Q2"), ("Q2", "Q3")]


# Byte-mutation fuzzing: every loader of a text input either returns or
# raises an EigenlinkError, whatever the bytes.

VALID_FILES = {
    "catalog": (
        read_catalog,
        '{"qid": "Q1", "name": "acme corp", "aliases": ["acme"], "degree": 3}\n'
        '{"qid": "Q2", "name": "beta labs", "degree": 1}\n',
    ),
    "dataset": (
        load_dataset,
        '{"doc_id": "d1", "mentions": [{"surface": "acme", "gold_qid": "Q1", "position": 0}],'
        ' "tokens": ["acme", "news"], "nouns": ["news"]}\n'
        '{"doc_id": "d2", "mentions": [{"surface": "beta", "gold_qid": null}]}\n',
    ),
    "descriptions": (
        load_descriptions,
        '{"qid": "Q1", "description": "a maker of things"}\n'
        '{"qid": "Q2", "description": "zürich labs"}\n',
    ),
    "edges": (load_edges, "Q1\tQ2\r\nQ2\tQ3\n"),
    "predictions": (
        read_predictions,
        "doc_id,mention_idx,surface,gold_qid,predicted_qid,bucket,rank_of_gold,score\r\n"
        "d1,0,acme,Q1,Q1,easy,1,0.5\r\n"
        'd1,1,"beta, inc",Q2,Q1,hard,2,0.25\r\n',
    ),
    "config": (_read_config_file, '{"k": 4, "delta": 2, "weighting": "none"}\n'),
}

NESTING = b"[" * 100_000

MUTATION = st.tuples(
    st.sampled_from(["replace", "insert", "delete", "nest"]),
    st.integers(0, 10_000),
    st.sampled_from(list(b' \t\r\n{}[]",:\\0179ae-') + [0x00, 0x80, 0xC3, 0xFF]),
)


def mutate(text: str, mutations) -> bytes:
    data = bytearray(text.encode("utf-8"))
    for op, position, byte in mutations:
        at = position % (len(data) + 1)
        if op == "nest":
            data[at:at] = NESTING
        elif op == "insert":
            data[at:at] = bytes([byte])
        elif at < len(data):
            data[at : at + 1] = b"" if op == "delete" else bytes([byte])
    return bytes(data)


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("jsonl_properties")


@pytest.mark.parametrize("kind", sorted(VALID_FILES))
@settings(max_examples=150, deadline=None)
@given(mutations=st.lists(MUTATION, min_size=1, max_size=4))
def test_mutated_text_inputs_raise_only_package_errors(scratch_dir, kind, mutations):
    loader, text = VALID_FILES[kind]
    path = scratch_dir / kind
    path.write_bytes(mutate(text, mutations))
    try:
        loader(str(path))
    except EigenlinkError:
        pass


TABLES = {
    "catalog": (CATALOG, "qid"),
    "dataset": (DOCUMENT, "doc_id"),
    "descriptions": (DESCRIPTIONS, "qid"),
}


def reference_records(path, table, key):
    """``jsonl.records`` one line at a time, by ``jsonl.loads`` and the table's check, with a set
    of the keys seen: its tuples or its message."""
    seen, out, k = set(), [], [field.name for field in table.fields].index(key)
    with open(path, "rb") as fh:
        try:
            for lineno, text in jsonl.lines(fh):
                try:
                    obj = jsonl.loads(text.strip(), lineno, jsonl.unique_keys)
                except jsonl.RepeatedKeyError as exc:
                    return f"line {lineno}: {exc}"
                try:
                    values = table.check(obj)
                except FormatError as exc:
                    return f"line {lineno}: {exc}"
                if values[k] in seen:
                    return f"line {lineno}: duplicate {key} {values[k]!r}"
                seen.add(values[k])
                out.append(values)
        except FormatError as exc:
            return str(exc)
    return out


@pytest.mark.parametrize("kind", sorted(TABLES))
@settings(max_examples=150, deadline=None)
@given(mutations=st.lists(MUTATION, min_size=1, max_size=4), block_bytes=st.integers(1, 200))
def test_rows_in_blocks_match_the_line_by_line_reference(scratch_dir, kind, mutations, block_bytes):
    path = scratch_dir / f"{kind}-rows"
    path.write_bytes(mutate(VALID_FILES[kind][1], mutations))
    try:
        with patch.object(jsonl, "_BLOCK_BYTES", block_bytes):
            got = read_rows(path, *TABLES[kind])
    except EigenlinkError as exc:
        got = str(exc)
    assert got == reference_records(path, *TABLES[kind])


@pytest.mark.parametrize("kind", sorted(VALID_FILES))
def test_valid_text_inputs_load(tmp_path, kind):
    loader, text = VALID_FILES[kind]
    path = tmp_path / kind
    path.write_bytes(text.encode("utf-8"))
    assert loader(str(path))


def test_config_document_error_names_its_line(tmp_path):
    path = tmp_path / "run.json"
    path.write_bytes(json.dumps({"k": 4, "T": 3}, indent=1).encode().replace(b"3", b"\xff"))
    with pytest.raises(FormatError, match="^line 3: not valid UTF-8$"):
        _read_config_file(str(path))
