"""The duplicate-identifier check shared by the catalog, embedding and description loaders."""

import json
import tracemalloc
from contextlib import ExitStack
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenlink import embeddings, jsonl
from eigenlink.embeddings import load_embeddings
from eigenlink.errors import EigenlinkError
from eigenlink.kg import catalog_lines
from eigenlink.rowids import RowIds
from eigenlink.weighting import load_descriptions
from tests.conftest import read_catalog

MALFORMED = "malformed"
NOT_UTF8 = "not-utf8"

# loader, a valid row for a qid, a malformed row; embedding files start with a header
LOADERS = {
    "catalog": (
        read_catalog,
        lambda qid: json.dumps({"qid": qid, "name": f"name {qid}"}),
        '{"qid": "Q9"}',
    ),
    "descriptions": (
        load_descriptions,
        lambda qid: json.dumps({"qid": qid, "description": f"about {qid}"}),
        '{"qid": "Q9", "description": 7}',
    ),
    "embeddings": (load_embeddings, lambda qid: f"{qid} 1 0.5", "Q9 1 x"),
}


def write(tmp_path, kind, rows, count=None) -> str:
    """A ``kind`` file of ``rows``: qids, MALFORMED or NOT_UTF8 (a row with a bad byte)."""
    _, valid, malformed = LOADERS[kind]
    lines = [
        malformed.encode() if row == MALFORMED
        else b"Q\xff" if row == NOT_UTF8
        else valid(row).encode()
        for row in rows
    ]
    if kind == "embeddings":
        lines.insert(0, f"{len(rows) if count is None else count} 2".encode())
    path = tmp_path / kind
    path.write_bytes(b"\n".join(lines) + b"\n")
    return str(path)


def jsonl_message(line, rest):
    return {"catalog": f"line {line}: {rest}", "descriptions": f"line {line}: {rest}"}


# (rows, header count, block bytes, {loader: message}); embedding lines are one
# further down, below the header. A repeat before any other bad line wins.
CASES = {
    "duplicate-then-malformed": (
        ["Q1", "Q2", "Q1", "Q3", MALFORMED],
        None,
        1 << 16,
        {
            **jsonl_message(3, "duplicate qid 'Q1'"),
            "embeddings": "line 4: duplicate identifier 'Q1'",
        },
    ),
    "malformed-then-duplicate": (
        ["Q1", MALFORMED, "Q1"],
        None,
        1 << 16,
        {
            "catalog": "line 2: missing or empty 'name'",
            "descriptions": "line 2: need string 'qid' and 'description'",
            "embeddings": "line 3: non-numeric value",
        },
    ),
    "duplicate-then-bad-utf8": (
        ["Q1", "Q1", "Q2", NOT_UTF8],
        None,
        1 << 16,
        {
            **jsonl_message(2, "duplicate qid 'Q1'"),
            "embeddings": "line 3: duplicate identifier 'Q1'",
        },
    ),
    "malformed-then-bad-utf8": (
        [MALFORMED, "Q1", NOT_UTF8],
        None,
        1 << 16,
        {
            "catalog": "line 1: missing or empty 'name'",
            "descriptions": "line 1: need string 'qid' and 'description'",
            "embeddings": "line 2: non-numeric value",
        },
    ),
    "duplicate-then-bad-utf8-in-a-later-block": (
        ["Q1", "Q1", "Q2", NOT_UTF8],
        None,
        1,
        {
            **jsonl_message(2, "duplicate qid 'Q1'"),
            "embeddings": "line 3: duplicate identifier 'Q1'",
        },
    ),
    "duplicate-in-a-block-that-parses-then-malformed": (
        ["Q1", "Q2", "Q1", MALFORMED],
        None,
        20,
        {
            **jsonl_message(3, "duplicate qid 'Q1'"),
            "embeddings": "line 4: duplicate identifier 'Q1'",
        },
    ),
    "header-count-and-duplicate": (
        ["Q1", "Q2", "Q1"],
        5,
        1 << 16,
        {"embeddings": "line 4: duplicate identifier 'Q1'"},
    ),
}


@pytest.mark.parametrize(
    "kind,case",
    [(kind, case) for case, (*_, messages) in CASES.items() for kind in messages],
)
def test_first_error_in_file_order_wins(tmp_path, kind, case):
    rows, count, block_bytes, messages = CASES[case]
    path = write(tmp_path, kind, rows, count)
    with patch.object(jsonl, "_BLOCK_BYTES", block_bytes), patch.object(
        embeddings, "_BLOCK_BYTES", block_bytes
    ):
        with pytest.raises(EigenlinkError) as info:
            LOADERS[kind][0](path)
    assert str(info.value) == messages[kind]


@pytest.mark.parametrize("collide", [lambda s: 0, len], ids=["one-hash", "hash-by-length"])
@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_hash_ties_are_compared_as_strings(tmp_path, kind, collide):
    load = LOADERS[kind][0]
    rows = ["Q1", "Q2", "Q10", "Q22", "Q3"]

    def write_indented(rows):
        # a form feed is whitespace to the loaders, though not to JSON
        path = write(tmp_path, kind, rows)
        with open(path, "rb") as fh:
            text = fh.read()
        with open(path, "wb") as fh:
            fh.write(text.replace(b"\n", b"\n\x0c "))
        return path

    with patch("eigenlink.rowids.hash", collide, create=True):
        assert len(load(write_indented(rows))) == len(rows)
        with pytest.raises(EigenlinkError) as info:
            load(write_indented([*rows, "Q22", "Q1", MALFORMED]))
    line = 6 if kind != "embeddings" else 7
    what = "qid" if kind != "embeddings" else "identifier"
    assert str(info.value) == f"line {line}: duplicate {what} 'Q22'"


def traced_peak(load) -> int:
    tracemalloc.start()
    try:
        load()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["catalog", "embeddings"])
def test_check_costs_at_most_32_bytes_per_dropped_row(tmp_path, kind):
    kept = [f"K{i}" for i in range(10)]
    load = {
        "catalog": lambda path: [line for line in catalog_lines(path) if line[0] in kept],
        "embeddings": lambda path: load_embeddings(path, keep=set(kept)),
    }[kind]
    n = 5000
    peaks = []
    for padding in (n, 4 * n):
        path = write(tmp_path, kind, kept + [f"Q{i:07d}" for i in range(padding)])
        load(path)  # one-time allocations, such as lazy imports, stay out of the peaks
        peaks.append(traced_peak(lambda: load(path)))
    assert peaks[1] - peaks[0] <= 32 * 3 * n


def test_extend_records_rows_as_add_does(tmp_path):
    path = tmp_path / "ids.txt"
    path.write_text("Q1\nQ2\nQ3\nQ2\n")
    added, extended = (RowIds(str(path), lambda raw: raw.decode().strip(), "id") for _ in "ab")
    for lineno, identifier in enumerate(["Q1", "Q2", "Q3", "Q2"], 1):
        added.add(identifier, lineno)
    extended.extend(["Q1", "Q2"], 1, 2)
    extended.extend(["Q3", "Q2"], 3, 4)
    assert len(extended) == len(added) == 4
    for ids in (added, extended):
        with pytest.raises(EigenlinkError, match=r"^line 4: duplicate id 'Q2'$"):
            ids.check()


# Lines every loader skips: empty, or only whitespace, much of it not
# JSON's (form feed, vertical tab, no-break, em and ideographic spaces).
BLANKS = ["", " ", "\r", "\x0c", "\x0b\t", " ", "  ", "　\r"]
INDENTS = ["", " ", "\x0c ", " "]
BAD_MESSAGES = {
    MALFORMED: {
        "catalog": "missing or empty 'name'",
        "descriptions": "need string 'qid' and 'description'",
        "embeddings": "non-numeric value",
    },
    NOT_UTF8: dict.fromkeys(LOADERS, "not valid UTF-8"),
}
# The identifiers a loader kept, in file order.
KEPT = {
    "catalog": lambda lines: [line.qid for line in lines],
    "descriptions": list,
    "embeddings": lambda store: list(store.identifiers()),
}


@st.composite
def keyed_files(draw):
    """(kind, lines as bytes, the recorded identifiers with their lines, a bad line or None)."""
    kind = draw(st.sampled_from(sorted(LOADERS)))
    valid = LOADERS[kind][1]
    ending = draw(st.sampled_from([b"\n", b"\r\n"]))
    lines, recorded = [], []
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 3)) == 0:
            lines.append(draw(st.sampled_from(BLANKS)).encode())
        else:
            qid = f"Q{draw(st.integers(1, 6))}"
            lines.append((draw(st.sampled_from(INDENTS)) + valid(qid)).encode())
            recorded.append((qid, len(lines)))
    bad = draw(st.sampled_from([None, MALFORMED, NOT_UTF8]))
    if bad is not None:
        lines.append(LOADERS[kind][2].encode() if bad == MALFORMED else b"Q\xff")
    if kind == "embeddings":
        lines.insert(0, f"{len(recorded)} 2".encode())
        recorded = [(qid, lineno + 1) for qid, lineno in recorded]
    return kind, [line + ending for line in lines], recorded, bad


def reference_outcome(kind, lines, recorded, bad):
    """A set-based reference: the first recorded line whose identifier is on an earlier one.

    Otherwise the bad line's error, or the identifiers in file order.
    """
    seen = set()
    for qid, lineno in recorded:
        if qid in seen:
            what = "identifier" if kind == "embeddings" else "qid"
            return f"line {lineno}: duplicate {what} {qid!r}"
        seen.add(qid)
    if bad is not None:
        return f"line {len(lines)}: {BAD_MESSAGES[bad][kind]}"
    return [qid for qid, _ in recorded]


@pytest.fixture(scope="module")
def keyed_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("rowids_properties") / "keyed")


@settings(max_examples=300, deadline=None)
@given(
    case=keyed_files(),
    collide=st.sampled_from([None, lambda s: 0, len]),
    block_bytes=st.sampled_from([1, 20, 1 << 16]),
)
def test_check_matches_a_set_of_every_identifier(keyed_path, case, collide, block_bytes):
    kind, lines, recorded, bad = case
    with open(keyed_path, "wb") as fh:
        fh.writelines(lines)
    with ExitStack() as stack:
        if collide is not None:
            stack.enter_context(patch("eigenlink.rowids.hash", collide, create=True))
        stack.enter_context(patch.object(jsonl, "_BLOCK_BYTES", block_bytes))
        stack.enter_context(patch.object(embeddings, "_BLOCK_BYTES", block_bytes))
        try:
            got = KEPT[kind](LOADERS[kind][0](keyed_path))
        except EigenlinkError as exc:
            got = str(exc)
    assert got == reference_outcome(kind, lines, recorded, bad)


def test_rowids_hold_8_bytes_a_row_and_check_sorts_in_place(tmp_path):
    n = 100_000
    path = tmp_path / "ids.txt"
    path.write_text("".join(f"Q{i}\n" for i in range(n)))
    identifiers = [f"Q{i}" for i in range(n)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ids = RowIds(str(path), lambda raw: raw.decode().strip(), "id")
        for lineno, identifier in enumerate(identifiers, 1):
            ids.add(identifier, lineno)
        held = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        ids.check()
        allocated = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert held <= 9 * n
    assert allocated < 2 * n
