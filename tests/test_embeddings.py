import pickle
import re
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenlink import embeddings
from eigenlink.embeddings import (
    EmbeddingStore,
    load_embeddings,
    unit_normalize,
    write_embeddings,
)
from eigenlink.errors import DataError, EigenlinkError, FormatError, IntegrityError


def test_unit_normalize_345():
    assert unit_normalize(np.array([3.0, 4.0])) == pytest.approx([0.6, 0.8])


def test_unit_normalize_zero_vector_kept():
    out = unit_normalize(np.zeros(4))
    assert np.array_equal(out, np.zeros(4))


def test_unit_normalize_random_128_dim():
    rng = np.random.default_rng(2)
    for _ in range(20):
        v = rng.standard_normal(128) * rng.uniform(0.01, 100)
        out = unit_normalize(v)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_unit_normalize_idempotent():
    rng = np.random.default_rng(3)
    for _ in range(10):
        v = rng.standard_normal(16)
        once = unit_normalize(v)
        twice = unit_normalize(once)
        assert np.abs(once - twice).max() < 1e-12


def test_norm_invariant_in_zero_or_one():
    rng = np.random.default_rng(4)
    for scale in (0.0, 1e-15, 1e-9, 1.0, 1e6):
        v = rng.standard_normal(8) * scale
        n = np.linalg.norm(unit_normalize(v))
        # below the epsilon cutoff the vector is left untouched
        assert n <= 1e-12 or abs(n - 1.0) < 1e-12


def test_load_minimal_file(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("2 3\nq1 1 0 0\nq2 0 1 0\n")
    store = load_embeddings(str(path))
    assert store.dim == 3
    assert len(store) == 2
    assert np.array_equal(store.get("q1"), [1.0, 0.0, 0.0])
    assert "q3" not in store


def test_row_width_mismatch_rejected(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("1 3\nq1 1 0\n")
    with pytest.raises(FormatError):
        load_embeddings(str(path))


def test_row_count_mismatch_rejected(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("2 2\nq1 1 0\n")
    with pytest.raises(FormatError):
        load_embeddings(str(path))


def test_non_finite_rejected(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("1 2\nq1 nan 0\n")
    with pytest.raises(DataError):
        load_embeddings(str(path))


def test_duplicate_identifier_rejected(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("2 2\nq1 1 0\nq1 0 1\n")
    with pytest.raises(IntegrityError, match="line 3: duplicate identifier 'q1'"):
        load_embeddings(str(path))


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("banana\nq1 1\n")
    with pytest.raises(FormatError):
        load_embeddings(str(path))


def test_hundred_vector_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    store = EmbeddingStore(12)
    for i in range(100):
        store.add(f"e{i}", rng.standard_normal(12))
    path = tmp_path / "emb.txt"
    write_embeddings(store, str(path))
    loaded = load_embeddings(str(path))
    assert len(loaded) == 100
    assert loaded.dim == 12
    for i in range(100):
        # values survive the decimal round trip at the written precision
        assert np.abs(loaded.get(f"e{i}") - store.get(f"e{i}")).max() < 1e-8


def test_store_rejects_wrong_dimension():
    store = EmbeddingStore(3)
    with pytest.raises(FormatError):
        store.add("x", np.ones(4))


def test_store_rejects_duplicate_identifier():
    store = EmbeddingStore(2)
    store.add("x", [1.0, 2.0])
    with pytest.raises(IntegrityError, match="duplicate identifier 'x'"):
        store.add("x", [3.0, 4.0])
    assert np.array_equal(store.get("x"), [1.0, 2.0])


def test_store_rows_survive_growth_and_pickling():
    rng = np.random.default_rng(6)
    vectors = {f"e{i}": rng.standard_normal(5) for i in range(37)}
    store = EmbeddingStore(5)
    for key, vec in vectors.items():
        store.add(key, vec)
    copy = pickle.loads(pickle.dumps(store))
    for loaded in (store, copy):
        assert list(loaded.identifiers()) == list(vectors)
        for key, vec in vectors.items():
            assert np.array_equal(loaded.get(key), vec)
    copy.add("late", np.ones(5))
    assert np.array_equal(copy.get("late"), np.ones(5))


ROWS = "q1 1 0 0\nq2 0 1 0\n"
OVERFLOW = "values too large, their squared norm overflows"


@pytest.mark.parametrize(
    "identifiers, rows, error, message",
    [
        (["a", "b"], np.ones((2, 3)), FormatError, "^vector for 'a' has shape [(]3,[)]"),
        (
            ["a", "b", "c"],
            [[1.0, 0.0], [1e160, 0.0], [np.nan, 0.0]],
            DataError,
            f"^vector for 'b' has {OVERFLOW}$",
        ),
        (
            ["a", "b", "c"],
            [[1.0, 0.0], [np.inf, 0.0], [1e160, 0.0]],
            DataError,
            "^vector for 'b' has non-finite values$",
        ),
        (["a", "b", "a", "b"], np.ones((4, 2)), IntegrityError, "^duplicate identifier 'a'$"),
        (["c", "old"], np.ones((2, 2)), IntegrityError, "^duplicate identifier 'old'$"),
    ],
)
def test_add_rows_checks_the_batch_and_names_the_first_bad_identifier(
    identifiers, rows, error, message
):
    store = EmbeddingStore(2)
    store.add("old", [1.0, 1.0])
    with pytest.raises(error, match=message):
        store.add_rows(identifiers, rows)
    assert list(store.identifiers()) == ["old"]  # all or nothing
    assert np.array_equal(store.rows(["old"]), [[1.0, 1.0]])


def test_add_rows_matches_one_add_per_row():
    rng = np.random.default_rng(7)
    vectors = rng.standard_normal((37, 5))
    ids = [f"e{i}" for i in range(37)]
    one_by_one, batched = EmbeddingStore(5), EmbeddingStore(5)
    for identifier, vec in zip(ids, vectors):
        one_by_one.add(identifier, vec)
    batched.add_rows(ids[:3], vectors[:3])
    batched.add_rows(ids[3:], list(vectors[3:]))
    batched.add_rows([], np.empty((0, 5)))
    assert list(batched.identifiers()) == ids
    assert np.array_equal(batched.rows(ids), one_by_one.rows(ids))
    vectors[0] = 0.0  # the store holds its own copy of an array it was given
    assert np.array_equal(batched.get("e0"), one_by_one.get("e0"))
    with pytest.raises(ValueError):
        batched.add_rows(["x", "y"], np.ones((1, 5)))


@pytest.mark.parametrize(
    "body, error, message",
    [
        ("3 3\n" + ROWS + "q3 1 0\n", FormatError, "line 4: expected identifier plus 3 values, got 2"),
        ("3 3\n" + ROWS + "q3 1 0 0 0\n", FormatError, "line 4: expected identifier plus 3 values, got 4"),
        ("3 3\n" + ROWS + "q3\n", FormatError, "line 4: expected identifier plus 3 values, got 0"),
        ("3 3\n" + ROWS + "q3 1 x 0\n", FormatError, "line 4: non-numeric value"),
        ("3 3\n" + ROWS + "q3 1#2 0 0\n", FormatError, "line 4: non-numeric value"),
        ("3 3\n" + ROWS + "q3 1_0 0 0\n", FormatError, "line 4: non-numeric value"),
        ("3 3\n" + ROWS + "q3 0x10 0 0\n", FormatError, "line 4: non-numeric value"),
        ("3 3\n" + ROWS + "q3 1 nan 0\n", DataError, "line 4: non-finite value"),
        ("3 3\n" + ROWS + "q3 -inf 0 0\n", DataError, "line 4: non-finite value"),
        ("3 3\n" + ROWS + "q3 1e999 0 0\n", DataError, "line 4: non-finite value"),
        ("3 3\n" + ROWS + "q3 1e160 0 0\n", DataError, f"line 4: {OVERFLOW}"),
        ("3 3\n" + ROWS + "q3 -1e154 1e154 0\n", DataError, f"line 4: {OVERFLOW}"),
        ("3 3\nq1 1e160 0 0\nq2 x 0 0\nq3 0 0 1\n", DataError, f"line 2: {OVERFLOW}"),
        ("3 3\nq1 x 0 0\nq2 1e160 0 0\nq3 0 0 1\n", FormatError, "line 2: non-numeric value"),
        ("3 3\n" + ROWS + "\nq1 0 0 1\n", IntegrityError, "line 5: duplicate identifier 'q1'"),
        ("3 3\n" + ROWS, FormatError, "line 1: header declares 3 rows but the file has 2"),
        ("1 3\n" + ROWS, FormatError, "line 1: header declares 1 rows but the file has 2"),
        ("2\n" + ROWS, FormatError, "line 1: embedding header must be 'N D'"),
        ("2 0\n" + ROWS, FormatError, "line 1: embedding header must be 'N D'"),
        ("-2 3\n" + ROWS, FormatError, "line 1: embedding header must be 'N D'"),
        (b"3 3\n" + ROWS.encode() + b"q\xff3 1 0 0\n", FormatError, "line 4: not valid UTF-8"),
    ],
    ids=[
        "short-row",
        "long-row",
        "identifier-only",
        "non-numeric",
        "hash-inside-number",
        "underscore-inside-number",
        "hexadecimal",
        "nan",
        "negative-infinity",
        "overflow-to-infinity",
        "squared-norm-overflow",
        "squared-norm-overflow-of-a-sum",
        "squared-norm-overflow-before-non-numeric",
        "non-numeric-before-squared-norm-overflow",
        "duplicate-identifier",
        "header-count-above-rows",
        "header-count-below-rows",
        "header-one-field",
        "header-zero-dimension",
        "header-negative-count",
        "invalid-utf8",
    ],
)
def test_loader_error_names_file_line(tmp_path, body, error, message):
    path = tmp_path / "emb.txt"
    path.write_bytes(body if isinstance(body, bytes) else body.encode())
    with pytest.raises(error, match=re.escape(message)):
        load_embeddings(str(path))
    # rows outside the kept identifiers are validated all the same
    with pytest.raises(error, match=re.escape(message)):
        load_embeddings(str(path), keep={"q2": "q2"})


@pytest.mark.parametrize(
    "bad_row",
    ["q9 1 y 0", "q0 1 0 0", "q4500 1e160 0 7"],
    ids=["non-numeric", "duplicate", "overflow"],
)
def test_loader_error_line_in_later_block(tmp_path, bad_row):
    rows = [f"q{i} {i}.25 -1e-3 7" for i in range(5000)]
    rows[4500] = bad_row
    path = tmp_path / "emb.txt"
    path.write_text("5000 3\n" + "\n".join(rows) + "\n")
    assert path.stat().st_size > 1.5 * embeddings._BLOCK_BYTES  # the bad row is in a later block
    with pytest.raises(EigenlinkError, match="^line 4502: "):
        load_embeddings(str(path), keep={"q1": "q1"})


def test_loader_accepts_blank_lines_tabs_and_runs_of_spaces(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("3 2\n\nq1\t1\t-2.5\n   \nq2    3e-2   +4  \r\nq3 .5 6.")
    store = load_embeddings(str(path))
    assert list(store.identifiers()) == ["q1", "q2", "q3"]
    assert np.array_equal(store.get("q1"), [1.0, -2.5])
    assert np.array_equal(store.get("q2"), [0.03, 4.0])
    assert np.array_equal(store.get("q3"), [0.5, 6.0])


def test_loader_keeps_only_requested_rows(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("3 2\nq1 1 2\nq2 3 4\nq3 5 6\n")
    store = load_embeddings(str(path), keep={"q3": "q3", "q1": "q1", "absent": "absent"})
    assert list(store.identifiers()) == ["q1", "q3"]
    assert np.array_equal(store.get("q3"), [5.0, 6.0])
    assert "q2" not in store
    assert len(load_embeddings(str(path), keep={})) == 0


# Property tests: the block parser against a float()-per-token reference.

IDENTIFIER = st.text(alphabet="qQxyz0123456789_-:/.é", min_size=1, max_size=6)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
NUMBER_STYLES = (repr, "{:.9g}".format, "{:e}".format, "{:+.3f}".format, lambda x: "%.17g" % x)
SEPARATOR = st.sampled_from([" ", "  ", "\t", " \t "])


@st.composite
def embedding_files(draw):
    """(file text, {identifier: value tokens}) of a valid embedding file."""
    dim = draw(st.integers(1, 5))
    ids = draw(st.lists(IDENTIFIER, unique=True, max_size=25))
    lines = [f"{len(ids)} {dim}"]
    tokens = {}
    for identifier in ids:
        values = draw(st.lists(FINITE, min_size=dim, max_size=dim))
        tokens[identifier] = [draw(st.sampled_from(NUMBER_STYLES))(v) for v in values]
        for _ in range(draw(st.integers(0, 1))):
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
        sep = draw(SEPARATOR)
        lines.append(draw(st.sampled_from(["", " "])) + sep.join([identifier, *tokens[identifier]]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline])), tokens


@pytest.fixture(scope="module")
def scratch_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("embedding_properties") / "emb.txt")


@settings(max_examples=200, deadline=None)
@given(
    case=embedding_files(),
    block_bytes=st.integers(1, 200),
    keep_mask=st.lists(st.booleans(), max_size=25),
)
def test_block_parser_matches_float_reference(scratch_path, case, block_bytes, keep_mask):
    text, tokens = case
    with open(scratch_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    keep = {i: i for i, k in zip(tokens, keep_mask) if k}
    reference = {i: np.array([float(t) for t in tokens[i]], dtype=np.float64) for i in tokens}
    # A row whose squared norm overflows is an error on the first such row's line.
    overflowing = [i for i, row in reference.items() if not embeddings._norms_finite(row[None, :])]
    with patch.object(embeddings, "_BLOCK_BYTES", block_bytes):
        if overflowing:
            lines = text.splitlines()
            first = overflowing[0]
            lineno = next(n for n, line in enumerate(lines[1:], 2) if line.split()[:1] == [first])
            with pytest.raises(DataError, match=f"^line {lineno}: values too large"):
                load_embeddings(scratch_path, keep=keep)
            return
        store = load_embeddings(scratch_path, keep=keep)
    assert list(store.identifiers()) == [i for i in tokens if i in keep]
    for identifier in store.identifiers():
        assert store.get(identifier).tobytes() == reference[identifier].tobytes()


MUTATION = st.tuples(
    st.sampled_from(["replace", "insert", "delete"]),
    st.integers(0, 10_000),
    st.sampled_from(list(b" \t\r\n#_.,-+eE019naifx\x00\x0b\x1c") + [0x80, 0xA0, 0xC3, 0xFF]),
)


@settings(max_examples=300, deadline=None)
@given(case=embedding_files(), mutations=st.lists(MUTATION, min_size=1, max_size=4))
def test_mutated_files_raise_only_package_errors(scratch_path, case, mutations):
    data = bytearray(case[0].encode("utf-8"))
    for op, position, byte in mutations:
        at = position % (len(data) + 1)
        if op == "insert":
            data[at:at] = bytes([byte])
        elif at < len(data):
            data[at : at + 1] = b"" if op == "delete" else bytes([byte])
    with open(scratch_path, "wb") as fh:
        fh.write(data)
    try:
        store = load_embeddings(scratch_path)
    except EigenlinkError:
        return
    header = data.split(b"\n", 1)[0].split()
    assert len(store) == int(header[0])
