import numpy as np
import pytest

from eigenlink.embeddings import (
    EmbeddingStore,
    load_embeddings,
    unit_normalize,
    write_embeddings,
)
from eigenlink.errors import DataError, FormatError, IntegrityError


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
