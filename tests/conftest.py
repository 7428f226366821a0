"""Shared fixtures: small hand catalogs and session-scoped synthetic corpora."""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import pytest

from eigenlink import pipeline
from eigenlink.dataset import attach_candidates, load_dataset
from eigenlink.embeddings import EmbeddingStore, load_embeddings
from eigenlink.evaluation import metrics_report
from eigenlink.index import candidate_lists
from eigenlink.kg import catalog_lines
from eigenlink.pipeline import LinkContext, RunConfig, run_documents
from eigenlink.synth import SynthConfig, generate


class Line(NamedTuple):
    """One catalog line as ``kg.catalog_lines`` yields it, with attribute access."""

    qid: str
    name: str
    aliases: list[str]
    degree: int


def make_catalog(rows) -> list[Line]:
    """rows: iterable of (qid, name, aliases, degree)."""
    return [Line(qid, name, list(aliases), degree) for qid, name, aliases, degree in rows]


def read_catalog(path: str, edges_path: str | None = None) -> list[Line]:
    """Every line of the catalog file, read through ``kg.catalog_lines``."""
    return list(map(Line._make, catalog_lines(path, edges_path)))


def with_candidates(
    catalog, docs, T: int = 20, names: bool = True, degrees: bool = True
) -> list:
    """``docs`` with their mentions' candidates among the ``catalog`` lines.

    With ``names`` the mentions carry their name matches too, as a
    namematch run's do; without it they carry none, as other runs' do.
    Without ``degrees`` the candidate lists carry no degrees, as those of
    a run without the degree method do.
    """
    surfaces = {m.surface for doc in docs for m in doc.mentions}
    lists, name_matches = candidate_lists(catalog, surfaces, T, names=names, degrees=degrees)
    return [attach_candidates(doc, lists, name_matches) for doc in docs]


def make_store(dim: int, vectors: dict[str, list[float]]) -> EmbeddingStore:
    store = EmbeddingStore(dim)
    for key, vec in vectors.items():
        store.add(key, np.asarray(vec, dtype=float))
    return store


@dataclass
class Corpus:
    """A generated corpus with its stores loaded and ready to link."""

    dir: str
    manifest: dict
    catalog: list[Line]
    store: EmbeddingStore
    docs: list

    def run(self, method: str, **cfg_kwargs):
        cfg = RunConfig(method=method, **cfg_kwargs)
        ctx = LinkContext(config=cfg, store=self.store)
        docs = with_candidates(self.catalog, self.docs, cfg.T)
        results = run_documents(docs, ctx)
        outcomes = [o for r in results for o in r.mentions]
        return results, outcomes, metrics_report(outcomes)


def load_corpus(out_dir: str, manifest: dict) -> Corpus:
    return Corpus(
        dir=out_dir,
        manifest=manifest,
        catalog=read_catalog(f"{out_dir}/catalog.jsonl"),
        store=load_embeddings(f"{out_dir}/embeddings.txt"),
        docs=load_dataset(f"{out_dir}/dataset.jsonl"),
    )


def build_corpus(tmp_factory, name: str, **cfg_kwargs) -> Corpus:
    out = str(tmp_factory.mktemp(name))
    manifest = generate(SynthConfig(**cfg_kwargs), out)
    return load_corpus(out, manifest)


@pytest.fixture(scope="session")
def default_corpus(tmp_path_factory) -> Corpus:
    """The stock planted corpus: d=64, rank 3, 50 docs x 8 x 10, seed 17."""
    return build_corpus(tmp_path_factory, "default_corpus")


@pytest.fixture(scope="session")
def default_eigen(default_corpus):
    """Unweighted subspace run on the stock corpus, shared across tests."""
    return default_corpus.run("eigen", weighting="none")


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory) -> Corpus:
    """A fast corpus for perturbation and CLI-level tests."""
    return build_corpus(
        tmp_path_factory,
        "small_corpus",
        docs=8,
        mentions_per_doc=5,
        candidates_per_mention=6,
        d=24,
        rank=2,
        noise_amplitude=0.2,
        seed=5,
    )


@pytest.fixture
def recorded_pools(monkeypatch) -> list[int]:
    """The size of every pool ``run_documents`` starts; each maps serially."""
    started = []

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", InProcessPool)
    return started


def pytest_terminal_summary(terminalreporter):
    """Re-print the acceptance PASS/FAIL lines after capture is torn down."""
    lines: list[str] = []
    # the module may be registered under either its plain or package name
    for name, module in list(sys.modules.items()):
        if name.rpartition(".")[2] == "test_acceptance":
            for line in getattr(module, "SUMMARY_LINES", []):
                if line not in lines:
                    lines.append(line)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
