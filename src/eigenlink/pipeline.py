"""Document-parallel linking runs.

Each document is linked on its own, so ``--jobs`` documents are linked at
once on threads of this process (LAPACK releases the GIL in eigen's SVDs).
Linking writes no shared state: the stores and the lists attached to the
mentions are only read. Documents are mapped in submission order, so results
(and therefore every derived artifact) do not depend on the worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .baselines import (
    link_document_avg,
    link_document_context,
    link_document_degree,
    link_document_namematch,
)
from .dataset import DocumentTask
from .eigenthemes import LinkResult, link_document
from .embeddings import EmbeddingStore
from .errors import ConfigError
from .linalg import pin_blas_threads
from .weighting import CONTEXT_KINDS, WeightScheme

TEXT_INPUTS = frozenset({"words", "descriptions"})


class Method(NamedTuple):
    """One entry of the method table, ``METHODS``."""

    link: Callable[..., LinkResult]  # calls the linker by its name here, so wrappers see it
    inputs: frozenset[str]  # the input files the method reads besides the dataset and catalog


@dataclass
class RunConfig:
    method: str = "eigen"
    T: int = 20
    k: int = 10
    delta: float = 1.0
    weighting: str = "degree_rr"
    window: int = 5
    seed: int = 0
    jobs: int = 1
    rescale: bool = True

    def validate(self) -> None:
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        if self.T < 1:
            raise ConfigError(f"T must be >= 1, got {self.T}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        self.scheme()

    def scheme(self) -> WeightScheme:
        return WeightScheme(kind=self.weighting, delta=self.delta)

    def inputs(self) -> frozenset[str]:
        """The input files the run reads besides the dataset and catalog.

        Those are the method's table entry's inputs, plus "words" and
        "descriptions" for a context weighting of a method that reads
        embeddings, as only those weight a document matrix.
        """
        needed = METHODS[self.method].inputs
        if self.weighting in CONTEXT_KINDS and "embeddings" in needed:
            needed = needed | TEXT_INPUTS
        return needed

    def check_inputs(self, provided: set[str]) -> None:
        """Raise ConfigError unless ``provided`` names every input in ``inputs()``."""
        missing = self.inputs() - provided
        if "embeddings" in missing:
            raise ConfigError(f"method {self.method!r} needs entity embeddings")
        if missing:
            raise ConfigError(
                "context-based methods and weightings need word embeddings "
                "and entity descriptions"
            )


@dataclass
class LinkContext:
    """Everything needed to link documents whose candidates are attached.

    It holds no catalog: ``degree`` and ``namematch`` read the candidates
    and name matches attached to each mention, with their degrees. The
    stores may hold only the attached candidates' rows, so the documents
    must be those whose candidates they were loaded for.
    """

    config: RunConfig
    store: EmbeddingStore | None = None
    word_store: EmbeddingStore | None = None
    desc_store: EmbeddingStore | None = None

    def validate(self) -> None:
        self.config.validate()
        inputs = dict(
            embeddings=self.store,
            words=self.word_store,
            descriptions=self.desc_store,
        )
        self.config.check_inputs({name for name, value in inputs.items() if value is not None})


def _texts(ctx: LinkContext) -> dict:
    return dict(word_store=ctx.word_store, desc_store=ctx.desc_store, window=ctx.config.window)


def _link_eigen(doc: DocumentTask, ctx: LinkContext) -> LinkResult:
    cfg = ctx.config
    return link_document(doc, ctx.store, cfg.scheme(), cfg.k, cfg.rescale, **_texts(ctx))


def _link_avg(doc: DocumentTask, ctx: LinkContext) -> LinkResult:
    return link_document_avg(doc, ctx.store, ctx.config.scheme(), **_texts(ctx))


def _link_degree(doc: DocumentTask, ctx: LinkContext) -> LinkResult:
    return link_document_degree(doc)


def _link_namematch(doc: DocumentTask, ctx: LinkContext) -> LinkResult:
    return link_document_namematch(doc)


def _link_context(doc: DocumentTask, ctx: LinkContext) -> LinkResult:
    return link_document_context(doc, mode=ctx.config.method, **_texts(ctx))


METHODS: dict[str, Method] = {
    "eigen": Method(_link_eigen, frozenset({"embeddings"})),
    "avg": Method(_link_avg, frozenset({"embeddings"})),
    "degree": Method(_link_degree, frozenset()),
    "namematch": Method(_link_namematch, frozenset()),
    "local": Method(_link_context, TEXT_INPUTS),
    "global": Method(_link_context, TEXT_INPUTS),
}


def link_one(doc: DocumentTask, ctx: LinkContext) -> LinkResult:
    """Run the configured method on a document whose candidates are attached."""
    return METHODS[ctx.config.method].link(doc, ctx)


def run_documents(docs: list[DocumentTask], ctx: LinkContext) -> list[LinkResult]:
    """Link all documents, preserving input order whatever ``ctx.config.jobs``.

    Every mention must have its candidates, and for namematch its name
    matches, as ``attach_candidates`` gives them.
    """
    ctx.validate()
    names = ctx.config.method == "namematch"
    for doc in docs:
        if any(m.candidates is None or names and m.name_matches is None for m in doc.mentions):
            raise ValueError(
                f"document {doc.doc_id!r} has mentions without candidates; "
                "call attach_candidates first"
            )
    pin_blas_threads()
    workers = min(ctx.config.jobs, len(docs))
    if workers <= 1:
        return [link_one(doc, ctx) for doc in docs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(link_one, docs, [ctx] * len(docs)))
