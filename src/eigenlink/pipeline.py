"""Document-parallel linking runs.

Stores are opened read-only up front and shipped to workers once; the
documents are then mapped in submission order, so results (and
therefore every derived artifact) do not depend on the worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

from .baselines import (
    build_name_lookup,
    link_document_avg,
    link_document_context,
    link_document_degree,
    link_document_namematch,
)
from .dataset import DocumentTask, attach_candidates
from .eigenthemes import LinkResult, link_document
from .embeddings import EmbeddingStore
from .errors import ConfigError
from .index import InvertedIndex
from .kg import EntityCatalog
from .weighting import WeightScheme

METHODS = ("eigen", "avg", "degree", "namematch", "local", "global")
CONTEXT_METHODS = ("local", "global")


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
        WeightScheme(kind=self.weighting, delta=self.delta)

    def check_inputs(self, provided: set[str]) -> None:
        """Raise ConfigError unless ``provided`` names every input file the run reads.

        The names are "embeddings", "words" and "descriptions"; the method
        and the weighting alone decide which of them are needed.
        """
        if self.method in ("eigen", "avg") and "embeddings" not in provided:
            raise ConfigError(f"method {self.method!r} needs entity embeddings")
        needs_text = self.method in CONTEXT_METHODS or self.weighting in (
            "local_ctxt_rr",
            "global_ctxt_rr",
        )
        if needs_text and not {"words", "descriptions"} <= provided:
            raise ConfigError(
                "context-based methods and weightings need word embeddings "
                "and entity descriptions"
            )

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class LinkContext:
    """Everything a worker needs to link one document.

    ``index`` may cover only the dataset's mention tokens (as the CLI
    builds it), so documents linked with it must come from that dataset.
    """

    catalog: EntityCatalog
    index: InvertedIndex
    config: RunConfig
    store: EmbeddingStore | None = None
    word_store: EmbeddingStore | None = None
    desc_store: EmbeddingStore | None = None
    name_lookup: dict[str, list[str]] | None = field(default=None, repr=False)

    def validate(self) -> None:
        self.config.validate()
        stores = dict(embeddings=self.store, words=self.word_store, descriptions=self.desc_store)
        self.config.check_inputs({name for name, store in stores.items() if store is not None})

    def prepared(self) -> "LinkContext":
        if self.config.method == "namematch" and self.name_lookup is None:
            self.name_lookup = build_name_lookup(self.catalog)
        return self


def link_one(doc: DocumentTask, ctx: LinkContext) -> LinkResult:
    """Attach candidates if needed and run the configured method."""
    if any(m.candidates is None for m in doc.mentions):
        doc = attach_candidates(doc, ctx.index, ctx.catalog, ctx.config.T)
    cfg = ctx.config
    scheme = WeightScheme(kind=cfg.weighting, delta=cfg.delta)
    if cfg.method == "eigen":
        return link_document(
            doc,
            ctx.store,
            scheme,
            k=cfg.k,
            rescale=cfg.rescale,
            word_store=ctx.word_store,
            desc_store=ctx.desc_store,
            window=cfg.window,
        )
    if cfg.method == "avg":
        return link_document_avg(
            doc,
            ctx.store,
            scheme,
            word_store=ctx.word_store,
            desc_store=ctx.desc_store,
            window=cfg.window,
        )
    if cfg.method == "degree":
        return link_document_degree(doc, ctx.catalog)
    if cfg.method == "namematch":
        return link_document_namematch(doc, ctx.catalog, ctx.name_lookup or {})
    if cfg.method in CONTEXT_METHODS:
        return link_document_context(
            doc,
            ctx.word_store,
            ctx.desc_store,
            mode=cfg.method,
            window=cfg.window,
        )
    raise ConfigError(f"unknown method {cfg.method!r}")


_WORKER_CTX: LinkContext | None = None


def _init_worker(ctx: LinkContext) -> None:
    global _WORKER_CTX
    _WORKER_CTX = ctx


def _run_worker(doc: DocumentTask) -> LinkResult:
    return link_one(doc, _WORKER_CTX)


def run_documents(
    docs: list[DocumentTask], ctx: LinkContext, jobs: int = 1
) -> list[LinkResult]:
    """Link all documents, preserving input order regardless of jobs."""
    ctx.validate()
    ctx.prepared()
    if jobs <= 1 or len(docs) <= 1:
        return [link_one(doc, ctx) for doc in docs]
    with ProcessPoolExecutor(
        max_workers=jobs, initializer=_init_worker, initargs=(ctx,)
    ) as pool:
        return list(pool.map(_run_worker, docs, chunksize=max(1, len(docs) // (4 * jobs))))
