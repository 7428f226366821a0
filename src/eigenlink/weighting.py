"""Per-candidate weights from rank positions.

A weighting scheme turns a per-mention candidate ranking into weights
rank**(-delta). Three ranking sources exist: the degree order the
candidate generator already produces, and local/global textual
coherence between entity descriptions and the mention context.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import jsonl
from .dataset import DocumentTask
from .embeddings import EmbeddingStore
from .errors import ConfigError, FormatError
from .index import CandidateList, tokenize
from .rowids import RowIds, line_qid

WEIGHT_KINDS = ("none", "degree_rr", "local_ctxt_rr", "global_ctxt_rr")

# The context mode each context weighting ranks by.
CONTEXT_KINDS = {"local_ctxt_rr": "local", "global_ctxt_rr": "global"}

# Function-word list standing in for a POS tagger when picking "noun-ish"
# tokens for the global context. Documents may carry an explicit noun list
# instead.
STOPWORDS = frozenset(
    """a about above after again against all am an and any are as at be because
    been before being below between both but by can cannot could did do does
    doing down during each few for from further had has have having he her here
    hers herself him himself his how i if in into is it its itself just me more
    most my myself no nor not now of off on once only or other our ours
    ourselves out over own same she should so some such than that the their
    theirs them themselves then there these they this those through to too
    under until up very was we were what when where which while who whom why
    will with you your yours yourself yourselves""".split()
)


@dataclass
class WeightScheme:
    """kind selects the ranking source; delta the rank decay exponent."""

    kind: str = "degree_rr"
    delta: float = 1.0

    def __post_init__(self):
        if self.kind not in WEIGHT_KINDS:
            raise ConfigError(f"unknown weighting kind {self.kind!r}")
        if not math.isfinite(self.delta):
            raise ConfigError(f"delta must be finite, got {self.delta}")
        if self.kind != "none" and self.delta <= 0.0:
            raise ConfigError(f"delta must be > 0, got {self.delta}")


def reciprocal_rank_weight(rank: int, delta: float) -> float:
    """rank**(-delta), the weight of a candidate at the given rank position."""
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    return float(rank) ** (-delta)


@lru_cache(maxsize=256)
def rank_weights(n: int, delta: float) -> tuple[float, ...]:
    """The weights of ranks 1..n, ``reciprocal_rank_weight`` of each, made once per (n, delta)."""
    return tuple(reciprocal_rank_weight(rank, delta) for rank in range(1, n + 1))


def degree_ranking(candidates: CandidateList) -> dict[str, int]:
    """Positional ranks of an already degree-sorted candidate list."""
    return {qid: i + 1 for i, qid in enumerate(candidates.candidates)}


def _mean_vector(tokens: list[str], word_store: EmbeddingStore) -> np.ndarray | None:
    vecs = [word_store.get(t) for t in tokens]
    vecs = [v for v in vecs if v is not None]
    if not vecs:
        return None
    return np.mean(vecs, axis=0)


def local_context_vector(
    doc_tokens: list[str],
    position: int,
    word_store: EmbeddingStore,
    window: int = 5,
) -> np.ndarray | None:
    """Mean embedding of the tokens within +-window of the mention slot."""
    lo = max(0, position - window)
    context = doc_tokens[lo:position] + doc_tokens[position + 1 : position + 1 + window]
    return _mean_vector(context, word_store)


def global_context_vector(
    doc_tokens: list[str],
    word_store: EmbeddingStore,
    nouns: list[str] | None = None,
) -> np.ndarray | None:
    """Mean embedding of the document's noun-ish tokens: ``nouns`` when given,
    else the tokens whose lowercase form is not in ``STOPWORDS``."""
    if nouns is not None:
        picked = nouns
    else:
        picked = [t for t in doc_tokens if t.lower() not in STOPWORDS]
    return _mean_vector(picked, word_store)


def context_scores(
    candidates: CandidateList,
    context: np.ndarray | None,
    desc_store: EmbeddingStore,
) -> list[tuple[str, float]]:
    """(qid, cosine of its description embedding against the context), in candidate order.

    An empty context scores every candidate 0; a candidate without a
    usable description scores -inf.
    """
    cnorm = 0.0 if context is None else math.sqrt(float(context @ context))
    if cnorm <= 1e-12:
        return [(qid, 0.0) for qid in candidates.candidates]
    scores: list[tuple[str, float]] = []
    for qid in candidates.candidates:
        desc = desc_store.get(qid)
        dnorm = 0.0 if desc is None else math.sqrt(float(desc @ desc))
        cosine = float(desc @ context) / (dnorm * cnorm) if dnorm > 1e-12 else -math.inf
        scores.append((qid, cosine))
    return scores


def document_contexts(
    task: DocumentTask,
    mode: str,
    word_store: EmbeddingStore | None,
    window: int = 5,
) -> list[np.ndarray | None]:
    """Each mention's context vector, in mention order.

    "local" takes the tokens within +-window of each mention's position;
    "global" takes the document's noun-ish tokens, computed once and shared
    by every mention. A document without ``tokens`` is a ConfigError.
    """
    if task.tokens is None:
        raise ConfigError(
            f"document {task.doc_id!r} has no 'tokens' field, which context methods "
            "and weightings need"
        )
    if word_store is None:
        raise ConfigError("context methods and weightings need word embeddings")
    if mode == "global":
        return [global_context_vector(task.tokens, word_store, task.nouns)] * len(task.mentions)
    if mode == "local":
        return [
            local_context_vector(task.tokens, m.position, word_store, window)
            for m in task.mentions
        ]
    raise ValueError(f"mode must be 'local' or 'global', got {mode!r}")


def context_ranking(
    candidates: CandidateList,
    context: np.ndarray | None,
    desc_store: EmbeddingStore,
) -> dict[str, int]:
    """Rank candidates by descending cosine against the context vector.

    Candidates without descriptions come last, keeping their degree
    order among themselves; an empty context scores all candidates 0 and
    so keeps plain degree ranking.
    """
    scores = context_scores(candidates, context, desc_store)
    # Stable sort: cosine descending, original (degree) position breaks ties
    # and orders the description-less tail.
    order = sorted(range(len(scores)), key=lambda i: (-scores[i][1], i))
    return {scores[i][0]: rank + 1 for rank, i in enumerate(order)}


def mention_weights(
    scheme: WeightScheme,
    candidates: CandidateList,
    context: np.ndarray | None = None,
    desc_store: EmbeddingStore | None = None,
) -> dict[str, float]:
    """Weights for one mention's candidates; the context kinds rank by its context vector.

    ``none`` weighs every candidate 1 (rank**-0) and ``degree_rr`` by its
    position in the list, both from one ``rank_weights`` tuple.
    """
    qids = candidates.candidates
    if scheme.kind in ("none", "degree_rr"):
        delta = 0.0 if scheme.kind == "none" else scheme.delta
        return dict(zip(qids, rank_weights(len(qids), delta)))
    if desc_store is None:
        raise ConfigError(f"weighting kind {scheme.kind!r} needs entity descriptions")
    ranking = context_ranking(candidates, context, desc_store)
    weights = rank_weights(len(qids), scheme.delta)
    return {qid: weights[rank - 1] for qid, rank in ranking.items()}


def load_descriptions(path: str, keep: Mapping[str, str] | None = None) -> dict[str, str]:
    """Read a JSONL file of {"qid": ..., "description": ...} records, each qid once.

    Every row is validated, but only the descriptions of the qids in
    ``keep`` are returned; without ``keep`` every one is. Each kept
    description is keyed by ``keep[qid]``, as in
    ``embeddings.load_embeddings``.
    """
    descriptions: dict[str, str] = {}
    with open(path, "rb") as fh, RowIds(path, line_qid, "qid").checked() as qids:
        for lineno, obj in jsonl.rows(fh):
            if not isinstance(obj, dict):
                raise FormatError(f"line {lineno}: a description must be a JSON object")
            qid = obj.get("qid")
            desc = obj.get("description")
            if not isinstance(qid, str) or not isinstance(desc, str):
                raise FormatError(f"line {lineno}: need string 'qid' and 'description'")
            qids.add(qid, lineno)
            if keep is None or qid in keep:
                descriptions[qid if keep is None else keep[qid]] = desc
    return descriptions


def build_description_store(
    descriptions: dict[str, str], word_store: EmbeddingStore
) -> EmbeddingStore:
    """Embed each description as its mean word vector."""
    store = EmbeddingStore(word_store.dim)
    for qid, text in descriptions.items():
        vec = _mean_vector(tokenize(text), word_store)
        if vec is not None:
            store.add(qid, vec)
    return store
