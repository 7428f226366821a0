"""Per-candidate weights from rank positions.

A weighting scheme turns a per-mention candidate ranking into weights
rank**(-delta). Three ranking sources exist: the degree order the
candidate generator already produces, and local/global textual
coherence between entity descriptions and the mention context.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import jsonl
from .dataset import DocumentTask
from .embeddings import NORM_EPS, EmbeddingStore
from .errors import ConfigError
from .index import CandidateList, tokenize

WEIGHT_KINDS = ("none", "degree_rr", "local_ctxt_rr", "global_ctxt_rr")

# Floats of word rows gathered at a time when averaging (2 MiB).
_GATHER_FLOATS = 1 << 18

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


def _sum_rows(matrix: np.ndarray, span: np.ndarray) -> np.ndarray:
    """The sum of ``matrix``'s rows ``span`` in order, gathered a step at a time."""
    dim = matrix.shape[1]
    # numpy sums a single column pairwise, so at d = 1 the rows are summed at
    # once; they take no more memory than their row indices.
    step = max(2, len(span) if dim == 1 else _GATHER_FLOATS // dim)
    total = np.add.reduce(matrix[span[:step]], axis=0)
    for lo in range(step, len(span), step - 1):  # the running sum leads each later step
        total = np.add.reduce(np.vstack((total, matrix[span[lo : lo + step - 1]])), axis=0)
    return total


def mean_vectors(
    token_lists: Iterable[list[str]], word_store: EmbeddingStore
) -> tuple[np.ndarray, np.ndarray]:
    """Each list's mean word vector over its tokens in ``word_store``, with np.mean's bits.

    Returns the positions of the lists that hold a known token and their
    means, one row each, in list order. Each known token is kept as its
    8-byte row index. Lists with the same known-token count n are averaged
    together: their rows are gathered into a (g, n, d) block, at most
    ``_GATHER_FLOATS`` floats at a time, and ``np.add.reduce`` over n
    sums each list in token order, as ``np.mean(vecs, axis=0)`` does.
    ``build_description_store`` averages every description in one call,
    ``document_contexts`` all of one document's contexts.
    """
    row, matrix, dim = word_store._row, word_store._matrix, word_store.dim
    ids, counts = array("q"), array("q")
    for tokens in token_lists:
        before = len(ids)
        ids.extend([r for t in tokens if (r := row.get(t)) is not None])
        counts.append(len(ids) - before)
    ids = np.frombuffer(ids, dtype=np.int64)
    counts = np.frombuffer(counts, dtype=np.int64)
    kept = np.flatnonzero(counts)
    starts = (np.cumsum(counts) - counts)[kept]
    counts = counts[kept]
    means = np.empty((len(kept), dim))
    order = np.argsort(counts, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(counts[order])) + 1) if len(kept) else []
    for group in groups:
        n = int(counts[group[0]])
        step = _GATHER_FLOATS // (n * dim)
        if not step:  # each list is longer than a step
            for i in group:
                means[i] = _sum_rows(matrix, ids[starts[i] : starts[i] + n]) / n
            continue
        offsets = np.arange(n)
        for lo in range(0, len(group), step):
            part = group[lo : lo + step]
            means[part] = np.add.reduce(matrix[ids[starts[part, None] + offsets]], axis=1) / n
    return kept, means


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
    if cnorm <= NORM_EPS:
        return [(qid, 0.0) for qid in candidates.candidates]
    scores: list[tuple[str, float]] = []
    for qid in candidates.candidates:
        desc = desc_store.get(qid)
        dnorm = 0.0 if desc is None else math.sqrt(float(desc @ desc))
        cosine = float(desc @ context) / (dnorm * cnorm) if dnorm > NORM_EPS else -math.inf
        scores.append((qid, cosine))
    return scores


def require_tokens(task: DocumentTask) -> None:
    """Raise ConfigError unless the document carries ``tokens``, which contexts are made of."""
    if task.tokens is None:
        raise ConfigError(
            f"document {task.doc_id!r} has no 'tokens' field, which context methods "
            "and weightings need"
        )


def document_contexts(
    task: DocumentTask,
    mode: str,
    word_store: EmbeddingStore | None,
    window: int = 5,
) -> list[np.ndarray | None]:
    """Each mention's context vector, in mention order, from one ``mean_vectors`` call.

    "local" averages one list per mention, the tokens within +-window of
    its position; "global" averages the document's one list of noun-ish
    tokens, ``nouns`` when given, else the tokens whose lowercase form is
    not in ``STOPWORDS``, and every mention shares its row. A list without
    a known token gives None. A document without ``tokens`` is a ConfigError.
    """
    require_tokens(task)
    if word_store is None:
        raise ConfigError("context methods and weightings need word embeddings")
    tokens = task.tokens
    if mode == "local":
        token_lists = [
            tokens[max(0, m.position - window) : m.position]
            + tokens[m.position + 1 : m.position + 1 + window]
            for m in task.mentions
        ]
    elif mode == "global":
        nouns = task.nouns
        noun_ish = [t for t in tokens if t.lower() not in STOPWORDS] if nouns is None else nouns
        token_lists = [noun_ish]
    else:
        raise ValueError(f"mode must be 'local' or 'global', got {mode!r}")
    contexts: list[np.ndarray | None] = [None] * len(token_lists)
    kept, means = mean_vectors(token_lists, word_store)
    for i, mean in zip(kept.tolist(), means):
        contexts[i] = mean
    return contexts if mode == "local" else contexts * len(task.mentions)


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


DESCRIPTIONS = jsonl.Table("a description must be a JSON object", (
    jsonl.Field("qid", str, "need string 'qid' and 'description'",
                checks=(("v != ''", "missing or empty 'qid'"),)),
    jsonl.Field("description", str, "need string 'qid' and 'description'"),
))


def load_descriptions(path: str, keep: Mapping[str, str] | None = None) -> dict[str, str]:
    """Read a JSONL file of ``DESCRIPTIONS`` records, each qid once.

    Every row is validated, but only the descriptions of the qids in
    ``keep`` are returned; without ``keep`` every one is. Each kept
    description is keyed by ``keep[qid]``, as in
    ``embeddings.load_embeddings``.
    """
    rows = jsonl.records(path, DESCRIPTIONS, "qid")
    return dict(rows) if keep is None else {keep[qid]: desc for qid, desc in rows if qid in keep}


def build_description_store(
    descriptions: dict[str, str], word_store: EmbeddingStore
) -> EmbeddingStore:
    """Embed each description as its mean word vector (``mean_vectors``).

    Descriptions without a known word get no vector. The vectors keep the
    descriptions' order and become the store's matrix without a copy.
    They are finite: a store takes only rows whose squared norm is finite,
    so each component is below sqrt(max float), and so is each mean.
    """
    kept, means = mean_vectors(map(tokenize, descriptions.values()), word_store)
    qids = list(descriptions)
    store = EmbeddingStore(word_store.dim)
    store._append([qids[i] for i in kept], means, own=True)
    return store
