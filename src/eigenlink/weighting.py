"""Per-candidate weights from rank positions.

A weighting scheme turns a per-mention candidate ranking into weights
rank**(-delta). Three ranking sources exist: the degree order the
candidate generator already produces, and local/global textual
coherence between entity descriptions and the mention context.
"""

from __future__ import annotations

import json
import math
from collections.abc import Collection
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingStore
from .errors import ConfigError, FormatError, IntegrityError
from .index import CandidateList, tokenize

WEIGHT_KINDS = ("none", "degree_rr", "local_ctxt_rr", "global_ctxt_rr")

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
        if self.kind != "none" and self.delta <= 0.0:
            raise ConfigError(f"delta must be > 0, got {self.delta}")


def reciprocal_rank_weight(rank: int, delta: float) -> float:
    """rank**(-delta), the weight of a candidate at the given rank position."""
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    return float(rank) ** (-delta)


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
    """Mean embedding of the document's noun-ish tokens."""
    if nouns is not None:
        picked = nouns
    else:
        picked = [t for t in doc_tokens if t not in STOPWORDS]
    return _mean_vector(picked, word_store)


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    na = math.sqrt(float(a @ a))
    nb = math.sqrt(float(b @ b))
    if na <= 1e-12 or nb <= 1e-12:
        return 0.0
    return float(a @ b) / (na * nb)


def context_scores(
    candidates: CandidateList,
    context: np.ndarray | None,
    desc_store: EmbeddingStore,
) -> dict[str, float] | None:
    """Cosine of each candidate's description embedding against the context.

    Candidates without a usable description get no entry. Returns None
    when the context itself is empty, meaning "no signal at all".
    """
    if context is None or math.sqrt(float(context @ context)) <= 1e-12:
        return None
    scores: dict[str, float] = {}
    for qid in candidates.candidates:
        desc = desc_store.get(qid)
        if desc is None or math.sqrt(float(desc @ desc)) <= 1e-12:
            continue
        scores[qid] = _cosine(desc, context)
    return scores


def context_ranking(
    candidates: CandidateList,
    mention_position: int,
    doc_tokens: list[str],
    word_store: EmbeddingStore,
    desc_store: EmbeddingStore,
    mode: str = "local",
    window: int = 5,
    nouns: list[str] | None = None,
) -> dict[str, int]:
    """Rank candidates by descending context cosine.

    Candidates without descriptions come last, keeping their degree
    order among themselves; an empty context degrades to plain degree
    ranking.
    """
    if mode == "local":
        context = local_context_vector(doc_tokens, mention_position, word_store, window)
    elif mode == "global":
        context = global_context_vector(doc_tokens, word_store, nouns)
    else:
        raise ValueError(f"mode must be 'local' or 'global', got {mode!r}")

    scores = context_scores(candidates, context, desc_store)
    if scores is None:
        return degree_ranking(candidates)

    # Stable sort: cosine descending, original (degree) position breaks ties
    # and orders the description-less tail.
    order = sorted(
        range(len(candidates.candidates)),
        key=lambda i: (-scores.get(candidates.candidates[i], -math.inf), i),
    )
    return {candidates.candidates[i]: rank + 1 for rank, i in enumerate(order)}


def mention_weights(
    scheme: WeightScheme,
    candidates: CandidateList,
    mention_position: int = 0,
    doc_tokens: list[str] | None = None,
    word_store: EmbeddingStore | None = None,
    desc_store: EmbeddingStore | None = None,
    window: int = 5,
    nouns: list[str] | None = None,
) -> dict[str, float]:
    """Weights for one mention's candidates under the active scheme."""
    if scheme.kind == "none":
        return {qid: 1.0 for qid in candidates.candidates}
    if scheme.kind == "degree_rr":
        ranking = degree_ranking(candidates)
    else:
        if doc_tokens is None or word_store is None or desc_store is None:
            raise ConfigError(
                f"weighting kind {scheme.kind!r} needs document tokens, "
                "word embeddings and descriptions"
            )
        mode = "local" if scheme.kind == "local_ctxt_rr" else "global"
        ranking = context_ranking(
            candidates,
            mention_position,
            doc_tokens,
            word_store,
            desc_store,
            mode=mode,
            window=window,
            nouns=nouns,
        )
    return {qid: reciprocal_rank_weight(rank, scheme.delta) for qid, rank in ranking.items()}


def load_descriptions(path: str) -> dict[str, str]:
    """Read a JSONL file of {"qid": ..., "description": ...} records, each qid once."""
    descriptions: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
            if not isinstance(obj, dict):
                raise FormatError(f"line {lineno}: a description must be a JSON object")
            qid = obj.get("qid")
            desc = obj.get("description")
            if not isinstance(qid, str) or not isinstance(desc, str):
                raise FormatError(f"line {lineno}: need string 'qid' and 'description'")
            if qid in descriptions:
                raise IntegrityError(f"line {lineno}: duplicate qid {qid!r}")
            descriptions[qid] = desc
    return descriptions


def build_description_store(
    descriptions: dict[str, str],
    word_store: EmbeddingStore,
    keep: Collection[str] | None = None,
) -> EmbeddingStore:
    """Embed each description (only those of ``keep`` when given) as its mean word vector."""
    store = EmbeddingStore(word_store.dim)
    for qid, text in descriptions.items():
        if keep is not None and qid not in keep:
            continue
        vec = _mean_vector(tokenize(text), word_store)
        if vec is not None:
            store.add(qid, vec)
    return store
