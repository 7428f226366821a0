"""Per-mention outcome records, and the metrics and analyses over them.

Mentions are bucketed from the candidate generator's output alone:
"easy" when the top-degree candidate is the gold entity, "hard" when
gold is present but not first, "not_found" when truncation or matching
lost it. Easy/hard metrics are computed within their bucket; "overall"
pools every labeled mention. A not_found mention is a miss for every
method that ranks the candidate list, but namematch ranks its name
matches, which may hold gold, so its not_found mentions can score.
``metrics_report`` computes every metric in one pass over the outcomes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from itertools import chain
from typing import Callable, Iterable, Sequence

import numpy as np

from . import jsonl
from .dataset import DocumentTask
from .errors import FormatError, IntegrityError

BUCKETS = ("easy", "hard", "not_found")

# The score-gap bootstrap draws and averages its resamples in blocks of about
# this many indices, so its memory stays bounded however many mentions are
# eligible. Each draw is a function of the seed and its own position alone
# (``_Draws``), so the CI does not depend on the block size.
BOOTSTRAP_BLOCK_ELEMENTS = 1 << 16

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # SplitMix64's state increment


@dataclass(slots=True)
class MentionOutcome:
    doc_id: str
    mention_idx: int
    surface: str
    gold_qid: str | None
    predicted_qid: str | None
    bucket: str | None  # None for unlabeled mentions, excluded from metrics
    rank_of_gold: int | None
    predicted_score: float | None
    gold_score: float | None = None
    nongold_mean: float | None = None
    ranking: list[tuple[str, float]] | None = None  # score descending; None when read back
    fallback: str | None = None  # "degree" when scores carried no signal


@dataclass
class MetricsReport:
    counts: dict[str, int]
    precision_at_1: dict[str, float]
    mrr: dict[str, float]
    oracle_recall: float


def classify(candidates: Sequence[str], gold: str) -> str:
    """Bucket one labeled mention from its degree-sorted candidate list."""
    if gold not in candidates:
        return "not_found"
    return "easy" if candidates[0] == gold else "hard"


def _finite(x: float | None) -> float | None:
    return x if x is not None and math.isfinite(x) else None


def build_outcomes(
    task: DocumentTask,
    rankings: Sequence[list[tuple[str, float]]],
    fallbacks: Sequence[str | None],
) -> list[MentionOutcome]:
    """One document's outcome records, from each mention's ranking and fallback.

    The qids of a ranking are distinct, so gold's rank is its first
    position. The non-gold mean is that of the finite non-gold scores in
    ranking order, summed and divided by their count as ``np.mean`` does.
    """
    lo, hi = -math.inf, math.inf
    outcomes: list[MentionOutcome] = []
    mentions = zip(task.mentions, rankings, fallbacks, strict=True)
    for idx, (mention, ranking, fallback) in enumerate(mentions):
        gold = mention.gold_qid
        rank_of_gold = gold_score = nongold_mean = None
        if gold is not None:
            for pos, (qid, score) in enumerate(ranking, start=1):
                if qid == gold:
                    rank_of_gold, gold_score = pos, _finite(score)
                    break
            nongold = [score for qid, score in ranking if qid != gold and lo < score < hi]
            if nongold:
                nongold_mean = float(np.add.reduce(np.array(nongold))) / len(nongold)
        outcomes.append(
            MentionOutcome(
                doc_id=task.doc_id,
                mention_idx=idx,
                surface=mention.surface,
                gold_qid=gold,
                predicted_qid=ranking[0][0] if ranking else None,
                bucket=classify(mention.candidates.candidates, gold) if gold is not None else None,
                rank_of_gold=rank_of_gold,
                # The prediction heads the ranking.
                predicted_score=_finite(ranking[0][1]) if ranking else None,
                gold_score=gold_score,
                nongold_mean=nongold_mean,
                ranking=ranking,
                fallback=fallback,
            )
        )
    return outcomes


def is_hit(o: MentionOutcome) -> bool:
    """Whether the mention's prediction is its gold entity."""
    return o.predicted_qid is not None and o.predicted_qid == o.gold_qid


def metrics_report(outcomes: Iterable[MentionOutcome]) -> MetricsReport:
    """Counts, P@1 and MRR per bucket, and oracle recall, in one pass over ``outcomes``.

    P@1 is the share of a bucket's mentions predicted as gold; MRR the
    mean of 1/rank of gold in the method's ranking, 0 where gold is not
    ranked. Reciprocal ranks are summed left to right in outcome order.
    An empty bucket scores 0.0.
    """
    n = dict.fromkeys(("overall", *BUCKETS), 0)
    hits = dict.fromkeys(n, 0)
    rr = dict.fromkeys(n, 0.0)
    unlabeled = 0
    for o in outcomes:
        if o.bucket is None:
            unlabeled += 1
            continue
        hit = is_hit(o)
        for key in ("overall", o.bucket):
            n[key] += 1
            hits[key] += hit
            if o.rank_of_gold is not None:
                rr[key] += 1.0 / o.rank_of_gold
    total = n["overall"]
    shown = ("overall", "easy", "hard")
    return MetricsReport(
        counts={**{b: n[b] for b in BUCKETS}, "total": total, "unlabeled": unlabeled},
        precision_at_1={b: hits[b] / n[b] if n[b] else 0.0 for b in shown},
        mrr={b: rr[b] / n[b] if n[b] else 0.0 for b in shown},
        oracle_recall=(n["easy"] + n["hard"]) / total if total else 0.0,
    )


@dataclass
class ScoreGapReport:
    mean: float
    ci_low: float
    ci_high: float
    n_mentions: int


def score_gap(
    outcomes: Iterable[MentionOutcome],
    resamples: int = 10_000,
    seed: int = 0,
) -> ScoreGapReport | None:
    """Relative gap (G - N) / N between gold and mean non-gold scores.

    Only mentions where gold was found, scored, and at least one other
    candidate carries a positive mean score are eligible. The CI is a
    seeded percentile bootstrap: resample ``r`` of the ``n`` eligible
    gaps takes draws ``r*n`` to ``r*n + n - 1`` of ``_Draws(seed, n)``.
    With an eligible mention, a negative ``seed`` raises ValueError.
    """
    gaps = [
        (o.gold_score - o.nongold_mean) / o.nongold_mean
        for o in outcomes
        if o.gold_score is not None and o.nongold_mean is not None and o.nongold_mean > 0.0
    ]
    if not gaps:
        return None
    arr = np.asarray(gaps)
    n = len(arr)
    block = max(1, BOOTSTRAP_BLOCK_ELEMENTS // n)
    draws = _Draws(seed, n, min(block, resamples) * n)
    means = np.empty(resamples)
    for start in range(0, resamples, block):
        stop = min(start + block, resamples)
        idx = draws.take(start * n, (stop - start) * n).reshape(stop - start, n)
        means[start:stop] = arr[idx].mean(axis=1)
    means.sort()
    return ScoreGapReport(
        mean=float(arr.mean()),
        ci_low=_percentile(means, 2.5),
        ci_high=_percentile(means, 97.5),
        n_mentions=len(arr),
    )


class _Draws:
    """Indices in ``[0, n)`` from a counter-based stream: draw ``j`` depends on ``(seed, j)`` alone.

    Draw ``j`` is half of SplitMix64's output number ``j // 2 + 1`` from
    state ``seed mod 2**64``: its low 32 bits ``x`` for even ``j``, its
    high 32 bits for odd ``j``. The index is ``(x * n) >> 32`` (Lemire's
    multiply-shift), so each index has probability within ``2**-32`` of
    ``1/n``, a relative error of at most ``n / 2**32``. Everything is
    numpy ufuncs on buffers made once, for up to ``most`` draws at a time;
    a ``link`` never imports ``numpy.random``.
    """

    def __init__(self, seed: int, n: int, most: int):
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        if not 0 < n < 1 << 32:
            raise ValueError(f"can draw from 1 to 2**32 - 1 items, not {n}")
        self.key = seed & _MASK64
        self.n = np.uint64(n)
        words = most // 2 + 1
        self.steps = np.arange(words, dtype=np.uint64) * np.uint64(_GOLDEN)  # wraps mod 2**64
        self.z = np.empty(words, np.uint64)
        self.t = np.empty(words, np.uint64)
        self.idx = np.empty(most, np.uint64)

    def take(self, first: int, count: int) -> np.ndarray:
        """Draws ``first`` to ``first + count - 1`` as an int64 view of a reused buffer."""
        w0 = first // 2
        words = (first + count + 1) // 2 - w0
        z, t = self.z[:words], self.t[:words]
        # Python ints reduced mod 2**64 first: numpy warns on scalar uint64 overflow.
        np.add(self.steps[:words], np.uint64((self.key + (w0 + 1) * _GOLDEN) & _MASK64), out=z)
        for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
            np.bitwise_xor(z, np.right_shift(z, shift, out=t), out=z)
            np.multiply(z, np.uint64(mult), out=z)
        np.bitwise_xor(z, np.right_shift(z, 31, out=t), out=z)
        # Little-endian halves: the low word of z[i] is draw 2*(w0 + i).
        halves = z.astype("<u8", copy=False).view("<u4")[first % 2 : first % 2 + count]
        idx = np.multiply(halves, self.n, out=self.idx[:count])
        return np.right_shift(idx, 32, out=idx).view(np.int64)


def _percentile(ordered: np.ndarray, q: float) -> float:
    """``np.percentile(ordered, q)`` of an ascending, NaN-free array, by numpy's linear rule.

    ``np.percentile`` imports ``numpy.ma`` on its first call, which costs
    more than a small run's whole bootstrap; this is its arithmetic,
    step for step, so the bits are the same.
    """
    pos = (len(ordered) - 1) * (q / 100)
    i = math.floor(pos)
    t = pos - i
    a, b = ordered[i], ordered[min(i + 1, len(ordered) - 1)]
    return float(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)


def check_fractions(fractions: Sequence[float]) -> None:
    """Raise ValueError for a fraction outside [0, 1] or one listed twice.

    ``mutilation`` seeds a fraction's draws with ``round(f * 1000)``, so
    two fractions that agree to 1/1000 count as the same one.
    """
    for i, f in enumerate(fractions):
        if not 0.0 <= f <= 1.0:
            raise ValueError(f"fractions must lie in [0, 1], got {f}")
        if round(f * 1000) in [round(g * 1000) for g in fractions[:i]]:
            raise ValueError(f"fraction {f} is listed twice")


def mutilation(
    docs: Sequence[DocumentTask],
    runner: Callable[[list[DocumentTask]], list],
    fractions: Sequence[float],
    seed: int = 0,
    repeats: int = 10,
) -> dict[float, float]:
    """Overall P@1 after keeping only a fraction of the easy mentions.

    ``runner`` links documents as ``run_documents`` does, into results
    whose ``mentions`` are outcomes. Hard and not-found mentions always
    stay. Each (fraction, repeat) pair draws its kept easy mentions from
    a seed derived from the root seed and ``round(f * 1000)``; fraction
    1.0 is one draw that keeps every mention. ``fractions`` must pass
    ``check_fractions``.

    A draw is a list of ``(document index, kept mention indices)`` keys.
    A document's outcomes depend only on its kept mentions, so per
    fraction one ``runner`` call links the keys no earlier fraction
    linked, and each key keeps only its labeled and hit counts. A draw's
    P@1 is its summed hits over its summed labeled mentions: the integer
    quotient ``metrics_report`` computes.
    """
    check_fractions(fractions)
    easy_slots = [
        (di, mi)
        for di, doc in enumerate(docs)
        for mi, m in enumerate(doc.mentions)
        if m.gold_qid is not None
        and m.candidates is not None
        and classify(m.candidates.candidates, m.gold_qid) == "easy"
    ]
    counts: dict[tuple[int, tuple[int, ...]], tuple[int, int]] = {}
    results: dict[float, float] = {}
    for f in fractions:
        draws = []
        for rep in range(repeats if f < 1.0 else 1):
            rng = np.random.default_rng([seed, int(round(f * 1000)), rep])
            kept_idx = rng.choice(len(easy_slots), size=round(f * len(easy_slots)), replace=False)
            dropped = set(easy_slots).difference(easy_slots[i] for i in kept_idx)
            keys = ((di, tuple(mi for mi in range(len(d.mentions)) if (di, mi) not in dropped))
                    for di, d in enumerate(docs))
            draws.append([key for key in keys if key[1]])
        new = [key for key in dict.fromkeys(chain(*draws)) if key not in counts]
        subsets = [replace(docs[di], mentions=[docs[di].mentions[mi] for mi in kept])
                   for di, kept in new]
        for key, result in zip(new, runner(subsets), strict=True):
            labeled = [o for o in result.mentions if o.bucket is not None]
            counts[key] = (len(labeled), sum(map(is_hit, labeled)))
        values = []
        for draw in draws:
            labeled = sum(counts[key][0] for key in draw)
            values.append(sum(counts[key][1] for key in draw) / labeled if labeled else 0.0)
        results[f] = float(np.mean(values))
    return results


CSV_HEADER = [
    "doc_id",
    "mention_idx",
    "surface",
    "gold_qid",
    "predicted_qid",
    "bucket",
    "rank_of_gold",
    "score",
]


def write_predictions(outcomes: Iterable[MentionOutcome], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for o in outcomes:
            writer.writerow(
                [
                    o.doc_id,
                    o.mention_idx,
                    o.surface,
                    o.gold_qid or "",
                    o.predicted_qid or "",
                    o.bucket or "",
                    o.rank_of_gold if o.rank_of_gold is not None else "",
                    "%.12g" % o.predicted_score if o.predicted_score is not None else "",
                ]
            )


def _field(value: str, name: str, line: int, parse: Callable, minimum: float) -> float:
    """``value`` parsed by ``parse`` if finite, >= minimum and spelled as ``write_predictions``
    spells it (ASCII; an int in canonical decimal; no whitespace or "_"); else a FormatError."""
    plain = value.isascii() and value == value.strip() and "_" not in value
    try:
        number = parse(value)
        canonical = parse is not int or value == str(number)
        if plain and canonical and math.isfinite(number) and number >= minimum:
            return number
    except (ValueError, OverflowError):  # OverflowError: an int too large for a float
        pass
    raise FormatError(f"line {line}: bad {name} {value!r}")


def read_predictions(path: str) -> list[MentionOutcome]:
    """Read a predictions CSV back; a malformed or repeated row names its CSV line."""
    outcomes: list[MentionOutcome] = []
    seen: set[tuple[str, int]] = set()
    with open(path, "rb") as fh:
        # Lines are decoded one at a time, so a bad byte names its line.
        reader = csv.reader(jsonl.decode(raw, line) for line, raw in enumerate(fh, 1))
        try:
            header = next(reader, None)
            if header != CSV_HEADER:
                raise FormatError(f"line 1: unexpected predictions header: {header}")
            for row in reader:
                line = reader.line_num
                if len(row) != len(CSV_HEADER):
                    raise FormatError(
                        f"line {line}: expected {len(CSV_HEADER)} fields, got {len(row)}"
                    )
                (doc_id, mention_idx, surface, gold, predicted, bucket, rank, score) = row
                idx = _field(mention_idx, "mention_idx", line, int, 0)
                rank_of_gold = _field(rank, "rank_of_gold", line, int, 1) if rank else None
                predicted_score = _field(score, "score", line, float, -math.inf) if score else None
                if bucket and bucket not in BUCKETS:
                    raise FormatError(f"line {line}: unknown bucket {bucket!r}")
                # Rows as write_predictions writes them: a labeled mention has
                # a bucket, and gold ranks first exactly when it is predicted.
                if bool(bucket) != bool(gold):
                    raise FormatError(f"line {line}: bucket and gold_qid must both be set or empty")
                if rank and not gold:
                    raise FormatError(f"line {line}: rank_of_gold without a gold_qid")
                if (rank_of_gold == 1) != (bool(gold) and predicted == gold):
                    raise FormatError(
                        f"line {line}: rank_of_gold is 1 exactly when predicted_qid is gold_qid"
                    )
                if (doc_id, idx) in seen:
                    raise IntegrityError(f"line {line}: repeated mention {doc_id!r} #{idx}")
                seen.add((doc_id, idx))
                outcomes.append(
                    MentionOutcome(
                        doc_id=doc_id,
                        mention_idx=idx,
                        surface=surface,
                        gold_qid=gold or None,
                        predicted_qid=predicted or None,
                        bucket=bucket or None,
                        rank_of_gold=rank_of_gold,
                        predicted_score=predicted_score,
                    )
                )
        except csv.Error as exc:  # e.g. a field over csv's size limit
            raise FormatError(f"line {reader.line_num}: {exc}") from exc
    return outcomes
