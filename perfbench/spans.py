"""In-memory spans around eigenlink's public functions, installed from outside src/.

Each wrapped call records a span (name, start, end, parent span) and,
for the loaders and the bootstrap, the growth of the process's peak RSS
across the call. Counts are read from the calls' arguments and results.
Nothing is written until ``layer_metrics`` is called after the run.

A function is replaced wherever an eigenlink module holds a reference to
it, so calls through ``from .x import f`` names are traced too. Targets
that no longer exist are reported as missing instead of failing the run.
"""

from __future__ import annotations

import inspect
import resource
import sys
import time
from collections import defaultdict

# (module, function, track peak-RSS growth)
TARGETS = (
    ("eigenlink.kg", "load_catalog", True),
    ("eigenlink.embeddings", "load_embeddings", True),
    ("eigenlink.index", "build_index", True),
    ("eigenlink.dataset", "load_dataset", False),
    ("eigenlink.dataset", "attach_candidates", False),
    ("eigenlink.weighting", "load_descriptions", False),
    ("eigenlink.weighting", "build_description_store", False),
    ("eigenlink.weighting", "mention_weights", False),
    ("eigenlink.eigenthemes", "link_document", False),
    ("eigenlink.eigenthemes", "build_document_matrix", False),
    ("eigenlink.eigenthemes", "score_candidate", False),
    ("eigenlink.linalg", "truncated_svd", False),
    ("eigenlink.linalg", "weighted_sscp", False),
    ("eigenlink.linalg", "symmetric_eigh", False),
    ("eigenlink.baselines", "link_document_avg", False),
    ("eigenlink.baselines", "avg_scores", False),
    ("eigenlink.pipeline", "run_documents", False),
    ("eigenlink.evaluation", "build_outcomes", False),
    ("eigenlink.evaluation", "metrics_report", False),
    ("eigenlink.evaluation", "score_gap", True),
    ("eigenlink.evaluation", "write_predictions", False),
    ("eigenlink.cli", "_write_json", False),
)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self, embeddings_path: str | None):
        self.embeddings_path = embeddings_path
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.rss_growth_mb: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.candidate_union: set[str] = set()
        self.entity_store = None
        self.missing: list[str] = []
        self.resamples_default = 0

    def install(self) -> None:
        """Wrap every target in every loaded eigenlink module."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "eigenlink"]
        for module_name, func_name, track_rss in TARGETS:
            module = sys.modules.get(module_name)
            original = getattr(module, func_name, None) if module else None
            if not callable(original):
                self.missing.append(f"{module_name}.{func_name}")
                continue
            name = f"{module_name.rsplit('.', 1)[-1]}.{func_name}"
            if func_name == "score_gap":
                param = inspect.signature(original).parameters.get("resamples")
                self.resamples_default = param.default if param is not None else 0
            wrapped = self._wrap(name, original, track_rss)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)

    def _wrap(self, name, fn, track_rss):
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
            self.stack.append(index)
            rss_before = _maxrss_mb() if track_rss else 0.0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[index][1] = start
                self.spans[index][2] = end
            if track_rss:
                self.rss_growth_mb[name] += _maxrss_mb() - rss_before
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    # Count observers, named after the span they read.

    def _observe_kg_load_catalog(self, args, kwargs, catalog):
        self.counts["kg.entities"] += catalog.count

    def _observe_embeddings_load_embeddings(self, args, kwargs, store):
        path = args[0] if args else kwargs.get("path")
        if path == self.embeddings_path:
            self.entity_store = store
            self.counts["embeddings.rows"] += len(store)

    def _observe_index_build_index(self, args, kwargs, index):
        self.counts["index.tokens"] += index.vocabulary_size

    def _observe_dataset_load_dataset(self, args, kwargs, docs):
        self.counts["dataset.documents"] += len(docs)
        self.counts["dataset.mentions"] += sum(len(d.mentions) for d in docs)

    def _observe_dataset_attach_candidates(self, args, kwargs, doc):
        for mention in doc.mentions:
            cands = mention.candidates.candidates
            self.counts["index.candidates"] += len(cands)
            self.counts["index.truncated_lists"] += bool(mention.candidates.truncated)
            self.counts["index.empty_lists"] += not cands
            self.candidate_union.update(cands)

    def _observe_eigenthemes_build_document_matrix(self, args, kwargs, dm):
        self.counts["eigenthemes.document_matrix_rows"] += dm.matrix.shape[0]

    def _observe_pipeline_run_documents(self, args, kwargs, results):
        self.counts["pipeline.fallback_mentions"] += sum(
            1 for r in results for m in r.mentions if m.fallback is not None
        )

    def _observe_evaluation_score_gap(self, args, kwargs, report):
        if report is not None:
            resamples = kwargs.get("resamples", args[1] if len(args) > 1 else self.resamples_default)
            self.counts["evaluation.bootstrap_elements"] += resamples * report.n_mentions

    def totals(self) -> tuple[dict, dict, dict, float]:
        """Per-name inclusive time, self time and call count, plus top-level time."""
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        top_level = 0.0
        for name, start, end, parent in self.spans:
            duration = end - start
            inclusive[name] += duration
            own[name] += duration
            calls[name] += 1
            if parent >= 0:
                own[self.spans[parent][0]] -= duration
            else:
                top_level += duration
        return inclusive, own, calls, top_level

    def layer_metrics(self, traced_total_s: float) -> tuple[dict, list[str]]:
        """Per-layer metric values and the names whose layer was never called."""
        inclusive, own, calls, top_level = self.totals()
        used_rows = 0
        if self.entity_store is not None:
            used_rows = sum(1 for qid in self.candidate_union if qid in self.entity_store)
        rows = self.counts["embeddings.rows"]
        values = {
            "kg.load_catalog_s": inclusive["kg.load_catalog"],
            "kg.entities": self.counts["kg.entities"],
            "kg.rss_growth_mb": self.rss_growth_mb["kg.load_catalog"],
            "embeddings.load_s": inclusive["embeddings.load_embeddings"],
            "embeddings.rows": rows,
            "embeddings.rows_used_ratio": used_rows / rows if rows else 0.0,
            "embeddings.rss_growth_mb": self.rss_growth_mb["embeddings.load_embeddings"],
            "index.build_s": inclusive["index.build_index"],
            "index.tokens": self.counts["index.tokens"],
            "index.rss_growth_mb": self.rss_growth_mb["index.build_index"],
            "index.candidates_s": own["dataset.attach_candidates"],
            "index.candidates": self.counts["index.candidates"],
            "index.truncated_lists": self.counts["index.truncated_lists"],
            "index.empty_lists": self.counts["index.empty_lists"],
            "dataset.load_s": inclusive["dataset.load_dataset"],
            "dataset.documents": self.counts["dataset.documents"],
            "dataset.mentions": self.counts["dataset.mentions"],
            "weighting.mention_weights_s": inclusive["weighting.mention_weights"],
            "weighting.mention_weights_calls": calls["weighting.mention_weights"],
            "weighting.description_store_s": inclusive["weighting.build_description_store"],
            "eigenthemes.document_matrix_s": own["eigenthemes.build_document_matrix"],
            "eigenthemes.document_matrix_rows": self.counts["eigenthemes.document_matrix_rows"],
            "eigenthemes.score_s": inclusive["eigenthemes.score_candidate"],
            "eigenthemes.score_calls": calls["eigenthemes.score_candidate"],
            "eigenthemes.link_document_s": own["eigenthemes.link_document"],
            "linalg.truncated_svd_s": inclusive["linalg.truncated_svd"],
            "linalg.symmetric_eigh_s": inclusive["linalg.symmetric_eigh"],
            "linalg.weighted_sscp_s": inclusive["linalg.weighted_sscp"],
            "linalg.truncated_svd_calls": calls["linalg.truncated_svd"],
            "baselines.avg_scores_s": inclusive["baselines.avg_scores"],
            "baselines.avg_scores_calls": calls["baselines.avg_scores"],
            "baselines.link_document_avg_s": own["baselines.link_document_avg"],
            "pipeline.run_documents_s": inclusive["pipeline.run_documents"],
            "pipeline.fallback_mentions": self.counts["pipeline.fallback_mentions"],
            "evaluation.build_outcomes_s": inclusive["evaluation.build_outcomes"],
            "evaluation.score_gap_s": inclusive["evaluation.score_gap"],
            "evaluation.score_gap_rss_growth_mb": self.rss_growth_mb["evaluation.score_gap"],
            "evaluation.bootstrap_elements": self.counts["evaluation.bootstrap_elements"],
            "evaluation.write_s": (
                inclusive["evaluation.write_predictions"] + inclusive["cli._write_json"]
            ),
            "trace.traced_total_s": traced_total_s,
            "trace.top_level_s": top_level,
            "trace.top_level_share": top_level / traced_total_s if traced_total_s else 0.0,
        }
        # A metric is not applicable when no span of its layer ran.
        source = {
            "weighting.description_store_s": "weighting.build_description_store",
            "eigenthemes.document_matrix_s": "eigenthemes.build_document_matrix",
            "eigenthemes.document_matrix_rows": "eigenthemes.build_document_matrix",
            "eigenthemes.score_s": "eigenthemes.score_candidate",
            "eigenthemes.score_calls": "eigenthemes.score_candidate",
            "eigenthemes.link_document_s": "eigenthemes.link_document",
            "linalg.truncated_svd_s": "linalg.truncated_svd",
            "linalg.symmetric_eigh_s": "linalg.symmetric_eigh",
            "linalg.weighted_sscp_s": "linalg.weighted_sscp",
            "linalg.truncated_svd_calls": "linalg.truncated_svd",
            "baselines.avg_scores_s": "baselines.avg_scores",
            "baselines.avg_scores_calls": "baselines.avg_scores",
            "baselines.link_document_avg_s": "baselines.link_document_avg",
        }
        not_applicable = sorted(m for m, span in source.items() if calls[span] == 0)
        return values, not_applicable
