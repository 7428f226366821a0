"""Command-line entry points: synth, link, eval, mutilate.

Every output artifact embeds the full run configuration, the seed and a
format version. Exit codes: 0 success, 2 I/O failure, 3 file format
failure, 4 configuration contradiction, 1 anything else.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import logging
import os
import sys
from typing import get_type_hints

from . import jsonl
from .dataset import DocumentTask, attach_candidates, load_dataset
from .embeddings import load_embeddings
from .errors import (
    ConfigError,
    DataError,
    EigenlinkError,
    FormatError,
    IntegrityError,
)
from .evaluation import (
    check_fractions,
    metrics_report,
    mutilation,
    read_predictions,
    score_gap,
    write_predictions,
)
from .index import candidate_lists
from .kg import catalog_lines
from .pipeline import METHODS, LinkContext, RunConfig, run_documents
from .synth import SynthConfig, generate
from .weighting import WEIGHT_KINDS, build_description_store, load_descriptions, require_tokens

log = logging.getLogger("eigenlink")

METRICS_FORMAT = "eigenlink-metrics"
MUTILATION_FORMAT = "eigenlink-mutilation"
FORMAT_VERSION = 1

# --config-file keys and their types: every RunConfig field but the method.
_FILE_TYPES = {name: kind for name, kind in get_type_hints(RunConfig).items() if name != "method"}

_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _parse_bool(raw: str) -> bool:
    if raw.lower() not in _BOOLS:
        raise ValueError(raw)
    return _BOOLS[raw.lower()]


# synth --config parsers by SynthConfig field type; `int | None` parses as int.
_SYNTH_FIELD_PARSERS = {
    name: {bool: _parse_bool, float: float}.get(kind, int)
    for name, kind in get_type_hints(SynthConfig).items()
}


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", required=True, help="dataset JSONL file")
    parser.add_argument("--catalog", required=True, help="entity catalog JSONL file")
    parser.add_argument("--embeddings", help="entity embedding file")
    parser.add_argument("--words", help="word embedding file (context methods)")
    parser.add_argument("--descriptions", help="entity descriptions JSONL (context methods)")
    parser.add_argument("--edges", help="edge list TSV to fill in missing degrees")
    parser.add_argument("--T", type=int, default=None, help="max candidates per mention")
    parser.add_argument("--k", type=int, default=None, help="subspace components")
    parser.add_argument("--delta", type=float, default=None, help="rank weight decay")
    parser.add_argument("--weighting", choices=WEIGHT_KINDS, default=None)
    parser.add_argument("--window", type=int, default=None, help="local context window")
    parser.add_argument("--seed", type=int, default=None, help="root random seed")
    parser.add_argument("--jobs", type=int, default=None, help="parallel documents")
    parser.add_argument(
        "--unscaled",
        action="store_const",
        const=True,
        default=None,
        help="score by plain projection norm, without strength rescaling",
    )
    parser.add_argument("--config-file", help="JSON file with defaults for the flags above")
    parser.add_argument("--out", required=True, help="output directory")


def _read_config_file(path: str) -> dict:
    """The file's JSON object, each value checked against its RunConfig field type."""
    with open(path, "rb") as fh:
        try:
            file_cfg = jsonl.parse(fh.read(), pairs_hook=jsonl.unique_keys)
        except jsonl.RepeatedKeyError as exc:
            raise ConfigError(f"config-file key {exc.key!r} is given twice") from None
    if not isinstance(file_cfg, dict):
        raise FormatError("config file must hold a JSON object")
    unknown = set(file_cfg) - set(_FILE_TYPES)
    if unknown:
        raise ConfigError(f"unknown config-file keys: {sorted(unknown)}")
    for key, value in file_cfg.items():
        kind = _FILE_TYPES[key]
        if kind is float and type(value) is int:
            try:
                file_cfg[key] = float(value)
            except OverflowError:
                raise ConfigError(f"config-file key {key!r} is too large for a float") from None
        elif type(value) is not kind:
            raise ConfigError(
                f"config-file key {key!r} must be {kind.__name__}, got {json.dumps(value)}"
            )
    return file_cfg


def _load_context(args, methods: list[str]) -> tuple[list[LinkContext], list[DocumentTask]]:
    """One context per method, over one load of the inputs, and the documents with candidates.

    Each method's RunConfig comes first: flags win over the config file,
    which is read once, and the file over RunConfig's defaults. The
    settings and the inputs each run needs are checked before anything
    is loaded. The configs differ only in their method, so they share
    ``T``. The dataset comes next, then one pass over the catalog
    collects its mentions' candidates, with their degrees when one of
    the methods is degree, and their name matches when one is namematch.
    That pass keeps no catalog line. The stores load last, and only
    those that one of the runs reads (``RunConfig.inputs``): a file
    given for no run is not opened. They keep only the candidates'
    entity embeddings and descriptions, keyed by the candidate lists'
    own qid strings; the contexts share them. When a run reads contexts,
    every document must carry ``tokens``.

    Its callers freeze every object made so far out of the cyclic garbage
    collector (``gc.freeze``) as soon as it returns, so that collections
    while linking do not walk the documents, lists and stores; ``main``
    unfreezes them.
    """
    values = _read_config_file(args.config_file) if args.config_file else {}
    flags = {**vars(args), "rescale": False if args.unscaled else None}
    values.update({name: flags[name] for name in _FILE_TYPES if flags[name] is not None})
    cfgs = [RunConfig(**{**values, "method": method}) for method in methods]
    for cfg in cfgs:
        cfg.validate()
        cfg.check_inputs({name for name in ("embeddings", "words", "descriptions") if flags[name]})
    docs = load_dataset(args.dataset)
    surfaces = {m.surface for doc in docs for m in doc.mentions}
    lists, name_matches = candidate_lists(
        catalog_lines(args.catalog, args.edges),
        surfaces,
        cfgs[0].T,
        names="namematch" in methods,
        degrees="degree" in methods,
    )
    docs = [attach_candidates(doc, lists, name_matches) for doc in docs]
    # A dict of 20k keys takes a third of a set's memory, and its values
    # let the stores share the lists' qid strings.
    union = {qid: qid for candidates in lists.values() for qid in candidates.candidates}
    reads = frozenset().union(*(c.inputs() for c in cfgs))
    store = load_embeddings(args.embeddings, union) if "embeddings" in reads else None
    word_store = desc_store = None
    if "words" in reads:  # with "descriptions": a run reads both or neither
        word_store = load_embeddings(args.words)
        descriptions = load_descriptions(args.descriptions, union)
        desc_store = build_description_store(descriptions, word_store)
        for doc in docs:
            require_tokens(doc)
    ctxs = [LinkContext(cfg, store, word_store, desc_store) for cfg in cfgs]
    return ctxs, docs


def _echo_config(cfg: RunConfig, args) -> dict:
    echo = dataclasses.asdict(cfg)
    # jobs only controls scheduling, never results; leaving it out keeps
    # artifacts byte-identical across parallelism settings.
    echo.pop("jobs", None)
    for key in ("dataset", "catalog", "embeddings", "words", "descriptions", "edges"):
        value = getattr(args, key, None)
        if value:
            echo[key] = value
    return echo


def _write_json(obj: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_synth(args) -> int:
    cfg_values: dict = {}
    for item in args.config or []:
        for pair in item.split(","):
            pair = pair.strip()
            if not pair:
                continue
            if "=" not in pair:
                raise ConfigError(f"--config entries must be key=value, got {pair!r}")
            key, _, raw = pair.partition("=")
            key = key.strip()
            parser_fn = _SYNTH_FIELD_PARSERS.get(key)
            if parser_fn is None:
                raise ConfigError(f"unknown synth config key {key!r}")
            if key in cfg_values:
                raise ConfigError(f"synth config key {key!r} is given twice")
            try:
                cfg_values[key] = parser_fn(raw.strip())
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc
    cfg = SynthConfig(**cfg_values)
    manifest = generate(cfg, args.out)
    n_mentions = sum(len(d["mentions"]) for d in manifest["documents"])
    print(f"generated {len(manifest['documents'])} documents, {n_mentions} mentions -> {args.out}")
    return 0


def cmd_link(args) -> int:
    (ctx,), docs = _load_context(args, [args.method])
    gc.freeze()
    cfg = ctx.config
    results = run_documents(docs, ctx)
    effective = [r.effective_k for r in results if r.effective_k is not None]
    n_documents = len(results)
    outcomes = [o for r in results for o in r.mentions]
    # Nothing below reads the documents or the stores; freeing them keeps
    # them out of the memory held through evaluation.
    del results, ctx, docs
    report = metrics_report(outcomes)
    if report.counts["unlabeled"]:
        log.info("excluded %d mentions without gold annotation", report.counts["unlabeled"])
    gap = score_gap(outcomes, seed=cfg.seed)

    os.makedirs(args.out, exist_ok=True)
    write_predictions(outcomes, os.path.join(args.out, "predictions.csv"))
    metrics = {
        "format": METRICS_FORMAT,
        "version": FORMAT_VERSION,
        "config": _echo_config(cfg, args),
        "seed": cfg.seed,
        **dataclasses.asdict(report),
        "score_gap": dataclasses.asdict(gap) if gap else None,
        "effective_k": {"min": min(effective), "max": max(effective)} if effective else None,
        "documents": n_documents,
    }
    _write_json(metrics, os.path.join(args.out, "metrics.json"))
    p1 = report.precision_at_1
    print(
        f"{cfg.method}: P@1 overall={p1['overall']:.3f} easy={p1['easy']:.3f} "
        f"hard={p1['hard']:.3f} mrr={report.mrr['overall']:.3f} "
        f"({report.counts['total']} mentions)"
    )
    return 0


def cmd_eval(args) -> int:
    outcomes = read_predictions(args.predictions)
    report = metrics_report(outcomes)
    os.makedirs(args.out, exist_ok=True)
    metrics = {
        "format": METRICS_FORMAT,
        "version": FORMAT_VERSION,
        "config": {"predictions": args.predictions},
        "seed": None,
        **dataclasses.asdict(report),
    }
    _write_json(metrics, os.path.join(args.out, "metrics.json"))
    print(
        f"recomputed: P@1 overall={report.precision_at_1['overall']:.3f} "
        f"mrr={report.mrr['overall']:.3f} ({report.counts['total']} mentions)"
    )
    return 0


def cmd_mutilate(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise ConfigError("need at least one method")
    for i, method in enumerate(methods):
        if method not in METHODS:
            raise ConfigError(f"unknown method {method!r}")
        if method in methods[:i]:
            raise ConfigError(f"method {method!r} is listed twice")
    try:
        fractions = [float(f) for f in args.fractions.split(",") if f.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad fractions list: {args.fractions!r}") from exc
    if not fractions:
        raise ConfigError("need at least one fraction")
    try:
        check_fractions(fractions)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if args.repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {args.repeats}")

    ctxs, docs = _load_context(args, methods)
    gc.freeze()
    base_cfg = ctxs[0].config
    curves = {}
    for ctx in ctxs:
        runner = lambda subset: run_documents(subset, ctx)  # called only in this iteration
        by_fraction = mutilation(docs, runner, fractions, seed=base_cfg.seed, repeats=args.repeats)
        curves[ctx.config.method] = [by_fraction[f] for f in fractions]

    config = {**_echo_config(base_cfg, args), "methods": methods, "repeats": args.repeats}
    del config["method"]  # the run's methods are listed under "methods"
    os.makedirs(args.out, exist_ok=True)
    payload = {
        "format": MUTILATION_FORMAT,
        "version": FORMAT_VERSION,
        "config": config,
        "seed": base_cfg.seed,
        "fractions": fractions,
        "p1_overall": curves,
    }
    _write_json(payload, os.path.join(args.out, "mutilation.json"))
    for method in methods:
        rendered = ", ".join(f"{f:g}:{v:.3f}" for f, v in zip(fractions, curves[method]))
        print(f"{method}: {rendered}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a bad or missing flag as a configuration error, which exits 4."""

    def error(self, message: str):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="eigenlink",
        description="Unsupervised entity linking over per-document low-rank subspaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a seeded synthetic corpus")
    p_synth.add_argument(
        "--config",
        action="append",
        metavar="KEY=VALUE",
        help="synthesis parameter, repeatable or comma-separated",
    )
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.set_defaults(func=cmd_synth)

    p_link = sub.add_parser("link", help="link a dataset and write predictions + metrics")
    p_link.add_argument("--method", choices=METHODS, default="eigen")
    _add_run_flags(p_link)
    p_link.set_defaults(func=cmd_link)

    p_eval = sub.add_parser("eval", help="recompute metrics from a predictions CSV")
    p_eval.add_argument("--predictions", required=True)
    p_eval.add_argument("--out", required=True)
    p_eval.set_defaults(func=cmd_eval)

    p_mut = sub.add_parser("mutilate", help="easy-mention subsampling analysis")
    p_mut.add_argument("--methods", default="eigen,avg,degree", help="comma-separated methods")
    p_mut.add_argument(
        "--fractions",
        default="1.0,0.9,0.8,0.7,0.6,0.5,0.4,0.3,0.2,0.1,0.0",
        help="comma-separated easy fractions to keep",
    )
    p_mut.add_argument("--repeats", type=int, default=10)
    _add_run_flags(p_mut)
    p_mut.set_defaults(func=cmd_mutilate)

    return parser


def main(argv=None) -> int:
    """Run one command; the objects ``_load_context`` froze are unfrozen when it ends."""
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (FormatError, IntegrityError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EigenlinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        gc.unfreeze()


if __name__ == "__main__":
    sys.exit(main())
