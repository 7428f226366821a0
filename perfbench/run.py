"""Benchmark ``eigenlink link`` end to end (--trace 0) or layer by layer (--trace 1).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.
The workload's corpus is generated from the seed once, outside the timed
region, and kept under .perfbench-work/. One untimed warm-up link run is
discarded, then fresh single-process link runs repeat for about S
seconds (at least three). Every run passes a quality gate: its P@1, MRR
and bucket counts must equal the planted bucket counts, the other runs
of this invocation and, for a seed listed in perfbench/expected.json, the
recorded values.

Earlier stdout lines hold the run's context, gate values and samples;
the last line is the JSON result with the medians of the metrics that
BENCHMARK.json names for the chosen --trace mode. End-to-end times are
rescaled to a fixed machine speed (see "Noise" in perfbench/README.md).
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, corpus_key

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
EXPECTED = os.path.join(HERE, "expected.json")
MIN_RUNS = 3
# Keeps one invocation well inside three minutes even on a slow machine.
CHILD_TIMEOUT_S = 120
TIMED_CAP_S = 100
# End-to-end times are rescaled to a machine on which child.py's
# reference loop takes this long (see "Noise" in README.md).
REFERENCE_LOOP_S = 1.5e-3
# A program that slows its own interpreter within a phase (a helper
# thread holding the GIL, a heap that evicts the loop from the caches)
# slows the ticks timed inside main but not the bursts at the phases'
# edges, and rescaling by the ticks would divide that slowdown out. When
# the ticks' median over the bursts' median, per run and then as the
# median over the runs, is off 1 by more than this, the bursts alone
# give the speed. On unchanged code that median reads 0.95-1.15.
TICK_BURST_LIMIT = 0.15
GATE_KEYS = ("precision_at_1", "mrr", "counts")


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=SRC,
    )
    return env


def load_json(path: str) -> dict | None:
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def ensure_corpus(name: str, seed: int, env: dict) -> tuple[str, dict]:
    """Generate the workload's corpus for this seed unless it is already on disk."""
    corpora = os.path.join(WORK, "corpora")
    target = os.path.join(corpora, f"{name}-s{seed}")
    meta = os.path.join(target, "corpus.json")
    corpus = load_json(meta)
    if corpus is None or corpus.get("key") != corpus_key(SRC, name, seed):
        # Keep one corpus per workload: the large one is about 90 MB.
        for old in glob.glob(os.path.join(corpora, f"{name}-s*")):
            shutil.rmtree(old, ignore_errors=True)
        cmd = [
            sys.executable, os.path.join(HERE, "workloads.py"), "--src", SRC,
            "--workload", name, "--seed", str(seed), "--out", target,
        ]
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S)
        corpus = load_json(meta)
    return target, corpus


def link_argv(name: str, corpus_dir: str, corpus: dict, out: str) -> list[str]:
    argv = ["link", *WORKLOADS[name]["link"], "--jobs", "1", "--out", out]
    for flag, filename in sorted(corpus["files"].items()):
        argv += [f"--{flag}", os.path.join(corpus_dir, filename)]
    return argv


def link_once(argv: list[str], out: str, env: dict, traced: bool) -> dict:
    """One fresh-process link run; 'error' is set when it cannot be used."""
    result_path = os.path.join(WORK, "child.json")
    for stale in (result_path, os.path.join(out, "metrics.json")):
        if os.path.exists(stale):
            os.remove(stale)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--src", SRC, "--result", result_path]
    cmd += (["--trace"] if traced else []) + ["--", *argv]
    run: dict = {"traced": traced}
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        run["error"] = f"timed out after {CHILD_TIMEOUT_S} s"
        return run
    finally:
        run["wall_s"] = time.perf_counter() - start
    if proc.returncode != 0 or not os.path.isfile(result_path):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        run["error"] = f"child exited {proc.returncode}: {tail[0]}"
        return run
    with open(result_path, encoding="utf-8") as fh:
        run.update(json.load(fh))
    if run["rc"] != 0:
        run["error"] = f"eigenlink exited {run['rc']}: {proc.stderr.strip()[-200:]}"
    elif run["hook_calls"] == 0:
        run["error"] = "the run_documents hook never fired"
    else:
        with open(os.path.join(out, "metrics.json"), encoding="utf-8") as fh:
            metrics = json.load(fh)
        run["gate"] = {key: metrics[key] for key in GATE_KEYS}
    return run


def gate_mismatches(got: dict, want: dict, prefix: str = "") -> list[str]:
    """Keys whose values differ; floats agree to 1e-12, which any change of a rank breaks."""
    diffs = []
    for key in sorted(set(got) | set(want)):
        a, b = got.get(key), want.get(key)
        path = prefix + key
        if isinstance(a, dict) and isinstance(b, dict):
            diffs += gate_mismatches(a, b, path + ".")
        elif not (
            isinstance(a, (int, float))
            and isinstance(b, (int, float))
            and math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)
        ):
            diffs.append(f"{path}: {a} != {b}")
    return diffs


def check(run: dict, corpus: dict, reference: dict | None) -> None:
    """Apply the quality gate; a failing run gets an 'error'."""
    if "error" in run:
        return
    diffs = gate_mismatches(run["gate"]["counts"], corpus["counts"], "planted counts ")
    if reference is not None:
        diffs += gate_mismatches(run["gate"], reference)
    if diffs:
        run["error"] = "quality gate: " + "; ".join(diffs[:4])


def quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "q1": q[0], "median": q[1], "q3": q[2],
            "values": [float(f"{v:.6g}") for v in values]}


def src_lines() -> int:
    total = 0
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def emit(label: str, obj) -> None:
    print(label, json.dumps(obj, sort_keys=True), flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "eigenlink", "cli.py")):
        print(f"error: no eigenlink sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    name = args.workload
    env = pinned_env()
    os.makedirs(WORK, exist_ok=True)
    corpus_dir, corpus = ensure_corpus(name, args.seed, env)
    out = os.path.join(WORK, "out", name)
    argv = link_argv(name, corpus_dir, corpus, out)

    recorded = load_json(EXPECTED).get(name, {}).get(str(args.seed))

    # The warm-up run fills the page and bytecode caches; its timings are
    # discarded but it passes the gate like any other run.
    runs = [link_once(argv, out, env, traced=False)]
    reference = recorded or runs[0].get("gate")
    check(runs[0], corpus, reference)
    start = time.perf_counter()
    timed: list[dict] = []
    while True:
        run = link_once(argv, out, env, traced=bool(args.trace) and len(timed) % 2 == 1)
        check(run, corpus, reference)
        runs.append(run)
        timed.append(run)
        if reference is None:
            reference = run.get("gate")
        # Start another run while it would end at most half a run late.
        elapsed = time.perf_counter() - start
        next_s = statistics.median(r["wall_s"] for r in timed)
        if len(timed) >= MIN_RUNS and elapsed + next_s / 2 > args.seconds:
            break
        if elapsed + next_s > TIMED_CAP_S:
            break

    failures = [r["error"] for r in runs if "error" in r]
    plain = [r for r in timed if "error" not in r and not r["traced"]]
    traced = [r for r in timed if "error" not in r and r["traced"]]
    if not plain or (args.trace and not traced):
        print(f"error: no usable link run; failures: {failures}", file=sys.stderr)
        return 1

    tick_over_burst = [r["tick_over_burst"] for r in plain if r["tick_over_burst"]]
    speed = "loop"
    if tick_over_burst and abs(statistics.median(tick_over_burst) - 1.0) > TICK_BURST_LIMIT:
        speed = "burst"

    def rescaled(r: dict) -> tuple[float, float]:
        return (r["setup_s"] * REFERENCE_LOOP_S / r[f"setup_{speed}_s"],
                r["link_s"] * REFERENCE_LOOP_S / r[f"link_{speed}_s"])

    times = [rescaled(r) for r in plain]
    samples = {
        "setup_s": [setup for setup, _ in times],
        "link_s": [link for _, link in times],
        "mentions_per_s": [corpus["mentions"] / (setup + link) for setup, link in times],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    wall = {key: [r[key] for r in plain]
            for key in ("setup_s", "link_s", "setup_loop_s", "link_loop_s", "setup_burst_s",
                        "link_burst_s")}
    emit("context", {
        "workload": name,
        "why": WORKLOADS[name]["why"],
        "seed": args.seed,
        "synth": corpus["synth"],
        "documents": corpus["documents"],
        "mentions": corpus["mentions"],
        "entities": corpus["entities"],
        "link_argv": [os.path.relpath(a, ROOT) if a.startswith(ROOT) else a for a in argv],
        "src_lines": src_lines(),
        "nproc": os.cpu_count(),
        **plain[0]["versions"],
        "seconds": args.seconds,
    })
    emit("gate", {"values": plain[0]["gate"], "recorded_seed": recorded is not None})
    emit("samples", {key: quartiles(values) for key, values in samples.items()})
    emit("wall", {key: quartiles(values) for key, values in wall.items()})
    emit("speed", {"from": speed, "tick_over_burst": tick_over_burst,
                   "tick_burst_limit": TICK_BURST_LIMIT})
    if failures:
        emit("failures", failures)

    values = {key: statistics.median(vals) for key, vals in samples.items()}
    if args.trace:
        layers = {key: statistics.median(r["layers"][key] for r in traced) for key in traced[0]["layers"]}

        untraced_total = statistics.median(sum(rescaled(r)) for r in plain)
        traced_total = statistics.median(sum(rescaled(r)) for r in traced)
        layers["trace.overhead_s"] = traced_total - untraced_total
        layers["trace.overhead_ratio"] = (traced_total - untraced_total) / untraced_total
        emit("layers", {
            "traced_runs": len(traced),
            "untraced_runs": len(plain),
            "untraced_total_rescaled_s": untraced_total,
            "traced_total_rescaled_s": traced_total,
            "top_level_s": layers["trace.top_level_s"],
            "unattributed_s": layers["trace.traced_total_s"] - layers["trace.top_level_s"],
            "not_applicable": traced[0]["not_applicable"],
            "missing_targets": traced[0]["missing"],
        })
        values = layers

    if set(values) != set(wanted):
        print(f"error: metrics {sorted(set(values) ^ set(wanted))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 1

    print(json.dumps({
        "correct": not failures,
        "attempted": len(runs),
        "failed": len(failures),
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
