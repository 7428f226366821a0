"""Steadiness self-check: do two sets of benchmark runs agree within the bounds?

    python3 perfbench/steady.py [--seeds 1-10] [--workloads a,b]

Run from the root of a checkout. Each of the two sets runs
perfbench/run.py once per workload and seed with tracing off. The sets
take turns seed by seed, in alternating order, so that a slow drift of
the machine's speed over the check falls on both sets alike instead of
showing as a difference between them. For every end-to-end metric and
workload it reports each set's median and spread (quartile distance over
the median, as statistics.quantiles gives them), and whether the two
medians differ, in either direction, by at most the metric's bound from
BENCHMARK.json. The table goes to stdout and the raw results to
.perfbench-work/steady.json; the exit code is 1 when the medians
disagree, a spread exceeds its bound, or a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()
SETS = 2
RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive seed range, e.g. 1-10")
    parser.add_argument("--workloads", help="comma-separated; default every workload")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = seed_range(args.seeds)

    # results[set][workload][metric] -> values over seeds
    results = [{w: {} for w in workloads} for _ in range(SETS)]
    failed = 0
    for i, seed in enumerate(seeds):
        order = range(SETS) if i % 2 == 0 else reversed(range(SETS))
        for s in order:
            for workload in workloads:
                cmd = [
                    sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", "0",
                ]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"set {s} seed {seed} {workload}: exit {proc.returncode}", flush=True)
                    failed += 1
                    continue
                result = json.loads(lines[-1])
                failed += result["failed"]
                for name, metric in result["metrics"].items():
                    results[s][workload].setdefault(name, []).append(metric["value"])
                print(f"set {s} seed {seed} {workload}: " + " ".join(
                    f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    ok = failed == 0
    print(f"\n{'workload':16} {'metric':15} {'bound':>5}  per set: median spread  -> verdict")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = [r[workload].get(name, []) for r in results]
            if any(len(v) < 2 for v in sets):
                ok = False
                print(f"{workload:16} {name:15} too few results")
                continue
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            agree = abs(medians[1] - medians[0]) / medians[0] <= bound
            wide = max(spreads) > bound
            steady = max(spreads) < bound / 3
            ok = ok and agree and not wide
            cells = "  ".join(f"{m:.4g} {sp:.3f}" for m, sp in zip(medians, spreads))
            verdict = ("agree" if agree else "DISAGREE") + (", spread > bound" if wide else "")
            verdict += "" if steady else ", spread >= bound/3"
            print(f"{workload:16} {name:15} {bound:5.2f}  {cells}  -> {verdict}")
    os.makedirs(os.path.join(ROOT, ".perfbench-work"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench-work", "steady.json"), "w", encoding="utf-8") as fh:
        json.dump({"seeds": seeds, "failed": failed, "results": results}, fh, indent=1)
    print(f"failed runs: {failed}; {'steady' if ok else 'NOT steady'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
