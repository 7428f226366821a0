"""Run one ``eigenlink link`` in this fresh process and write its timings as JSON.

    python3 perfbench/child.py --src SRC --result FILE [--trace] -- link ARGS...

setup_s runs from entering ``eigenlink.cli.main`` to its first call into
``run_documents``, taken from a hook on the ``run_documents`` name that
``eigenlink.cli`` uses; link_s runs from that call until ``main`` returns.
A run whose hook never fires reports no timings, and the caller counts it
as failed.

So that the caller can rescale each phase's wall time to a fixed machine
speed, a fixed pure-Python loop is timed in bursts of a few calls just
before ``main``, at the hook and just after ``main``, and, without
--trace, from a SIGALRM timer every 50 ms while ``main`` runs (ticks).
The loop's own time is taken out of setup_s and link_s. Each phase gets
the median loop time of the bursts at its edges with and without the
ticks inside it, and the run the median tick time over the median burst
time, which shows whether the program slows the loop within a phase.
With --trace, no timer runs; spans around each layer's public functions
are kept in memory and their per-layer metrics are added to the result.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import statistics
import sys
import time

REFERENCE_ITERATIONS = 20_000
REFERENCE_PERIOD_S = 0.05
REFERENCE_BURST = 5


def _reference_loop() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


class SpeedProbe:
    """Times the reference loop at a phase's edges and, by timer, within it.

    The machine this runs on changes speed by up to half over seconds to
    minutes; the loop, timed in the same process at the same moments,
    measures that speed next to the run. Each loop time is that of a
    second call right after a first one, so that caches the program left
    cold do not count, and a burst's median drops a slow outlier.
    """

    def __init__(self) -> None:
        self.bursts: list[list[float]] = []
        self.ticks: list[float] = []
        self.busy_s = 0.0  # loop time spent inside main

    @staticmethod
    def _warm_loop() -> tuple[float, float]:
        """(time of a warm loop, time of both loops)"""
        cold = _reference_loop()
        warm = _reference_loop()
        return warm, cold + warm

    def _tick(self, signum, frame) -> None:
        warm, spent = self._warm_loop()
        self.ticks.append(warm)
        self.busy_s += spent

    def burst(self) -> None:
        # A tick inside a burst would count its loop time twice.
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        start = time.perf_counter()
        self.bursts.append([self._warm_loop()[0] for _ in range(REFERENCE_BURST)])
        self.busy_s += time.perf_counter() - start
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def start_timer(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_PERIOD_S, REFERENCE_PERIOD_S)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _versions() -> dict:
    import numpy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {"python": sys.version.split()[0], "numpy": numpy.__version__, "blas": blas}


def _option(argv: list[str], flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def main() -> int:
    split = sys.argv.index("--")
    opts, argv = sys.argv[1:split], sys.argv[split + 1 :]
    src = os.path.abspath(_option(opts, "--src"))
    result_path = _option(opts, "--result")
    sys.path.insert(0, src)
    import eigenlink.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"eigenlink imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if "--trace" in opts:
        from spans import Tracer

        tracer = Tracer(_option(argv, "--embeddings"))
        tracer.install()

    probe = SpeedProbe()
    marks: list[tuple[float, float, int]] = []  # (time, loop time, ticks) at run_documents
    linked = cli.run_documents

    def hook(*args, **kwargs):
        if not marks:
            probe.burst()
        marks.append((time.perf_counter(), probe.busy_s, len(probe.ticks)))
        return linked(*args, **kwargs)

    cli.run_documents = hook
    probe.burst()
    # Timer samples would land inside the spans of a traced run.
    if tracer is None:
        probe.start_timer()
    busy_at_start = probe.busy_s
    start = time.perf_counter()
    try:
        rc = cli.main(argv)
    finally:
        probe.stop_timer()
        end = time.perf_counter()
        busy_at_end = probe.busy_s
        probe.burst()

    result = {
        "rc": rc,
        "hook_calls": len(marks),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": _versions(),
    }
    if marks:
        mark, busy_at_mark, ticks_at_mark = marks[0]
        first, middle, last = probe.bursts
        result["setup_s"] = mark - start - (busy_at_mark - busy_at_start)
        result["link_s"] = end - mark - (busy_at_end - busy_at_mark)
        result["setup_burst_s"] = statistics.median(first + middle)
        result["link_burst_s"] = statistics.median(middle + last)
        result["setup_loop_s"] = statistics.median(first + middle + probe.ticks[:ticks_at_mark])
        result["link_loop_s"] = statistics.median(middle + last + probe.ticks[ticks_at_mark:])
        result["tick_over_burst"] = (
            statistics.median(probe.ticks) / statistics.median(first + middle + last)
            if probe.ticks
            else None
        )
        if tracer is not None:
            busy_s = busy_at_end - busy_at_start
            layers, not_applicable = tracer.layer_metrics(end - start - busy_s)
            result.update(layers=layers, not_applicable=not_applicable, missing=tracer.missing)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
