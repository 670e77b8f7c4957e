"""One workload in a fresh interpreter: set up, measure, check, report.

Started by run.py with the checkout's ``src`` on PYTHONPATH.  It prints
``{"event": "ready"}`` once the inputs are built (run.py times set-up from
process start to that line) and, unless ``--setup-only``, one
``{"event": "result", ...}`` line at the end.

Passes repeat to fill ``--seconds``, at least one.  With
``--trace 1`` the setup is traced, then the passes run untraced for
``--seconds`` and traced for ``--seconds``; the traced per-layer metrics
are one setup plus one pass, and ``trace.overhead_pct`` compares the
median traced pass with the median untraced one.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import layers
import workloads
from tracing import Tracer


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def measure(workload, inputs, seconds: float):
    """Passes filling `seconds`, at least one: [(wall_s, PassResult or None)].

    Another pass starts only if a pass of the mean length so far would
    still end within `seconds`.
    """
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        try:
            result = workload.run_pass(inputs)
        except Exception:  # a failed pass is counted, and the run goes on
            traceback.print_exc()
            result = None
        now = time.perf_counter()
        passes.append((now - t0, result))
        elapsed = now - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def check_passes(workload, inputs, passes) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems): the first good pass is checked in full,
    every later pass must reproduce its output."""
    attempted = failed = 0
    problems: list[str] = []
    reference = None
    for _, result in passes:
        attempted += workload.calls
        if result is None:
            failed += workload.calls
            problems.append("a pass raised (traceback on stderr)")
            continue
        if reference is None:
            reference = result
            found = workload.check(inputs, result)
            problems.extend(found)
            failed += min(workload.calls, len(found))
        elif result.output != reference.output:
            failed += workload.calls
            problems.append("a pass returned different output than the first")
    return attempted, failed, problems


def summarise(passes) -> dict:
    good = [(wall, r) for wall, r in passes if r is not None]
    if not good:
        return {"passes": len(passes)}
    first = good[0][1]
    out = {
        "passes": len(passes),
        "wall_s": [wall for wall, _ in good],
        "trees": first.trees,
        "counts": first.counts,
    }
    if first.tree_s is not None:
        out["tree_s"] = [s for _, r in good for s in r.tree_s]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    root = Path(args.root).resolve()
    import avgmix  # here, so that set-up time includes the import
    import numpy

    if root / "src" not in Path(avgmix.__file__).resolve().parents:
        print(f"avgmix was imported from {avgmix.__file__}, not from {root / 'src'}",
              file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](root)
    workload.prepare()
    tracer = Tracer() if args.trace else None
    if tracer:
        layers.install(tracer)
    try:
        inputs = workload.setup(args.seed)
    finally:
        if tracer:
            tracer.restore()
    setup_stats = tracer.summary() if tracer else None
    emit({"event": "ready"})
    if args.setup_only:
        workload.cleanup()
        return 0

    try:
        passes = measure(workload, inputs, args.seconds)
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        traced = []
        if tracer:
            layers.install(tracer)
            try:
                traced = measure(workload, inputs, args.seconds)
            finally:
                tracer.restore()
            pass_stats = tracer.summary()
        attempted, failed, problems = check_passes(workload, inputs, passes + traced)
    finally:
        workload.cleanup()

    result = {
        "event": "result",
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "numpy": numpy.__version__,
        "peak_rss_kb": peak_rss_kb,
        "untraced": summarise(passes),
    }
    if tracer:
        base = [w for w, r in passes if r is not None]
        with_trace = [w for w, r in traced if r is not None]
        if base and with_trace:
            overhead = 100.0 * (statistics.median(with_trace) / statistics.median(base) - 1)
            result["layers"] = layers.layer_metrics(
                layers.merge(setup_stats, pass_stats, len(traced)),
                result["untraced"]["counts"],
                overhead,
            )
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
