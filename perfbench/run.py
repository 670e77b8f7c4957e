"""avgmix benchmark: one workload per call, each in a fresh interpreter.

    python3 perfbench/run.py --workload scan18 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its ``src``.
Without tracing, set-up runs in three fresh single-worker interpreters
(two that stop when the inputs are ready, then the measured one) and
``setup_s`` is their median, from process start to inputs ready.  With
``--trace 1`` one traced interpreter reports the per-layer metrics.

Prints each metric by name with its unit, the run's metadata, and as the
last line one JSON object: correct, attempted, failed, metrics.  Exits
non-zero without a result when the benchmark cannot run at all (for
example, when the checkout has no ``src/avgmix``).  See README.md here for
the workloads, the metrics and the first baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

SETUPS = 3
DEADLINE_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "trees_per_s": "trees/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def _git(*args) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_worker(args, deadline: float, setup_only: bool) -> tuple[float, dict | None, dict]:
    """Start a worker; return (seconds to ready, result or None, process metadata)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", str(ROOT)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []),
    )
    meta = {"load_before": os.getloadavg()}
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        ready_s = None
        result = None
        for line in _lines(proc, deadline):
            event = json.loads(line).get("event") if line.startswith("{") else None
            if event == "ready":
                ready_s = time.perf_counter() - t0
            elif event == "result":
                result = json.loads(line)
        if proc.wait(timeout=max(1.0, deadline - time.monotonic())) != 0:
            raise BenchError(f"worker exited with code {proc.returncode}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    meta["load_after"] = os.getloadavg()
    if ready_s is None:
        raise BenchError("worker never reported its inputs ready")
    if not setup_only and result is None:
        raise BenchError("worker reported no result")
    return ready_s, result, meta


def _lines(proc, deadline: float):
    buf = ""
    while True:
        left = deadline - time.monotonic()
        if left <= 0:
            raise BenchError("worker ran past the deadline")
        ready, _, _ = select.select([proc.stdout], [], [], left)
        if not ready:
            continue
        chunk = os.read(proc.stdout.fileno(), 65536).decode()
        if not chunk:
            if buf:
                yield buf
            return
        buf += chunk
        *lines, buf = buf.split("\n")
        yield from lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.Row18.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "avgmix" / "__init__.py").is_file():
        print(f"no avgmix sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    workload = workloads.WORKLOADS[args.workload]
    try:
        if args.trace:
            setup_runs = []
            _, result, proc_meta = run_worker(args, deadline, setup_only=False)
            procs = [proc_meta]
        else:
            setup_runs, procs = [], []
            for i in range(SETUPS):
                ready_s, result, proc_meta = run_worker(args, deadline, i < SETUPS - 1)
                setup_runs.append(ready_s)
                procs.append(proc_meta)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    untraced = result["untraced"]
    failed = result["failed"]
    attempted = result["attempted"]
    print(f"workload {args.workload}: {workload.__doc__.splitlines()[0]}")
    if workload.uses_seed:
        print(f"seed {args.seed} draws the inputs")
    else:
        print(f"seed {args.seed} ignored: fixed, exhaustive input")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")

    if args.trace:
        metrics = result.get("layers") or {}
        if len(metrics) != len(layers.PER_LAYER):
            print("no traced pass completed", file=sys.stderr)
            return 1
        for name, m in metrics.items():
            print(f"{name} {m['value']} {m['unit']}")
    else:
        walls = untraced.get("wall_s")
        if not walls:
            print("no pass completed", file=sys.stderr)
            return 1
        wall = statistics.median(walls)
        values = {
            "wall_s": wall,
            "trees_per_s": untraced["trees"] / wall,
            "setup_s": statistics.median(setup_runs),
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        print(f"passes {untraced['passes']} of {untraced['trees']} trees; "
              f"pass wall_s {', '.join(f'{w:.4f}' for w in walls)}")
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
        print(f"setup_s samples {', '.join(f'{s:.4f}' for s in setup_runs)}")
        if "tree_s" in untraced:
            ms = [s * 1000.0 for s in untraced["tree_s"]]
            p95 = statistics.quantiles(ms, n=100, method="inclusive")[94]
            print(f"tree_ms_p50 {statistics.median(ms):.4f} ms ({len(ms)} trees)")
            print(f"tree_ms_p95 {p95:.4f} ms ({sum(1 for x in ms if x > p95)} trees beyond)")
    print(f"error_rate {failed / attempted:.6g} failed/attempted ({failed}/{attempted})")

    status = _git("status", "--porcelain")
    meta = {
        "git_rev": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "seed_used": workload.uses_seed,
        "counts": untraced.get("counts"),
        "processes": procs,
    }
    print("meta " + json.dumps(meta))
    print(json.dumps({
        "correct": failed == 0 and not result["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
