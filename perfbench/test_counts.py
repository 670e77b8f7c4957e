"""The benchmark's own tests: count steadiness, the metric list, and the refusal
to run without the program.

Count steadiness runs every workload traced twice with the same seed (about
four minutes on two cores) and fails on any drift between the two runs'
count metrics, or between the tracer's counts and the counts read off the
outputs of the untraced passes.

    python3 -m pytest perfbench/test_counts.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

COUNT_METRICS = [m for m, (unit, _) in layers.PER_LAYER.items() if unit in ("count", "bytes")]

# traced metric -> the output count (or constant) it equals with today's call structure
AGREES = {
    "scan18": {"enumeration.trees": "trees", "graph6.calls": 2 * workloads.Scan18.WINDOW + 1},
    "census13": {
        "enumeration.trees": "trees",
        "matchings.dp_calls": "trees",
        "matchings.simple_found": "simple",
        "census.chunks": "chunks",
        "census.checkpoint_bytes": "checkpoint_bytes",
    },
    "row18": {
        "enumeration.trees": workloads.ORDER18_TREES,
        "matchings.dp_calls": "trees",
        "matchings.simple_found": "simple",
        "exact.amm_calls": "exact",
    },
    "family": {"matchings.simple_found": "members", "exact.amm_calls": 1},
}


def _run(name: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", name,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _traced(name: str) -> tuple[dict, dict]:
    proc = _run(name, 1)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"], proc.stdout
    meta = json.loads(next(ln for ln in lines if ln.startswith("meta "))[5:])
    return {m: v["value"] for m, v in result["metrics"].items()}, meta["counts"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_counts_repeat_and_match_outputs(name):
    first, counts = _traced(name)
    second, counts_again = _traced(name)
    assert {m: first[m] for m in COUNT_METRICS} == {m: second[m] for m in COUNT_METRICS}
    assert counts == counts_again
    for metric, expected in AGREES[name].items():
        assert first[metric] == (counts[expected] if isinstance(expected, str) else expected), metric
    if name == "row18":
        # every entry u <= v of an order-18 exact matrix is one root-sum query
        assert first["polynomials.root_sum_queries"] == 171 * counts["exact"]


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.PER_LAYER


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("family", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
