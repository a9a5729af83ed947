"""Self-test of the job benchmark at tiny sizes (about a minute).

For every workload (``cli-desk`` too, which ``BENCHMARK.json`` does not
list) it checks that ``--trace 0`` prints every end-to-end
metric of ``BENCHMARK.json`` with its unit and no failed job, and that
``--trace 1`` prints every per-layer metric with its unit.  It then plants
one wrong expected value and checks that the run reports failed jobs and a
success rate below 1 (an error rate above 0), so the correctness gate is
live.  Last, it checks that the command fails without printing a result in
a directory holding only ``BENCHMARK.json`` and the benchmark.

Run from the repository root:  python3 jobbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

from workloads import WORKLOADS  # noqa: E402


def run(cwd: Path, workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "jobbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit code {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, spec: list, label: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in spec}
    assert set(got) == set(want), f"{label}: metric names differ: {set(got) ^ set(want)}"
    for name, unit in want.items():
        value = got[name]
        assert value["unit"] == unit, f"{label}: {name} has unit {value['unit']}, expected {unit}"
        assert isinstance(value["value"], (int, float)), f"{label}: {name} is not a number"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        result = last_json(run(ROOT, workload, 0, "--scale", "tiny"))
        check_metrics(result, spec["end_to_end"], f"{workload} trace 0")
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, workload
        assert result["metrics"]["success_rate"]["value"] == 1.0, workload

        result = last_json(run(ROOT, workload, 1, "--scale", "tiny"))
        check_metrics(result, spec["per_layer"], f"{workload} trace 1")
        assert result["correct"], workload

        result = last_json(run(ROOT, workload, 0, "--scale", "tiny", "--plant-wrong"))
        assert not result["correct"] and result["failed"] > 0, f"{workload}: planted error not caught"
        assert result["metrics"]["success_rate"]["value"] < 1.0, workload
        print(f"ok {workload}: metrics and units complete, planted error counted "
              f"({result['failed']} of {result['attempted']} jobs failed)")

    (ROOT / ".jobbench").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".jobbench"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        assert proc.returncode != 0, "benchmark succeeded without the program"
        assert not proc.stdout.strip(), "benchmark printed a result without the program"
        print(f"ok without the program: exit code {proc.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
