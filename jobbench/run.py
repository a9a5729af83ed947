"""Job benchmark of hypermap_codes: CLI jobs end to end, or traced per layer.

Run from the repository root:

    python3 jobbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py``): ``equiv-lattice``, ``basis-cnot``,
``distance-oracle`` and ``cli-desk``.  The seed fixes every generated input;
the program sees only the files.  Each run starts fresh worker processes
with BLAS/OMP threads pinned to 1.  With ``--trace 0`` the worker set-up
runs ``SETUP_RUNS`` times, all but the last stopping after set-up, and the
last runs the timed closed loop.  Times are normalised by a reference
computation run next to them (``reference.py``), so they read as
quiet-host times.  The last stdout line is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``, which are the
end-to-end metrics with ``--trace 0`` and the per-layer ones with
``--trace 1``.  A readable summary goes to stderr, and a full record with
run metadata and per-job sizes goes to ``.jobbench/records/``.

``--scale tiny`` and ``--plant-wrong`` exist for ``selftest.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from reference import QUIET_S, REF_RUNS, timed_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".jobbench"
SETUP_RUNS = 7
TIME_LIMIT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "jobs_per_s": "jobs/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "success_rate": "ratio",
}

# Per pass of the job list.  ``calls`` and ``self_s`` come from spans around
# the traced functions; ``cells``, ``bytes``, ``gates`` and
# ``candidates_bound`` are computed from sizes at the same boundaries.
PER_LAYER = {
    "hypermap.Permutation.orbits.calls": "count",
    "hypermap.Permutation.orbits.self_s": "s",
    "hypermap.Permutation.inverse.calls": "count",
    "hypermap.Hypermap.init.self_s": "s",
    "hypermap.load_hypermap.self_s": "s",
    "chain.boundary_pair.calls": "count",
    "chain.boundary_pair.self_s": "s",
    "chain.project_nonspecial.calls": "count",
    "chain.project_nonspecial.self_s": "s",
    "chain.dart_vertex_sum.calls": "count",
    "chain.dart_vertex_sum.self_s": "s",
    "chain.face_dart_sum.calls": "count",
    "surface.hypermap_to_surface.self_s": "s",
    "surface.surface_code.self_s": "s",
    "surface.verify_equivalence.self_s": "s",
    "gf2.row_echelon.calls": "count",
    "gf2.row_echelon.self_s": "s",
    "gf2.row_echelon.cells": "count",
    "gf2.decompose_elementary.self_s": "s",
    "gf2.parse_matrix.self_s": "s",
    "gf2.parse_matrix.bytes": "bytes",
    "gf2.format_matrix.self_s": "s",
    "css.apply_cnot.calls": "count",
    "css.apply_cnot.self_s": "s",
    "css.transform.self_s": "s",
    "css.cnot_circuit.gates": "count",
    "css.cnot_circuit.gates_per_bound": "ratio",
    "css.read_stabilizer.self_s": "s",
    "css.write_stabilizer.self_s": "s",
    "css.params.calls": "count",
    "css.params.self_s": "s",
    "css.stabilizer_equal.self_s": "s",
    "css.build_canonical.self_s": "s",
    "distance.distance_split.calls": "count",
    "distance.distance_split.self_s": "s",
    "distance.kernel.calls": "count",
    "distance.kernel.self_s": "s",
    "distance.candidates_bound": "count",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "benchmarks")])
    return env


def run_workers(args, tmp: Path) -> tuple[list[float], list[float], dict]:
    """Set-up times of every worker, raw and normalised, and the result of the last (timed) one.

    A set-up time is normalised by the median of the ``REF_RUNS``
    reference times taken just before the worker starts and the
    ``REF_RUNS`` the worker takes right after its set-up.
    """
    deadline = time.monotonic() + TIME_LIMIT_S
    runs = 1 if args.trace else SETUP_RUNS
    setups, norms = [], []
    for i in range(runs):
        work = tmp / f"worker{i}"
        work.mkdir()
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--scale", args.scale, "--tmp", str(work), "--result", str(work / "result.json"),
        ]
        if i < runs - 1:
            cmd.append("--setup-only")
        if args.plant_wrong:
            cmd.append("--plant-wrong")
        if args.trace:
            cmd += ["--spans-out", str(STATE / f"spans-{args.workload}-seed{args.seed}.json.gz")]
        refs = [timed_reference() for _ in range(REF_RUNS)]
        start = time.monotonic()
        subprocess.run(cmd, env=worker_env(), check=True, stdout=subprocess.DEVNULL,
                       timeout=max(1.0, deadline - start))
        result = json.loads((work / "result.json").read_text())
        setups.append(result["setup_done"] - start)
        norms.append(setups[-1] * QUIET_S / statistics.median(refs + result["setup_ref_s"]))
    return setups, norms, result


def job_walls(result, key="wall_s") -> dict:
    """Untraced times of every run of each job: wall (``wall_s``) or normalised (``norm_s``)."""
    walls: dict = {}
    for s in result["samples"]:
        if not s["traced"]:
            walls.setdefault(s["job"], []).append(s[key])
    return walls


def job_times(result) -> dict:
    """Each job's time: the median of its normalised runs."""
    return {job: statistics.median(times) for job, times in job_walls(result, "norm_s").items()}


def end_to_end(setups, result) -> dict:
    """Metrics of the job list, each entry timed by its job's time in this run.

    Times are normalised by the reference computation (``reference.py``),
    so they read as quiet-host times and hardly move with the load of a
    shared host.  Every distinct job runs equally often in a run, and one
    figure per job stands for each of its copies in the list.
    """
    times = job_times(result)
    walls = [times[name] for name in result["job_list"]]
    deciles = statistics.quantiles(walls, n=10, method="inclusive") if len(walls) > 1 else walls * 9
    ok = sum(s["ok"] for s in result["samples"])
    return {
        "jobs_per_s": len(walls) / sum(walls),
        "job_p50_ms": statistics.median(walls) * 1e3,
        "job_p90_ms": deciles[8] * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_kib"] / 1024,
        "success_rate": ok / len(result["samples"]),
    }


def per_layer(result) -> dict:
    layers = result["per_layer"]
    bound = layers.get("css.cnot_circuit.bound", 0)
    layers["css.cnot_circuit.gates_per_bound"] = layers.get("css.cnot_circuit.gates", 0) / bound if bound else 0.0
    # A function no job of the workload calls reads 0.
    return {name: layers.get(name, 0.0) for name in PER_LAYER}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--plant-wrong", action="store_true")
    args = parser.parse_args()

    needed = [ROOT / "src" / "hypermap_codes" / "cli.py", ROOT / "benchmarks" / "bench_distance.py", ROOT / "fixtures"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"error: run from a checkout of the repository; missing {', '.join(missing)}", file=sys.stderr)
        return 2

    STATE.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=STATE))
    try:
        setups, setup_norms, result = run_workers(args, tmp)
    except subprocess.CalledProcessError as exc:
        print(f"error: worker exited with code {exc.returncode}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired:
        print(f"error: worker exceeded the {TIME_LIMIT_S} s limit", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if args.trace:
        values, units = per_layer(result), PER_LAYER
    else:
        values, units = end_to_end(setup_norms, result), END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    attempted = len(result["samples"])
    failed = sum(not s["ok"] for s in result["samples"])
    timed = sum(not s["traced"] for s in result["samples"])

    record = {
        "meta": result["meta"],
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "timed_samples": timed,
        "setup_s_runs": setups,
        "setup_s_normalised": setup_norms,
        "round_norm_s": result["round_norm_s"],
        "failures": result["failures"],
        "sizes": result["sizes"],
        "job_list": result["job_list"],
        "job_time_s": job_times(result),
        "job_wall_s": job_walls(result),
        "job_norm_s": job_walls(result, "norm_s"),
    }
    records = STATE / "records"
    records.mkdir(exist_ok=True)
    (records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {attempted} jobs attempted, "
          f"{failed} failed (error_rate={failed / attempted:.4f}), {timed} timed samples", file=sys.stderr)
    for name, unit in units.items():
        print(f"  {name:<40} {values[name]:>14.6g} {unit}", file=sys.stderr)
    for failure in result["failures"]:
        print(f"  FAILED {json.dumps(failure)}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
