"""One workload process: set up, run the job list in a closed loop, check.

Started by ``run.py`` in a fresh interpreter with the package on
``PYTHONPATH`` and BLAS/OMP threads pinned to 1.  It imports the package,
writes the seeded inputs into ``--tmp`` and notes the monotonic clock just
before the first timed job; ``run.py`` took the same clock just before
starting this process, so their difference is the set-up time.

Jobs run one at a time, in rounds: a round runs every distinct job of the
list once, in the list's order.  Rounds repeat while the next is expected
to end within ``--seconds``, and at least ``MIN_ROUNDS`` times, so every
job has as many runs as any other.  The reference computation of
``reference.py`` runs between jobs, and each run of a job is also recorded
normalised by the reference times on either side of it; ``run.py`` takes
each job's median normalised time, weighted by its copies in the list.
With ``--trace 1`` rounds alternate untraced and traced, so the tracing
overhead is their ratio; the per-layer totals of each job count once per
copy, so they are per pass of the job list.  Outputs are checked after the loop, and the peak RSS is read
before the checks allocate anything.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

import hypermap_codes
from hypermap_codes import cli, gf2
from reference import QUIET_S, REF_RUNS, timed_reference
from tracing import Tracer, summarize
from workloads import SUBPROCESS_WORKLOADS, WORKLOADS

HERE = Path(__file__).resolve().parent
MIN_ROUNDS = 2  # with --trace 1, one untraced and one traced
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def run_in_process(job, tracer=None, tag=None):
    outputs = []
    if tracer is not None:
        tracer.job = tag
    start = time.perf_counter()
    for argv in job.calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a crash is a failed job, not a failed run
                rc = f"{type(exc).__name__}: {exc}"
        outputs.append((rc, out.getvalue()))
    return time.perf_counter() - start, outputs, None


def run_subprocess(job, spans_path=None, tag=None):
    if spans_path is None:
        cmd = [sys.executable, "-m", "hypermap_codes"]
    else:
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), tag]
    start = time.perf_counter()
    proc = subprocess.run(cmd + job.calls[0], capture_output=True, text=True, timeout=60)
    wall = time.perf_counter() - start
    return wall, [(proc.returncode, proc.stdout)], proc.stderr


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "distance_backend": hypermap_codes.DISTANCE_BACKEND,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "loop": "closed, one client, one job at a time",
    }


def startup_probe(code: str, repeats: int = 5) -> float:
    """Median wall time of ``python -c code`` in a fresh interpreter."""
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def planted(job):
    """Same job, with one expected stdout line that no correct run prints."""
    expect = job.expect

    def wrong():
        first = expect()
        rc, lines = first[0]
        return [(rc, lines + ["planted-wrong-line"])] + first[1:]

    return replace(job, expect=wrong)


def run_rounds(args, jobs, tmp: Path, subproc: bool):
    """The closed loop: ``(records, normalised round times, per-layer totals, kept spans)``."""
    tracer = None if subproc else Tracer()
    copies = Counter(job.name for job in jobs)
    distinct = list({job.name: job for job in jobs}.values())
    records = []  # (round, job, wall, normalised wall, outputs, stderr, captured file text)
    texts: dict = {}
    round_norms = {False: [], True: []}
    layer_totals: dict = {}
    kept_spans = None
    loop_start = time.monotonic()
    rounds = 0
    ref_before = timed_reference()
    while True:
        traced = bool(args.trace) and rounds % 2 == 1
        round_spans: list = []
        if traced and tracer is not None:
            tracer.install()
        round_time = 0.0
        try:
            for i, job in enumerate(distinct):
                tag = f"{rounds}:{i}:{job.name}"
                if subproc:
                    spans_path = tmp / "spans.json" if traced else None
                    wall, outputs, err = run_subprocess(job, spans_path, tag)
                else:
                    wall, outputs, err = run_in_process(job, tracer if traced else None, tag)
                ref_after = timed_reference()
                norm = wall * QUIET_S / ((ref_before + ref_after) / 2)
                ref_before = ref_after
                if traced:
                    if subproc:
                        child = json.loads(spans_path.read_text()) if spans_path.exists() else {}
                        spans_path.unlink(missing_ok=True)
                        summary, spans = child.get("summary", {}), child.get("spans", [])
                    else:
                        spans, counters = tracer.take()
                        summary = summarize(spans, counters)
                    _add(layer_totals, {key: value * copies[job.name] for key, value in summary.items()})
                    # Parents index the job's own spans; shift them into the round's list.
                    base = len(round_spans)
                    round_spans += [(n, s, e, p + base if p >= 0 else p, j) for n, s, e, p, j in spans]
                text = None
                if job.capture:
                    # Share equal texts, so memory does not grow with the round count.
                    text = Path(job.capture).read_text()
                    text = texts.setdefault(text, text)
                records.append((rounds, job, wall, norm, outputs, err, text))
                round_time += norm
        finally:
            if traced and tracer is not None:
                tracer.uninstall()
        if traced and kept_spans is None:
            kept_spans = round_spans
        round_norms[traced].append(round_time)
        rounds += 1
        elapsed = time.monotonic() - loop_start
        if rounds >= MIN_ROUNDS and elapsed + elapsed / rounds > args.seconds:
            return records, round_norms, layer_totals, kept_spans


def check(records, trace: bool):
    """One sample per job run, ``ok`` when output and exit codes are as expected."""
    expected: dict = {}
    file_ok: dict = {}
    samples, failures = [], []
    for round_no, job, wall, norm, outputs, err, text in records:
        if job.name not in expected:
            expected[job.name] = job.expect()
        got = [(rc, out.splitlines()) for rc, out in outputs]
        ok = got == expected[job.name]
        if ok and job.capture:
            key = (job.name, text)
            if key not in file_ok:
                file_ok[key] = job.check_file(text)
            ok = file_ok[key]
        if not ok and len(failures) < 5:
            failures.append({"job": job.name, "got": got, "expected": expected[job.name], "stderr": err})
        samples.append({"round": round_no, "job": job.name, "wall_s": wall, "norm_s": norm, "ok": ok,
                        "traced": trace and round_no % 2 == 1})
    return samples, failures


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--plant-wrong", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans-out")
    args = parser.parse_args()

    tmp = Path(args.tmp)
    jobs = WORKLOADS[args.workload](tmp, args.seed, args.scale)
    if args.plant_wrong:
        target = jobs[0]
        wrong = planted(target)
        jobs = [wrong if job is target else job for job in jobs]
    setup_done = time.monotonic()
    # Reference times right after set-up; ``run.py`` adds the ones it took
    # right before, to normalise the set-up time.
    result = {"setup_done": setup_done, "setup_ref_s": [timed_reference() for _ in range(REF_RUNS)]}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return

    subproc = args.workload in SUBPROCESS_WORKLOADS
    records, round_norms, layer_totals, kept_spans = run_rounds(args, jobs, tmp, subproc)
    who = resource.RUSAGE_CHILDREN if subproc else resource.RUSAGE_SELF
    peak_rss_kib = resource.getrusage(who).ru_maxrss
    samples, failures = check(records, bool(args.trace))

    traced_rounds = len(round_norms[True])
    per_layer = {key: value / traced_rounds for key, value in layer_totals.items()} if traced_rounds else {}
    if args.trace:
        bare = startup_probe("pass")
        per_layer["cli.interpreter_s"] = bare
        per_layer["cli.import_s"] = startup_probe("import hypermap_codes.cli") - bare
        per_layer["trace.overhead_ratio"] = (
            statistics.median(round_norms[True]) / statistics.median(round_norms[False]) - 1
        )
        if args.spans_out and kept_spans is not None:
            with gzip.open(args.spans_out, "wt") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "job"], "spans": kept_spans}, fh)

    sizes = {}
    for job in jobs:
        sizes.setdefault(job.name, job.sizes)
    for job in jobs:
        argv = job.calls[0]
        if "--basis-change" in argv and "gates" not in sizes[job.name]:
            T = gf2.read_matrix(argv[argv.index("--basis-change") + 1])
            sizes[job.name] = dict(sizes[job.name], gates=len(gf2.decompose_elementary(T)))

    result.update(
        job_list=[job.name for job in jobs],
        samples=samples,
        failures=failures,
        round_norm_s={"untraced": round_norms[False], "traced": round_norms[True]},
        per_layer=per_layer,
        peak_rss_kib=peak_rss_kib,
        meta=metadata(args),
        sizes=sizes,
    )
    Path(args.result).write_text(json.dumps(result))


def _add(total: dict, part: dict) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0) + value


if __name__ == "__main__":
    main()
