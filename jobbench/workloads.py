"""Seeded job lists of the four workloads, and their correctness oracles.

A job is one or two CLI calls (argv lists for ``hypermap_codes.cli``) with
the exit codes and stdout lines they must produce.  The expected values
never come from the code path a job times:

* ``verify`` and ``build`` report ``n = darts - hyperedges`` and
  ``k = 2g``; both come from this module's own cycle count of the
  generated permutations.
* A ``build --basis-change`` output file must span the same rows as the
  reference that ``code_from_boundary_change`` builds in setup (the route
  without CNOT circuits).  Rank is computed here on integer bitmasks,
  without ``hypermap_codes.gf2``.
* Distances are known values (Golay 7, toric ``min(L, M)``), or come from
  this module's own weight-ordered search over the stabilizer file.
* ``cli-desk`` outputs are the ones the README lists for the fixtures;
  where it lists none (the row differences of ``compare``, the special
  darts of ``from-graph``) they are pinned at the commit that added this
  benchmark, and the ``to-surface`` graph must equal
  ``fixtures/torus_surface_graph.json``.

Each workload function returns its job list.  A job may appear in it
several times; its copies weight it in the metrics and share its input
files, and the worker times every distinct job equally often.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Callable

import numpy as np

from hypermap_codes import css, gf2, surface
from hypermap_codes.hypermap import Hypermap, choose_special_darts, load_hypermap, save_hypermap

import bench_distance

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


@dataclass
class Job:
    name: str
    calls: list[list[str]]
    # Expected (exit code, stdout lines) per call; a function, so that the
    # costly oracles run after the timed loop and once per job.
    expect: Callable[[], list[tuple[int, list[str]]]]
    sizes: dict = field(default_factory=dict)
    # Output file read after the job and judged by ``check_file``.
    capture: str | None = None
    check_file: Callable[[str], bool] | None = None


# --- independent oracles ----------------------------------------------------


def cycle_counts(darts: int, sigma, tau) -> tuple[int, int, int]:
    """``(V, E, F)``: cycles of sigma, tau and sigma * tau^-1 (fixed points count)."""

    def image(cycles):
        img = list(range(darts + 1))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                img[a] = b
        return img

    def count(img):
        seen = [False] * (darts + 1)
        total = 0
        for start in range(1, darts + 1):
            if not seen[start]:
                total += 1
                d = start
                while not seen[d]:
                    seen[d] = True
                    d = img[d]
        return total

    s, t = image(sigma), image(tau)
    t_inv = [0] * (darts + 1)
    for d in range(1, darts + 1):
        t_inv[t[d]] = d
    face = [0] + [s[t_inv[d]] for d in range(1, darts + 1)]
    return count(s), count(t), count(face)


def code_size(darts: int, sigma, tau) -> dict:
    v, e, f = cycle_counts(darts, sigma, tau)
    chi = v + e + f - darts
    return {"darts": darts, "n": darts - e, "k": 2 - chi, "V": v, "E": e, "F": f}


def parse_stabilizer_rows(text: str) -> tuple[int, list[int], list[int]]:
    """``(n, hx rows, hz rows)`` of a stabilizer file, rows as bitmasks."""
    blocks: dict[str, list[str]] = {}
    current = None
    for line in text.splitlines():
        line = line.strip()
        if line in ("Hx", "Hz"):
            current = blocks.setdefault(line, [])
        elif line:
            current.append(line)
    n = int(blocks["Hx"][0].split()[1])

    def rows(block):
        return [sum(1 << j for j, tok in enumerate(r.split()) if tok == "1") for r in block[1:]]

    return n, rows(blocks["Hx"]), rows(blocks["Hz"])


def _echelon(rows) -> dict[int, int]:
    """Row basis keyed by leading bit; each row is reduced against the others' keys."""
    basis: dict[int, int] = {}
    for r in rows:
        r = _reduce(r, basis)
        if r:
            basis[r.bit_length() - 1] = r
    return basis


def _reduce(v: int, basis: dict[int, int]) -> int:
    while v:
        top = v.bit_length() - 1
        if top not in basis:
            return v
        v ^= basis[top]
    return 0


def same_row_space(a, b) -> bool:
    ra, rb = _echelon(a), _echelon(b)
    return len(ra) == len(rb) and all(_reduce(r, ra) == 0 for r in b)


def sector_weight(n: int, stab, excl) -> int:
    """Least weight of ``v`` with ``stab v = 0`` and ``v`` outside rowspace(excl); 0 if none."""
    basis = _echelon(excl)
    for w in range(1, n + 1):
        for support in combinations(range(n), w):
            v = sum(1 << j for j in support)
            if all((r & v).bit_count() % 2 == 0 for r in stab) and _reduce(v, basis):
                return w
    return 0


# --- input generation ---------------------------------------------------------


def random_cycles(rng: random.Random, darts: int, length: int) -> list[list[int]]:
    labels = list(range(1, darts + 1))
    rng.shuffle(labels)
    return [labels[i : i + length] for i in range(0, darts, length)]


def connected(darts: int, sigma, tau) -> bool:
    parent = list(range(darts + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for cyc in sigma + tau:
        for a in cyc[1:]:
            parent[find(a)] = find(cyc[0])
    return len({find(d) for d in range(1, darts + 1)}) == 1


def random_hypermap(rng: random.Random, darts: int, length: int, faces: int = 6):
    """Connected hypermap, sigma and tau all ``length``-cycles, with ``faces`` faces.

    Fixing the face count (6 is the commonest at these sizes) fixes V, E,
    F, n and k of a size class, so the seed changes only the wiring.  The
    wiring still moves the cost of ``verify`` (53-95 ms over ten seeds at
    180 darts), so a class holds several instances.
    """
    if (2 * darts // length + faces - darts) % 2:
        raise ValueError(f"no hypermap on {darts} darts with {faces} faces: odd Euler characteristic")
    while True:
        sigma = random_cycles(rng, darts, length)
        tau = random_cycles(rng, darts, length)
        if cycle_counts(darts, sigma, tau)[2] == faces and connected(darts, sigma, tau):
            return sigma, tau


def write_hypermap(path: Path, darts: int, sigma, tau) -> None:
    path.write_text(json.dumps({"darts": darts, "sigma": sigma, "tau": tau}))


def write_matrix(path: Path, M) -> None:
    rows = [" ".join("1" if x else "0" for x in row) for row in M]
    path.write_text(f"{M.shape[0]} {M.shape[1]}\n" + "\n".join(rows) + "\n")


def to_rows(M) -> list[int]:
    return [sum(1 << j for j in np.flatnonzero(row).tolist()) for row in M]


def random_invertible(rng: np.random.Generator, n: int, dense: bool) -> np.ndarray:
    """A random invertible basis change.

    Dense: ``L @ U`` with random unitriangular factors, columns permuted.
    Sparse: the identity plus ``3n`` random entries above the diagonal, the
    product of ``3n`` column additions; its circuit has exactly ``3n`` gates,
    so the seed does not change the amount of work.
    """
    if dense:
        lower = np.tril(rng.integers(0, 2, (n, n)), -1) + np.eye(n, dtype=np.int64)
        upper = np.triu(rng.integers(0, 2, (n, n)), 1) + np.eye(n, dtype=np.int64)
        T = (lower @ upper % 2)[:, rng.permutation(n)]
        return T.astype(np.uint8)
    T = np.eye(n, dtype=np.uint8)
    rows, cols = np.triu_indices(n, 1)
    pick = rng.choice(rows.size, 3 * n, replace=False)
    T[rows[pick], cols[pick]] = 1
    return T


def _lines(*pairs):
    return lambda: [(rc, list(lines)) for rc, lines in pairs]


# --- workloads ------------------------------------------------------------------

# Copies in the job list.  Every copy of a job gets that job's time, so the
# sorted list is a run of equal values per job.  Quiet-host times at this
# commit: toric 4x4 11 ms, 5x5 22, 6x6 43, 7x7 70, 8x8 130, 9x9 220, 10x10
# 340; random 120 darts 25-50, 180 darts 50-95 (the wiring moves it), 240
# darts 90-160, 360 darts about 260.  Cost grows about quadratically with
# darts, so the large sizes appear once and the small ones often.  The
# counts place p50 inside the toric 5x5 run (entries 40-94 of 121,
# whichever side the random 120-dart jobs fall on) and p90 inside the
# toric 7x7 run (entries 101-114, whichever side the random 180-dart jobs
# fall on; p90 is at 108).  Toric 11x11 and up (0.5-3.5 s a job) are left
# out, so that every job runs about ten times in a 35-s run.  Random
# classes list the number of instances, each once in the list; several per
# class average out the wiring.
EQUIV_TORIC = {  # L: copies
    "full": {4: 40, 5: 47, 6: 6, 7: 10, 8: 2, 9: 1, 10: 1},
    "tiny": {2: 2, 3: 1},
}
EQUIV_RANDOM = {  # (cycle length, darts): instances
    "full": {(3, 120): 4, (4, 120): 4, (3, 180): 2, (4, 180): 2, (3, 240): 1, (4, 360): 1},
    "tiny": {(3, 24): 2, (4, 24): 1},
}


def equiv_lattice(tmp: Path, seed: int, scale: str) -> list[Job]:
    """``verify`` on toric L x L lattices and on random 3- and 4-cycle hypermaps."""
    rng = random.Random(seed)
    jobs: list[Job] = []

    def verify_job(name, path, size):
        code = f"n={size['n']} k={size['k']}"
        lines = ["equal=true", f"hypermap_code {code}", f"surface_code {code}"]
        return Job(name, [["verify", str(path)]], _lines((0, lines)), size)

    for L, copies in EQUIV_TORIC[scale].items():
        H, S = surface.graph_to_hypermap(surface.toric_rotation_graph(L, L))
        path = tmp / f"toric{L}.json"
        save_hypermap(path, H, S)
        data = json.loads(path.read_text())
        size = code_size(data["darts"], data["sigma"], data["tau"])
        jobs += [verify_job(f"toric{L}x{L}", path, size)] * copies
    for (length, darts), instances in EQUIV_RANDOM[scale].items():
        for i in range(instances):
            sigma, tau = random_hypermap(rng, darts, length)
            path = tmp / f"random{length}_{darts}_{i}.json"
            write_hypermap(path, darts, sigma, tau)
            jobs.append(verify_job(path.stem, path, code_size(darts, sigma, tau)))
    rng.shuffle(jobs)
    return jobs


# (code length n, dense T): copies in the job list.  One input per class, from 3-
# or 4-cycle hypermaps in turn.  p50 falls inside the dense n=24 run
# (entries 30-59 of 104) and p90 inside the dense n=60 run (87-98).
BASIS_MIX = {
    "full": {(24, False): 20, (36, False): 10, (24, True): 30, (48, False): 8, (60, False): 5,
             (36, True): 5, (72, False): 3, (84, False): 2, (96, False): 2, (48, True): 2,
             (60, True): 12, (72, True): 2, (84, True): 2, (96, True): 1},
    "tiny": {(8, False): 2, (12, True): 1},
}


def basis_cnot(tmp: Path, seed: int, scale: str) -> list[Job]:
    """``build --basis-change`` then ``compare`` against the boundary-change route."""
    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)
    jobs: list[Job] = []
    for i, ((n, dense), copies) in enumerate(BASIS_MIX[scale].items()):
        length = 3 + i % 2
        darts = n * length // (length - 1)
        sigma, tau = random_hypermap(rng, darts, length)
        T = random_invertible(nrng, n, dense)
        H = Hypermap.from_cycles(darts, sigma, tau)
        ref = css.code_from_boundary_change(H, choose_special_darts(H), T)
        stem = f"{'dense' if dense else 'sparse'}{n}_c{length}"
        hpath, tpath = tmp / f"{stem}.json", tmp / f"{stem}_T.txt"
        rpath, opath = tmp / f"{stem}_ref.txt", tmp / f"{stem}_out.txt"
        write_hypermap(hpath, darts, sigma, tau)
        write_matrix(tpath, T)
        css.write_stabilizer(rpath, ref)
        size = code_size(darts, sigma, tau)
        ref_hx, ref_hz = to_rows(ref.hx), to_rows(ref.hz)

        def file_ok(text, ref_hx=ref_hx, ref_hz=ref_hz, n=n):
            out_n, hx, hz = parse_stabilizer_rows(text)
            return out_n == n and same_row_space(hx, ref_hx) and same_row_space(hz, ref_hz)

        job = Job(
            stem,
            [
                ["build", str(hpath), "--basis-change", str(tpath), "--out", str(opath)],
                ["compare", str(opath), str(rpath)],
            ],
            _lines((0, [f"n={size['n']} k={size['k']}", f"wrote={opath}"]), (0, ["equal=true"])),
            size,
            capture=str(opath),
            check_file=file_ok,
        )
        jobs += [job] * copies
    rng.shuffle(jobs)
    return jobs


def toric_code(rows: int, cols: int):
    return surface.surface_code(surface.rotation_to_surface(surface.toric_rotation_graph(rows, cols)))


DISTANCE_MIX = {
    # Shallow (d = 1-2): random hypermap codes of fixed n and CNOT-transformed
    # ones (1.4-1.6 ms at this commit, 3 copies each), toric 2x6; deep: toric
    # d = 3 and Golay (60 ms).  The toric 2x6, 3x4 and 4x3 runs (about 2 ms
    # each) hold entries 40-84 of 100, around p50; Golay holds 85-99, so p90
    # sits inside it, away from both class edges.
    "full": {"random": [20, 21, 22, 23, 24, 20, 22, 24], "cnot": [20, 22, 23, 24], "copies": 3,
             "toric": {(3, 3): 4, (2, 6): 29, (3, 4): 8, (4, 3): 8}, "golay": 15},
    "tiny": {"random": [20], "cnot": [20], "copies": 1, "toric": {(2, 2): 1, (3, 3): 1}, "golay": 1},
}


def distance_oracle(tmp: Path, seed: int, scale: str) -> list[Job]:
    """``distance`` on codes within the oracle's ``n <= 24`` guard."""
    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)
    mix = DISTANCE_MIX[scale]
    jobs: list[Job] = []

    def add(name, code, known=None, copies=1):
        path = tmp / f"{name}.txt"
        css.write_stabilizer(path, code)

        def expect():
            if known is not None:
                dx = dz = known
            else:
                n, hx, hz = parse_stabilizer_rows(path.read_text())
                dz, dx = sector_weight(n, hx, hz), sector_weight(n, hz, hx)
            return [(0, [f"d={min(dx, dz)} dx={dx} dz={dz}"])]

        jobs.extend([Job(name, [["distance", str(path)]], expect, {"n": code.n})] * copies)

    for i, n in enumerate(mix["random"]):
        add(f"random{i}_n{n}", bench_distance.random_hypermap_code(rng.randrange(2**31), n, n), copies=mix["copies"])
    for i, n in enumerate(mix["cnot"]):
        base = bench_distance.random_hypermap_code(rng.randrange(2**31), n, n)
        add(f"cnot{i}_n{n}", css.transform(base, random_invertible(nrng, n, dense=True)), copies=mix["copies"])
    named = dict(bench_distance.cases())
    for (rows, cols), copies in mix["toric"].items():
        code = named.get(f"toric {rows}x{cols}") or toric_code(rows, cols)
        add(f"toric{rows}x{cols}", code, known=min(rows, cols), copies=copies)
    add("golay", bench_distance.golay_css(), known=7, copies=mix["golay"])
    rng.shuffle(jobs)
    return jobs


# The README gives only the exit code (1) of this comparison.
COMPARE_LINES = [
    "equal=false",
    "diff Hx hypermap-only-row: 1 1 1 1 1 1",
    "diff Hx hypermap-only-row: 1 1 1 1 1 1",
    "diff Hx surface-only-row: 1 0 1 1 1 1",
    "diff Hx surface-only-row: 1 0 1 1 1 1",
    "diff Hz hypermap-only-row: 0 1 0 0 0 1",
    "diff Hz hypermap-only-row: 1 1 1 1 0 0",
    "diff Hz surface-only-row: 1 1 0 0 0 1",
    "diff Hz surface-only-row: 0 1 1 1 0 0",
]


def cli_desk(tmp: Path, seed: int, scale: str) -> list[Job]:
    """The README's commands on the bundled fixtures, each in a fresh interpreter."""
    for name in ("torus_hypermap.json", "torus_basis_change.txt", "toric_2x2_rotation.json"):
        shutil.copy(FIXTURES / name, tmp / name)
    torus, change, rotation = (str(tmp / n) for n in ("torus_hypermap.json", "torus_basis_change.txt", "toric_2x2_rotation.json"))
    # Inputs of `distance` and `compare`, made here so every job stands alone.
    H, _ = load_hypermap(torus)
    canonical = css.build_canonical(H, choose_special_darts(H, preferred=[3, 7]))
    css.write_stabilizer(tmp / "canonical.txt", canonical)
    css.write_stabilizer(tmp / "noncanonical.txt", css.transform(canonical, gf2.read_matrix(change)))
    out = {k: str(tmp / k) for k in ("can_out.txt", "non_out.txt", "graph.json", "graph.dot", "toric.json")}
    expected_graph = json.loads((FIXTURES / "torus_surface_graph.json").read_text())
    size = {"darts": 8, "n": 6, "V": 2, "E": 2, "F": 4}

    def job(name, argv, rc, lines, **kw):
        return Job(name, [argv], _lines((rc, lines)), size, **kw)

    jobs = [
        job("info", ["info", torus], 0, ["V=2 E=2 F=4 W=8 genus=1", "special=3,7"]),
        job("build-distance", ["build", torus, "--special", "3,7", "--distance", "--out", out["can_out.txt"]],
            0, ["n=6 k=2 d=2 dx=2 dz=2", f"wrote={out['can_out.txt']}"]),
        job("build-basis-change", ["build", torus, "--basis-change", change, "--out", out["non_out.txt"]],
            0, ["n=6 k=2", f"wrote={out['non_out.txt']}"]),
        job("to-surface", ["to-surface", torus, "--out-graph", out["graph.json"], "--dot", out["graph.dot"]],
            0, ["special=3,7", "vertices=2 edges=6 faces=4", f"wrote={out['graph.json']}", f"wrote={out['graph.dot']}"],
            capture=out["graph.json"], check_file=lambda text: json.loads(text) == expected_graph),
        job("verify", ["verify", torus], 0, ["equal=true", "hypermap_code n=6 k=2", "surface_code n=6 k=2"]),
        job("from-graph", ["from-graph", rotation, "--out", out["toric.json"]],
            0, ["V=4 E=8 F=4 W=16 genus=1", "special=1,3,6,7,9,12,14,16", f"wrote={out['toric.json']}"]),
        job("decompose", ["decompose", change], 0, ["CNOT 1 2", "gates=1 bound=36"]),
        job("distance", ["distance", str(tmp / "noncanonical.txt")], 0, ["d=1 dx=2 dz=1"]),
        job("compare", ["compare", str(tmp / "canonical.txt"), str(tmp / "noncanonical.txt")], 1, COMPARE_LINES),
    ]
    # Twelve copies of the nine calls: 108 entries, so p90 has ten beyond it.
    jobs = jobs[:3] if scale == "tiny" else jobs * 12
    random.Random(seed).shuffle(jobs)
    return jobs


# ``cli-desk`` is not in BENCHMARK.json, which lists three workloads so that
# each run can last 35 s while a full comparison of two commits stays within
# an hour.  Run it by name.
WORKLOADS = {
    "equiv-lattice": equiv_lattice,
    "basis-cnot": basis_cnot,
    "distance-oracle": distance_oracle,
    "cli-desk": cli_desk,
}
# Workloads whose jobs run in a fresh interpreter rather than in process.
SUBPROCESS_WORKLOADS = {"cli-desk"}
