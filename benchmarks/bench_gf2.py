"""Benchmark of GF(2) elimination: rank, reduced row-echelon form and inverse.

Two sets of matrices are timed, best of ``--repeats`` runs per call:

- the stabilizer matrices ``hx`` and ``hz`` of the toric L×L surface code,
  built from ``graph_to_hypermap(toric_rotation_graph(L, L))``, for
  L = 8, 16, 24, 32 (``rank`` and ``row_echelon``);
- dense uniform random invertible n×n matrices for n = 64 to 512
  (``rank``, ``row_echelon`` and ``invert``).

It exits non-zero unless ``rank(M) == rank(M.T)`` for every matrix and
``mul(invert(T), T)`` is the identity for every dense ``T``.

Run:  python3 benchmarks/bench_gf2.py [--repeats N]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from hypermap_codes import gf2
from hypermap_codes.css import build_canonical
from hypermap_codes.surface import graph_to_hypermap, toric_rotation_graph

TORIC_SIZES = (8, 16, 24, 32)
DENSE_SIZES = (64, 128, 256, 512)


def random_invertible(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    while True:
        T = rng.integers(0, 2, (n, n), dtype=np.uint8)
        if gf2.rank(T) == n:
            return T


def cases():
    for L in TORIC_SIZES:
        code = build_canonical(*graph_to_hypermap(toric_rotation_graph(L, L)))
        yield f"toric {L}x{L} hx", code.hx
        yield f"toric {L}x{L} hz", code.hz
    for n in DENSE_SIZES:
        yield f"dense n={n}", random_invertible(n, n)


def best_of(repeats: int, fn, *args):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats per case")
    args = parser.parse_args()

    header = (
        f"{'case':<18} {'shape':>11} {'rank':>5} "
        f"{'rank [s]':>10} {'echelon [s]':>12} {'invert [s]':>11}"
    )
    print(header)
    print("-" * len(header))
    for label, M in cases():
        t_rank, r = best_of(args.repeats, gf2.rank, M)
        t_echelon, _ = best_of(args.repeats, gf2.row_echelon, M)
        if gf2.rank(M.T) != r:
            raise SystemExit(f"{label}: rank {r} differs from the rank of the transpose")
        invert_cell = "-"
        if M.shape[0] == M.shape[1]:
            t_invert, inverse = best_of(args.repeats, gf2.invert, M)
            if not np.array_equal(gf2.mul(inverse, M), gf2.identity(M.shape[0])):
                raise SystemExit(f"{label}: invert(T) * T is not the identity")
            invert_cell = f"{t_invert:.6f}"
        shape = f"{M.shape[0]}x{M.shape[1]}"
        print(f"{label:<18} {shape:>11} {r:>5} {t_rank:>10.6f} {t_echelon:>12.6f} {invert_cell:>11}")


if __name__ == "__main__":
    main()
