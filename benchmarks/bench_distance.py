"""Benchmark of the distance oracle on codes of increasing difficulty.

Each case is timed through ``distance_split``, best of ``--repeats`` runs.
The shallow cases end in the weight-ordered meet-in-the-middle search; the
deep case is the [[23,1,7]] CSS code built from the binary Golay code, whose
search switches to enumerating the kernel after weight 3 and finds its
logical operators at weight 7.  The run exits non-zero if a toric ``LxM``
case does not give ``dx = dz = min(L, M)`` or the Golay case not ``(7, 7)``.

Run:  python3 benchmarks/bench_distance.py [--repeats N]
"""

from __future__ import annotations

import argparse
import random
import re
import sys
import time

import numpy as np

from hypermap_codes import gf2
from hypermap_codes.css import CssCode, build_canonical, params
from hypermap_codes.distance import distance_split
from hypermap_codes.hypermap import Hypermap, NotConnectedError, Permutation
from hypermap_codes.surface import rotation_to_surface, surface_code, toric_rotation_graph

# Binary Golay code generator polynomial, coefficients from x^0 to x^11.
GOLAY_G = [1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1]


def golay_css() -> CssCode:
    """[[23,1,7]] CSS code: both sectors generated by the Golay code's dual."""
    G = np.zeros((12, 23), dtype=np.uint8)
    for r in range(12):
        G[r, r : r + 12] = GOLAY_G
    H = gf2.kernel_basis(G)  # 11 x 23, spans the dual, which the code contains
    return CssCode(H, H)


def random_hypermap_code(seed: int, lo: int, hi: int) -> CssCode:
    rng = random.Random(seed)
    while True:
        n = rng.randint(24, 30)
        image = list(range(1, n + 1))
        rng.shuffle(image)
        sigma = Permutation(tuple(image))
        rng.shuffle(image)
        tau = Permutation(tuple(image))
        try:
            H = Hypermap(sigma, tau)
        except NotConnectedError:
            continue
        code = build_canonical(H)
        if lo <= code.n <= hi and params(code).k >= 1:
            return code


def cases():
    yield "toric 2x2", surface_code(rotation_to_surface(toric_rotation_graph(2, 2)))
    yield "toric 3x3", surface_code(rotation_to_surface(toric_rotation_graph(3, 3)))
    yield "random hypermap", random_hypermap_code(2024, 18, 22)
    yield "golay [[23,1,7]]", golay_css()


def time_distance(code, repeats: int) -> tuple[float, tuple[int, int]]:
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = distance_split(code)
        best = min(best, time.perf_counter() - start)
    return best, result


def known_distances(label: str) -> tuple[int, int] | None:
    """``(dx, dz)`` a case must give: ``min(L, M)`` twice for toric ``LxM``, 7 twice for Golay."""
    toric = re.fullmatch(r"toric (\d+)x(\d+)", label)
    if toric:
        d = min(int(toric[1]), int(toric[2]))
        return d, d
    return (7, 7) if label.startswith("golay") else None


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats per case")
    args = parser.parse_args()

    header = f"{'code':<20} {'n':>3} {'k':>2} {'dx':>3} {'dz':>3} {'best [s]':>12}"
    print(header)
    print("-" * len(header))
    for label, code in cases():
        p = params(code)
        seconds, (dx, dz) = time_distance(code, args.repeats)
        print(f"{label:<20} {p.n:>3} {p.k:>2} {dx:>3} {dz:>3} {seconds:>12.6f}")
        expected = known_distances(label)
        if expected and (dx, dz) != expected:
            sys.exit(f"{label}: (dx, dz) = {(dx, dz)}, expected {expected}")


if __name__ == "__main__":
    main()
