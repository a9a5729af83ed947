"""Benchmark of CNOT synthesis and the basis change of a code.

For each code length ``n`` and a dense or sparse random invertible basis
change ``T``, four calls are timed, best of ``--repeats`` runs:
``cnot_circuit(T)`` (elementary-factor decomposition), ``transform(code, T)``
(the circuit applied to the canonical code),
``code_from_boundary_change(H, S, T)`` (the independent boundary-pair
route) and ``gf2.parse_matrix`` of the text ``gf2.format_matrix(T)`` writes
(the one-pass read of the written layout).  The code is the canonical code
of a random hypermap whose permutations are both 3-cycles.  Each line also
gives the gate count against the ``n^2`` bound.  The two routes must agree
and the text must read back as ``T``; otherwise the script exits non-zero
with one line.

Run:  python3 benchmarks/bench_cnot.py [--repeats N]
"""

from __future__ import annotations

import argparse
import random
import time

import numpy as np

from hypermap_codes import gf2
from hypermap_codes.css import build_canonical, cnot_circuit, code_from_boundary_change, transform
from hypermap_codes.hypermap import Hypermap, NotConnectedError, choose_special_darts

SIZES = (32, 64, 128, 256)


def random_hypermap(seed: int, n: int) -> Hypermap:
    """Connected hypermap on ``3n/2`` darts, sigma and tau both 3-cycles (``n`` qubits)."""
    rng = random.Random(seed)
    darts = 3 * n // 2
    while True:
        cycles = []
        for _ in range(2):
            labels = list(range(1, darts + 1))
            rng.shuffle(labels)
            cycles.append([labels[k : k + 3] for k in range(0, darts, 3)])
        try:
            return Hypermap.from_cycles(darts, *cycles)
        except NotConnectedError:
            continue


def random_invertible(seed: int, n: int, dense: bool) -> np.ndarray:
    """Dense: uniform random invertible.  Sparse: identity plus ``3n`` entries
    above the diagonal, whose circuit has exactly ``3n`` gates."""
    rng = np.random.default_rng(seed)
    if dense:
        while True:
            T = rng.integers(0, 2, (n, n), dtype=np.uint8)
            if gf2.rank(T) == n:
                return T
    T = gf2.identity(n)
    rows, cols = np.triu_indices(n, 1)
    pick = rng.choice(rows.size, 3 * n, replace=False)
    T[rows[pick], cols[pick]] = 1
    return T


def cases():
    for n in SIZES:
        H = random_hypermap(n, n)
        for dense in (False, True):
            yield f"{'dense' if dense else 'sparse'} n={n}", H, random_invertible(n + dense, n, dense)


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
        f"{'case':<14} {'gates':>6} {'n^2':>6} {'ratio':>6} "
        f"{'circuit [s]':>12} {'transform [s]':>14} {'boundary [s]':>13} {'parse [s]':>10}"
    )
    print(header)
    print("-" * len(header))
    for label, H, T in cases():
        S = choose_special_darts(H)
        code = build_canonical(H, S)
        n = code.n
        t_circuit, circuit = best_of(args.repeats, cnot_circuit, T)
        t_transform, via_gates = best_of(args.repeats, transform, code, T)
        t_boundary, via_boundary = best_of(args.repeats, code_from_boundary_change, H, S, T)
        if not (
            np.array_equal(via_gates.hx, via_boundary.hx)
            and np.array_equal(via_gates.hz, via_boundary.hz)
        ):
            raise SystemExit(f"{label}: the CNOT and boundary-change routes disagree")
        t_parse, parsed = best_of(args.repeats, gf2.parse_matrix, gf2.format_matrix(T))
        if not np.array_equal(parsed, T):
            raise SystemExit(f"{label}: parse_matrix(format_matrix(T)) does not return T")
        print(
            f"{label:<14} {len(circuit):>6} {n * n:>6} {len(circuit) / (n * n):>6.3f} "
            f"{t_circuit:>12.6f} {t_transform:>14.6f} {t_boundary:>13.6f} {t_parse:>10.6f}"
        )


if __name__ == "__main__":
    main()
