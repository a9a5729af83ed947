"""Spans around calls into the layers of ``hypermap_codes``.

The tracer lives in the benchmark, not in the package: :meth:`Tracer.install`
replaces each traced function by a wrapper in every ``hypermap_codes``
namespace that holds it (module functions are also bound by ``from ...
import`` in other modules), and :meth:`Tracer.uninstall` puts the originals
back.  A span is ``(name, start, end, parent span, job id)``; spans stay in
memory until the caller asks for a summary or writes them out.

Self time of a span is its duration minus the time of its direct child
spans; calls run one at a time in one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import defaultdict

import numpy as np


# Counter hooks: (args, result) of a traced call -> {counter name: amount}.


def _cells(args, result):
    rows, cols = np.shape(args[0])
    return {"gf2.row_echelon.cells": rows * cols}


def _text_bytes(args, result):
    return {"gf2.parse_matrix.bytes": len(args[0])}


def _gates(args, result):
    return {"css.cnot_circuit.gates": len(result.gates), "css.cnot_circuit.bound": result.n * result.n}


def _candidates(args, result):
    # Candidates a weight-ordered search may test: sum_{w<=d} C(n, w) per sector.
    n = args[0].hx.shape[1]
    return {"distance.candidates_bound": sum(math.comb(n, w) for d in result for w in range(1, d + 1))}


# (module, attribute path, metric name, counter hook).  These are the calls
# the per-layer metrics name; untraced helpers count toward the self time of
# the traced caller.
TARGETS = [
    ("cli", "main", "cli.main", None),
    ("hypermap", "Permutation.orbits", "hypermap.Permutation.orbits", None),
    ("hypermap", "Permutation.inverse", "hypermap.Permutation.inverse", None),
    ("hypermap", "Hypermap.__post_init__", "hypermap.Hypermap.init", None),
    ("hypermap", "load_hypermap", "hypermap.load_hypermap", None),
    ("chain", "boundary_pair", "chain.boundary_pair", None),
    ("chain", "project_nonspecial", "chain.project_nonspecial", None),
    ("chain", "dart_vertex_sum", "chain.dart_vertex_sum", None),
    ("chain", "face_dart_sum", "chain.face_dart_sum", None),
    ("surface", "hypermap_to_surface", "surface.hypermap_to_surface", None),
    ("surface", "surface_code", "surface.surface_code", None),
    ("surface", "verify_equivalence", "surface.verify_equivalence", None),
    ("gf2", "row_echelon", "gf2.row_echelon", _cells),
    ("gf2", "decompose_elementary", "gf2.decompose_elementary", None),
    ("gf2", "parse_matrix", "gf2.parse_matrix", _text_bytes),
    ("gf2", "format_matrix", "gf2.format_matrix", None),
    ("css", "apply_cnot", "css.apply_cnot", None),
    ("css", "transform", "css.transform", None),
    ("css", "cnot_circuit", "css.cnot_circuit", _gates),
    ("css", "read_stabilizer", "css.read_stabilizer", None),
    ("css", "write_stabilizer", "css.write_stabilizer", None),
    ("css", "params", "css.params", None),
    ("css", "stabilizer_equal", "css.stabilizer_equal", None),
    ("css", "build_canonical", "css.build_canonical", None),
    ("distance", "distance_split", "distance.distance_split", _candidates),
    ("distance", "_default_kernel", "distance.kernel", None),
]


class Tracer:
    """Records spans while installed; :meth:`take` hands them over."""

    def __init__(self):
        self.job = None
        self._spans: list = []
        self._stack: list[int] = []
        self._counters: dict = defaultdict(int)
        self._patches: list = []

    def _wrap(self, name, fn, hook):
        spans, stack, counters = self._spans, self._stack, self._counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job)
            if hook is not None:
                for key, value in hook(args, result).items():
                    counters[key] += value
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items()) if key.startswith("hypermap_codes")]
        for module_name, path, name, hook in TARGETS:
            owner = importlib.import_module(f"hypermap_codes.{module_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original, hook)
            holders = [owner] if outer else [m for m in modules if m.__dict__.get(attr) is original]
            for holder in holders:
                setattr(holder, attr, wrapper)
                self._patches.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def take(self) -> tuple[list, dict]:
        """Return and clear the recorded spans and counters."""
        if self._stack:
            raise RuntimeError("spans still open")
        spans, counters = list(self._spans), dict(self._counters)
        self._spans.clear()
        self._counters.clear()
        return spans, counters


def summarize(spans, counters) -> dict:
    """Per-name ``calls`` and ``self_s`` plus the counters, one flat dict."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = defaultdict(float)
    for idx, (name, start, end, _, _) in enumerate(spans):
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += (end - start) - child[idx]
    for key, value in counters.items():
        out[key] += value
    return dict(out)
