"""A fixed reference computation that gauges how fast the host runs right now.

The benchmark runs on shared hosts, where the same code runs up to 1.9x
slower in one minute than in the next, in wall and CPU time alike.  A
job's wall time divided by the reference's time right next to it hardly
moves with that: on a 2-vCPU Xeon, the median of this ratio over 15-s
windows stayed within 2% while the job's own median moved by 7% and its
best time by 15%.  Multiplied by ``QUIET_S``, the ratio reads as the job's
time on a quiet host.  The reference uses no part of ``hypermap_codes``,
so a change to the package moves the ratio by its full effect.
"""

from __future__ import annotations

import time

import numpy as np

# Best time of ``reference()`` on a quiet host (Intel Xeon, 2 vCPUs,
# Python 3.11, numpy 2.4).  It only sets the scale of normalised times.
QUIET_S = 0.62e-3
# Reference calls on each side of a set-up, whose median normalises it.
REF_RUNS = 5


def reference() -> int:
    """Interpreter work (dict and integer ops) and small integer matrix products."""
    counts: dict = {}
    acc = 0
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i
        acc ^= (i * 2654435761) & 0xFFFF
    a = np.arange(64, dtype=np.uint8).reshape(8, 8)
    for _ in range(30):
        a = (a @ a) % 2
    return acc + int(a.sum())


def timed_reference() -> float:
    """Wall time of one ``reference()`` call, in seconds."""
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start
