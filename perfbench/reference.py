"""A fixed reference kernel that times how fast the host runs right now.

The host's speed drifts by up to ~2x over seconds to minutes when other
tenants load it.  Each timed operation is divided by the time of this kernel
run next to it, and multiplied by REFERENCE_US_PER_REP, the kernel's time per
rep on a quiet host, so times read as they would on that quiet host.  The
kernel touches nothing in quatu11 but has the same mix as its scalar layers:
products of 2x2 matrices held as nested lists of a small __slots__
quaternion class, each product allocating new objects, one small LAPACK call,
and two seeded numpy generators, as `random_element` makes one per call.
Plain float arithmetic slows down more under load than this mix does.  The
match is still not exact: on a host slowed 2-3x, `identities` reads up to
~25% faster than at a 1.9x slowdown.

A CLI call is a process of its own, and its slowdown does not follow a
kernel run in the parent.  Its reference is a process too: a fresh
interpreter that imports numpy, json and argparse, the stdlib and numpy part
of what `python -m quatu11.cli` loads, and nothing of quatu11.
"""

from __future__ import annotations

import math
import subprocess
import sys
from time import perf_counter

import numpy as np

# Fastest times seen on an Intel Xeon vCPU, Python 3.11, numpy 2.4.
REFERENCE_US_PER_REP = 98.0
PROCESS_REFERENCE_US = 150000.0
PROCESS_REFERENCE_ARGV = [sys.executable, "-c", "import numpy, json, argparse"]

_MATRIX = np.array([[1 + 2j, 0.5, 0.1j, 0.3], [0.2, 1 - 1j, 0.4, 0.1],
                    [0.3j, 0.2, 2.0, 0.5j], [0.1, 0.6, 0.2j, 1.5]])


class _Quat:
    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d

    def __add__(self, o):
        return _Quat(self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d)

    def __mul__(self, o):
        return _Quat(self.a * o.a - self.b * o.b - self.c * o.c - self.d * o.d,
                     self.a * o.b + self.b * o.a + self.c * o.d - self.d * o.c,
                     self.a * o.c - self.b * o.d + self.c * o.a + self.d * o.b,
                     self.a * o.d + self.b * o.c - self.c * o.b + self.d * o.a)

    def scaled(self, s):
        return _Quat(self.a * s, self.b * s, self.c * s, self.d * s)

    def norm(self):
        return math.sqrt(self.a * self.a + self.b * self.b
                         + self.c * self.c + self.d * self.d)


_STEP = [[_Quat(-0.2, 0.4, 0.9, -0.1), _Quat(0.1, 0.2, -0.3, 0.5)],
         [_Quat(0.3, -0.1, 0.2, 0.4), _Quat(-0.5, 0.2, 0.1, 0.3)]]


def _matmul(x, y):
    return [[x[i][0] * y[0][j] + x[i][1] * y[1][j] for j in range(2)]
            for i in range(2)]


def reference_seconds(reps: int) -> float:
    """Wall time of `reps` reps of the kernel."""
    start = perf_counter()
    for _ in range(reps):
        x = [[_Quat(1.0, 0.0, 0.0, 0.0), _Quat(0.0, 0.0, 0.0, 0.0)],
             [_Quat(0.0, 0.0, 0.0, 0.0), _Quat(1.0, 0.0, 0.0, 0.0)]]
        for _ in range(3):
            x = _matmul(x, _STEP)
            s = 1.0 / x[0][0].norm()
            x = [[q.scaled(s) for q in row] for row in x]
        np.linalg.eigvals(_MATRIX)
        for stream in range(2):
            np.random.default_rng([7, stream]).standard_normal(8)
    return perf_counter() - start


def process_reference_seconds(env, cwd) -> float:
    """Wall time of one run of the process reference."""
    start = perf_counter()
    subprocess.run(PROCESS_REFERENCE_ARGV, env=env, cwd=cwd, check=True,
                   timeout=60, stdout=subprocess.DEVNULL)
    return perf_counter() - start
