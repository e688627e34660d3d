"""Host speed: rescale measured times to a fixed reference speed.

On a small shared VM the host's speed drifts by tens of percent, on scales
from seconds to minutes: a fixed pure-Python loop took anywhere from 0.082 s
to 0.132 s on the machine this benchmark was tuned on, and the raw
run-to-run spread of the radii sweep's total op time reached 28%.  Over 157
leader ops alternating with a calibration kernel, the mean op time of each
window of 16 ops tracked the kernel with a correlation of 0.91.

So every time the benchmark reports is a wall time multiplied by
``REFERENCE_S / k``, where k is the mean of the kernel times measured in
the brackets right before and right after the timed call.  A bracket is the
median of at least three kernel runs, so one disturbed run does not move
it, and lasts about 5% of the call it follows, so that the speed behind a
30 s op is not read off a fraction of a second.

The kernel touches what the program's speed depends on: sparse LU solves
on a factor the size of the program's smaller coupled factors (tens of MB,
sharing the host's last-level cache with other tenants), a streaming pass
over a 64 MB array (memory bandwidth, as in the large factorizations),
small numpy operations and an interpreter loop (the dual loop).  It calls
no hierwave code, so a change to the program cannot move it.  It runs in
its own worker process (this file run as a script, fed run counts on its
standard input), so its memory does not count in the benchmark process's
peak RSS.  The worker is a plain child process, not a multiprocessing one:
the "spawn" start method also starts a resource-tracker process that
outlives the benchmark by a moment.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

# Median kernel time on the reference host (2 vCPU shared VM, Python 3.11,
# numpy 2.4, scipy 1.17, one BLAS thread).
REFERENCE_S = 0.040
BRACKET_SHARE = 0.05


def _laplacian_1d(n: int) -> scipy.sparse.spmatrix:
    return scipy.sparse.diags([np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)], [-1, 0, 1])


def _serve() -> None:
    """Worker loop: read a run count per line, answer with that many kernel times."""
    lap = _laplacian_1d(150)
    eye = scipy.sparse.eye(150)
    lu = scipy.sparse.linalg.splu((scipy.sparse.kron(eye, lap) + scipy.sparse.kron(lap, eye)).tocsc())
    stream = np.ones(8_000_000)
    vec = np.random.default_rng(0).standard_normal(200)

    def once() -> float:
        start = time.perf_counter()
        b = np.ones(lu.shape[0])
        for _ in range(5):
            b = lu.solve(b)
        for _ in range(2):
            float(stream.sum())
        c = vec.copy()
        for _ in range(1000):
            c = (vec * c + 1.0) / (1.0 + float(np.sum(c * c)) ** 0.5)
        acc = 0
        for i in range(150_000):
            acc += i
        return time.perf_counter() - start

    for line in sys.stdin:
        runs = int(line)
        print(" ".join(repr(once()) for _ in range(runs)), flush=True)


class Kernel:
    """The calibration kernel, run on request in a worker process."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, __file__, "--serve"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def bracket(self, after_s: float = 0.0) -> float:
        """Median kernel time over a bracket sized for a call of ``after_s`` seconds."""
        runs = max(3, math.ceil(BRACKET_SHARE * after_s / REFERENCE_S))
        self._proc.stdin.write(f"{runs}\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration kernel exited {self._proc.poll()}")
        return statistics.median(float(t) for t in line.split())

    def close(self) -> None:
        """End the worker (end of input stops it) and wait until it has exited."""
        try:
            self._proc.stdin.close()
        except OSError:
            pass
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def scale(before: float, after: float) -> float:
    """Factor taking a wall time measured between two kernel brackets to the reference speed."""
    return REFERENCE_S / (0.5 * (before + after))


if __name__ == "__main__" and sys.argv[1:] == ["--serve"]:
    _serve()
