"""Fixed reference computations that measure how fast the host runs right now.

The benchmark's machine is a few virtual cores of a shared host, whose
neighbours slow a process by up to 2x in phases lasting seconds to minutes;
how much depends on what the process does (memory-bound dense matrices
suffer most, small interpreter loops least). A run times its workload's
reference before and after every round and reports each round's wall time
over the reference's, times the reference's nominal time, so that a phase
slowing both cancels out.

Each workload has its own reference, doing the same kind of work as the
workload with numpy alone: no triladder code runs in it, so no change to
the package moves it. The nominal times are round figures near the
references' medians on the 2-vCPU virtual machine (Python 3.11, numpy 2.4,
OpenBLAS, one BLAS thread) where the benchmark was written; they only fix
the scale, so that a scaled time reads close to a wall time there.
"""

import math
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np

# A fresh interpreter that imports numpy and writes a CSV file from an array,
# one float at a time, as each CLI command does.
CSV_CHILD = """
import sys
import numpy as np
values = np.exp(-np.linspace(-8.0, 8.0, 20000) ** 2)
rows = [(repr(float(i)), repr(float(v)), repr(float(v * v))) for i, v in enumerate(values)]
with open(sys.argv[1], "w", encoding="ascii") as fh:
    fh.write("i,v,v2\\n")
    for row in rows:
        fh.write(",".join(row) + "\\n")
"""


class StartReference:
    """Start Python and import numpy (the work of every set-up, which begins in a fresh process)."""

    nominal_s = 0.16

    def __init__(self, env):
        self.env = env

    def run(self):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import numpy"], env=self.env, capture_output=True, check=True, timeout=60
        )
        return time.perf_counter() - start


class ProcessReference:
    """Start Python, import numpy and write a CSV file (the cli_session kind of work)."""

    nominal_s = 0.25

    def __init__(self, work_dir, env):
        self.out = Path(work_dir) / "reference.csv"
        self.env = env

    def run(self):
        start = time.perf_counter()
        # Pipes, as the CLI commands have: without them, waiting with a
        # timeout polls and rounds the time up to the next 50 ms.
        subprocess.run(
            [sys.executable, "-c", CSV_CHILD, str(self.out)], env=self.env, capture_output=True,
            check=True, timeout=60,
        )
        return time.perf_counter() - start


class GridReference:
    """Hermite-function rows and their phases on a space-time grid (the fock_field kind of work)."""

    nominal_s = 0.085
    LEVELS = 40

    def __init__(self, x_steps=401, t_steps=241):
        x, t = np.meshgrid(np.linspace(-10.0, 10.0, x_steps), np.linspace(0.0, 2 * math.pi, t_steps))
        self.x, self.t = x.ravel(), t.ravel()

    def run(self):
        start = time.perf_counter()
        rows = np.empty((self.LEVELS, self.x.size))
        rows[0] = np.exp(-self.x * self.x / 2.0)
        rows[1] = math.sqrt(2.0) * self.x * rows[0]
        for n in range(1, self.LEVELS - 1):
            rows[n + 1] = math.sqrt(2.0 / (n + 1)) * self.x * rows[n] - math.sqrt(n / (n + 1.0)) * rows[n - 1]
        levels = np.arange(0, self.LEVELS, 3)
        psi = np.sum(np.exp(-1j * np.outer(levels, self.t)) * rows[levels], axis=0)
        float(np.sum(np.abs(psi) ** 2))
        return time.perf_counter() - start


class DenseReference:
    """Dense complex ladder matrices, their cube and matrix-vector moments (the large_label kind of work)."""

    nominal_s = 0.08
    SIZES = (400, 600)

    def run(self):
        start = time.perf_counter()
        for n in self.SIZES:
            a = np.diag(np.sqrt(np.arange(1, n, dtype=float)), k=1).astype(complex)
            x = (a + a.conj().T) / math.sqrt(2.0)
            p = 1j * (a.conj().T - a) / math.sqrt(2.0)
            h = np.diag(np.arange(n, dtype=float) + 0.5).astype(complex)
            cube = a @ a @ a
            vec = np.full(n, 1.0 / math.sqrt(n), dtype=complex)
            float(np.linalg.norm(cube @ vec) + np.vdot(vec, x @ vec).real + np.vdot(vec, p @ vec).real
                  + np.vdot(vec, h @ vec).real)
        return time.perf_counter() - start


def scaled_median(walls, before, after, nominal_s):
    """Median of each wall time over the mean of the reference times either side of it.

    ``before[i]`` and ``after[i]`` were timed just before and just after
    ``walls[i]``; the result is in seconds at the reference's nominal speed.
    """
    return median(wall * nominal_s * 2.0 / (b + a) for wall, b, a in zip(walls, before, after))
