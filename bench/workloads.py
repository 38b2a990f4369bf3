"""The benchmark's three closed-loop workloads.

One client on one core sends the next operation only after the previous
one has finished, like a user at a terminal or a plotting script. Each
operation is timed from outside the package and its output is checked by
content. The seed draws only label phases: magnitudes and grid sizes are
fixed, so every round does the same amount of work.
"""

import cmath
import json
import math
import os
import re
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import speed
import tracing
from triladder import coherent, wavepacket
from triladder.grid import GridSpec

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

# Gate tolerances, equal to the constants of the same names in triladder.cli.
# They are repeated here so that no change to the package can loosen them.
SPOT_CHECK_TOL = 1e-6
RESIDUAL_TOL = 1e-10
DUAL_PATH_TOL = 1e-8
SERIES_TOL = 1e-10
CHAIN_TOL = 1e-12
# The benchmark's own gates. eigen_residual grows with |alpha| (1.7e-10 at
# N = 901), so it is checked relative to |alpha|; slice integrals of a
# packet that stays inside the window are 1 to rounding.
EIGEN_REL_TOL = 1e-10
INTEGRAL_TOL = 1e-10

COMMAND_TIMEOUT_S = 60.0
TWO_PI = 2.0 * math.pi


@dataclass
class Op:
    """One timed operation and whether its output passed the checks."""

    name: str
    seconds: float
    ok: bool
    detail: str = ""


class Checks:
    """Worst measured value over its tolerance, per check, across a run."""

    def __init__(self):
        self.worst = {}

    def passes(self, name, value, tol):
        ratio = value / tol if math.isfinite(value) else sys.float_info.max
        self.worst[name] = max(self.worst.get(name, 0.0), ratio)
        return ratio < 1.0


def child_env():
    """This process's environment, importing the package from this checkout."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def with_phase(magnitude, rng):
    """A label of the given modulus with a phase drawn from the seeded ``rng``."""
    return magnitude * cmath.exp(1j * rng.uniform(0.0, TWO_PI))


def attempt(body, *args):
    """``body(*args) -> (ok, detail)``, where raising counts as failing."""
    try:
        return body(*args)
    except Exception as exc:  # the loop must go on and count the failure
        return False, f"{type(exc).__name__}: {exc}"


def timed(name, body):
    """Run and check ``body`` as one operation, timing both."""
    start = time.perf_counter()
    ok, detail = attempt(body)
    return Op(name, time.perf_counter() - start, ok, detail)


@contextmanager
def traced(tracer):
    """Install the timing wrappers in this process for the duration."""
    if tracer is None:
        yield
        return
    tracing.install(tracer)
    try:
        yield
    finally:
        tracer.uninstall()


def read_csv(path):
    """Header line and float rows of a '#'-commented CSV file."""
    lines = [
        line
        for line in Path(path).read_text(encoding="ascii").splitlines()
        if line and not line.startswith("#")
    ]
    header, body = lines[0], lines[1:]
    values = np.array(",".join(body).split(","), dtype=float) if body else np.empty(0)
    return header, values.reshape(len(body), header.count(",") + 1)


class CliSession:
    """verify, density, piv and uncertainty, each in a fresh process."""

    name = "cli_session"
    runs_in_children = True

    def __init__(self, work_dir, density_grid=None, piv_xsteps=20001, timeout_s=COMMAND_TIMEOUT_S):
        self.work_dir = Path(work_dir)
        # None keeps the CLI's default 401 x 241 grid, as a user would.
        self.density_grid = density_grid
        self.piv_xsteps = piv_xsteps
        self.timeout_s = timeout_s
        self.checks = Checks()

    def setup(self):
        self.work_dir.mkdir(parents=True, exist_ok=True)
        warm = ["uncertainty", "--asteps", "2", "--out", "warmup.csv"]
        subprocess.run(
            [sys.executable, "-m", "triladder.cli", *warm],
            cwd=self.work_dir, env=child_env(), capture_output=True, timeout=self.timeout_s,
            check=True,
        )

    def reference(self):
        return speed.ProcessReference(self.work_dir, child_env())

    def plan(self, rng):
        """The round's commands as (name, argv, outputs, check) in session order."""
        z = with_phase(2.0, rng)
        x_steps, t_steps = self.density_grid or (401, 241)
        grid_args = [] if self.density_grid is None else ["--xsteps", str(x_steps), "--tsteps", str(t_steps)]
        samples = rng.integers(0, x_steps * t_steps, 100)
        density_files = [f"density_j{j}.csv" for j in range(3)]
        return [
            ("verify", ["verify"], [], self._check_verify),
            (
                "density",
                ["density", "--z-re", repr(z.real), "--z-im", repr(z.imag), "--out", "density.csv", *grid_args],
                density_files,
                lambda out: self._check_density(out, z, x_steps * t_steps, samples),
            ),
            ("piv", ["piv", "--xsteps", str(self.piv_xsteps), "--out", "piv.csv"], ["piv.csv"], self._check_piv),
            ("uncertainty", ["uncertainty", "--out", "uncertainty.csv"], ["uncertainty.csv"], self._check_uncertainty),
        ]

    def run_round(self, rng, tracer=None):
        return [self.run_command(*step, tracer=tracer) for step in self.plan(rng)]

    def run_command(self, name, argv, outputs, check, tracer=None):
        for out in outputs:
            (self.work_dir / out).unlink(missing_ok=True)
        if tracer is None:
            cmd = [sys.executable, "-m", "triladder.cli", *argv]
        else:
            record = self.work_dir / f"{name}.trace.json"
            record.unlink(missing_ok=True)
            cmd = [sys.executable, str(BENCH / "cli_child.py"), str(record), *argv]
        # Only the command is timed, as a user waits for it; the content
        # check that follows is the benchmark's own work.
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, cwd=self.work_dir, env=child_env(), capture_output=True, text=True,
                timeout=self.timeout_s,
            )
        except subprocess.TimeoutExpired:
            return Op(name, time.perf_counter() - start, False, f"timed out after {self.timeout_s:g} s")
        seconds = time.perf_counter() - start
        if tracer is not None and record.exists():
            tracer.absorb(json.loads(record.read_text(encoding="ascii")))
        if proc.returncode != 0:
            last = (proc.stderr.strip() or proc.stdout.strip()).splitlines()[-1:]
            return Op(name, seconds, False, f"exit code {proc.returncode}: {' '.join(last)}")
        return Op(name, seconds, *attempt(check, proc.stdout))

    def _check_verify(self, stdout):
        found = re.search(r"CHECKS passed=(\d+) failed=(\d+)", stdout)
        if not found or int(found[2]) != 0 or int(found[1]) == 0:
            return False, "verify did not report failed=0"
        return True, found[0]

    def _check_density(self, stdout, z, rows, samples):
        worst = 0.0
        for j in range(3):
            header, data = read_csv(self.work_dir / f"density_j{j}.csv")
            if header != "t,x,rho" or len(data) != rows:
                return False, f"j={j}: header {header!r} with {len(data)} rows, want {rows}"
            if not np.all(np.isfinite(data)) or np.any(data[:, 2] < 0):
                return False, f"j={j}: non-finite or negative values"
            t, x, rho = data[samples].T
            for reference in (wavepacket.rho_gaussian(j, z, x, t), wavepacket.rho_fock(j, z, x, t)):
                worst = max(worst, float(np.max(np.abs(rho - reference))))
        ok = self.checks.passes("spot", worst, SPOT_CHECK_TOL)
        return ok, f"sampled rows within {worst:.3e} of both density paths"

    def _check_piv(self, stdout):
        header, data = read_csv(self.work_dir / "piv.csv")
        if header != "solution_id,y,g,residual,excluded" or len(data) != 3 * self.piv_xsteps:
            return False, f"header {header!r} with {len(data)} rows, want {3 * self.piv_xsteps}"
        residuals = data[data[:, 4] == 0, 3]
        if residuals.size == 0 or not np.all(np.isfinite(residuals)):
            return False, "no included rows or a non-finite included residual"
        worst = float(np.max(np.abs(residuals)))
        return self.checks.passes("piv", worst, RESIDUAL_TOL), f"max included residual {worst:.3e}"

    def _check_uncertainty(self, stdout):
        header, data = read_csv(self.work_dir / "uncertainty.csv")
        rows = 3 * 201  # the CLI's default sweep
        if header != "abs_alpha,j,uncertainty_product" or len(data) != rows:
            return False, f"header {header!r} with {len(data)} rows, want {rows}"
        if not np.all(np.isfinite(data)):
            return False, "non-finite values"
        for j in range(3):
            family = data[data[:, 1] == j]
            at_zero = family[family[:, 0] == 0.0, 2]
            if at_zero.size != 1 or abs(at_zero[0] - (j + 0.5)) > CHAIN_TOL or family[:, 2].min() < at_zero[0]:
                return False, f"j={j}: minimum is not {j + 0.5} at |alpha| = 0"
        return True, "minima 1/2, 3/2, 5/2 at |alpha| = 0"

    def figures(self, op_seconds):
        """Per-command wall times and their sum, from one time per command."""
        names = ("verify_s", "density_s", "piv_s", "uncertainty_s")
        return {"session_s": (sum(op_seconds), "s"), **{n: (t, "s") for n, t in zip(names, op_seconds)}}


class FockField:
    """Both Fock evaluators on whole space-time grids, checked against the Gaussian path."""

    name = "fock_field"
    runs_in_children = False

    def __init__(self, z_abs=(2.0, 8.0), x_steps=401, t_steps=241):
        self.z_abs = z_abs
        self.x_steps = x_steps
        self.t_steps = t_steps
        self.checks = Checks()

    def setup(self):
        self.field(0, 2.0, 41, 25)

    def reference(self):
        return speed.GridReference(self.x_steps, self.t_steps)

    def run_round(self, rng, tracer=None):
        ops = []
        with traced(tracer):
            for z_abs in self.z_abs:
                for j in range(3):
                    z = with_phase(z_abs, rng)
                    ops.append(timed(f"j{j}_z{z_abs:g}", lambda: self.field(j, z, self.x_steps, self.t_steps)))
        return ops

    def field(self, j, z, x_steps, t_steps):
        # The window holds the whole packet, so every slice integrates to 1.
        half = math.sqrt(2.0) * abs(z) + 6.0
        grid = GridSpec(-half, half, x_steps, 0.0, TWO_PI, t_steps)
        xs, ts = grid.x_values(), grid.t_values()
        broadcast = wavepacket.rho_fock(j, z, xs[:, None], ts[None, :])
        sliced = wavepacket.density_fock(j, z, grid).values
        reference = wavepacket.density_gaussian(j, z, grid).values
        fields = np.stack([broadcast, sliced, reference])
        if not np.all(np.isfinite(fields)):
            return False, "non-finite density"
        dual = float(np.max(np.abs(fields[:2] - reference)))
        integral = float(np.max(np.abs(np.trapezoid(fields, x=xs, axis=1) - 1.0)))
        ok = self.checks.passes("dual_path", dual, DUAL_PATH_TOL)
        ok &= self.checks.passes("integral", integral, INTEGRAL_TOL)
        return ok, f"dual-path {dual:.3e}, slice integrals within {integral:.3e} of 1"

    def figures(self, op_seconds):
        points = self.x_steps * self.t_steps * len(op_seconds)
        return {"field_points_per_s": (points / sum(op_seconds), "1/s")}


class LargeLabel:
    """States up to N = 901 through dense operators, and the uncertainty series to 2e5."""

    name = "large_label"
    runs_in_children = False
    # adequate_truncation does not return above about 2e4 and a_norm_squared
    # overflows from 2.05e4 on, so only points up to here are operations.
    DOMAIN_MAX = 2e4

    def __init__(self, state_count=24, state_max=1.5e4, series_count=60, series_max=2e5):
        self.states = np.geomspace(1.0, state_max, state_count)
        sweep = np.geomspace(1.0, series_max, series_count)
        self.series = sweep[sweep <= self.DOMAIN_MAX]
        self.beyond = sweep[sweep > self.DOMAIN_MAX]
        self.checks = Checks()
        self.silent_nonfinite = []

    def setup(self):
        self.label(0, 10.0)
        coherent.a_norm_squared(0, 10.0)

    def reference(self):
        return speed.DenseReference()

    def run_round(self, rng, tracer=None):
        ops = []
        with traced(tracer):
            for j in range(3):
                for size in self.states:
                    alpha = with_phase(size, rng)
                    ops.append(timed(f"label_j{j}", lambda: self.label(j, alpha)))
            for j in range(3):
                ops.append(timed(f"series_j{j}", lambda: self.sweep(j)))
            self.silent_nonfinite.append(self.count_silent_nonfinite())
        return ops

    def label(self, j, alpha):
        spec = coherent.CoherentSpec(j, alpha)
        product = coherent.statistics(spec).uncertainty_product
        residual = coherent.eigen_residual(spec)
        series = coherent.a_norm_squared(j, abs(spec.alpha))
        if not all(math.isfinite(v) for v in (product, residual, series)):
            return False, f"non-finite result at |alpha| = {abs(alpha):g}"
        ok = self.checks.passes("eigen", residual / abs(spec.alpha), EIGEN_REL_TOL)
        ok &= self.checks.passes("series", abs(product - (series + 0.5)), SERIES_TOL)
        return ok, f"N={spec.truncation}"

    def sweep(self, j):
        values = np.array([coherent.a_norm_squared(j, float(a)) for a in self.series])
        if not np.all(np.isfinite(values)) or not np.all(np.diff(values) > 0):
            return False, "series sweep not finite and increasing"
        return True, f"{values.size} points"

    def count_silent_nonfinite(self):
        """Known defect: beyond DOMAIN_MAX the series returns inf or nan without raising."""
        silent = 0
        for j in range(3):
            for size in self.beyond:
                try:
                    silent += not math.isfinite(coherent.a_norm_squared(j, float(size)))
                except (ArithmeticError, ValueError):
                    pass  # failing loudly is the fixed behaviour
        return silent

    def figures(self, op_seconds):
        labels = 3 * len(self.states)
        return {
            "labels_per_s": (labels / sum(op_seconds[:labels]), "1/s"),
            "known_defects": (max(self.silent_nonfinite), "count"),
        }


def make(name, work_dir):
    """The full-size workload ``name``."""
    return {
        "cli_session": lambda: CliSession(work_dir),
        "fock_field": FockField,
        "large_label": LargeLabel,
    }[name]()
