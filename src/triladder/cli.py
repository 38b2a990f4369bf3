"""Command-line front end: verification suite and CSV data emission.

All output files are ASCII CSV with LF line endings, '#'-prefixed comment
headers echoing the configuration, and floats written in shortest
round-trip form, so repeated runs with the same flags are bit-identical.

Exit codes: 0 on success, 1 when a check fails, a result is not finite or a
label is past its limit, 2 for invalid input. The data commands refuse
through one gate (``_gate``) and write through one envelope (``_emit``),
each with one report line; neither adds an exit code.
"""

import argparse
import dataclasses
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, coherent, fock, painleve, wavepacket
from .grid import GridSpec

EIGEN_TOL = 1e-10
RESIDUAL_TOL = 1e-10
ALGEBRA_TOL = 1e-12
CHAIN_TOL = 1e-12
SERIES_TOL = 1e-10
TRIANGLE_TOL = 1e-12
PARTITION_TOL = 1e-10
DUAL_PATH_TOL = 1e-8
PERIOD_TOL = 1e-10
NON_PERIOD_FLOOR = 1e-3

# The most memory, in bytes, that a piv or density grid or an uncertainty sweep
# (|alpha| steps by families) may ask for: its sample count times the peak RSS
# per sample. A density cell costs 226 B on one t row, each x label its own string
# (246.0 -> 461.4 MiB from 1e6 to 2e6 x points), 137 B on 241 rows (81.5 -> 232.3 MiB
# from 1601 to 6401); 250 B also covers the 33 MB at start and 55 MB of Fock blocks.
# A piv x point costs 1.1 KB (251.7 MB at 200 001 points), an uncertainty row 260 B
# (103.2 MiB at 100 001 steps, 176.9 MiB at 200 001). A larger one exits 2 at once.
GRID_MEMORY_LIMIT = 2**30
_BYTES_PER_SAMPLE = dict(density=250, piv=1100, uncertainty=260)


def _worst(values) -> float:
    """Largest of the non-negative ``values`` (0.0 for none), NaN if any is NaN.

    The builtin ``max(0.0, nan)`` is 0.0, so a running maximum would drop
    the NaN and the gate after it would pass.
    """
    return float(np.max(values, initial=0.0))


def _within(worst, tol) -> bool:
    """The one gate test: ``worst`` is finite and below ``tol``."""
    return math.isfinite(worst) and worst < tol


def _write_csv(path, comments, header, rows):
    path = Path(path)
    with path.open("w", encoding="ascii", newline="\n") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    return path


def _gate(command, what, worst, tol) -> bool:
    """Whether ``worst`` passes ``_within``; a failure prints the one refusal
    line, after which the data command writes nothing and returns 1."""
    if _within(worst, tol):
        return True
    print(f"{command}: {what} {worst:.3e}, not below {tol:g}; no file written", file=sys.stderr)
    return False


def _emit(path, command, config_lines, header, rows, count, summary="", results=()):
    """Write ``rows`` (``count`` of them, maybe an iterator) under the comments
    ``command=``, ``config_lines``, ``version=`` and ``results``, and print the
    one ``wrote`` line."""
    comments = [f"command={command}", *config_lines, f"version={__version__}", *results]
    out = _write_csv(path, comments, header, rows)
    print(f"wrote {out} ({count} rows){summary}")


# ---------------------------------------------------------------- verify --
#
# Every check takes whether its --inject-* flag is set and returns
# (passed, detail); the suite has no other input.


def _check_fock_algebra(inject):
    n = 60
    interior = n - 3  # rows/columns with index <= n - 4
    lowering, _ = fock.build_deformed_ladders(n)
    ag = lowering.matrix.copy()
    if inject:
        ag[0, 1] += 1e-3
    agd = ag.conj().T
    h = fock.build_hamiltonian(n).matrix
    num = fock.number_analogue(n).matrix
    num_shift = fock.number_analogue(n, shift=3.0).matrix

    comm_h = h @ ag - ag @ h
    dev1 = np.linalg.norm((comm_h + 3.0 * ag)[:interior, :interior]) / np.linalg.norm(
        ag[:interior, :interior]
    )
    comm_g = ag @ agd - agd @ ag
    ladder_gap = num_shift - num
    dev2 = np.linalg.norm(
        (comm_g - ladder_gap)[:interior, :interior]
    ) / np.linalg.norm(ladder_gap[:interior, :interior])
    dev3 = np.linalg.norm(agd @ ag - num) / np.linalg.norm(num)
    worst = _worst([dev1, dev2, dev3])
    return (
        _within(worst, ALGEBRA_TOL),
        f"N={n} max_rel_err={worst:.3e} (tol {ALGEBRA_TOL:g})",
    )


_EXPECTED_PARAMS = {
    (1, 2, 3): (Fraction(0), Fraction(-2, 9)),
    (2, 1, 3): (Fraction(-1), Fraction(-8, 9)),
    (3, 1, 2): (Fraction(-2), Fraction(-2, 9)),
}


def _check_piv_parameters(inject):
    problems = []
    for ordering, (want_a, want_b) in _EXPECTED_PARAMS.items():
        seed = painleve.ExtremalSeed(ordering)
        got_a, got_b = painleve.piv_parameters(seed)
        if inject:
            e1, e2, e3 = seed.energies_tilde
            got_a = e2 + e3 + 2 * e1 - 1
        if (got_a, got_b) != (want_a, want_b):
            problems.append(
                f"ordering {ordering}: got (a, b) = ({got_a}, {got_b}),"
                f" want ({want_a}, {want_b})"
            )
        if any(painleve.residual_numerator(ordering[0], got_a, got_b)):
            problems.append(
                f"ordering {ordering}: the residual numerator at ({got_a}, {got_b})"
                " is not the zero polynomial"
            )
    return not problems, "; ".join(problems) or (
        "three (a, b) pairs exact; each residual numerator is the zero polynomial"
    )


def _check_piv_residual(inject):
    grid = GridSpec(-10.0, 10.0, 2001)
    solutions = painleve.builtin_solutions()
    if inject:
        base = solutions[0]
        solutions = [dataclasses.replace(base, g=lambda y: base.g(y) + 0.01)]
    scans = [painleve.residual_scan(s, grid) for s in solutions]
    worst = _worst(np.concatenate([np.abs(s.residual[~s.excluded]) for s in scans]))
    excluded = sum(np.count_nonzero(s.excluded) for s in scans)
    return (
        _within(worst, RESIDUAL_TOL),
        f"max_residual={worst:.3e} over {len(solutions)} scans,"
        f" {excluded} excluded points (tol {RESIDUAL_TOL:g})",
    )


def _check_cs_eigen(inject):
    if not inject:
        rng = np.random.default_rng(20240601)
        residuals = []
        for _ in range(12):
            j = int(rng.integers(0, 3))
            alpha = rng.uniform(0.0, 5.0) * np.exp(2j * np.pi * rng.uniform())
            residuals.append(coherent.eigen_residual(coherent.CoherentSpec(j, alpha)))
        worst = _worst(residuals)
        return (
            _within(worst, EIGEN_TOL),
            f"worst residual {worst:.3e} over 12 samples (tol {EIGEN_TOL:g})",
        )
    # each family's state at alpha = 4 cut to 5 levels, far below its tail-rule
    # size, and renormalized; a_g takes |3> to sqrt(6) |0> and |4> to sqrt(24) |1>
    failures = []
    for j in range(3):
        spec = coherent.CoherentSpec(j, 4.0)
        cut = spec.coeffs[:5] / np.linalg.norm(spec.coeffs[:5])
        lowered = np.zeros(5, complex)
        lowered[:2] = np.sqrt([6.0, 24.0]) * cut[3:]
        res = float(np.linalg.norm(lowered - spec.alpha * cut))
        if not _within(res, EIGEN_TOL):
            failures.append(
                f"j={j} residual={res:.3e} at truncation 5;"
                f" suggested truncation >= {spec.truncation}"
            )
    return not failures, "; ".join(failures)


def _check_cs_statistics(inject):
    minima_dev = _worst(
        [abs(coherent.a_norm_squared(j, 0.0) + 0.5 - (j + 0.5)) for j in range(3)]
    )
    chain, series = [], []
    perturb = 1e-6 if inject else 0.0  # applied to the first sample only
    for j in range(3):
        for alpha in (0.0, 1.0, 0.8 + 0.6j, 3.5 - 1.2j, 4.9j):
            st = coherent.statistics(coherent.CoherentSpec(j, alpha))
            product = st.uncertainty_product + perturb
            perturb = 0.0
            chain += [
                abs(st.mean_x),
                abs(st.mean_p),
                abs(st.mean_x2 - st.mean_p2),
                abs(st.mean_x2 - st.mean_H),
                abs(st.mean_x2 - product),
            ]
            series.append(abs(product - (coherent.a_norm_squared(j, abs(alpha)) + 0.5)))
    chain_dev, series_dev = _worst(chain), _worst(series)
    ok = (
        _within(minima_dev, CHAIN_TOL)
        and _within(chain_dev, CHAIN_TOL)
        and _within(series_dev, SERIES_TOL)
    )
    return (
        ok,
        f"minima_dev={minima_dev:.3e} chain_dev={chain_dev:.3e}"
        f" series_dev={series_dev:.3e} (tols {CHAIN_TOL:g}/{SERIES_TOL:g})",
    )


def _check_triangle(inject):
    errors = []
    for j in range(3):
        for z in (1.0, 2.0, 3.0, 0.9 + 1.1j):
            tri = coherent.triangle_decompose(z, j)
            if inject:
                w0, w1, w2 = tri.weights
                tri = dataclasses.replace(tri, weights=(w0, w1 * (1 + 1e-6), w2))
            errors.append(np.max(np.abs(tri.reconstruction() - tri.target())))
    partition = []
    for z in (1.0, 1.7, 3.0):
        total = sum(
            np.linalg.norm(coherent.triangle_decompose(z, j).target()) ** 2 for j in range(3)
        )
        partition.append(abs(total - math.exp(z**2)) / math.exp(z**2))
    worst, partition_dev = _worst(errors), _worst(partition)
    return (
        _within(worst, TRIANGLE_TOL) and _within(partition_dev, PARTITION_TOL),
        f"max_coeff_err={worst:.3e} partition_dev={partition_dev:.3e}"
        f" (tols {TRIANGLE_TOL:g}/{PARTITION_TOL:g})",
    )


def _dual_path(j, z, grid, inject):
    """The Gaussian-path field of family ``j`` at ``z`` on ``grid``, and max
    |fock - gaussian| over every cell; ``inject`` adds 1e-6 to the Fock side.
    The Fock field comes first, so a label past its limit raises before any
    Gaussian grid work.
    """
    fock = wavepacket.density_fock(j, z, grid).values
    field = wavepacket.density_gaussian(j, z, grid)
    return field, _worst(np.abs(fock + 1e-6 * inject - field.values))


_CHECK_GRID = GridSpec(-8.0, 8.0, 161, 0.0, 2.0 * math.pi, 41)  # the default ranges, coarser


def _check_density_dual(inject):
    worst = _worst([_dual_path(j, 2.0, _CHECK_GRID, inject)[1] for j in range(3)])
    return (
        _within(worst, DUAL_PATH_TOL),
        f"max |fock - gaussian| = {worst:.3e} at z=2,"
        f" {_CHECK_GRID.x_steps} x {_CHECK_GRID.t_steps} grid per family (tol {DUAL_PATH_TOL:g})",
    )


def _check_period(inject):
    candidate = 2.0 * math.pi / 6.0 if inject else 2.0 * math.pi / 3.0
    worst = _worst([wavepacket.period_check(j, 2.0, _CHECK_GRID, candidate) for j in range(3)])
    off_period = wavepacket.period_check(0, 2.0, _CHECK_GRID, 2.0 * math.pi / 6.0)
    ok = (
        _within(worst, PERIOD_TOL)
        and math.isfinite(off_period)
        and off_period > NON_PERIOD_FLOOR
    )
    return (
        ok,
        f"period_dev={worst:.3e} (tol {PERIOD_TOL:g}),"
        f" 2pi/6 candidate dev={off_period:.3e} (must exceed {NON_PERIOD_FLOOR:g})",
    )


# (check name, --inject-* flag that corrupts exactly this check, check)
CHECKS = (
    ("fock-algebra", "commutator", _check_fock_algebra),
    ("piv-parameters", "piv-sign", _check_piv_parameters),
    ("piv-residual", "piv-residual", _check_piv_residual),
    ("cs-eigen", "eigen", _check_cs_eigen),
    ("cs-statistics", "stats", _check_cs_statistics),
    ("triangle", "triangle", _check_triangle),
    ("density-dual-path", "density", _check_density_dual),
    ("period", "period", _check_period),
)


def cmd_verify(ns) -> int:
    failed = 0
    for name, flag, check in CHECKS:
        passed, detail = check(getattr(ns, "inject_" + flag.replace("-", "_")))
        failed += not passed
        print(f"{'PASS' if passed else 'FAIL'} {name:<18} {detail}")
    print(
        "note: the (a, b) map uses a = E~2 + E~3 - 2 E~1 - 1; the +2 E~1 sign"
        " variant contradicts the reference parameter table"
        " (--inject-piv-sign demonstrates the failure)"
    )
    print(f"CHECKS passed={len(CHECKS) - failed} failed={failed}")
    return 0 if failed == 0 else 1


# ----------------------------------------------------------- uncertainty --


def cmd_uncertainty(ns) -> int:
    amin, amax, asteps = ns.amin, ns.amax, ns.asteps
    if amin < 0 or asteps < 1 or (asteps > 1 and amax <= amin) or amax < amin:
        print("uncertainty: invalid sweep range", file=sys.stderr)
        return 2
    families = [0, 1, 2] if ns.j is None else [ns.j]
    rows = []
    for abs_alpha in np.linspace(amin, amax, asteps).tolist():
        alpha_text = repr(abs_alpha)
        for j in families:
            product = coherent.a_norm_squared(j, abs_alpha) + 0.5
            if not math.isfinite(product):
                print(
                    f"uncertainty: the a_norm_squared series is not finite at"
                    f" |alpha|={abs_alpha!r}, j={j} (it overflows from about"
                    " |alpha| = 1.9e4); no file written",
                    file=sys.stderr,
                )
                return 1
            rows.append((alpha_text, str(j), repr(product)))
    config = [
        f"amin={amin!r} amax={amax!r} asteps={asteps}",
        f"families={','.join(str(j) for j in families)}",
        "uncertainty_product = a_norm_squared(j, |alpha|) + 1/2",
    ]
    _emit(ns.out, "uncertainty", config, "abs_alpha,j,uncertainty_product", rows, len(rows))
    return 0


# ------------------------------------------------------------------- piv --


def cmd_piv(ns) -> int:
    grid = ns.grid
    config = [
        f"y range [{grid.x_min!r}, {grid.x_max!r}] with {grid.x_steps} points",
        f"delta={painleve.DEFAULT_DELTA!r} residual_tol={RESIDUAL_TOL:g}",
    ]
    ys = list(map(repr, grid.x_values().tolist()))
    rows, included, results = [], [], []
    for sol_id, ordering in enumerate(painleve.CANONICAL_ORDERINGS, start=1):
        seed = painleve.ExtremalSeed(ordering)
        a, b = painleve.piv_parameters(seed)
        sol = painleve.solution_from_extremal(seed)
        results.append(
            f"solution_id={sol_id} ordering={ordering} a={a} b={b}"
            f" singularities={list(sol.singularities)}"
        )
        scan = painleve.residual_scan(sol, grid)
        if scan.excluded.all():  # the gate below would pass it unchecked
            print(
                f"piv: solution {sol_id} is excluded at every grid point, so no"
                " residual is checked; no file written",
                file=sys.stderr,
            )
            return 1
        rows += zip(
            [str(sol_id)] * len(ys),
            ys,
            map(repr, scan.g.tolist()),
            map(repr, scan.residual.tolist()),
            map(str, scan.excluded.astype(int).tolist()),
        )
        included.append(np.abs(scan.residual[~scan.excluded]))
    worst = _worst(np.concatenate(included))
    if not _gate("piv", "max residual", worst, RESIDUAL_TOL):
        return 1
    results.append(f"max_included_residual={worst!r}")
    header = "solution_id,y,g,residual,excluded"
    summary = f", max residual {worst:.3e}"
    _emit(ns.out, "piv", config, header, rows, len(rows), summary, results)
    return 0


# --------------------------------------------------------------- density --


def cmd_density(ns) -> int:
    z = complex(ns.z_re, ns.z_im)
    grid = ns.grid
    sweep = ns.j is None
    families = [0, 1, 2] if sweep else [ns.j]
    base = Path(ns.out)
    xs, ts = grid.x_values(), grid.t_values()
    checked = []  # every family passes the dual-path gate before any file is written
    for j in families:
        field, worst = _dual_path(j, z, grid, ns.inject_spotcheck)
        what = f"dual-path check failed for j={j}: max |fock - gaussian| ="
        if not _gate("density", what, worst, DUAL_PATH_TOL):
            return 1
        checked.append((j, field, worst))
    # Rows run t-major: every x for the first t, then the next t.
    t_col = [t for t in map(repr, ts.tolist()) for _ in range(xs.size)]
    x_col = list(map(repr, xs.tolist())) * ts.size
    for j, field, worst in checked:
        out = base.with_name(f"{base.stem}_j{j}{base.suffix or '.csv'}") if sweep else base
        config = [
            f"j={j} z_re={z.real!r} z_im={z.imag!r}",
            f"x range [{grid.x_min!r}, {grid.x_max!r}] with {grid.x_steps} points",
            f"t range [{grid.t_min!r}, {grid.t_max!r}] with {grid.t_steps} points",
            f"dual_path_max_err={worst!r} (tol {DUAL_PATH_TOL:g})",
        ]
        rows = zip(t_col, x_col, map(repr, field.values.T.ravel().tolist()))
        _emit(out, "density", config, "t,x,rho", rows, len(t_col), f", dual-path check {worst:.3e}")
        meta = out.with_name(out.name + ".meta")
        with meta.open("w", encoding="ascii", newline="\n") as fh:
            fh.write(f"command=density\nj={j}\n")
            fh.write(f"z_re={z.real!r}\nz_im={z.imag!r}\n")
            for name in ("x_min", "x_max", "x_steps", "t_min", "t_max", "t_steps"):
                fh.write(f"{name}={getattr(grid, name)}\n")
            fh.write(f"version={__version__}\n")
    return 0


# ------------------------------------------------------------- decompose --


def cmd_decompose(ns) -> int:
    z = complex(ns.z_re, ns.z_im)
    tri = coherent.triangle_decompose(z, ns.j)
    rec = tri.reconstruction()
    target = tri.target()
    errors = np.abs(rec - target)
    worst = float(np.max(errors))
    # the coefficients grow like e^(|z|^2/2), so the error is gated relative to them
    scale = float(np.max(np.abs(target), initial=1.0))
    scaled = worst / scale
    if not _gate("decompose", "max scaled error", scaled, TRIANGLE_TOL):
        return 1
    config = [
        f"j={ns.j} z_re={z.real!r} z_im={z.imag!r} truncation={len(target)}",
        "weights=" + " ".join(f"({w.real!r},{w.imag!r})" for w in tri.weights),
        "labels=" + " ".join(f"({l.real!r},{l.imag!r})" for l in tri.labels),
        f"max_abs_error={worst!r} scale={scale!r} (tol {TRIANGLE_TOL:g} on max_abs_error/scale)",
    ]
    columns = [
        map(repr, arr.tolist())
        for arr in (target.real, target.imag, rec.real, rec.imag, errors)
    ]
    rows = zip(map(str, range(len(target))), *columns)
    header = "n,target_re,target_im,reconstructed_re,reconstructed_im,abs_error"
    summary = f", max scaled error {scaled:.3e}"
    _emit(ns.out, "decompose", config, header, rows, len(target), summary)
    return 0


# --------------------------------------------------------------- moments --


def _read_samples(path: Path):
    samples = []
    with path.open("r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(
                    f"parse error at line {lineno}: expected two columns, got"
                    f" {len(parts)}"
                )
            try:
                samples.append((float(parts[0]), float(parts[1])))
            except ValueError:
                raise ValueError(
                    f"parse error at line {lineno}: non-numeric value in {line!r}"
                ) from None
    return samples


def cmd_moments(ns) -> int:
    sample_path = Path(ns.samples)
    try:
        samples = _read_samples(sample_path)
        rows = coherent.moment_check(ns.j, samples, ns.nmax)
    except (OSError, ValueError) as exc:  # an unreadable or rejected sample file
        print(f"moments: {exc}", file=sys.stderr)
        return 2
    passed = [_within(row.rel_error, ns.rtol) for row in rows]
    config = [
        f"j={ns.j} n_max={ns.nmax} rtol={ns.rtol!r} samples={sample_path}",
        "target(n) = (3(n-1)+j)! ; computed(n) = trapezoid of x^(n-1) f(x)",
    ]
    out_rows = [
        (str(r.n), repr(r.computed), str(r.target), repr(r.rel_error), str(int(ok)))
        for r, ok in zip(rows, passed)
    ]
    failures = passed.count(False)
    summary = f", {len(rows) - failures} passed, {failures} failed"
    header = "n,computed,target,rel_error,passed"
    _emit(ns.out, "moments", config, header, out_rows, len(rows), summary)
    return 0 if failures == 0 else 1


# ------------------------------------------------------------------ main --


def _positive_int(text: str) -> int:
    """argparse type for --nmax: a size of at least one."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _finite_float(text: str) -> float:
    """argparse type for every float flag: inf and nan are rejected."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads every token like -1e-3 or -inf as a value.

    Python 3.11's argparse takes only -3 or -0.5 style tokens as negative
    numbers and reads -1e-3 as an unknown option, so `--xmin -1e-3` would
    fail while `--xmin=-1e-3` works. No option here starts with a digit,
    a dot or "inf"/"nan", so the wider pattern shadows none; -inf and -nan
    reach _finite_float and are rejected there.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


# Every option a command may take: dest -> (help, type). Each command sets
# its own defaults in build_parser; the help text shows them.
_OPTIONS = {
    "j": ("coherent-state family index", int),
    "z_re": ("real part of the label z", _finite_float),
    "z_im": ("imaginary part of the label z", _finite_float),
    "xmin": ("grid start", _finite_float),
    "xmax": ("grid end", _finite_float),
    "xsteps": ("grid points", int),
    "tmin": ("time grid start", _finite_float),
    "tmax": ("time grid end", _finite_float),
    "tsteps": ("time grid points", int),
    "amin": ("sweep start", _finite_float),
    "amax": ("sweep end", _finite_float),
    "asteps": ("sweep points", int),
    "nmax": ("number of moments to check", _positive_int),
    "rtol": ("relative tolerance for a moment to pass", _finite_float),
    "out": ("output CSV path", str),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="triladder",
        description=(
            "Cubed-ladder oscillator toolkit: verify the operator algebra,"
            " scan the Painleve IV solutions, and emit coherent-state data"
            " as CSV."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, **defaults):
        p = sub.add_parser(name, help=help, description=help)
        p.set_defaults(func=func)
        for dest, default in defaults.items():
            text, kind = _OPTIONS[dest]
            p.add_argument(
                "--" + dest.replace("_", "-"),
                type=kind,
                default=default,
                choices=(0, 1, 2) if dest == "j" else None,
                help=text + " (default %(default)s)",
            )
        return p

    p = command("verify", cmd_verify, "run the full invariant suite")
    for _, flag, _ in CHECKS:
        p.add_argument("--inject-" + flag, action="store_true", help=argparse.SUPPRESS)
    command("uncertainty", cmd_uncertainty, "uncertainty-product sweep CSV; all families unless --j is set",
            j=None, amin=0.0, amax=10.0, asteps=201, out="uncertainty.csv")
    command("piv", cmd_piv, "residual scan of the three solutions",
            xmin=-10.0, xmax=10.0, xsteps=2001, out="piv_scan.csv")
    grid = wavepacket.DEFAULT_GRID
    p = command("density", cmd_density,
                "space-time density CSV; one file per family unless --j is set",
                j=None, z_re=2.0, z_im=0.0,
                xmin=grid.x_min, xmax=grid.x_max, xsteps=grid.x_steps,
                tmin=grid.t_min, tmax=grid.t_max, tsteps=grid.t_steps,
                out="density.csv")
    p.add_argument("--inject-spotcheck", action="store_true", help=argparse.SUPPRESS)
    command("decompose", cmd_decompose, "triangle reconstruction error table",
            j=0, z_re=2.0, z_im=0.0, out="decompose.csv")
    p = command("moments", cmd_moments, "moment check of a sampled weight",
                j=0, nmax=5, rtol=1e-3, out="moments.csv")
    p.add_argument("--samples", required=True, help="two-column file of (x, f) samples")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    shape = ()  # the samples the command would allocate, per axis
    if "xsteps" in ns:  # piv and density sample a grid
        t_axis = (ns.tmin, ns.tmax, ns.tsteps) if "tsteps" in ns else ()
        try:
            ns.grid = GridSpec(ns.xmin, ns.xmax, ns.xsteps, *t_axis)
        except ValueError as exc:
            parser.error(f"{ns.command}: {exc}")
        shape = (ns.grid.x_steps, ns.grid.t_steps)
    elif "asteps" in ns:  # uncertainty writes a row per |alpha| step and family
        shape = (ns.asteps, 3 if ns.j is None else 1)
    need = math.prod(shape) * _BYTES_PER_SAMPLE.get(ns.command, 0)
    if need > GRID_MEMORY_LIMIT:
        print(
            f"{ns.command}: a {shape[0]} x {shape[1]} grid needs about {need:.3g} bytes,"
            f" past the grid limit of {GRID_MEMORY_LIMIT} bytes; no file written",
            file=sys.stderr,
        )
        return 2
    try:
        return ns.func(ns)
    except coherent.LabelRangeError as exc:
        print(f"{ns.command}: {exc}", file=sys.stderr)  # a label past its limit
        return 1
    except OSError as exc:  # moments reports its own read errors; only writes get here
        print(f"{ns.command}: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
