"""Command-line front end: the verification suite's report and CSV data emission.

All output files are ASCII CSV with LF line endings, '#'-prefixed comment
headers echoing the configuration, and floats written in shortest
round-trip form, so repeated runs with the same flags are bit-identical.

Exit codes: 0 on success, 1 when a check fails, a result is not finite or a
label is past its limit, 2 for invalid input. Every refusal is a ``_Refusal``
(or a ``coherent.LabelRangeError``) that ``main`` alone reports, in one stderr
line; a gate (``_gate``) is one such raise. The data commands write through
one envelope (``_emit``) with one report line. ``_emit`` takes the
data column by column and writes it in blocks of ``_ROWS_PER_WRITE`` rows.
Each block is one uint8 matrix: float columns rendered by ``shortest.cells``
(``repr``'s text, computed in uint64 over the whole column), the rows of
columns given as a table of distinct values, and the separators, with its
NUL bytes deleted before one write. No Python object is made per cell, and
the memory held is bounded by the block. On a 2-vCPU VM a default density
file (96 641 rows) is written in 37-38 ms, against 70-73 ms when each float
went through ``repr`` (in-process, best of 7).

Files are published whole (``_Outputs``): an absent or regular target is
written to a hidden temp file beside it and moved onto it with
``os.replace`` only once every file of the run is written (a density
sweep's three files and their ``.meta`` files together). A run that fails
partway, on a full disk or past a file size limit, removes its temp files
and leaves no target; its one line names the target. A symlink (such as
``/dev/stdout``), a device or a FIFO is opened and written in place.

Each command imports the package modules it runs when it runs, so a fresh
process loads (and, where no bytecode is written, compiles) only those:
``piv`` loads ``painleve``; ``density`` loads ``wavepacket``, and with it
``coherent``; ``uncertainty``, ``decompose`` and ``moments`` load ``coherent``;
``verify`` loads all of these, ``fock`` and ``checks``. The eight checks and
the tolerances only they read live in ``checks``, which no other command
runs: without them this module compiles in 4.3-4.6 ms instead of 5.5 ms on
a 2-vCPU VM (best of 15, where no bytecode is written), about 1 ms less for
each other command's process. ``CHECKS`` here names each check and its
``--inject-*`` flag, so that the parser needs no ``checks``. The float
renderer ``shortest`` loads with the first float column written. The calls
go through the module attributes (``wavepacket.rho_gaussian``), so wrappers
set on them apply.

``entry``, which the console script and ``python -m triladder.cli`` run,
calls ``gc.freeze()`` once ``main`` has returned or raised, and then exits.
Interpreter shutdown runs a full cyclic collection, which would traverse
every object numpy and the package made at import; no output depends on
it, and frozen objects are left out of it. On a 2-vCPU VM this saves about
12 ms per process (a bare ``import numpy`` process exits 16 ms after its
last statement, 4 ms with the freeze). ``main`` is unchanged, so in-process
callers collect as before.
"""

import argparse
import contextlib
import gc
import math
import os
import re
import stat
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .grid import DEFAULT_GRID, GridSpec

# The gates of the data commands, which verify's checks apply too; the
# tolerances only verify reads are in triladder.checks.
RESIDUAL_TOL = 1e-10
TRIANGLE_TOL = 1e-12
DUAL_PATH_TOL = 1e-8

# The most memory, in bytes, that a piv or density grid or an uncertainty sweep
# (|alpha| steps by families) may ask for: its sample count times the bytes charged
# per sample. A larger one exits 2 at once. Each charge is the peak RSS growth per
# sample of the worst shape measured, plus the share of the memory at start that
# keeps the peak at the limit under 1 GiB. Density, three-family sweeps: one Gaussian
# pass holds three psi grids, the term and its copy beside the first family's Fock
# field. The worst cell is on one x point, 152 B at the default label and at the
# largest (|z| = 26.2, x in [-36, 36]) alike (175.4 -> 320.3 MiB from 1e6 to 2e6 t
# points, 27.6 MiB at start); at the limit, 6 710 886 t points, the peak is 1004 MiB
# (1020 at the largest label). On 241 x points a cell costs 114 B at the default
# label and 64 B at the largest (4096 -> 8192 t points), and 88 B from 1601 x 241 to
# 3201 x 241 (63.3 -> 95.7 MiB). A piv x point costs 249 B (85.1 -> 132.5 MiB from
# 200 001 to 400 001 points, 37.5 MiB at start); an uncertainty row 85 B (60.8 ->
# 84.9 MiB from 100 001 to 200 001 steps of three rows, 36.5 MiB at start).
GRID_MEMORY_LIMIT = 2**30
_BYTES_PER_SAMPLE = dict(density=160, piv=260, uncertainty=90)


def _worst(values) -> float:
    """Largest of the non-negative ``values`` (0.0 for none), NaN if any is NaN.

    The builtin ``max(0.0, nan)`` is 0.0, so a running maximum would drop
    the NaN and the gate after it would pass.
    """
    return float(np.max(values, initial=0.0))


def _within(worst, tol) -> bool:
    """The one gate test: ``worst`` is finite and below ``tol``."""
    return math.isfinite(worst) and worst < tol


# 16 384 rows keep the renderer's uint64 temporaries (128 KiB each) in cache and
# were the fastest block: a default density run took 220, 187, 171, 208 and 194 ms
# at 4096, 8192, 16 384, 32 768 and 65 536 rows (in-process medians of 6 on a
# 2-vCPU VM), and its peak RSS grows with the block (45 MiB here, 62 at 65 536).
_ROWS_PER_WRITE = 16384


def _cells(column):
    """The cells of ``column`` as uint8 rows with NUL holes (see ``shortest.cells``):
    a float array (``repr`` of each value) or a list of ready strings."""
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        from . import shortest  # here, so that a command that writes no float loads no renderer

        # a block at a time, so that the renderer's temporaries stay small
        starts = range(0, len(column), _ROWS_PER_WRITE)
        blocks = [shortest.cells(column[s : s + _ROWS_PER_WRITE]) for s in starts]
        cells = np.zeros((len(column), max([0] + [b.shape[1] for b in blocks])), np.uint8)
        for s, b in zip(starts, blocks):
            cells[s : s + len(b), : b.shape[1]] = b
        return cells
    text = np.array(column, dtype="S")
    return text.view(np.uint8).reshape(len(text), text.itemsize)


def _block_source(column):
    """A function from a row range of ``column`` to its cells: a float array is
    rendered block by block, any other column once for the whole file."""
    if isinstance(column, tuple):  # (table, rows): the column is table[rows]
        table, rows = column
        cells = _cells(table)
        return lambda start, stop: np.take(cells, rows[start:stop], axis=0)
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        from . import shortest

        return lambda start, stop: shortest.cells(column[start:stop])
    cells = _cells(column)
    return lambda start, stop: cells[start:stop]


def _row_count(column) -> int:
    return len(column[1]) if isinstance(column, tuple) else len(column)


def _write_csv(path, comments, header, columns):
    """Write the ``comments``, the ``header`` and the rows of ``columns``.

    A column is a list of ready strings, a float array, whose items are
    written as ``repr`` gives them (the shortest round-trip form), or a pair
    (table, rows) of such a column and the int rows of it to write, so that
    a value repeated over many rows is rendered once. Each block of
    ``_ROWS_PER_WRITE`` rows is one uint8 matrix, the cells of each column
    side by side with the separators; the block's NUL bytes are deleted and
    the rest written at once. Of a default
    density file's 37.5 ms, rendering the floats takes about 16 ms, deleting
    the NULs 7 ms and laying out the blocks 2.5 ms.
    """
    path = Path(path)
    rows = _row_count(columns[0])
    sources = [_block_source(col) for col in columns]
    with path.open("wb") as fh:
        head = "".join(f"# {line}\n" for line in comments) + header + "\n"
        fh.write(head.encode("ascii"))
        for start in range(0, rows, _ROWS_PER_WRITE):
            parts = [source(start, start + _ROWS_PER_WRITE) for source in sources]
            block = np.empty((len(parts[0]), sum(p.shape[1] + 1 for p in parts)), np.uint8)
            col = 0
            for part in parts:
                block[:, col : col + part.shape[1]] = part
                col += part.shape[1]
                block[:, col] = ord(",")
                col += 1
            block[:, -1] = ord("\n")
            fh.write(block.tobytes().translate(None, b"\0"))
    return path


class _Refusal(Exception):
    """A command's refusal, reported by ``main`` as ``COMMAND: message``
    with exit ``code``; the command has left no file."""

    def __init__(self, message, code=1):
        super().__init__(message)
        self.code = code


def _gate(what, worst, tol, where=""):
    """Refuse unless ``worst`` passes ``_within``; ``where`` follows the value."""
    if not _within(worst, tol):
        raise _Refusal(f"{what} {worst:.3e}{where}, not below {tol:g}; no file written")


@contextlib.contextmanager
def _naming(target):
    """Let an OSError raised inside name ``target``: a failed write names no
    file, and a temp file's name is not the one the user gave."""
    try:
        yield
    except OSError as exc:
        exc.filename = str(target)
        raise


class _Outputs:
    """The files of one command run, published together when the run ends.

    ``writing(target)`` gives the path to write ``target`` at. An absent
    target or a regular file is written to a hidden temp file beside it, in
    the same directory. Any other target (a symlink such as /dev/stdout, a
    device, a FIFO, a directory) is opened in place, as given: a rename onto
    it would replace the node, not write through it. When the ``with`` block
    ends, each temp file is moved onto its target with ``os.replace``; when it
    raises, every temp file is removed, so a failed run leaves no partial
    target. An OSError raised while a file is written or moved names its target.
    """

    def __init__(self):
        self._moves = []  # (temp, target), in the order written

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, traceback):
        try:
            while exc is None and self._moves:
                temp, target = self._moves[0]
                with _naming(target):
                    os.replace(temp, target)
                del self._moves[0]
        finally:
            for temp, _ in self._moves:
                temp.unlink(missing_ok=True)

    @contextlib.contextmanager
    def writing(self, target):
        target = Path(target)
        try:
            staged = stat.S_ISREG(os.lstat(target).st_mode)
        except FileNotFoundError:
            staged = True
        except OSError:  # opened in place, the open reports it as it always has
            staged = False
        path = target
        if staged:
            # opened with open()'s mode under the umask, as the target would be
            path = target.with_name(f".triladder-{os.urandom(6).hex()}.tmp")
            self._moves.append((path, target))
        with _naming(target):
            yield path


def _emit(outputs, target, command, config_lines, header, columns, summary="", results=()):
    """Write the rows of ``columns`` (see ``_write_csv``) under the comments
    ``command=``, ``config_lines``, ``version=`` and ``results`` as ``target``
    of ``outputs``, and return the one ``wrote`` line to print once it is
    published."""
    comments = [f"command={command}", *config_lines, f"version={__version__}", *results]
    with outputs.writing(target) as path:
        _write_csv(path, comments, header, columns)
    return f"wrote {Path(target)} ({_row_count(columns[0])} rows){summary}"


# The grid of the piv command's defaults, which verify's piv-residual check scans.
_PIV_GRID = GridSpec(-10.0, 10.0, 2001)


def _dual_path(families, z, grid, inject):
    """The Gaussian-path field of each of ``families`` at ``z`` on ``grid``, with
    its max |fock - gaussian| over every cell and that cell's (x, t): the first
    cell, x outer and t inner, that holds the max, or a nan if any does.
    ``inject`` adds 1e-6 to the Fock side. ``families`` ascend, and j = 0 has
    the lowest label limit, so the first family's Fock field comes first: a
    label past any family's limit raises before any Gaussian grid work. Then
    one pass gives every Gaussian field, and each other Fock field is built
    and reduced in turn, so that one Fock field is held at a time.
    """
    from . import wavepacket

    fock = wavepacket.density_fock(families[0], z, grid).values
    fields = wavepacket.density_gaussians(families, z, grid)
    xs, ts = grid.x_values(), grid.t_values()
    checked = []
    for i, (j, field) in enumerate(zip(families, fields)):
        if i:
            fock = wavepacket.density_fock(j, z, grid).values
        diff = np.abs(fock + 1e-6 * inject - field.values)
        del fock
        ix, it = np.unravel_index(np.argmax(diff), diff.shape)  # the first nan, else the first max
        checked.append((field, float(diff[ix, it]), (float(xs[ix]), float(ts[it]))))
        del diff
    return checked


# ---------------------------------------------------------------- verify --


# (check name, --inject-* flag that corrupts exactly this check), in report
# order; triladder.checks.SUITE maps each name to its check
CHECKS = (
    ("fock-algebra", "commutator"),
    ("piv-parameters", "piv-sign"),
    ("piv-residual", "piv-residual"),
    ("cs-eigen", "eigen"),
    ("cs-statistics", "stats"),
    ("triangle", "triangle"),
    ("density-dual-path", "density"),
    ("period", "period"),
)


def cmd_verify(ns) -> int:
    from . import checks

    failed = 0
    for name, flag in CHECKS:
        passed, detail = checks.SUITE[name](getattr(ns, "inject_" + flag.replace("-", "_")))
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
    from . import coherent

    amin, amax, asteps = ns.amin, ns.amax, ns.asteps
    if amin < 0 or asteps < 1 or (asteps > 1 and amax <= amin) or amax < amin:
        raise _Refusal("invalid sweep range", code=2)
    families = [0, 1, 2] if ns.j is None else [ns.j]
    alphas = np.linspace(amin, amax, asteps)
    products = []
    for abs_alpha in alphas.tolist():
        for j in families:
            product = coherent.a_norm_squared(j, abs_alpha) + 0.5
            if not math.isfinite(product):
                raise _Refusal(
                    f"the a_norm_squared series is not finite at |alpha|={abs_alpha!r},"
                    f" j={j} (it overflows from about |alpha| = 1.9e4); no file written"
                )
            products.append(product)
    config = [
        f"amin={amin!r} amax={amax!r} asteps={asteps}",
        f"families={','.join(str(j) for j in families)}",
        "uncertainty_product = a_norm_squared(j, |alpha|) + 1/2",
    ]
    steps, family = np.divmod(np.arange(len(products)), len(families))
    columns = [(alphas, steps), ([str(j) for j in families], family), np.array(products)]
    with _Outputs() as outputs:
        line = _emit(outputs, ns.out, "uncertainty", config, "abs_alpha,j,uncertainty_product",
                     columns)
    print(line)
    return 0


# ------------------------------------------------------------------- piv --


def cmd_piv(ns) -> int:
    from . import painleve

    grid = ns.grid
    config = [
        f"y range [{grid.x_min!r}, {grid.x_max!r}] with {grid.x_steps} points",
        f"delta={painleve.DEFAULT_DELTA!r} residual_tol={RESIDUAL_TOL:g}",
    ]
    scans, results = [], []
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
            raise _Refusal(
                f"solution {sol_id} is excluded at every grid point, so no"
                " residual is checked; no file written"
            )
        scans.append(scan)
    worst = _worst(np.concatenate([np.abs(s.residual[~s.excluded]) for s in scans]))
    _gate("max residual", worst, RESIDUAL_TOL)
    results.append(f"max_included_residual={worst!r}")
    header = "solution_id,y,g,residual,excluded"
    summary = f", max residual {worst:.3e}"
    solution, point = np.divmod(np.arange(len(scans) * grid.x_steps), grid.x_steps)
    columns = [
        ([str(i) for i in range(1, len(scans) + 1)], solution),
        (grid.x_values(), point),
        np.concatenate([s.g for s in scans]),
        np.concatenate([s.residual for s in scans]),
        (["0", "1"], np.concatenate([s.excluded for s in scans]).astype(np.intp)),
    ]
    with _Outputs() as outputs:
        line = _emit(outputs, ns.out, "piv", config, header, columns, summary, results)
    print(line)
    return 0


# --------------------------------------------------------------- density --


def cmd_density(ns) -> int:
    z = complex(ns.z_re, ns.z_im)
    grid = ns.grid
    sweep = ns.j is None
    families = [0, 1, 2] if sweep else [ns.j]
    base = Path(ns.out)
    if sweep and not base.name:  # '', '.' and '/' have no name to derive the files' names from
        raise _Refusal(f"cannot write {base}: the path names no file; no file written", code=2)
    suffix = base.suffix or ".csv"
    outs = [base.with_name(f"{base.stem}_j{j}{suffix}") for j in families] if sweep else [base]
    xs, ts = grid.x_values(), grid.t_values()
    # every family passes the dual-path gate, in family order, before any file is written
    checked = _dual_path(families, z, grid, ns.inject_spotcheck)
    for j, (_, worst, (x, t)) in zip(families, checked):
        _gate(f"dual-path check failed for j={j}: max |fock - gaussian| =", worst, DUAL_PATH_TOL,
              f" at x={x!r}, t={t!r}")
    # Rows run t-major: every x for the first t, then the next t.
    t_row, x_row = np.divmod(np.arange(ts.size * xs.size), xs.size)
    reports = []  # printed once every file is published
    with _Outputs() as outputs:  # a sweep's files are published together
        for j, out, (field, worst, _) in zip(families, outs, checked):
            config = [
                f"j={j} z_re={z.real!r} z_im={z.imag!r}",
                f"x range [{grid.x_min!r}, {grid.x_max!r}] with {grid.x_steps} points",
                f"t range [{grid.t_min!r}, {grid.t_max!r}] with {grid.t_steps} points",
                f"dual_path_max_err={worst!r} (tol {DUAL_PATH_TOL:g})",
            ]
            columns = [(ts, t_row), (xs, x_row), field.values.T.ravel()]
            reports.append(_emit(outputs, out, "density", config, "t,x,rho", columns,
                                 f", dual-path check {worst:.3e}"))
            with outputs.writing(out.with_name(out.name + ".meta")) as meta:
                with meta.open("w", encoding="ascii", newline="\n") as fh:
                    fh.write(f"command=density\nj={j}\n")
                    fh.write(f"z_re={z.real!r}\nz_im={z.imag!r}\n")
                    for name in ("x_min", "x_max", "x_steps", "t_min", "t_max", "t_steps"):
                        fh.write(f"{name}={getattr(grid, name)}\n")
                    fh.write(f"version={__version__}\n")
    print(*reports, sep="\n")
    return 0


# ------------------------------------------------------------- decompose --


def cmd_decompose(ns) -> int:
    from . import coherent

    z = complex(ns.z_re, ns.z_im)
    tri = coherent.triangle_decompose(z, ns.j)
    rec = tri.reconstruction()
    target = tri.target()
    errors = np.abs(rec - target)
    worst = float(np.max(errors))
    # the coefficients grow like e^(|z|^2/2), so the error is gated relative to them
    scale = float(np.max(np.abs(target), initial=1.0))
    scaled = worst / scale
    _gate("max scaled error", scaled, TRIANGLE_TOL)
    config = [
        f"j={ns.j} z_re={z.real!r} z_im={z.imag!r} truncation={len(target)}",
        "weights=" + " ".join(f"({w.real!r},{w.imag!r})" for w in tri.weights),
        "labels=" + " ".join(f"({l.real!r},{l.imag!r})" for l in tri.labels),
        f"max_abs_error={worst!r} scale={scale!r} (tol {TRIANGLE_TOL:g} on max_abs_error/scale)",
    ]
    columns = [[str(n) for n in range(len(target))], target.real, target.imag, rec.real, rec.imag, errors]
    header = "n,target_re,target_im,reconstructed_re,reconstructed_im,abs_error"
    summary = f", max scaled error {scaled:.3e}"
    with _Outputs() as outputs:
        line = _emit(outputs, ns.out, "decompose", config, header, columns, summary)
    print(line)
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
    from . import coherent

    sample_path = Path(ns.samples)
    try:
        samples = _read_samples(sample_path)
        rows = coherent.moment_check(ns.j, samples, ns.nmax)
    except (OSError, ValueError) as exc:  # an unreadable or rejected sample file
        raise _Refusal(str(exc), code=2) from None
    for row in rows:
        if not math.isfinite(row.computed):
            raise _Refusal(f"moment n={row.n} is {row.computed!r}: x^(n-1) f(x) or its integral"
                           " overflows float64 at these samples; no file written")
    passed = [_within(row.rel_error, ns.rtol) for row in rows]
    config = [
        f"j={ns.j} n_max={ns.nmax} rtol={ns.rtol!r} samples={sample_path}",
        "target(n) = (3(n-1)+j)! ; computed(n) = trapezoid of x^(n-1) f(x)",
    ]
    columns = [
        [str(r.n) for r in rows],
        [repr(r.computed) for r in rows],
        [str(r.target) for r in rows],
        [repr(r.rel_error) for r in rows],
        [str(int(ok)) for ok in passed],
    ]
    failures = passed.count(False)
    summary = f", {len(rows) - failures} passed, {failures} failed"
    header = "n,computed,target,rel_error,passed"
    with _Outputs() as outputs:
        line = _emit(outputs, ns.out, "moments", config, header, columns, summary)
    print(line)
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
    for _, flag in CHECKS:
        p.add_argument("--inject-" + flag, action="store_true", help=argparse.SUPPRESS)
    command("uncertainty", cmd_uncertainty, "uncertainty-product sweep CSV; all families unless --j is set",
            j=None, amin=0.0, amax=10.0, asteps=201, out="uncertainty.csv")
    command("piv", cmd_piv, "residual scan of the three solutions",
            xmin=_PIV_GRID.x_min, xmax=_PIV_GRID.x_max, xsteps=_PIV_GRID.x_steps,
            out="piv_scan.csv")
    grid = DEFAULT_GRID
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


def _refusals():
    """What ``main`` reports as a refusal: ``_Refusal``, and ``LabelRangeError``
    once ``coherent``, which defines it, is loaded; no command raises it before."""
    coherent = sys.modules.get(f"{__package__}.coherent")
    return (_Refusal,) if coherent is None else (_Refusal, coherent.LabelRangeError)


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
    try:
        if need > GRID_MEMORY_LIMIT:
            raise _Refusal(
                f"a {shape[0]} x {shape[1]} grid needs about {need:.3g} bytes,"
                f" past the grid limit of {GRID_MEMORY_LIMIT} bytes; no file written",
                code=2,
            )
        return ns.func(ns)
    except _refusals() as exc:  # or a label past its limit
        print(f"{ns.command}: {exc}", file=sys.stderr)
        return getattr(exc, "code", 1)
    except OSError as exc:  # moments refuses its own read errors; only writes get here
        print(f"{ns.command}: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2


def entry() -> None:
    """Run ``main`` on the command line, freeze the collector (see the module
    docstring) and exit with ``main``'s code."""
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    # under ``python -m triladder.cli`` this module runs as __main__; registered
    # under its own name too, it is what ``checks`` imports, not a second copy
    sys.modules.setdefault(__spec__.name, sys.modules[__name__])
    entry()
