"""The contract of every data command, over drawn flag sets.

Each drawn run of ``uncertainty``, ``piv``, ``density``, ``decompose`` or
``moments`` goes through ``cli.main`` in process, with warnings as errors,
from a fresh working directory and to a drawn ``--out`` (mostly a plain file
name; else a path with no file name or one in a missing directory), and must
end in one of two ways:

- exit 0, with every data field of its files finite and each gated
  command's files carrying their gate line with a finite value, or
- exit 1 or 2, with no file written and one stderr line (argparse's
  ``parser.error`` prints the usage before its one line).

README documents the two exceptions: piv rows with ``excluded = 1`` carry
``residual = nan``, and a ``moments`` run that misses a target exits 1
after writing its (finite) file.
"""

import contextlib
import io
import math
import os
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from triladder import cli

# 0 and +-1e-300 .. +-1e300, drawn by decade so that every scale is reached
_MAGNITUDES = st.builds(
    lambda mantissa, exponent: mantissa * 10.0**exponent,
    st.floats(1.0, 9.99),
    st.one_of(st.integers(-3, 2), st.integers(-300, 299)),
)
LABELS = st.one_of(st.just(0.0), _MAGNITUDES, _MAGNITUDES.map(lambda m: -m))
FAMILIES = st.sampled_from([[], ["--j", "0"], ["--j", "1"], ["--j", "2"]])
# moments --rtol: 0 and negatives are refused, every positive one is a gate
RTOLS = st.sampled_from([1e-3, 1e-300, 1e300, 0.0, -1e-300, -1.0])
# --out, relative to the run's directory: half the runs write a plain file
OUTS = st.one_of(st.just("out.csv"), st.sampled_from(["", ".", "/", "missing/dir/x.csv"]))


def ranges(ends):
    """Two of ``ends`` as (start, end): mostly distinct and in order, sometimes as drawn."""
    ordered = st.lists(ends, min_size=2, max_size=2, unique=True).map(sorted)
    return st.one_of(ordered, ordered, st.tuples(ends, ends))


def flag(name, value):
    return [f"--{name}", repr(value) if isinstance(value, float) else str(value)]


@st.composite
def grid_flags(draw, t_axis):
    (xmin, xmax), (tmin, tmax) = draw(ranges(LABELS)), draw(ranges(LABELS))
    argv = flag("xmin", xmin) + flag("xmax", xmax) + flag("xsteps", draw(st.integers(1, 41)))
    if t_axis:
        argv += flag("tmin", tmin) + flag("tmax", tmax) + flag("tsteps", draw(st.integers(1, 5)))
    return argv


def label_flags(draw):
    return flag("z-re", draw(LABELS)) + flag("z-im", draw(LABELS))


@st.composite
def uncertainty_argv(draw):
    amin, amax = draw(ranges(st.one_of(st.just(0.0), _MAGNITUDES)))
    sweep = flag("amin", amin) + flag("amax", amax)
    return ["uncertainty", *draw(FAMILIES), *sweep, *flag("asteps", draw(st.integers(1, 41))),
            *flag("out", draw(OUTS))]


@st.composite
def piv_argv(draw):
    return ["piv", *draw(grid_flags(t_axis=False)), *flag("out", draw(OUTS))]


@st.composite
def density_argv(draw):
    return ["density", *draw(FAMILIES), *label_flags(draw), *draw(grid_flags(t_axis=True)),
            *flag("out", draw(OUTS))]


@st.composite
def decompose_argv(draw):
    return ["decompose", *flag("j", draw(st.integers(0, 2))), *label_flags(draw),
            *flag("out", draw(OUTS))]


@st.composite
def moments_argv(draw):
    positions = draw(st.lists(_MAGNITUDES, min_size=1, max_size=19, unique=True))
    weights = draw(st.lists(st.one_of(st.just(0.0), _MAGNITUDES),
                            min_size=len(positions) + 1, max_size=len(positions) + 1))
    rows = zip([0.0, *sorted(positions)], weights)
    samples = "".join(f"{x!r} {f!r}\n" for x, f in rows)
    argv = ["moments", "--samples", "samples.txt", *flag("j", draw(st.integers(0, 2)))]
    argv += flag("nmax", draw(st.integers(1, 60))) + flag("rtol", draw(RTOLS))
    return argv + flag("out", draw(OUTS)), samples


# the header line that records what each gated command's gate passed
GATE_LINES = {"piv": "max_included_residual=", "density": "dual_path_max_err=",
              "decompose": "max_abs_error="}


def data_fields(text):
    """The data fields of a written CSV's ``text``, without piv's excluded rows."""
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        if row.get("excluded") != "1":
            yield from row.values()


def run(argv, samples=None):
    """Run ``argv`` in a fresh directory; (exit code, stdout, stderr, files written)."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        if samples is not None:
            (work / "samples.txt").write_text(samples)
        out, err = io.StringIO(), io.StringIO()
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:  # parser.error
            code = exc.code
        finally:
            os.chdir(home)
        files = {p.name: p.read_text() for p in work.iterdir() if p.name != "samples.txt"}
    return code, out.getvalue(), err.getvalue(), files


def check_contract(argv, samples=None):
    code, out, err, files = run(argv, samples)
    lines = err.splitlines()
    if code == 0 or (code == 1 and argv[0] == "moments" and files):
        assert err == ""
        assert files and out.count("wrote ") == sum(n.endswith(".csv") for n in files)
        for name, text in files.items():
            if name.endswith(".csv"):
                bad = [f for f in data_fields(text) if not math.isfinite(float(f))]
                assert not bad, (name, bad[:5])
                if argv[0] in GATE_LINES:
                    key = "# " + GATE_LINES[argv[0]]
                    gate = [l[len(key):].split()[0] for l in text.splitlines() if l.startswith(key)]
                    assert len(gate) == 1 and math.isfinite(float(gate[0])), (name, gate)
        return code
    assert code in (1, 2), (code, err)
    assert files == {}
    assert out == ""
    if lines and lines[0].startswith("usage: "):
        assert code == 2
        assert [l for l in lines if ": error: " in l] == lines[-1:]
    else:
        assert len(lines) == 1, err
    return code


_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=50)


@_SETTINGS
@given(uncertainty_argv())
def test_uncertainty(argv):
    check_contract(argv)


@_SETTINGS
@given(piv_argv())
def test_piv(argv):
    check_contract(argv)


@_SETTINGS
@given(density_argv())
def test_density(argv):
    check_contract(argv)


@_SETTINGS
@given(decompose_argv())
def test_decompose(argv):
    check_contract(argv)


@_SETTINGS
@given(moments_argv())
# x^2 overflows at the far sample, x^2 f does not: both are written
@example((["moments", "--samples", "samples.txt", "--nmax", "3"], "0 1\n1e300 0\n"))
@example((["moments", "--samples", "samples.txt", "--nmax", "3"], "0 1\n1e200 1e-300\n"))
# the second moment's integral overflows: refused
@example((["moments", "--samples", "samples.txt", "--nmax", "3"], "0 1\n1e300 1\n"))
def test_moments(drawn):
    argv, samples = drawn
    code = check_contract(argv, samples)
    if "--rtol" in argv and float(argv[argv.index("--rtol") + 1]) <= 0:
        assert code == 2
