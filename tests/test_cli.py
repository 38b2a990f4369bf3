import argparse
import errno
import gc
import hashlib
import math
import os
import resource
import signal
import stat
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import oracle
from triladder import cli, coherent, wavepacket
from triladder.grid import DEFAULT_GRID, GridSpec


def run(argv):
    return cli.main(argv)


# --inject-* flag -> the one check it corrupts
INJECT_TARGETS = {flag: name for name, flag in cli.CHECKS}


def worst_cell(j, z, grid, inject=False):
    """The cell a dual-path refusal names, as it prints it: where
    |fock - gaussian| (1e-6 more with ``inject``) first peaks on ``grid``, or
    its first nan. Recomputed here for the refusals whose peak lies among
    cells that differ only by rounding, which varies between numpy builds."""
    diff = np.abs(wavepacket.density_fock(j, z, grid).values + 1e-6 * inject
                  - wavepacket.density_gaussian(j, z, grid).values)
    ix, it = np.unravel_index(np.argmax(diff), diff.shape)
    return f" at x={float(grid.x_values()[ix])!r}, t={float(grid.t_values()[it])!r}"


def read_rows(path):
    header = None
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return rows


def header_value(path, key):
    """The text after ``key=`` in the CSV's comment lines, up to the next space."""
    words = [w for l in path.read_text().splitlines() if l.startswith("#") for w in l.split()]
    return next(w.split("=", 1)[1] for w in words if w.startswith(key + "="))


def comments_of(path):
    """A written CSV's comment lines, without their leading '# '."""
    return [l[2:] for l in path.read_text().splitlines() if l.startswith("# ")]


def write_exp_weight(path, step=0.01, top=60.0):
    x = np.arange(0.0, top + step, step)
    lines = [f"{float(xi)!r} {float(math.exp(-xi))!r}" for xi in x]
    path.write_text("\n".join(lines) + "\n")


class TestVerify:
    def test_clean_run(self, capsys):
        assert run(["verify"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        out = out.strip().splitlines()
        check_lines = [l for l in out if l.startswith(("PASS", "FAIL"))]
        assert len(check_lines) == 8
        assert all(l.startswith("PASS") for l in check_lines)
        assert out[-1] == "CHECKS passed=8 failed=0"

    @pytest.mark.parametrize("flag,target", sorted(INJECT_TARGETS.items()))
    def test_injection_flips_exactly_one_check(self, capsys, flag, target):
        assert run(["verify", f"--inject-{flag}"]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        out = out.strip().splitlines()
        failed = [l.split()[1] for l in out if l.startswith("FAIL")]
        assert failed == [target]
        assert out[-1] == "CHECKS passed=7 failed=1"

    def test_truncation_override_reports_suggestion(self, capsys):
        # --inject-eigen truncates each family to 5 levels at alpha = 4
        assert run(["verify", "--inject-eigen"]) == 1
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("FAIL cs-eigen"))
        suggested = [int(part.split(";")[0]) for part in line.split("suggested truncation >= ")[1:]]
        assert suggested == [37, 35, 36]

    @pytest.mark.parametrize("argv", [
        ["--trunc", "5"],
        ["--alpha-re", "0", "--inject-eigen"],
        ["--alpha-im", "1"],
        ["--delta", "15"],
    ])
    def test_takes_only_inject_flags(self, capsys, argv):
        # each once changed what a PASS covered: --alpha-re 0 passed --inject-eigen,
        # and --delta 15 excluded 4003 of the 6003 residual points
        with pytest.raises(SystemExit) as exc:
            run(["verify", *argv])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"unrecognized arguments: {argv[0]}" in err

    def test_nan_residual_fails_its_check(self, capsys, monkeypatch):
        monkeypatch.setattr(coherent, "eigen_residual", lambda spec: math.nan)
        assert run(["verify"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert [l.split()[1] for l in out if l.startswith("FAIL")] == ["cs-eigen"]

    def test_piv_parameters_runs_the_exact_certificate(self, capsys):
        run(["verify"])
        out = capsys.readouterr().out.splitlines()
        line = next(l for l in out if l.split()[1] == "piv-parameters")
        assert line.endswith("each residual numerator is the zero polynomial")
        run(["verify", "--inject-piv-sign"])
        out = capsys.readouterr().out.splitlines()
        line = next(l for l in out if l.split()[1] == "piv-parameters")
        assert line.count("is not the zero polynomial") == 3

    def test_report_names_parameter_sign_choice(self, capsys):
        run(["verify", "--inject-piv-sign"])
        out = capsys.readouterr().out
        assert "+2 E~1" in out

    def test_leaves_numpy_random_unimported(self):
        # first access to numpy.random costs about 10 ms in a fresh process
        script = ("import sys; from triladder import cli; code = cli.main(['verify']);"
                  " print(code, 'numpy.random' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.stdout.splitlines()[-1] == "0 False"


class TestModuleLoading:
    # command -> the package modules it runs; fresh processes compile each one
    # loaded, so a command loads only these (the package, cli and grid always)
    LOADS = {
        "verify": "checks coherent fock painleve wavepacket",
        "density": "coherent shortest wavepacket",
        "piv": "painleve shortest",
        "uncertainty": "coherent shortest",
        "decompose": "coherent shortest",
        "moments": "coherent",  # its columns are ready strings, so no float renderer
    }
    ARGS = {"density": ["--xsteps", "31", "--tsteps", "7"],
            "moments": ["--samples", "w.txt", "--nmax", "1"]}

    @pytest.mark.parametrize("command", LOADS)
    def test_command_loads_only_its_modules(self, tmp_path, command):
        write_exp_weight(tmp_path / "w.txt")
        script = ("import sys; from triladder import cli; code = cli.main(sys.argv[1:]);"
                  " print(code, 'fractions' in sys.modules,"
                  " *sorted(m for m in sys.modules if m.startswith('triladder.')))")
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", script, command, *self.ARGS.get(command, [])],
                              cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
        code, fractions, *loaded = done.stdout.splitlines()[-1].split()
        assert code == "0", done.stderr
        # the exact Fraction table is built by verify's piv-parameters check and by painleve
        assert fractions == str(command in ("verify", "piv"))
        want = {"cli", "grid", *self.LOADS[command].split()}
        assert loaded == sorted("triladder." + name for name in want)

    @pytest.mark.parametrize("argv", [
        ["verify"], ["density", "--xsteps", "31", "--tsteps", "7"], ["piv"],
        ["uncertainty", "--asteps", "2"],
    ], ids=lambda argv: argv[0])
    def test_only_verify_compiles_checks(self, tmp_path, argv):
        # run as the benchmark runs it: cli is __main__, and checks, which imports
        # cli, must find that module and not import a second copy of it
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-X", "importtime", "-m", "triladder.cli", *argv],
                              cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        imported = {line.split("|")[-1].strip() for line in done.stderr.splitlines()
                    if line.startswith("import time:")}
        assert ("triladder.checks" in imported) == (argv[0] == "verify")
        assert "triladder.cli" not in imported


class TestUncertainty:
    def test_first_rows_are_minima(self, tmp_path, capsys):
        out = tmp_path / "unc.csv"
        assert run(["uncertainty", "--amax", "10", "--asteps", "21",
                    "--out", str(out)]) == 0
        rows = read_rows(out)
        first = [(r["abs_alpha"], r["j"], r["uncertainty_product"])
                 for r in rows[:3]]
        assert first == [("0.0", "0", "0.5"), ("0.0", "1", "1.5"),
                         ("0.0", "2", "2.5")]

    def test_growth_without_bound(self, tmp_path, capsys):
        out = tmp_path / "unc.csv"
        run(["uncertainty", "--amin", "0", "--amax", "10", "--asteps", "10",
             "--j", "0", "--out", str(out)])
        rows = read_rows(out)
        values = [float(r["uncertainty_product"]) for r in rows]
        assert values[-1] > values[1]
        assert values == sorted(values)

    def test_single_point(self, tmp_path, capsys):
        out = tmp_path / "one.csv"
        assert run(["uncertainty", "--amin", "0", "--amax", "0", "--asteps",
                    "1", "--j", "0", "--out", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == 1 and rows[0]["uncertainty_product"] == "0.5"

    def test_bad_range(self, tmp_path, capsys):
        assert run(["uncertainty", "--amin", "5", "--amax", "1",
                    "--out", str(tmp_path / "x.csv")]) == 2

    def test_exact_round_trip(self, tmp_path, capsys):
        out = tmp_path / "unc.csv"
        assert run(["uncertainty", "--amax", "3", "--asteps", "7",
                    "--out", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == 3 * 7
        for r in rows:
            want = coherent.a_norm_squared(int(r["j"]), float(r["abs_alpha"])) + 0.5
            assert float(r["uncertainty_product"]) == want

    def test_nonfinite_series_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "unc.csv"
        assert run(["uncertainty", "--amax", "2e5", "--asteps", "3",
                    "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "|alpha|=100000.0, j=0" in err and "no file written" in err

    def test_label_past_float64_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "unc.csv"
        assert run(["uncertainty", "--amin", "1e155", "--amax", "1e156",
                    "--asteps", "2", "--out", str(out)]) == 1
        assert not out.exists()
        # reported as density and decompose report a label past its limit
        assert capsys.readouterr().err == (
            "uncertainty: |alpha| = 1e+155 is beyond the float64 limit of the norm"
            " series: |alpha|^2 overflows 1.798e+308 from |alpha| = 1.34e154\n"
        )

    def test_deterministic_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["uncertainty", "--amax", "3", "--asteps", "7", "--out", str(a)])
        run(["uncertainty", "--amax", "3", "--asteps", "7", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestPiv:
    def test_scan_file(self, tmp_path, capsys):
        out = tmp_path / "piv.csv"
        assert run(["piv", "--xsteps", "401", "--out", str(out)]) == 0
        text = out.read_text()
        assert "solution_id=1 ordering=(1, 2, 3) a=0 b=-2/9" in text
        assert "solution_id=2 ordering=(2, 1, 3) a=-1 b=-8/9" in text
        assert "solution_id=3 ordering=(3, 1, 2) a=-2 b=-2/9" in text
        rows = read_rows(out)
        assert len(rows) == 3 * 401
        included = [float(r["residual"]) for r in rows if r["excluded"] == "0"]
        assert max(abs(v) for v in included) < 1e-10

    def test_exclusion_markers_near_poles(self, tmp_path, capsys):
        out = tmp_path / "piv.csv"
        run(["piv", "--xsteps", "2001", "--out", str(out)])
        for r in read_rows(out):
            if r["solution_id"] != "3":
                continue
            y = float(r["y"])
            if abs(2 * y * y - 3) < 0.1:
                assert r["excluded"] == "1"

    def test_nan_residual_fails(self, tmp_path, capsys):
        # g^3 overflows here, so the included residuals are nan
        out = tmp_path / "piv.csv"
        assert run(["piv", "--xmin", "1e110", "--xmax", "1e111", "--xsteps", "2",
                    "--out", str(out)]) == 1
        assert "max residual nan" in capsys.readouterr().err

    def test_failed_scan_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "piv.csv"
        assert run(["piv", "--xmin", "1e110", "--xmax", "1e111", "--xsteps", "2",
                    "--out", str(out)]) == 1
        assert not out.exists()
        assert "no file written" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,sol_id", [
        (["--xmin", "1e-9", "--xmax", "2e-9", "--xsteps", "2"], 1),
        (["--xmin", "-0.05", "--xmax", "0.05", "--xsteps", "11"], 2),
    ], ids=["every-solution", "solution-2"])
    def test_solution_checked_at_no_point_fails(self, tmp_path, capsys, argv, sol_id):
        # the empty maximum is 0.0, so these once passed the gate: the first
        # with every row excluded, the second with solution 2 checked nowhere
        assert run(["piv", *argv, "--out", str(tmp_path / "piv.csv")]) == 1
        assert capsys.readouterr() == ("", (
            f"piv: solution {sol_id} is excluded at every grid point, so no residual"
            " is checked; no file written\n"
        ))
        assert list(tmp_path.iterdir()) == []

    def test_deterministic_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["piv", "--xsteps", "101", "--out", str(a)])
        run(["piv", "--xsteps", "101", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestDensity:
    ARGS = ["--xmin", "-8", "--xmax", "8", "--xsteps", "81",
            "--tmin", "0", "--tmax", str(2 * math.pi), "--tsteps", "7"]

    def test_single_family_file_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "rho.csv"
        assert run(["density", "--j", "1", *self.ARGS, "--out", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == 81 * 7
        # per-slice trapezoid normalization from the emitted rows
        xs = sorted({float(r["x"]) for r in rows})
        for t in sorted({r["t"] for r in rows}):
            slice_rows = [r for r in rows if r["t"] == t]
            vals = [float(r["rho"]) for r in
                    sorted(slice_rows, key=lambda r: float(r["x"]))]
            integral = np.trapezoid(vals, xs)
            assert integral == pytest.approx(1.0, abs=1e-6)
        meta = (tmp_path / "rho.csv.meta").read_text()
        for key in ("j=1", "z_re=2.0", "x_steps=81", "t_steps=7", "version="):
            assert key in meta

    def test_emitted_slices_satisfy_period(self, tmp_path, capsys):
        # t grid steps by pi/3, so slices two apart are one period apart
        out = tmp_path / "rho.csv"
        run(["density", "--j", "0", *self.ARGS, "--out", str(out)])
        rows = read_rows(out)
        ts = sorted({float(r["t"]) for r in rows})
        by_t = {}
        for r in rows:
            by_t.setdefault(float(r["t"]), []).append(
                (float(r["x"]), float(r["rho"])))
        for early, late in zip(ts[:4], ts[2:6]):
            a = [v for _, v in sorted(by_t[early])]
            b = [v for _, v in sorted(by_t[late])]
            assert np.max(np.abs(np.array(a) - np.array(b))) < 1e-10

    def test_exact_round_trip(self, tmp_path, capsys):
        out = tmp_path / "rho.csv"
        assert run(["density", "--j", "0", *self.ARGS, "--out", str(out)]) == 0
        rows = read_rows(out)
        grid = GridSpec(-8.0, 8.0, 81, 0.0, 2 * math.pi, 7)
        field = wavepacket.density_gaussian(0, 2.0, grid)
        # t-major: every x for the first t, then the next t
        assert [float(r["rho"]) for r in rows] == field.values.T.ravel().tolist()
        assert [float(r["x"]) for r in rows[:81]] == grid.x_values().tolist()
        assert [float(r["t"]) for r in rows[::81]] == grid.t_values().tolist()

    def test_nan_spot_check_blocks_output(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(wavepacket, "rho_fock", lambda j, z, x, t: np.full(
            np.broadcast_shapes(np.shape(x), np.shape(t)), np.nan))
        out = tmp_path / "rho.csv"
        assert run(["density", "--j", "0", *self.ARGS, "--out", str(out)]) == 1
        assert not out.exists()
        assert "no file written" in capsys.readouterr().err

    def test_family_sweep_emits_three_files(self, tmp_path, capsys):
        base = tmp_path / "rho.csv"
        assert run(["density", *self.ARGS, "--out", str(base)]) == 0
        for j in range(3):
            assert (tmp_path / f"rho_j{j}.csv").exists()
            assert (tmp_path / f"rho_j{j}.csv.meta").exists()

    def test_spotcheck_injection_blocks_output(self, tmp_path, capsys):
        out = tmp_path / "rho.csv"
        assert run(["density", "--j", "0", *self.ARGS, "--inject-spotcheck",
                    "--out", str(out)]) == 1
        assert not out.exists()
        assert "no file written" in capsys.readouterr().err

    @pytest.mark.parametrize("j,z_re,worst,at", [
        ("2", "1e-8", "nan", " at x=-8.0, t=0.0"),
        ("1", "1e-200", "nan", " at x=-8.0, t=0.0"),
        ("1", "1e-5", "2.327e-08", None),
    ], ids=["2-1e-8", "1-1e-200", "1-1e-5"])
    def test_cancelled_triangle_fails_the_spot_check(self, tmp_path, capsys, j, z_re, worst, at):
        # the Gaussian path's Gram sum cancels to at most 0 at the first two
        # labels, which once ended in a DensityField traceback, and to 2.3e-8
        # of the Fock path at the third, which the 1e-6 spot check let through;
        # a nan field names its first cell
        out = tmp_path / "rho.csv"
        assert run(["density", "--j", j, "--z-re", z_re, "--out", str(out)]) == 1
        at = at or worst_cell(int(j), float(z_re), DEFAULT_GRID)
        assert capsys.readouterr() == ("", (
            f"density: dual-path check failed for j={j}: max |fock - gaussian| ="
            f" {worst}{at}, not below 1e-08; no file written\n"
        ))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("marks,worst,at", [
        ({(40, 5): 1e-3, (12, 1): 5e-4}, "1.000e-03", (40, 5)),
        ({(30, 2): math.nan, (20, 6): math.inf, (10, 3): 1e-3}, "nan", (30, 2)),
    ], ids=["peak", "first-nan"])
    def test_refusal_names_the_cell(self, tmp_path, capsys, monkeypatch, marks, worst, at):
        # the cells are (x index, t index); a nan is named even where an inf
        # comes before it with x outer and t inner
        rho_fock = wavepacket.rho_fock

        def marked(j, z, x, t):
            rho = rho_fock(j, z, x, t)
            for cell, value in marks.items():
                rho[cell] += value
            return rho

        monkeypatch.setattr(wavepacket, "rho_fock", marked)
        out = tmp_path / "rho.csv"
        assert run(["density", "--j", "1", *self.ARGS, "--out", str(out)]) == 1
        grid = GridSpec(-8.0, 8.0, 81, 0.0, 2 * math.pi, 7)
        x, t = float(grid.x_values()[at[0]]), float(grid.t_values()[at[1]])
        assert capsys.readouterr() == ("", (
            f"density: dual-path check failed for j=1: max |fock - gaussian| ="
            f" {worst} at x={x!r}, t={t!r}, not below 1e-08; no file written\n"
        ))
        assert list(tmp_path.iterdir()) == []

    # the ids are kept so the test ids stay stable; the figures in them are historical
    @pytest.mark.parametrize("z_re,j,worst", [("1e-3", 2, "4.929e-05"), ("1e-5", 1, "2.327e-08")],
                             ids=["1e-3-4.928e-05", "1e-5-nan"])
    def test_sweep_writes_nothing_when_a_family_fails(self, tmp_path, capsys, z_re, j, worst):
        # the families before j pass the dual-path gate here and j fails; the
        # sweep once wrote the first files before refusing
        assert run(["density", "--z-re", z_re, "--out", str(tmp_path / "d.csv")]) == 1
        assert capsys.readouterr() == ("", (
            f"density: dual-path check failed for j={j}: max |fock - gaussian| ="
            f" {worst}{worst_cell(j, float(z_re), DEFAULT_GRID)}, not below 1e-08; no file written\n"
        ))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("j,z_re", [("1", "1e-4"), ("2", "1e-2")])
    def test_smallest_passing_labels_write(self, tmp_path, capsys, j, z_re):
        # the decade above each refused label: max |fock - gaussian| on the
        # default grid is 4.3e-9 (j = 1) and 2.0e-10 (j = 2)
        out = tmp_path / "rho.csv"
        assert run(["density", "--j", j, "--z-re", z_re, "--out", str(out)]) == 0
        assert float(header_value(out, "dual_path_max_err")) < 1e-8

    @pytest.mark.parametrize("j,z", [(0, 2.0), (2, 0.9 + 1.1j)])
    def test_gate_covers_every_written_cell(self, tmp_path, capsys, j, z):
        out = tmp_path / "rho.csv"
        argv = ["density", "--j", str(j), "--z-re", repr(z.real), "--z-im", repr(z.imag)]
        assert run([*argv, *self.ARGS, "--out", str(out)]) == 0
        grid = GridSpec(-8.0, 8.0, 81, 0.0, 2 * math.pi, 7)
        fock = wavepacket.density_fock(j, z, grid).values
        gaussian = wavepacket.density_gaussian(j, z, grid).values
        worst = float(np.max(np.abs(fock - gaussian)))
        assert float(header_value(out, "dual_path_max_err")) == worst

    @pytest.mark.parametrize("steps,blocks", [
        (["--xsteps", "5000", "--tsteps", "2"], [(4096, 2), (904, 2)]),
        (["--xsteps", "2", "--tsteps", "5000"], [(2, 4096), (2, 904)]),
    ], ids=["x", "t"])
    def test_fock_field_is_built_in_bounded_blocks(self, tmp_path, capsys, monkeypatch,
                                                   steps, blocks):
        # the Fock path holds N Hermite rows per x point and K phases per t
        # point: one call on a long, thin grid would need about 16 N bytes per cell
        calls, rho_fock = [], wavepacket.rho_fock
        monkeypatch.setattr(wavepacket, "rho_fock", lambda j, z, x, t: (
            calls.append((np.size(x), np.size(t))) or rho_fock(j, z, x, t)))
        out = tmp_path / "rho.csv"
        assert run(["density", "--j", "0", *steps, "--out", str(out)]) == 0
        assert calls == blocks
        assert float(header_value(out, "dual_path_max_err")) < 1e-8

    def test_grid_end_where_x_squared_overflows(self, tmp_path, capsys):
        # -x^2/2 is -inf at x = 1e300, where the density is 0: one refusal
        # line (the j = 2 triangle cancels at this label) and no warning
        out = tmp_path / "rho.csv"
        argv = ["density", "--j", "2", "--z-re", "-1e-300", "--xmin", "-1e-3", "--xmax", "1e300"]
        assert run([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.endswith("no file written\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("axis,at", [
        (["--xmin", "-8e307", "--xmax", "8e307"], "x=8e+307, t=0.0"),
        (["--tmin", "-8e307", "--tmax", "8e307"], "x=-8.0, t=-8e+307"),
        (["--xmin", "0", "--xmax", "1.7e308"], "x=8.5e+307, t=0.0"),
    ], ids=["x", "t", "x-hermite"])
    def test_grid_ends_near_float64_limit_refuse_in_one_line(self, tmp_path, capsys, axis, at):
        # the spans are finite, but the Gaussian exponent, the Fock phase
        # e^(-3it) and the Hermite recurrence overflow to nan there; numpy
        # once warned before the refusal. The line names the first nan cell.
        argv = ["density", "--j", "0", "--xsteps", "3", "--tsteps", "2", *axis]
        assert run([*argv, "--out", str(tmp_path / "rho.csv")]) == 1
        assert capsys.readouterr() == ("", (
            "density: dual-path check failed for j=0: max |fock - gaussian| ="
            f" nan at {at}, not below 1e-08; no file written\n"
        ))
        assert list(tmp_path.iterdir()) == []


class TestLabelLimit:
    """Labels past the tail rule's float64 limit once hung these commands;
    each runs in a fresh interpreter that is killed after 10 s."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose", "--z-re", "30"],
            ["density", "--z-re", "30"],
            ["density", "--j", "1", "--z-re", "20", "--z-im", "25"],
            ["density", "--j", "0", "--z-re", "6e102"],  # z^3 overflows
            ["density", "--z-re", "-1e200", "--z-im", "-1e200"],  # z^3 is nan
        ],
        # argv1 ran decompose --trunc and argv4 verify --trunc
        ids=["argv0", "argv2", "argv3", "argv5", "argv6"],
    )
    def test_fails_naming_the_limit(self, tmp_path, argv):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        argv = [*argv, "--out", "out.csv"]
        try:
            done = subprocess.run(
                [sys.executable, "-m", "triladder.cli", *argv],
                cwd=tmp_path, env=env, capture_output=True, text=True, timeout=10,
            )
        except subprocess.TimeoutExpired:
            pytest.fail(f"triladder {' '.join(argv)} hung")
        assert done.returncode == 1
        assert done.stdout == ""
        message, = done.stderr.splitlines()
        assert message.startswith(argv[0] + ": |")
        assert "beyond the float64 limit" in message and "1.8e4" in message
        assert list(tmp_path.iterdir()) == []


class TestDecompose:
    def test_reconstruction_error_table(self, tmp_path, capsys):
        out = tmp_path / "dec.csv"
        assert run(["decompose", "--j", "1", "--z-re", "2",
                    "--out", str(out)]) == 0
        rows = read_rows(out)
        errs = [float(r["abs_error"]) for r in rows]
        assert max(errs) < 1e-12
        # target support lives on n = 3k + 1 only
        for r in rows:
            if int(r["n"]) % 3 != 1:
                assert float(r["target_re"]) == 0.0
                assert float(r["target_im"]) == 0.0

    def test_exact_round_trip(self, tmp_path, capsys):
        out = tmp_path / "dec.csv"
        assert run(["decompose", "--j", "2", "--z-re", "1.3", "--z-im", "0.8",
                    "--out", str(out)]) == 0
        rows = read_rows(out)
        tri = coherent.triangle_decompose(1.3 + 0.8j, 2)
        target = tri.target()
        assert len(rows) == tri.truncation
        assert [float(r["target_re"]) for r in rows] == target.real.tolist()
        assert [float(r["target_im"]) for r in rows] == target.imag.tolist()
        rec = tri.reconstruction()
        assert [float(r["reconstructed_re"]) for r in rows] == rec.real.tolist()
        assert [float(r["abs_error"]) for r in rows] == np.abs(rec - target).tolist()

    def test_injected_reconstruction_error_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # a relative error of 1e-9 on every coefficient, far above TRIANGLE_TOL
        reconstruction = coherent.TriangleDecomposition.reconstruction
        monkeypatch.setattr(coherent.TriangleDecomposition, "reconstruction",
                            lambda tri: reconstruction(tri) * (1 + 1e-9))
        out = tmp_path / "dec.csv"
        assert run(["decompose", "--j", "1", "--z-re", "5", "--out", str(out)]) == 1
        assert list(tmp_path.iterdir()) == []
        out_text, err = capsys.readouterr()
        assert out_text == ""
        assert err.startswith("decompose: max scaled error 1.000e-09, not below 1e-12;")
        assert err.endswith("; no file written\n")

    @pytest.mark.parametrize("j", [0, 1, 2])
    @pytest.mark.parametrize("z", ["4", "8", "26.2"])
    def test_large_labels_pass_the_scaled_gate(self, tmp_path, capsys, j, z):
        # the coefficients reach e^(|z|^2/2), so the absolute error grows with them
        out = tmp_path / "dec.csv"
        assert run(["decompose", "--j", str(j), "--z-re", z, "--out", str(out)]) == 0
        rows = read_rows(out)
        worst = max(float(r["abs_error"]) for r in rows)
        target = np.array([complex(float(r["target_re"]), float(r["target_im"])) for r in rows])
        scale = max(1.0, float(np.max(np.abs(target))))
        assert float(header_value(out, "max_abs_error")) == worst
        assert float(header_value(out, "scale")) == scale
        assert worst / scale < 1e-12

    def test_trivial_vacuum(self, tmp_path, capsys):
        out = tmp_path / "dec.csv"
        assert run(["decompose", "--j", "0", "--z-re", "0", "--z-im", "0",
                    "--out", str(out)]) == 0
        rows = read_rows(out)
        assert float(rows[0]["target_re"]) == 1.0
        assert all(float(r["target_re"]) == 0.0 for r in rows[1:])


class TestMoments:
    def test_wrong_weight_pass_fail_pattern(self, tmp_path, capsys):
        samples = tmp_path / "exp.txt"
        write_exp_weight(samples)
        out = tmp_path / "mom.csv"
        code = run(["moments", "--samples", str(samples), "--j", "0",
                    "--nmax", "2", "--out", str(out)])
        assert code == 1  # second moment fails
        rows = read_rows(out)
        assert [r["passed"] for r in rows] == ["1", "0"]
        assert rows[0]["target"] == "1" and rows[1]["target"] == "6"

    def test_parse_error_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0.0 1.0\n0.5 not-a-number\n")
        out = tmp_path / "m.csv"
        assert run(["moments", "--samples", str(bad), "--out", str(out)]) == 2
        assert "line 2" in capsys.readouterr().err
        assert not out.exists()

    def test_wrong_column_count(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0.0 1.0 2.0\n")
        out = tmp_path / "m.csv"
        assert run(["moments", "--samples", str(bad), "--out", str(out)]) == 2
        assert "line 1" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        assert run(["moments", "--samples", str(tmp_path / "absent.txt"),
                    "--out", str(out)]) == 2
        assert "No such file" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("j", ["0", "1", "2"])
    def test_moment_count_limit(self, tmp_path, capsys, j):
        # n = 58 once ended in an OverflowError traceback: its target passes 170!
        write_exp_weight(tmp_path / "exp.txt", step=0.1, top=10.0)
        out = tmp_path / "m.csv"
        argv = ["moments", "--samples", str(tmp_path / "exp.txt"), "--j", j, "--out", str(out)]
        assert run([*argv, "--nmax", "57"]) == 1  # e^-x misses the targets
        assert len(read_rows(out)) == 57
        out.unlink()
        capsys.readouterr()
        assert run([*argv, "--nmax", "58"]) == 2
        assert capsys.readouterr() == ("", (
            "moments: n_max must lie in 1 .. 57: from n = 58 a target (3(n-1)+j)!"
            " passes 170! and overflows float64; got 58\n"
        ))
        assert not out.exists()

    @pytest.mark.parametrize("text,message", [
        ("0.0 1.0\n-1.0 1.0\n", "nonnegative"),
        ("0.0 1.0\n1.0 1.0\n1.0 0.5\n", "strictly increasing"),
        ("0.0 1.0\n", "at least two"),
        ("0.0 1.0\n1.0 -0.5\n", "weight values"),
        ("0.0 1.0\nnan 1.0\n2.0 0.5\n", "must be finite"),
        ("0.0 1.0\n1.0 1.0\ninf 0.5\n", "must be finite"),
        ("0.0 1.0\n1.0 nan\n2.0 0.5\n", "must be finite"),
        ("0.0 1.0\n1.0 inf\n2.0 0.5\n", "must be finite"),
    ])
    def test_rejected_samples_are_invalid_input(self, tmp_path, capsys, text, message):
        samples = tmp_path / "w.txt"
        samples.write_text(text)
        out = tmp_path / "m.csv"
        assert run(["moments", "--samples", str(samples), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text,n", [
        # x f = 1e300 is finite, its integral is not
        ("0 1\n1e300 1\n", 2),
        # x^2 overflows from 1e200, and x^2 f = 2e308 at 2e200 as well, in logs
        ("1e200 5e-93\n2e200 5e-93\n", 3),
    ])
    def test_overflowing_moment_is_refused(self, tmp_path, capsys, text, n):
        samples = tmp_path / "s.txt"
        samples.write_text(text)
        out = tmp_path / "s.csv"
        assert run(["moments", "--samples", str(samples), "--nmax", "3", "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", (
            f"moments: moment n={n} is inf: x^(n-1) f(x) or its integral overflows"
            " float64 at these samples; no file written\n"
        ))
        assert not out.exists()

    @pytest.mark.parametrize("text,third", [
        # x^2 overflows at 1e300 and meets f = 0 there: x^2 f is 0
        ("0 1\n1e300 0\n", "0.0"),
        # x^2 overflows at 1e200, though x^2 f = 1e100 there
        ("0 1\n1e200 1e-300\n", "5.0000000000003386e+299"),
    ])
    def test_finite_moment_past_an_overflowing_power_is_written(self, tmp_path, capsys, text,
                                                                third):
        samples = tmp_path / "s.txt"
        samples.write_text(text)
        out = tmp_path / "s.csv"
        assert run(["moments", "--samples", str(samples), "--nmax", "3", "--out", str(out)]) == 1
        assert capsys.readouterr().err == ""
        rows = read_rows(out)
        assert [r["passed"] for r in rows] == ["0", "0", "0"]  # the targets are missed
        assert rows[2]["computed"] == third


class TestGoldenBytes:
    """Outputs pinned by the first 16 hex digits of their sha256.

    Their values come only from elementwise IEEE + - * / and Python float
    arithmetic, so every platform gives the same bytes. density and
    decompose pass through np.exp, einsum or hypot, whose last bits may
    differ between numpy builds, so they are not pinned here; TestUnpinnedBytes
    checks their files against the row-at-a-time formatter instead.
    """

    @pytest.mark.parametrize("argv,digest", [
        (["uncertainty"], "e05ac77d436b23b7"),
        (["uncertainty", "--amin", "0.5", "--amax", "3", "--asteps", "17", "--j", "1"],
         "50448e9f4448a1e4"),
        (["uncertainty", "--amin", "1", "--amax", "1.5e4", "--asteps", "31"],
         "107c106549cd52a6"),
        (["piv"], "488c1b6bac90ea0a"),
        (["piv", "--xmin", "-3", "--xmax", "4", "--xsteps", "301"], "ea55b962a2e9b783"),
    ])
    def test_output_bytes(self, tmp_path, capsys, argv, digest):
        out = tmp_path / "out.csv"
        assert run([*argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == digest


class TestWriter:
    """``_write_csv`` in blocks of 3 rows, byte for byte against the
    row-at-a-time formatter of ``tests/oracle.py``."""

    COMMENTS = ["command=test", "a=1 b=2"]
    # 5e-324 is the smallest subnormal double, 2.2250738585072014e-308 the smallest normal
    FLOATS = np.array([-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324,
                       2.2250738585072014e-308, 1e16, 1e-05, 0.1])

    @staticmethod
    def cell(column, i):
        if isinstance(column, tuple):
            table, rows = column
            return TestWriter.cell(table, rows[i])
        return column[i] if isinstance(column, list) else repr(column[i].item())

    def check(self, tmp_path, header, columns):
        out = tmp_path / "out.csv"
        assert cli._write_csv(out, self.COMMENTS, header, columns) == out
        count = cli._row_count(columns[0])
        rows = [[self.cell(c, i) for c in columns] for i in range(count)]
        assert out.read_bytes() == oracle.csv_text(self.COMMENTS, header, rows).encode("ascii")

    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 7])
    def test_mixed_columns(self, tmp_path, monkeypatch, rows):
        monkeypatch.setattr(cli, "_ROWS_PER_WRITE", 3)
        self.check(tmp_path, "s,i,f,g", [
            [f"s{i}" for i in range(rows)],
            [str(i - 3) for i in range(rows)],
            np.resize(self.FLOATS, rows),
            np.resize(self.FLOATS[::-1], rows),
        ])

    @pytest.mark.parametrize("rows", [0, 7])
    def test_one_column(self, tmp_path, monkeypatch, rows):
        monkeypatch.setattr(cli, "_ROWS_PER_WRITE", 3)
        self.check(tmp_path, "f", [np.resize(self.FLOATS, rows)])

    @pytest.mark.parametrize("rows", [1, 4, 7])
    def test_table_columns(self, tmp_path, monkeypatch, rows):
        # (table, rows) columns, each table value written wherever its row points;
        # the float table spans blocks of different widths
        monkeypatch.setattr(cli, "_ROWS_PER_WRITE", 3)
        picks = np.resize([9, 0, 4, 1, 7, 2, 5, 3, 8, 6], rows)
        self.check(tmp_path, "t,i,s,f", [
            (self.FLOATS, picks),
            (["7", "-12", "0"], picks % 3),
            (["a", "bb", "ccc"], picks[::-1] % 3),
            np.resize(self.FLOATS, rows),
        ])


class TestUnpinnedBytes:
    """density, decompose and moments against the row-at-a-time formatter,
    fed from the same in-process fields. Their bits depend on the numpy
    build, so TestGoldenBytes cannot pin them. Blocks of 4 rows make each
    file cross block boundaries."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(cli, "_ROWS_PER_WRITE", 4)

    def test_density_sweep(self, tmp_path, capsys):
        z = 0.9 + 1.1j
        t_axis = DEFAULT_GRID.t_min, DEFAULT_GRID.t_max, 3
        grid = GridSpec(-3.0, 3.0, 7, *t_axis)  # 21 rows: 5 blocks
        assert run(["density", "--z-re", "0.9", "--z-im", "1.1", "--xmin", "-3", "--xmax", "3",
                    "--xsteps", "7", "--tsteps", "3", "--out", str(tmp_path / "rho.csv")]) == 0
        for j in range(3):
            values = wavepacket.density_gaussian(j, z, grid).values
            rows = [(repr(t), repr(x), repr(values[ix, it].item()))
                    for it, t in enumerate(grid.t_values().tolist())
                    for ix, x in enumerate(grid.x_values().tolist())]
            out = tmp_path / f"rho_j{j}.csv"
            assert out.read_text() == oracle.csv_text(comments_of(out), "t,x,rho", rows)

    @pytest.mark.parametrize("j,z", [(0, 2.0 + 0.0j), (1, 0.9 + 1.1j)])
    def test_decompose(self, tmp_path, capsys, j, z):
        out = tmp_path / "dec.csv"
        assert run(["decompose", "--j", str(j), "--z-re", repr(z.real), "--z-im", repr(z.imag),
                    "--out", str(out)]) == 0
        tri = coherent.triangle_decompose(z, j)
        target, rec = tri.target(), tri.reconstruction()
        errors = np.abs(rec - target)
        rows = [(str(n), *(repr(v.item()) for v in (t.real, t.imag, r.real, r.imag, e)))
                for n, (t, r, e) in enumerate(zip(target, rec, errors))]
        header = "n,target_re,target_im,reconstructed_re,reconstructed_im,abs_error"
        assert out.read_text() == oracle.csv_text(comments_of(out), header, rows)

    def test_moments(self, tmp_path, capsys):
        samples, out = tmp_path / "exp.txt", tmp_path / "mom.csv"
        write_exp_weight(samples)
        # from n = 8 the target (3(n-1))! is past int64
        assert run(["moments", "--samples", str(samples), "--nmax", "9", "--out", str(out)]) == 1
        rows = [(str(r.n), repr(r.computed), str(r.target), repr(r.rel_error),
                 str(int(r.rel_error < 1e-3)))
                for r in coherent.moment_check(0, cli._read_samples(samples), 9)]
        header = "n,computed,target,rel_error,passed"
        assert out.read_text() == oracle.csv_text(comments_of(out), header, rows)


class TestReportLines:
    """The one stderr line of each gate and the one stdout line of each
    written file, byte for byte. Values the line prints from a platform-
    dependent computation are read back from the file's own header."""

    @pytest.mark.parametrize("argv,err", [
        pytest.param(["piv", "--xmin", "1e110", "--xmax", "1e111", "--xsteps", "2"],
                     "piv: max residual nan, not below 1e-10; no file written\n", id="piv"),
        pytest.param(["density", "--j", "0", *TestDensity.ARGS, "--inject-spotcheck"],
                     "density: dual-path check failed for j=0: max |fock - gaussian| ="
                     " 1.000e-06{at}, not below 1e-08; no file written\n", id="density"),
        pytest.param(["uncertainty", "--amax", "2e5", "--asteps", "3"],
                     "uncertainty: the a_norm_squared series is not finite at"
                     " |alpha|=100000.0, j=0 (it overflows from about |alpha| = 1.9e4);"
                     " no file written\n", id="uncertainty"),
    ])
    def test_gate_message(self, tmp_path, capsys, argv, err):
        out = tmp_path / "out.csv"
        assert run([*argv, "--out", str(out)]) == 1
        if "{at}" in err:  # every injected cell is off by 1e-6: the peak is rounding's pick
            err = err.format(at=worst_cell(0, 2.0, GridSpec(-8.0, 8.0, 81, 0.0, 2 * math.pi, 7), True))
        assert capsys.readouterr() == ("", err)
        assert list(tmp_path.iterdir()) == []

    def test_nan_spot_check_message(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(wavepacket, "rho_fock", lambda j, z, x, t: np.full(
            np.broadcast_shapes(np.shape(x), np.shape(t)), np.nan))
        out = tmp_path / "rho.csv"
        assert run(["density", "--j", "2", *TestDensity.ARGS, "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", (
            "density: dual-path check failed for j=2: max |fock - gaussian| ="
            " nan at x=-8.0, t=0.0, not below 1e-08; no file written\n"
        ))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv,line", [
        (["uncertainty", "--asteps", "3"], "wrote {out} (9 rows)"),
        (["piv", "--xsteps", "11"],
         "wrote {out} (33 rows), max residual {max_included_residual:.3e}"),
        (["density", "--j", "0", *TestDensity.ARGS],
         "wrote {out} (567 rows), dual-path check {dual_path_max_err:.3e}"),
        (["decompose"], "wrote {out} (43 rows), max scaled error {scaled_error:.3e}"),
        (["moments", "--nmax", "2"], "wrote {out} (2 rows), 1 passed, 1 failed"),
    ], ids=["uncertainty", "piv", "density", "decompose", "moments"])
    def test_wrote_line(self, tmp_path, capsys, argv, line):
        out = tmp_path / "out.csv"
        if argv[0] == "moments":
            write_exp_weight(tmp_path / "exp.txt")
            argv = [*argv, "--samples", str(tmp_path / "exp.txt")]
        code = run([*argv, "--out", str(out)])
        assert code == (1 if argv[0] == "moments" else 0)
        keys = ("max_included_residual", "dual_path_max_err")
        values = {k: float(header_value(out, k)) for k in keys if f"{{{k}" in line}
        if argv[0] == "decompose":  # the error the gate tests
            worst, scale = (float(header_value(out, k)) for k in ("max_abs_error", "scale"))
            values["scaled_error"] = worst / scale
        assert capsys.readouterr() == (line.format(out=out, **values) + "\n", "")


class TestWriteErrors:
    COMMANDS = [
        ["uncertainty", "--asteps", "3"],
        ["piv", "--xsteps", "11"],
        ["density", "--j", "0", "--xsteps", "11", "--tsteps", "3"],
        ["decompose"],
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
    def test_missing_directory_is_a_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "absent" / "out.csv"
        assert run([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{argv[0]}: cannot write {tmp_path / 'absent'}")
        assert "No such file or directory" in err
        assert not (tmp_path / "absent").exists()

    @pytest.mark.parametrize("blocked", ["out_j2.csv", "out_j1.csv.meta"])
    def test_failed_sweep_write_leaves_no_file(self, tmp_path, capsys, blocked):
        # the files written before the failing one are never published, nor announced
        (tmp_path / blocked).mkdir()
        argv = ["density", "--xsteps", "31", "--tsteps", "5", "--out", str(tmp_path / "out.csv")]
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"density: cannot write {tmp_path / blocked}: Is a directory\n"
        assert [p.name for p in tmp_path.iterdir()] == [blocked]

    @pytest.mark.parametrize("argv,target", [
        (["piv", "--xsteps", "200001", "--out", "p.csv"], "p.csv"),
        (["density", "--out", "sw.csv"], "sw_j0.csv"),
        (["density", "--j", "0", "--out", "one.csv"], "one.csv"),
    ], ids=["piv", "density-sweep", "density-one"])
    def test_write_that_fails_partway_leaves_no_file(self, tmp_path, argv, target):
        # each file is larger than the 1 024 000 bytes the process may write to
        # one file; with SIGXFSZ ignored, the write that crosses it fails with EFBIG
        def limit_file_size():
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
            resource.setrlimit(resource.RLIMIT_FSIZE, (1024000, 1024000))

        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-m", "triladder.cli", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120,
                              preexec_fn=limit_file_size)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == f"{argv[0]}: cannot write {target}: {os.strerror(errno.EFBIG)}\n"
        assert list(tmp_path.iterdir()) == []

    def test_an_exception_mid_sweep_removes_every_temp_file(self, tmp_path, monkeypatch):
        write_csv = cli._write_csv
        calls = []

        def fail_on_second(path, *args):
            calls.append(write_csv(path, *args))
            if len(calls) == 2:
                raise RuntimeError("interrupted")
            return calls[-1]

        monkeypatch.setattr(cli, "_write_csv", fail_on_second)
        with pytest.raises(RuntimeError, match="interrupted"):
            run(["density", "--xsteps", "31", "--tsteps", "5", "--out", str(tmp_path / "o.csv")])
        assert len(calls) == 2
        assert list(tmp_path.iterdir()) == []

    def test_empty_path_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["uncertainty", "--asteps", "3", "--out", ""]) == 2
        assert capsys.readouterr().err.startswith("uncertainty: cannot write ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out", ["", ".", "/"])
    def test_sweep_to_a_path_without_a_name_is_refused_first(self, tmp_path, capsys,
                                                             monkeypatch, out):
        # each family's file is named from the path's; the sweep once computed
        # every field and then ended in a traceback from Path.with_name
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "_dual_path", lambda *args: pytest.fail("a field was computed"))
        assert run(["density", "--xsteps", "5", "--tsteps", "3", "--out", out]) == 2
        assert capsys.readouterr() == (
            "", f"density: cannot write {Path(out)}: the path names no file; no file written\n")
        assert list(tmp_path.iterdir()) == []


class TestPublishing:
    """A regular or absent target is written beside itself and moved into
    place whole; any other target is opened in place, as given."""

    ARGV = ["uncertainty", "--asteps", "3"]

    def expected(self, tmp_path):
        ref = tmp_path / "ref" / "u.csv"
        ref.parent.mkdir()
        assert run([*self.ARGV, "--out", str(ref)]) == 0
        return ref.read_bytes()

    def test_replaces_a_regular_file_with_the_umask_mode(self, tmp_path, capsys):
        out = tmp_path / "u.csv"
        out.write_text("old")
        out.chmod(0o600)
        assert run([*self.ARGV, "--out", str(out)]) == 0
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask
        assert out.read_bytes() == self.expected(tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ref", "u.csv"]

    def test_the_written_path_exists_when_the_writer_returns(self, tmp_path, capsys,
                                                           monkeypatch):
        # a wrapper on _write_csv may stat what it returns, before the file is published
        write_csv, sizes = cli._write_csv, []

        def stat_result(*args):
            path = write_csv(*args)
            sizes.append(path.stat().st_size)
            return path

        monkeypatch.setattr(cli, "_write_csv", stat_result)
        out = tmp_path / "u.csv"
        assert run([*self.ARGV, "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {out} (9 rows)\n"
        assert sizes == [out.stat().st_size]

    def test_a_device_is_written_in_place(self, capsys):
        assert run([*self.ARGV, "--out", os.devnull]) == 0
        assert capsys.readouterr().out == f"wrote {os.devnull} (9 rows)\n"
        assert stat.S_ISCHR(os.lstat(os.devnull).st_mode)
        assert list(Path(os.devnull).parent.glob(".triladder-*")) == []

    def test_a_fifo_is_written_in_place(self, tmp_path, capsys):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert run([*self.ARGV, "--out", str(fifo)]) == 0
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert received == [self.expected(tmp_path)]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "ref"]

    def test_a_symlink_is_written_through(self, tmp_path, capsys):
        (tmp_path / "data").mkdir()
        link = tmp_path / "link.csv"
        link.symlink_to(tmp_path / "data" / "u.csv")
        assert run([*self.ARGV, "--out", str(link)]) == 0
        assert link.is_symlink()
        assert (tmp_path / "data" / "u.csv").read_bytes() == self.expected(tmp_path)
        assert [p.name for p in (tmp_path / "data").iterdir()] == ["u.csv"]


class TestEntry:
    """``entry``, the console script and ``python -m triladder.cli``: ``main``,
    then ``gc.freeze``, then exit with ``main``'s code."""

    @pytest.mark.parametrize("ending", [0, 1, 2, SystemExit(2)],
                             ids=["0", "1", "2", "parser-error"])
    def test_exits_with_mains_code_after_freezing(self, monkeypatch, ending):
        events = []

        def main():
            events.append("main")
            if isinstance(ending, SystemExit):  # argparse's exit 2 leaves main this way
                raise ending
            return ending

        monkeypatch.setattr(cli, "main", main)
        monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == (ending.code if isinstance(ending, SystemExit) else ending)
        assert events == ["main", "freeze"]

    @pytest.mark.parametrize("argv,code", [
        (["uncertainty", "--asteps", "3"], 0),
        (["density", "--j", "1", "--z-re", "1e-5", "--xsteps", "31", "--tsteps", "5"], 1),
    ], ids=["uncertainty", "density-refusal"])
    def test_fresh_process_writes_what_main_writes(self, tmp_path, capsysbinary, monkeypatch,
                                                   argv, code):
        # the bytes of a process that skips the exit collection, against main's
        # in this one: nothing written before exit depends on that collection
        fresh, here = tmp_path / "fresh", tmp_path / "here"
        fresh.mkdir()
        here.mkdir()
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-m", "triladder.cli", *argv], cwd=fresh, env=env,
                              capture_output=True, timeout=60)
        monkeypatch.chdir(here)
        assert run(argv) == code
        assert (done.returncode, done.stdout, done.stderr) == (code, *capsysbinary.readouterr())
        files = [{p.name: p.read_bytes() for p in work.iterdir()} for work in (fresh, here)]
        assert files[0] == files[1]
        assert bool(files[0]) == (code == 0)


class TestParser:
    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["verify", "--bogus"])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["frobnicate"])

    def test_family_choice_validated(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["density", "--j", "7"])

    @pytest.mark.parametrize("argv,flag", [
        (["uncertainty", "--amax", "inf"], "--amax"),
        (["uncertainty", "--amax", "nan"], "--amax"),
        (["density", "--z-re", "nan"], "--z-re"),
        (["density", "--z-re", "-inf"], "--z-re"),
        (["piv", "--xmin", "-NaN"], "--xmin"),
    ])
    def test_nonfinite_float_rejected(self, capsys, argv, flag):
        # rejected at the parser: the uncertainty sweep never returns on inf
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert f"argument {flag}: expected a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["moments", "--nmax", "0", "--samples", "w.txt"],
        ["moments", "--nmax", "-2", "--samples", "w.txt"],
    ], ids=["argv5", "argv6"])  # argv0 to argv4 ran verify --trunc or decompose --trunc
    def test_nonpositive_truncation_rejected(self, tmp_path, capsys, argv):
        # moments --nmax 0 once got past the parser and exited 1
        argv = [*argv, "--out", str(tmp_path / "out.csv")]
        flag = argv[1]
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert f"argument {flag}: expected a positive integer" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("rtol", ["0", "-0.0", "-1"])
    def test_nonpositive_rtol_refused(self, tmp_path, capsys, rtol):
        # moments --rtol 0 once wrote a file that no moment could pass and exited 1
        write_exp_weight(tmp_path / "w.txt")
        out = tmp_path / "m.csv"
        assert run(["moments", "--samples", str(tmp_path / "w.txt"), "--rtol", rtol,
                    "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", (
            f"moments: rtol must be above 0, got {float(rtol)!r}: no rel_error is below it\n"
        ))
        assert not out.exists()

    def test_every_float_flag_takes_a_negative_exponent_form(self):
        # argparse alone reads -1e-3 as an unknown option, not a value
        sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
        seen = set()
        for name, parser in sub.choices.items():
            extra = ["--samples", "w.txt"] if name == "moments" else []
            for action in parser._actions:
                if action.type is cli._finite_float:
                    ns = parser.parse_args([*extra, action.option_strings[0], "-1e-3"])
                    assert getattr(ns, action.dest) == -1e-3, (name, action.dest)
                    seen.add(action.dest)
        assert seen == {d for d, (_, kind) in cli._OPTIONS.items() if kind is cli._finite_float}

    def test_piv_negative_exponent_start(self, tmp_path, capsys):
        out = tmp_path / "piv.csv"
        assert run(["piv", "--xmin", "-1e-3", "--xmax", "1", "--xsteps", "3",
                    "--out", str(out)]) == 0
        rows = read_rows(out)
        assert [float(r["y"]) for r in rows[:3]] == GridSpec(-1e-3, 1.0, 3).x_values().tolist()

    def test_density_negative_exponent_label(self, tmp_path, capsys):
        out = tmp_path / "rho.csv"
        argv = ["density", "--z-re", "-2.5e0", "--j", "0", *TestDensity.ARGS]
        assert run([*argv, "--out", str(out)]) == 0
        assert "z_re=-2.5" in (tmp_path / "rho.csv.meta").read_text()
        field = wavepacket.density_gaussian(0, -2.5, GridSpec(-8.0, 8.0, 81, 0.0, 2 * math.pi, 7))
        assert [float(r["rho"]) for r in read_rows(out)] == field.values.T.ravel().tolist()

    def test_invalid_grid_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["piv", "--xsteps", "0", "--out", str(tmp_path / "piv.csv")])
        assert exc.value.code == 2
        assert "grid requires at least one sample" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["piv", "--xmin", "-1.7e308", "--xmax", "1.7e308", "--xsteps", "3"],
        ["density", "--j", "0", "--xmin", "-1.7e308", "--xmax", "1.7e308",
         "--xsteps", "3", "--tsteps", "2"],
        ["density", "--j", "0", "--xsteps", "3", "--tsteps", "2",
         "--tmin", "-1.7e308", "--tmax", "1.7e308"],
    ], ids=["piv", "density-x", "density-t"])
    def test_grid_span_past_float64_is_a_usage_error(self, tmp_path, capsys, argv):
        # each span overflows to inf; piv once wrote nan and inf rows after
        # numpy overflow warnings, and density warned before it refused
        with warnings.catch_warnings(), pytest.raises(SystemExit) as exc:
            warnings.simplefilter("error")
            run([*argv, "--out", str(tmp_path / "out.csv")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"{argv[0]}: grid requires finite spans x_max - x_min"
                            " and t_max - t_min\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv,err", [
        (["density", "--j", "0", "--xsteps", "100000000", "--tsteps", "100000"],
         "density: a 100000000 x 100000 grid needs about 1.6e+15 bytes,"),
        (["piv", "--xsteps", "1000000000"],
         "piv: a 1000000000 x 1 grid needs about 2.6e+11 bytes,"),
        (["uncertainty", "--asteps", "100000000"],
         "uncertainty: a 100000000 x 3 grid needs about 2.7e+10 bytes,"),
    ], ids=["density", "piv", "uncertainty"])
    def test_oversized_grid_is_refused_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                       argv, err):
        # the commands are stubbed out, so a missing guard fails here instead
        # of allocating the grid
        for name in ("cmd_density", "cmd_piv", "cmd_uncertainty"):
            monkeypatch.setattr(cli, name, lambda ns: pytest.fail("the command ran"))
        argv = [*argv, "--out", str(tmp_path / "out.csv")]
        start = time.perf_counter()
        assert run(argv) == 2
        assert time.perf_counter() - start < 0.5
        assert capsys.readouterr() == ("", (
            f"{err} past the grid limit of 1073741824 bytes; no file written\n"
        ))
        assert list(tmp_path.iterdir()) == []

    def test_density_takes_no_truncation(self, tmp_path, capsys):
        # the dual-path check always runs at the tail-rule size
        with pytest.raises(SystemExit) as exc:
            run(["density", "--trunc", "5", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --trunc 5" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(SystemExit):
            run(["density", "--help"])
        assert "--trunc" not in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["piv", "--delta", "0.2"], ["decompose", "--trunc", "90"]],
                             ids=["piv", "decompose"])
    def test_gate_takes_no_check_knob(self, tmp_path, capsys, argv):
        # piv --delta 100 once excluded 4003 of the 6003 rows and still passed;
        # each command checks at one fixed radius or size
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(SystemExit):
            run([argv[0], "--help"])
        assert argv[1] not in capsys.readouterr().out

    # every option string of each command, but -h/--help
    COMMAND_OPTIONS = {
        "verify": "--inject-commutator --inject-piv-sign --inject-piv-residual"
                  " --inject-eigen --inject-stats --inject-triangle --inject-density"
                  " --inject-period",
        "uncertainty": "--j --amin --amax --asteps --out",
        "piv": "--xmin --xmax --xsteps --out",
        "density": "--j --z-re --z-im --xmin --xmax --xsteps --tmin --tmax --tsteps --out"
                   " --inject-spotcheck",
        "decompose": "--j --z-re --z-im --out",
        "moments": "--j --nmax --rtol --out --samples",
    }

    def test_each_command_takes_exactly_its_options(self):
        sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
        assert sub.choices.keys() == self.COMMAND_OPTIONS.keys()
        value_dests = set()
        for name, parser in sub.choices.items():
            actions = [a for a in parser._actions if a.dest != "help"]
            assert {s for a in actions for s in a.option_strings} == set(
                self.COMMAND_OPTIONS[name].split()), name
            value_dests |= {a.dest for a in actions if a.nargs != 0}
        assert value_dests == set(cli._OPTIONS) | {"samples"}

    @pytest.mark.parametrize("command", ["density", "piv"])
    def test_largest_grid_within_the_limit_runs(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr(cli, "cmd_" + command, lambda ns: 0)
        steps = cli.GRID_MEMORY_LIMIT // cli._BYTES_PER_SAMPLE[command]
        single = ["--tsteps", "1"] if command == "density" else []
        assert run([command, "--xsteps", str(steps), *single]) == 0
        assert run([command, "--xsteps", str(steps + 1), *single]) == 2

    @pytest.mark.parametrize("family,rows_per_step", [([], 3), (["--j", "1"], 1)])
    def test_longest_sweep_within_the_limit_runs(self, monkeypatch, family, rows_per_step):
        monkeypatch.setattr(cli, "cmd_uncertainty", lambda ns: 0)
        per_step = cli._BYTES_PER_SAMPLE["uncertainty"] * rows_per_step
        steps = cli.GRID_MEMORY_LIMIT // per_step
        assert run(["uncertainty", "--asteps", str(steps), *family]) == 0
        assert run(["uncertainty", "--asteps", str(steps + 1), *family]) == 2

    def test_density_defaults_are_the_default_grid(self):
        ns = cli.build_parser().parse_args(["density"])
        grid = DEFAULT_GRID
        assert (ns.xmin, ns.xmax, ns.xsteps) == (grid.x_min, grid.x_max, grid.x_steps)
        assert (ns.tmin, ns.tmax, ns.tsteps) == (grid.t_min, grid.t_max, grid.t_steps)

    def test_help_shows_every_default(self):
        sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
        for parser in sub.choices.values():
            for action in parser._actions:
                if action.dest in ("help", "samples") or action.help == argparse.SUPPRESS:
                    continue
                assert "%(default)s" in action.help, action.dest
