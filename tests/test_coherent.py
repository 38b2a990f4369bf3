import cmath
import collections
import dataclasses
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triladder import coherent, fock

import oracle


def loop_truncation(j, abs_alpha):
    """The tail-rule walk with its step factor computed on every term.

    Returns None where the term overflows, past |alpha| ~ 1.83e4, which is
    where the module raises ``LabelRangeError``; without that stop it hangs.
    """
    x = float(abs_alpha) ** 2
    term = 1.0 / math.factorial(j)
    partial = 0.0
    m = 0
    while True:
        partial += term
        k = 3 * m + j
        nxt = term * x / ((k + 1.0) * (k + 2.0) * (k + 3.0))
        if nxt < coherent.TAIL_RELATIVE * partial:
            return 3 * m + j + 1
        if not nxt < math.inf:
            return None
        term = nxt
        m += 1


def loop_truncation_standard(abs_z):
    """The standard walk without its overflow guard; hangs past |z| ~ 26.6."""
    x = float(abs_z) ** 2
    term = 1.0
    partial = 0.0
    n = 0
    while True:
        partial += term
        nxt = term * x / (n + 1.0)
        if nxt < coherent.TAIL_RELATIVE * partial:
            return n + 1
        term = nxt
        n += 1


class TestTruncationRule:
    def test_alpha_zero_is_extremal_size(self):
        for j in range(3):
            assert coherent.adequate_truncation(j, 0.0) == j + 1

    def test_mod_three_alignment(self):
        for j in range(3):
            for a in (0.5, 2.0, 5.0):
                n = coherent.adequate_truncation(j, a)
                assert (n - 1) % 3 == j

    def test_monotone_in_alpha(self):
        sizes = [coherent.adequate_truncation(0, a) for a in (0.0, 1.0, 3.0, 5.0)]
        assert sizes == sorted(sizes)

    def test_dropped_tail_is_negligible(self):
        # norm^2 of the dropped coefficients, relative, stays below 1e-24
        for j, a in [(0, 5.0), (1, 3.3), (2, 4.8)]:
            n = coherent.adequate_truncation(j, a)
            m_kept = (n - 1 - j) // 3 + 1
            x = a * a
            term = 1.0 / math.factorial(j)
            total = 0.0
            tail = 0.0
            for m in range(m_kept + 60):
                if m < m_kept:
                    total += term
                else:
                    tail += term
                k = 3 * m + j
                term *= x / ((k + 1) * (k + 2) * (k + 3))
            assert tail / total < 1e-24

    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_same_size_as_the_unguarded_walk(self, j):
        for a in [0.0, *np.geomspace(1e-3, 1.8e4, 1500).tolist()]:
            assert coherent.adequate_truncation(j, a) == loop_truncation(j, a), a

    def test_standard_same_size_as_the_unguarded_walk(self):
        for z in [0.0, *np.geomspace(1e-3, 26.2, 1500).tolist()]:
            assert coherent.adequate_truncation_standard(z) == loop_truncation_standard(z), z

    def test_labels_past_float64_raise_in_bounded_time(self):
        # Each case hangs or raises OverflowError without the guard, so they
        # run in a fresh interpreter that is killed if it does not finish.
        script = textwrap.dedent("""
            import math
            from triladder import coherent as c

            cases = [
                lambda: c.adequate_truncation(0, 18296.27),
                lambda: c.adequate_truncation(0, 18296.28),
                lambda: c.adequate_truncation(1, 18555.0),
                lambda: c.adequate_truncation(2, 18816.0),
                lambda: c.adequate_truncation(0, 2.5e4),
                lambda: c.adequate_truncation(1, 1e200),
                lambda: c.adequate_truncation(2, math.inf),
                lambda: c.adequate_truncation(0, math.nan),
                lambda: c.adequate_truncation_standard(26.59),
                lambda: c.adequate_truncation_standard(26.6),
                lambda: c.CoherentSpec(0, 1e200),
                lambda: c.build_cs(c.CoherentSpec(0, 2e4, 10)),
                lambda: c.a_norm_squared(1, 1.4e154),
            ]
            for case in cases:
                try:
                    print(case())
                except c.LabelRangeError as exc:
                    print(type(exc).__name__, exc)
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(coherent.__file__).parents[1]))
        try:
            done = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, timeout=10,
            )
        except subprocess.TimeoutExpired:
            pytest.fail("a label past the float64 limit hung the tail-rule walk")
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        # the last labels the unguarded walks finish on
        assert lines[0] == str(loop_truncation(0, 18296.27))
        assert lines[8] == str(loop_truncation_standard(26.59))
        raised = [line for i, line in enumerate(lines) if i not in (0, 8)]
        assert len(raised) == 11
        for line in raised:
            assert line.startswith("LabelRangeError |")
            assert "beyond the float64 limit" in line
        # each error names the limit of the walk that failed
        for line in raised[:-1]:
            assert "of the tail rule" in line and "1.8e4" in line
        assert "|alpha| = 18296.3 " in lines[1]
        assert "|alpha| = 1e+200 " in lines[5]
        assert "|z| = 26.6 " in lines[9]
        assert "|alpha| = 1.4e+154 " in lines[12]
        assert "|alpha|^2" in lines[12] and "1.34e154" in lines[12]
        assert "tail rule" not in lines[12] and "1.8e4" not in lines[12]
        assert issubclass(coherent.LabelRangeError, ValueError)

    def test_spec_auto_and_explicit(self):
        spec = coherent.CoherentSpec(1, 2.0)
        assert spec.truncation == coherent.adequate_truncation(1, 2.0)
        probe = coherent.CoherentSpec(1, 2.0, truncation=5)
        assert probe.truncation == 5
        with pytest.raises(ValueError):
            coherent.CoherentSpec(2, 1.0, truncation=2)


class TestBuildCS:
    def test_alpha_zero_gives_extremal_states(self):
        v0 = coherent.build_cs(coherent.CoherentSpec(0, 0.0))
        assert v0.tolist() == [1.0 + 0.0j]
        v2 = coherent.build_cs(coherent.CoherentSpec(2, 0.0))
        np.testing.assert_allclose(v2, [0, 0, 1.0])

    def test_coefficient_ratio(self):
        v = coherent.build_cs(coherent.CoherentSpec(0, 1.0))
        assert v[3] / v[0] == pytest.approx(1 / math.sqrt(6), abs=1e-15)

    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_unit_norm_and_support(self, j):
        v = coherent.build_cs(coherent.CoherentSpec(j, 2.5 - 1.5j))
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        off = np.arange(v.size) % 3 != j
        assert np.all(v[off] == 0)

    def test_truncation_error_carries_required_size(self):
        spec = coherent.CoherentSpec(0, 4.0, truncation=5)
        with pytest.raises(coherent.TruncationError) as info:
            coherent.build_cs(spec)
        assert info.value.required == coherent.adequate_truncation(0, 4.0)
        assert info.value.given == 5

    def test_explicit_adequate_truncation_accepted(self):
        needed = coherent.adequate_truncation(1, 2.0)
        v = coherent.build_cs(coherent.CoherentSpec(1, 2.0, truncation=needed + 6))
        assert v.size == needed + 6


class TestEigenResidual:
    def test_vacuum_exact(self):
        assert coherent.eigen_residual(coherent.CoherentSpec(0, 0.0)) == 0.0

    def test_adequate_truncation_small_residual(self):
        assert coherent.eigen_residual(coherent.CoherentSpec(1, 2.0)) < 1e-10

    def test_random_eigenvalues(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            j = int(rng.integers(0, 3))
            alpha = rng.uniform(0, 5) * np.exp(2j * np.pi * rng.uniform())
            spec = coherent.CoherentSpec(j, alpha)
            res = coherent.eigen_residual(spec)
            assert res < 1e-10
            # the residual is dominated by the top kept coefficient
            top = abs(coherent.build_cs(spec)[-1])
            assert res <= 10 * abs(alpha) * top + 1e-14

    def test_undersized_truncation_flagged(self):
        res = coherent.eigen_residual(coherent.CoherentSpec(2, 5.0, truncation=9))
        assert res > 1e-3


def dense_eigen_residual(spec):
    """The residual with a_g as the dense cube of the annihilation matrix."""
    n_op = max(spec.truncation, 4)
    vec = np.zeros(n_op, dtype=complex)
    vec[: spec.truncation] = coherent.cs_coefficients(spec.j, spec.alpha, spec.truncation)
    lowering = fock.build_deformed_ladders(n_op)[0].matrix
    return float(np.linalg.norm(lowering @ vec - spec.alpha * vec))


def dense_statistics(spec):
    """Every statistics field as a quadratic form of the dense x, p and H."""
    n_op = spec.truncation + 3
    vec = np.zeros(n_op, dtype=complex)
    vec[: spec.truncation] = coherent.build_cs(spec)
    x = oracle.build_position(n_op) @ vec
    p = oracle.build_momentum(n_op) @ vec
    mean_x, mean_p = np.vdot(vec, x).real, np.vdot(vec, p).real
    mean_x2, mean_p2 = np.linalg.norm(x) ** 2, np.linalg.norm(p) ** 2
    mean_h = np.vdot(vec, fock.build_hamiltonian(n_op).matrix @ vec).real
    product = math.sqrt((mean_x2 - mean_x**2) * (mean_p2 - mean_p**2))
    return coherent.CSStatistics(mean_x, mean_p, mean_x2, mean_p2, mean_h, product)


ORACLE_LABELS = [0.0, 1.0, 30.0, 1e3]


class TestShiftFormAgainstDenseOracle:
    @pytest.mark.parametrize("j", [0, 1, 2])
    @pytest.mark.parametrize("abs_alpha", ORACLE_LABELS)
    def test_statistics(self, j, abs_alpha):
        spec = coherent.CoherentSpec(j, abs_alpha * cmath.exp(0.4j))
        got, want = coherent.statistics(spec), dense_statistics(spec)
        # <x> and <p> vanish on a ladder, so the energy sets their scale
        scale = 1e-12 * want.mean_H
        for field in dataclasses.fields(coherent.CSStatistics):
            value = getattr(want, field.name)
            assert getattr(got, field.name) == pytest.approx(
                value, rel=1e-12, abs=scale
            ), field.name

    @pytest.mark.parametrize("j", [0, 1, 2])
    @pytest.mark.parametrize("abs_alpha", ORACLE_LABELS)
    def test_eigen_residual(self, j, abs_alpha):
        alpha = abs_alpha * cmath.exp(0.4j)
        adequate = coherent.adequate_truncation(j, abs_alpha)
        for size in sorted({adequate, max(adequate // 2, j + 1), j + 4, j + 1}):
            spec = coherent.CoherentSpec(j, alpha, size)
            got, want = coherent.eigen_residual(spec), dense_eigen_residual(spec)
            # an adequate residual is rounding noise on terms of size |alpha|
            assert abs(got - want) <= 1e-12 * max(want, abs_alpha), size
            if size < adequate:
                assert got > 1e-10, size  # fails the verify tolerance

    def test_no_dense_operator_is_built(self, monkeypatch):
        for name in [n for n in vars(fock) if n.startswith("build_")]:
            monkeypatch.setattr(fock, name, None)
        spec = coherent.CoherentSpec(2, 1e3)
        coherent.statistics(spec)
        coherent.eigen_residual(spec)


def loop_coefficients(j, alpha, n_trunc):
    """cs_coefficients set element by element."""
    coeffs = np.zeros(n_trunc, dtype=complex)
    c = 1.0 / math.sqrt(math.factorial(j))
    idx = j
    while idx < n_trunc:
        coeffs[idx] = c
        c = c * complex(alpha) / math.sqrt((idx + 1.0) * (idx + 2.0) * (idx + 3.0))
        idx += 3
    coeffs /= np.linalg.norm(coeffs)
    return coeffs


def loop_eigen_residual(alpha, coeffs):
    n = np.arange(3.0, coeffs.size)
    lowered = np.zeros_like(coeffs)
    lowered[: n.size] = np.sqrt(n * (n - 1.0) * (n - 2.0)) * coeffs[3:]
    return float(np.linalg.norm(lowered - alpha * coeffs))


def appended_statistics(coeffs):
    """statistics with the padded arrays made by np.append and np.insert."""
    vec = np.append(coeffs, 0.0)
    weights = np.sqrt(np.arange(1.0, vec.size)) / math.sqrt(2.0)
    lowered = np.append(weights * vec[1:], 0.0)
    raised = np.insert(weights * vec[:-1], 0, 0.0)
    x_vec = lowered + raised
    p_vec = 1j * (raised - lowered)
    mean_x = float(np.vdot(vec, x_vec).real)
    mean_p = float(np.vdot(vec, p_vec).real)
    mean_x2 = float(np.linalg.norm(x_vec) ** 2)
    mean_p2 = float(np.linalg.norm(p_vec) ** 2)
    mean_h = float(np.sum((np.arange(vec.size) + 0.5) * np.abs(vec) ** 2))
    product = math.sqrt((mean_x2 - mean_x**2) * (mean_p2 - mean_p**2))
    return coherent.CSStatistics(mean_x, mean_p, mean_x2, mean_p2, mean_h, product)


class TestStateBuiltOnce:
    @pytest.mark.parametrize("j", [0, 1, 2])
    @pytest.mark.parametrize("abs_alpha", [0.0, 1.0, 30.0, 1e3, 1.5e4])
    def test_bit_identical_to_loop_oracle(self, j, abs_alpha):
        rng = np.random.default_rng([j, int(abs_alpha)])
        alpha = abs_alpha * cmath.exp(2j * math.pi * rng.uniform())
        adequate = loop_truncation(j, abs_alpha)
        auto = coherent.CoherentSpec(j, alpha)
        assert auto.truncation == auto.required == adequate
        for size in (adequate, adequate + 7, j + 1):
            spec = coherent.CoherentSpec(j, alpha, size)
            want = loop_coefficients(j, alpha, size)
            assert np.array_equal(coherent.cs_coefficients(j, alpha, size), want)
            assert np.array_equal(spec.coeffs, want)
            residual = coherent.eigen_residual(spec)
            assert residual == loop_eigen_residual(alpha, want)
            if size < adequate:
                assert residual > 1e-10  # the verify tolerance
                for build in (coherent.build_cs, coherent.statistics):
                    with pytest.raises(coherent.TruncationError) as info:
                        build(spec)
                    assert (info.value.required, info.value.given) == (adequate, size)
                continue
            assert np.array_equal(coherent.build_cs(spec), want)
            assert coherent.statistics(spec) == appended_statistics(want)

    @pytest.mark.parametrize("explicit", [False, True])
    def test_walk_and_recurrence_run_once_per_spec(self, monkeypatch, explicit):
        truncation = coherent.adequate_truncation(1, 4.0) + 7 if explicit else None
        calls = collections.Counter()
        for name in ("adequate_truncation", "cs_coefficients"):

            def counted(*args, _real=getattr(coherent, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(coherent, name, counted)
        spec = coherent.CoherentSpec(1, 2.4 + 3.2j, truncation)
        coherent.build_cs(spec)
        coherent.statistics(spec)
        coherent.eigen_residual(spec)
        assert calls == {"adequate_truncation": 1, "cs_coefficients": 1}

    def test_coeffs_read_only_and_build_copies(self):
        spec = coherent.CoherentSpec(2, 3.0 + 1.0j)
        with pytest.raises(ValueError):
            spec.coeffs[2] = 0.0
        vec = coherent.build_cs(spec)
        assert vec.flags.writeable
        assert not np.shares_memory(vec, spec.coeffs)
        vec[:] = 0.0
        want = loop_coefficients(2, 3.0 + 1.0j, spec.truncation)
        assert np.array_equal(spec.coeffs, want)
        assert np.array_equal(coherent.build_cs(spec), want)


@pytest.fixture
def initial_table(monkeypatch):
    """The table as built at import, so a test may grow it."""
    monkeypatch.setattr(coherent, "_STEPS", ([], [], []))
    monkeypatch.setattr(coherent, "_ROOTS", ([], [], []))
    for name in ("_SHIFT", "_ENERGY", "_LOWER"):
        monkeypatch.setattr(coherent, name, np.empty(0))
    coherent._grow(3 * coherent._TABLE_ROWS)


def assert_weights_are_the_kernels_expressions():
    levels = coherent._ENERGY.size
    assert coherent._SHIFT.size == coherent._LOWER.size == levels
    assert sum(map(len, coherent._ROOTS)) == levels  # the lists cover the same levels
    for n in range(levels):
        assert coherent._ENERGY[n] == n + 0.5
        # sqrt and / round correctly, so each entry is the scalar expression
        assert coherent._SHIFT[n] == math.sqrt(n + 1.0) / math.sqrt(2.0)
        assert coherent._LOWER[n] == math.sqrt((n + 3) * (n + 2) * (n + 1))


class TestWeightTables:
    """The table-read shift kernels against the per-call arrays they replace."""

    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_bit_identical_past_the_first_growth(self, initial_table, j):
        alpha = 40.0 * cmath.exp(0.7j + j)
        first = 3 * coherent._TABLE_ROWS  # the levels built at import
        sizes = (first - 1, first, first + 1, 2 * first + 3 + j, 4500 + j)
        results = {}
        for size in sizes:
            spec = coherent.CoherentSpec(j, alpha, size)
            want = loop_coefficients(j, alpha, size)
            results[size] = coherent.statistics(spec), coherent.eigen_residual(spec)
            assert results[size] == (appended_statistics(want), loop_eigen_residual(alpha, want))
            assert coherent._ENERGY.size >= size + 1
        assert coherent._ENERGY.size > 4500
        # smaller truncations read a prefix of the grown tables, to the bit
        for size in sizes:
            spec = coherent.CoherentSpec(j, alpha, size)
            assert (coherent.statistics(spec), coherent.eigen_residual(spec)) == results[size]
        assert_weights_are_the_kernels_expressions()

    def test_first_growth_covers_every_tail_rule_size(self, initial_table):
        coherent.statistics(coherent.CoherentSpec(0, 1.0))
        assert coherent._ENERGY.size == 3 * coherent._TABLE_ROWS
        for table in (coherent._SHIFT, coherent._ENERGY, coherent._LOWER):
            assert not table.flags.writeable
        # the largest tail-rule size, from the test on the ladder-step table
        assert loop_truncation(2, 18815.0) + 1 <= coherent._ENERGY.size
        assert_weights_are_the_kernels_expressions()

    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_sizes_with_few_or_no_lowering_weights(self, initial_table, j):
        alpha = 1.3 - 0.6j
        for size in range(j + 1, j + 5):
            spec = coherent.CoherentSpec(j, alpha, size)
            want = loop_coefficients(j, alpha, size)
            assert coherent.eigen_residual(spec) == loop_eigen_residual(alpha, want), size
        # nothing past the levels built at import, so nothing is grown
        assert coherent._LOWER.size == 3 * coherent._TABLE_ROWS

    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_arrays_equal_the_per_call_expressions(self, initial_table, j):
        for levels in (3 * coherent._TABLE_ROWS, 2055 + j, 4500 + j):
            coherent._grow(levels)
            n = np.arange(3.0, levels + 3)
            want = (
                np.sqrt(np.arange(1.0, levels + 1)) / math.sqrt(2.0),
                np.arange(levels) + 0.5,
                np.sqrt(n * (n - 1.0) * (n - 2.0)),
            )
            got = (coherent._SHIFT, coherent._ENERGY, coherent._LOWER)
            for table, expected in zip(got, want):
                assert not table.flags.writeable
                assert np.array_equal(table.view(np.uint64), expected.view(np.uint64)), levels

    @settings(derandomize=True, database=None, deadline=None)
    @given(
        j=st.sampled_from([0, 1, 2]),
        abs_alpha=st.floats(0.0, 1.5e4),
        phase=st.floats(0.0, 2.0 * math.pi),
        extra=st.integers(0, 60),
    )
    def test_kernels_equal_the_loop_oracles(self, j, abs_alpha, phase, extra):
        alpha = abs_alpha * cmath.exp(1j * phase)
        size = loop_truncation(j, abs_alpha) + extra
        spec = coherent.CoherentSpec(j, alpha, size)
        want = loop_coefficients(j, alpha, size)
        assert coherent.statistics(spec) == appended_statistics(want)
        assert coherent.eigen_residual(spec) == loop_eigen_residual(alpha, want)


class TestMeanOccupationSeries:
    def test_values_at_zero(self):
        assert coherent.a_norm_squared(0, 0.0) == 0.0
        assert coherent.a_norm_squared(1, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert coherent.a_norm_squared(2, 0.0) == pytest.approx(2.0, abs=1e-15)

    @pytest.mark.parametrize("j", [0, 1, 2])
    @pytest.mark.parametrize("abs_alpha", [0.3, 1.0, 2.7, 5.0])
    def test_matches_quadratic_form(self, j, abs_alpha):
        spec = coherent.CoherentSpec(j, abs_alpha)
        v = coherent.build_cs(spec)
        n_op = spec.truncation + 3
        vec = np.zeros(n_op, dtype=complex)
        vec[: v.size] = v
        a = fock.build_annihilation(n_op).matrix
        number = float(np.vdot(vec, (a.conj().T @ a) @ vec).real)
        assert coherent.a_norm_squared(j, abs_alpha) == pytest.approx(
            number, abs=1e-10
        )

    def test_growth_without_bound(self):
        assert coherent.a_norm_squared(0, 10.0) > coherent.a_norm_squared(0, 1.0)

    def test_agrees_with_a_50_digit_sum(self):
        pytest.importorskip("mpmath")

        worst = 0.0
        for a in np.geomspace(1e-3, 1.5e4, 30).tolist():
            for j in range(3):
                want = oracle.mean_occupation(j, a)
                worst = max(worst, float(abs(coherent.a_norm_squared(j, a) - want) / want))
        # the worst relative error measured is 1.53e-15, at j = 2, |alpha| = 1.5e4
        assert worst < 1e-14, f"worst relative error {worst:.3e}"

    def test_nonfinite_label_rejected_in_bounded_time(self):
        # nan never met the series' stopping rule, so the calls run in a fresh
        # interpreter that is killed if it does not finish
        script = textwrap.dedent("""
            import math
            from triladder import coherent as c

            cases = [
                lambda: c.a_norm_squared(0, math.nan),
                lambda: c.a_norm_squared(1, math.inf),
                lambda: c.a_norm_squared(2, -math.inf),
                lambda: c._ladder_series(math.nan, 1),
                lambda: c.a_norm_squared(0, 1.87e4),
                lambda: c.a_norm_squared(2, 2e5),
            ]
            for case in cases:
                try:
                    print(repr(case()))
                except (ValueError, ArithmeticError) as exc:
                    print(type(exc).__name__, exc)
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(coherent.__file__).parents[1]))
        try:
            done = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, timeout=10,
            )
        except subprocess.TimeoutExpired:
            pytest.fail("a non-finite label hung the norm series")
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert lines[:3] == [
            "ValueError |alpha| must be finite, got nan",
            "ValueError |alpha| must be finite, got inf",
            "ValueError |alpha| must be finite, got -inf",
        ]
        # a walk that reaches the end of the table raises, never a partial sum
        assert lines[3].startswith("ArithmeticError the norm series for residue 1 ran past")
        # finite labels keep their results, the overflow's inf and nan included
        assert lines[4:] == [repr(loop_a_norm_squared(0, 1.87e4)), "nan"]
        assert lines[4] == "inf"


def loop_norm_series(x, offset):
    """_ladder_series with the step factor computed on every term."""
    term = 1.0 / math.factorial(offset)
    total = 0.0
    carry = 0.0
    k = offset
    while True:
        value = term - carry
        fresh = total + value
        carry = (fresh - total) - value
        total = fresh
        term *= x / ((k + 1.0) * (k + 2.0) * (k + 3.0))
        k += 3
        if term <= total * 1e-18:
            return total


def loop_a_norm_squared(j, abs_alpha):
    x = float(abs_alpha) ** 2
    if j == 0:
        return x * loop_norm_series(x, 2) / loop_norm_series(x, 0)
    if j == 1:
        return loop_norm_series(x, 0) / loop_norm_series(x, 1)
    return loop_norm_series(x, 1) / loop_norm_series(x, 2)


def loop_deformed(z, j, n_trunc):
    """deformed_cs_nonnorm's coefficients set element by element."""
    coeffs = np.zeros(n_trunc, dtype=complex)
    c = z**j / math.sqrt(math.factorial(j))
    idx = j
    while idx < n_trunc:
        coeffs[idx] = c
        c = c * z**3 / math.sqrt((idx + 1.0) * (idx + 2.0) * (idx + 3.0))
        idx += 3
    return coeffs


def assert_rows_are_the_walks_expressions():
    for j in range(3):
        steps, roots = coherent._STEPS[j], coherent._ROOTS[j]
        assert len(steps) == len(roots) >= coherent._TABLE_ROWS
        for m, (step, root) in enumerate(zip(steps, roots)):
            n = 3 * m + j
            # the float product is the exact integer, far below 2^53 here
            assert step == (n + 1.0) * (n + 2.0) * (n + 3.0) == (n + 1) * (n + 2) * (n + 3)
            assert root == math.sqrt((n + 1.0) * (n + 2.0) * (n + 3.0))


class DeepestRow(list):
    """One residue of the table that records the deepest row a walk reads."""

    deepest = -1

    def __iter__(self):
        m = -1
        try:
            for m, row in enumerate(super().__iter__()):
                yield row
        finally:
            self.deepest = max(self.deepest, m)


class TestLadderStepTable:
    """The table-driven walks against the per-term loops they replace."""

    def test_rows_are_the_walks_expressions(self):
        assert_rows_are_the_walks_expressions()

    def test_norm_series_bit_for_bit(self):
        # up to the largest label whose square is finite
        sweep = np.geomspace(1e-3, 2e5, 1200).tolist()
        sweep += np.geomspace(2e5, 1.3407807929942596e154, 40).tolist()
        nonfinite = 0
        for a in [0.0, *sweep]:
            for j in range(3):
                got = coherent.a_norm_squared(j, a)
                assert got.hex() == loop_a_norm_squared(j, a).hex(), (j, a)
                nonfinite += not math.isfinite(got)
        assert nonfinite > 0  # the sweep crosses the band where the series overflows

    @pytest.mark.parametrize("j,threshold", [(0, 18296), (1, 18555), (2, 18816)])
    def test_tail_rule_sizes_and_label_limit(self, j, threshold):
        sweep = [
            0.0,
            *np.geomspace(1e-3, 1e154, 600).tolist(),
            *np.linspace(threshold - 2.0, threshold + 2.0, 401).tolist(),
        ]
        raised = []
        for a in sweep:
            want = loop_truncation(j, a)
            if want is None:
                with pytest.raises(coherent.LabelRangeError):
                    coherent.adequate_truncation(j, a)
                raised.append(a)
            else:
                assert coherent.adequate_truncation(j, a) == want, a
        near = [a for a in raised if a < threshold + 2.0]
        assert threshold - 1.0 < min(near) <= threshold + 1.0
        assert all(a >= min(near) for a in raised)

    @pytest.mark.parametrize("j", [0, 1, 2])
    @pytest.mark.parametrize("abs_alpha", [0.0, 1.0, 30.0, 1e3, 1.5e4])
    def test_coefficients_bit_for_bit(self, initial_table, j, abs_alpha):
        rng = np.random.default_rng([7, j, int(abs_alpha)])
        alpha = abs_alpha * cmath.exp(2j * math.pi * rng.uniform())
        z = abs_alpha ** (1.0 / 3.0) * cmath.exp(2j * math.pi * rng.uniform())
        steps = coherent._STEPS[j]
        edge = 3 * coherent._TABLE_ROWS  # the first level past the initial table
        adequate = loop_truncation(j, abs_alpha)
        sizes = (j + 1, max(j + 1, adequate // 2), adequate, edge - 1, edge, edge + 1, 3 * edge)
        for size in sizes:
            got = coherent.cs_coefficients(j, alpha, size)
            want = loop_coefficients(j, alpha, size)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), size
        required = loop_truncation(j, abs(z) ** 3)
        for size in (required, edge - 1, edge, edge + 1, 3 * edge):
            got = coherent.deformed_cs_nonnorm(z, j, size)
            want = loop_deformed(z, j, size)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), size
        # the explicit truncations grew the same lists in place
        assert coherent._STEPS[j] is steps
        assert len(steps) == len(range(j, 3 * edge, 3))
        assert_rows_are_the_walks_expressions()

    def test_longest_walk_stays_inside_the_initial_table(self, initial_table, monkeypatch):
        recorded = tuple(DeepestRow(steps) for steps in coherent._STEPS)
        monkeypatch.setattr(coherent, "_STEPS", recorded)
        sweep = [
            0.0,
            *np.geomspace(1e-3, 1e154, 400).tolist(),
            *np.arange(18000.0, 21000.0, 10.0).tolist(),
        ]
        for a in sweep:
            for j in range(3):
                try:
                    coherent.adequate_truncation(j, a)
                except coherent.LabelRangeError:
                    pass
        tail = max(3 * rows.deepest + j for j, rows in enumerate(recorded))
        for rows in recorded:
            rows.deepest = -1
        for a in sweep:
            for j in range(3):
                coherent.a_norm_squared(j, a)
        series = max(3 * rows.deepest + j for j, rows in enumerate(recorded))
        # the step levels the walks used at most, against the table's first
        # level past its end
        assert (tail, series) == (1019, 971)
        assert max(tail, series) < 3 * coherent._TABLE_ROWS

    def test_walk_past_the_table_raises(self, monkeypatch):
        monkeypatch.setattr(coherent, "_STEPS", ([6.0], [24.0], [60.0]))
        with pytest.raises(ArithmeticError, match="tail-rule walk for residue 0 ran past the 1 rows"):
            coherent.adequate_truncation(0, 5.0)
        with pytest.raises(ArithmeticError, match="norm series for residue 0 ran past"):
            coherent.a_norm_squared(1, 5.0)



class TestSizeCheck:
    """One size rule for every builder: the tail-rule size passes and one
    level less raises ``TruncationError``. Only ``CoherentSpec`` may omit
    its size, which is then the tail-rule size."""

    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_boundary_for_every_builder(self, j):
        z = 1.7 + 0.4j
        spec = coherent.CoherentSpec(j, z**3)
        assert spec.truncation == spec.required
        builders = [
            (spec.required, lambda n: coherent.build_cs(coherent.CoherentSpec(j, z**3, n))),
            (coherent.adequate_truncation_standard(abs(z)),
             lambda n: coherent.standard_cs_nonnorm(z, n)),
            (coherent.adequate_truncation(j, abs(z) ** 3),
             lambda n: coherent.deformed_cs_nonnorm(z, j, n)),
        ]
        for required, build in builders:
            assert build(required).size == required
            with pytest.raises(coherent.TruncationError) as info:
                build(required - 1)
            assert (info.value.required, info.value.given) == (required, required - 1)


class TestStatistics:
    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_minima(self, j):
        st = coherent.statistics(coherent.CoherentSpec(j, 0.0))
        assert st.uncertainty_product == pytest.approx(j + 0.5, abs=1e-12)

    @pytest.mark.parametrize(
        "j,alpha",
        [(0, 1 + 1j), (1, 2.0), (2, 0.5 - 2.5j), (0, 4.9j), (1, 3.3 + 0.1j)],
    )
    def test_identity_chain(self, j, alpha):
        st = coherent.statistics(coherent.CoherentSpec(j, alpha))
        assert abs(st.mean_x) < 1e-12
        assert abs(st.mean_p) < 1e-12
        assert st.mean_x2 == pytest.approx(st.mean_p2, abs=1e-12)
        assert st.mean_x2 == pytest.approx(st.mean_H, abs=1e-12)
        assert st.mean_x2 == pytest.approx(st.uncertainty_product, abs=1e-12)

    def test_series_cross_check(self):
        st = coherent.statistics(coherent.CoherentSpec(0, 1 + 1j))
        series = coherent.a_norm_squared(0, math.sqrt(2.0)) + 0.5
        assert st.uncertainty_product == pytest.approx(series, abs=1e-12)

    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_squared_lowering_mean_vanishes(self, j):
        # <a^2> couples residues two apart, so it is exactly zero on a ladder
        spec = coherent.CoherentSpec(j, 1.7 - 0.4j)
        v = coherent.build_cs(spec)
        n_op = spec.truncation + 3
        vec = np.zeros(n_op, dtype=complex)
        vec[: v.size] = v
        a = fock.build_annihilation(n_op).matrix
        assert complex(np.vdot(vec, (a @ a) @ vec)) == 0.0


class TestEvolution:
    def test_identity_at_zero(self):
        spec = coherent.CoherentSpec(1, 1.5)
        phase, evolved = oracle.evolve(spec, 0.0)
        assert phase == 1.0
        assert evolved == spec

    def test_third_period_restores_alpha(self):
        spec = coherent.CoherentSpec(2, 1.0 + 0.5j)
        t = 2 * math.pi / 3
        phase, evolved = oracle.evolve(spec, t)
        assert evolved.alpha == pytest.approx(spec.alpha, abs=1e-14)
        assert phase == pytest.approx(cmath.exp(-1j * 2.5 * t), abs=1e-14)

    def test_sixth_period_negates_alpha(self):
        _, evolved = oracle.evolve(coherent.CoherentSpec(0, 1.0), math.pi / 3)
        assert evolved.alpha == pytest.approx(-1.0, abs=1e-14)

    def test_coefficientwise_consistency(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            j = int(rng.integers(0, 3))
            alpha = rng.uniform(0, 4) * np.exp(2j * np.pi * rng.uniform())
            t = rng.uniform(0, 4 * np.pi)
            spec = coherent.CoherentSpec(j, alpha)
            before = coherent.build_cs(spec)
            phase, evolved = oracle.evolve(spec, t)
            after = coherent.build_cs(evolved)
            n = np.arange(spec.truncation)
            direct = before * np.exp(-1j * (n + 0.5) * t)
            assert np.max(np.abs(direct - phase * after)) < 1e-12


def loop_standard(z, n_trunc):
    """standard_cs_nonnorm's coefficients set element by element."""
    coeffs = np.zeros(n_trunc, dtype=complex)
    c = 1.0
    for n in range(n_trunc):
        coeffs[n] = c
        c = c * complex(z) / math.sqrt(n + 1.0)
    return coeffs


class TestStandardCS:
    @pytest.mark.parametrize("z", [
        0.0, complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0),
        complex(-1.5, -0.0), complex(-0.0, 2.5), 1.3 - 0.6j,
        26.0, -26.0j, 26.0 * cmath.exp(0.9j), 26.2 * cmath.exp(-2.1j),
    ])
    def test_bit_identical_to_loop_oracle(self, z):
        required = coherent.adequate_truncation_standard(abs(z))
        for size in (required, required + 1, 2 * required + 7):
            got = coherent.standard_cs_nonnorm(z, size)
            # the bytes also tell -0.0 from 0.0
            assert got.tobytes() == loop_standard(z, size).tobytes(), size

    def test_vacuum(self):
        v = coherent.standard_cs_nonnorm(0.0, coherent.adequate_truncation_standard(0.0))
        assert v.tolist() == [1.0 + 0.0j]

    def test_coefficient_value(self):
        v = coherent.standard_cs_nonnorm(1.0, coherent.adequate_truncation_standard(1.0))
        assert v[2] == pytest.approx(1 / math.sqrt(2), abs=1e-15)

    def test_norm_squared_is_exponential(self):
        v = coherent.standard_cs_nonnorm(2.0, coherent.adequate_truncation_standard(2.0))
        assert np.linalg.norm(v) ** 2 == pytest.approx(math.exp(4.0), rel=1e-10)

    def test_truncation_error(self):
        with pytest.raises(coherent.TruncationError):
            coherent.standard_cs_nonnorm(3.0, n_trunc=10)


class TestDeformedNonnorm:
    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_slice_of_standard(self, j):
        z = 1.3 - 0.6j
        n = max(
            coherent.adequate_truncation_standard(abs(z)),
            coherent.adequate_truncation(j, abs(z) ** 3),
        )
        full = coherent.standard_cs_nonnorm(z, n)
        part = coherent.deformed_cs_nonnorm(z, j, n)
        mask = np.arange(n) % 3 == j
        np.testing.assert_allclose(part[mask], full[mask], atol=1e-14)
        assert np.all(part[~mask] == 0)

    def test_mod_three_partition_of_exponential(self):
        for z in (1.0, 1.8, 3.0):
            n = max(
                [coherent.adequate_truncation_standard(z)]
                + [coherent.adequate_truncation(j, z**3) for j in range(3)]
            )
            total = sum(
                np.linalg.norm(coherent.deformed_cs_nonnorm(z, j, n)) ** 2
                for j in range(3)
            )
            assert total == pytest.approx(math.exp(z * z), rel=1e-10)


class TestTriangleDecomposition:
    def test_weights_third_roots_filter(self):
        omega = cmath.exp(2j * math.pi / 3)
        tri0 = coherent.triangle_decompose(1.0, 0)
        np.testing.assert_allclose(tri0.weights, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)
        tri2 = coherent.triangle_decompose(1.0, 2)
        np.testing.assert_allclose(
            tri2.weights, [1 / 3, omega / 3, omega**2 / 3], atol=1e-15
        )
        for j in range(3):
            tri = coherent.triangle_decompose(2.0, j)
            assert all(abs(abs(w) - 1 / 3) < 1e-15 for w in tri.weights)

    def test_labels_form_triangle(self):
        tri = coherent.triangle_decompose(2.0, 1)
        mags = [abs(lab) for lab in tri.labels]
        np.testing.assert_allclose(mags, 2.0)
        # pairwise distances equal: equilateral
        d01 = abs(tri.labels[0] - tri.labels[1])
        d12 = abs(tri.labels[1] - tri.labels[2])
        d20 = abs(tri.labels[2] - tri.labels[0])
        assert d01 == pytest.approx(d12, abs=1e-14)
        assert d12 == pytest.approx(d20, abs=1e-14)

    def test_reconstruction_oracle_small_truncation(self):
        # direct coefficient comparison at the tail-rule size 27; the filter keeps n = 3k
        tri = coherent.triangle_decompose(1.0, 0)
        assert tri.truncation == 27
        err = np.max(np.abs(tri.reconstruction() - tri.target()))
        assert err < 1e-12

    def test_filter_property(self):
        tri = coherent.triangle_decompose(1.0, 1)
        rec = tri.reconstruction()
        assert rec.shape == (tri.truncation,)
        off = np.arange(tri.truncation) % 3 != 1
        assert np.max(np.abs(rec[off])) < 1e-12

    @pytest.mark.parametrize("j", [0, 1, 2])
    @pytest.mark.parametrize("z", [0.5, 1.5, 3.0, 2.1 + 2.1j])
    def test_reconstruction_matches_target(self, j, z):
        tri = coherent.triangle_decompose(z, j)
        err = np.max(np.abs(tri.reconstruction() - tri.target()))
        assert err < 1e-12

    def test_degenerate_label(self):
        # the tail rule keeps only |0> at z = 0
        tri = coherent.triangle_decompose(0.0, 0)
        np.testing.assert_allclose(tri.reconstruction(), [1], atol=1e-15)
        np.testing.assert_array_equal(tri.target(), [1])

    def test_cross_family_orthogonality_exact(self):
        n = coherent.adequate_truncation(2, 8.0)
        states = [
            coherent.cs_coefficients(j, 2.0 * cmath.exp(0.3j), n) for j in range(3)
        ]
        for j in range(3):
            for k in range(j + 1, 3):
                assert complex(np.vdot(states[j], states[k])) == 0.0


class TestMomentCheck:
    @staticmethod
    def exp_weight_samples(step=0.01, top=60.0):
        x = np.arange(0.0, top + step, step)
        return np.column_stack([x, np.exp(-x)])

    def test_wrong_weight_pattern(self):
        rows = coherent.moment_check(0, self.exp_weight_samples(), 2)
        # analytic moments of e^-x are (n-1)!: matches at n=1, misses 6 at n=2
        assert rows[0].computed == pytest.approx(1.0, rel=1e-4)
        assert rows[0].target == 1
        assert rows[0].rel_error < 1e-3
        assert rows[1].computed == pytest.approx(1.0, rel=1e-4)
        assert rows[1].target == 6
        assert rows[1].rel_error > 0.5

    def test_first_targets_are_small_factorials(self):
        for j, want in [(0, 1), (1, 1), (2, 2)]:
            rows = coherent.moment_check(j, self.exp_weight_samples(0.1, 10.0), 1)
            assert rows[0].target == want

    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_targets_exact_factorials_up_to_ten(self, j):
        rows = coherent.moment_check(j, self.exp_weight_samples(0.5, 10.0), 10)
        for row in rows:
            assert row.target == math.factorial(3 * (row.n - 1) + j)
            assert isinstance(row.target, int)

    def test_third_moment_target(self):
        # j=1 targets run 1!, 4!, 7!, i.e. the gamma values at 2, 5, 8
        rows = coherent.moment_check(1, self.exp_weight_samples(0.5, 10.0), 3)
        assert rows[2].target == math.factorial(7)

    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_moment_count_limit(self, j):
        samples = self.exp_weight_samples(0.5, 10.0)
        # the targets run to 168!, 169! and 170!; 171! overflows float64
        rows = coherent.moment_check(j, samples, 57)
        assert rows[-1].target == math.factorial(3 * 56 + j)
        with pytest.raises(ValueError, match=r"n_max must lie in 1 \.\. 57"):
            coherent.moment_check(j, samples, 58)

    def test_invalid_samples(self):
        with pytest.raises(ValueError):
            coherent.moment_check(0, [], 2)
        with pytest.raises(ValueError):
            coherent.moment_check(0, [(0.0, 1.0), (1.0, -0.5)], 2)
        with pytest.raises(ValueError):
            coherent.moment_check(0, [(0.0, 1.0), (0.0, 1.0)], 2)
        with pytest.raises(ValueError):
            coherent.moment_check(0, [(-1.0, 1.0), (1.0, 1.0)], 2)
        with pytest.raises(ValueError):
            coherent.moment_check(0, self.exp_weight_samples(0.5, 5.0), 0)
