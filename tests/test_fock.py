import math
import re

import numpy as np
import pytest

from triladder import coherent, fock

import oracle


def basis(n, dim):
    vec = np.zeros(dim, dtype=complex)
    vec[n] = 1.0
    return vec


def commutator(op_a, op_b):
    return op_a @ op_b - op_b @ op_a


class TestBuilders:
    def test_annihilation_action(self):
        a = fock.build_annihilation(6).matrix
        np.testing.assert_allclose(a @ basis(1, 6), basis(0, 6), atol=1e-15)
        np.testing.assert_allclose(a @ basis(0, 6), 0.0, atol=0.0)
        np.testing.assert_allclose(
            a @ basis(3, 6), math.sqrt(3) * basis(2, 6), atol=1e-15
        )

    def test_annihilation_structure(self):
        a = fock.build_annihilation(9)
        mat = a.matrix
        for n in range(1, 9):
            assert mat[n - 1, n] == pytest.approx(math.sqrt(n), abs=1e-15)
        off = mat - np.diag(np.diag(mat, 1), 1)
        assert np.all(off == 0)

    def test_invalid_truncation(self):
        with pytest.raises(ValueError):
            fock.build_annihilation(0)
        with pytest.raises(ValueError):
            fock.build_hamiltonian(0)

    def test_hamiltonian_diagonal(self):
        h = fock.build_hamiltonian(8).matrix
        np.testing.assert_allclose(h @ basis(0, 8), 0.5 * basis(0, 8))
        np.testing.assert_allclose(h @ basis(2, 8), 2.5 * basis(2, 8))
        np.testing.assert_allclose(h @ basis(7, 8), 7.5 * basis(7, 8))
        assert np.all(h == np.diag(np.diag(h)))

    def test_creation_is_adjoint(self):
        # the conjugate transpose of a raises: a+ |n> = sqrt(n + 1) |n + 1>
        adag = fock.build_annihilation(7).matrix.conj().T
        for n in range(6):
            np.testing.assert_allclose(
                adag @ basis(n, 7), math.sqrt(n + 1) * basis(n + 1, 7), atol=1e-15
            )

    def test_position_momentum_hermitian(self):
        for build in (oracle.build_position, oracle.build_momentum):
            op = build(9)
            np.testing.assert_allclose(op, op.conj().T, atol=1e-15)


class TestDeformedLadders:
    def test_lowering_action(self):
        ag, agd = fock.build_deformed_ladders(8)
        np.testing.assert_allclose(
            ag.matrix @ basis(3, 8), math.sqrt(6) * basis(0, 8), atol=1e-14
        )
        np.testing.assert_allclose(ag.matrix @ basis(2, 8), 0.0, atol=0.0)
        np.testing.assert_allclose(
            agd.matrix @ basis(0, 8), math.sqrt(6) * basis(3, 8), atol=1e-14
        )

    def test_band_structure(self):
        ag, _ = fock.build_deformed_ladders(10)
        mat = ag.matrix
        only_band = np.diag(np.diag(mat, 3), 3)
        np.testing.assert_allclose(mat, only_band, atol=0.0)

    def test_raising_is_conjugate_transpose(self):
        ag, agd = fock.build_deformed_ladders(11)
        np.testing.assert_allclose(agd.matrix, ag.matrix.conj().T)

    def test_too_small_truncation(self):
        with pytest.raises(ValueError):
            fock.build_deformed_ladders(3)


class TestCommutators:
    def test_h_with_lowering_interior(self):
        n = 12
        interior = n - 3
        ag, _ = fock.build_deformed_ladders(n)
        h = fock.build_hamiltonian(n)
        resid = commutator(h.matrix, ag.matrix) + 3.0 * ag.matrix
        block = resid[:interior, :interior]
        scale = np.linalg.norm(ag.matrix[:interior, :interior])
        assert np.linalg.norm(block) <= 1e-12 * scale

    def test_h_with_raising_interior(self):
        n = 12
        interior = n - 3
        _, agd = fock.build_deformed_ladders(n)
        h = fock.build_hamiltonian(n)
        resid = commutator(h.matrix, agd.matrix) - 3.0 * agd.matrix
        block = resid[:interior, :interior]
        scale = np.linalg.norm(agd.matrix[:interior, :interior])
        assert np.linalg.norm(block) <= 1e-12 * scale

    def test_self_commutator_vanishes(self):
        # N(H) is a polynomial in H, so the two commute exactly
        h = fock.build_hamiltonian(9).matrix
        assert np.all(commutator(h, fock.number_analogue(9).matrix) == 0)

    def test_deformed_pair_on_vacuum(self):
        ag, agd = fock.build_deformed_ladders(8)
        comm = commutator(ag.matrix, agd.matrix)
        # N(1/2 + 3) - N(1/2) = 3*2*1 - 0 = 6
        np.testing.assert_allclose(comm @ basis(0, 8), 6.0 * basis(0, 8), atol=1e-12)

    def test_ladder_gap_identity_interior(self):
        n = 15
        interior = n - 3
        ag, agd = fock.build_deformed_ladders(n)
        comm = commutator(ag.matrix, agd.matrix)
        gap = (
            fock.number_analogue(n, shift=3.0).matrix - fock.number_analogue(n).matrix
        )
        diff = (comm - gap)[:interior, :interior]
        assert np.linalg.norm(diff) <= 1e-12 * np.linalg.norm(gap[:interior, :interior])


class TestNumberAnalogue:
    def test_extremal_roots(self):
        num = fock.number_analogue(8).matrix
        np.testing.assert_allclose(num @ basis(0, 8), 0.0, atol=0.0)
        np.testing.assert_allclose(num @ basis(2, 8), 0.0, atol=0.0)
        # (7/2-1/2)(7/2-3/2)(7/2-5/2) = 3*2*1
        np.testing.assert_allclose(num @ basis(3, 8), 6.0 * basis(3, 8), atol=0.0)

    @pytest.mark.parametrize("n", [7, 23, 60])
    def test_matches_operator_product(self, n):
        ag, agd = fock.build_deformed_ladders(n)
        product = agd.matrix @ ag.matrix
        num = fock.number_analogue(n).matrix
        eps = np.finfo(float).eps
        assert np.linalg.norm(product - num) <= 10 * eps * np.linalg.norm(num)


class TestLadderState:
    def test_extremal_rungs(self):
        v = oracle.ladder_state(1, 0, 5)
        np.testing.assert_allclose(v, basis(0, 5), atol=0.0)
        v = oracle.ladder_state(3, 0, 5)
        np.testing.assert_allclose(v, basis(2, 5), atol=0.0)

    def test_second_ladder_first_rung(self):
        v = oracle.ladder_state(2, 1, 8)
        np.testing.assert_allclose(v, basis(4, 8), atol=1e-13)
        h = fock.build_hamiltonian(8).matrix
        np.testing.assert_allclose(h @ v, 4.5 * v, atol=1e-13)

    @pytest.mark.parametrize("j", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_unit_basis_vector_and_energy(self, j, n):
        dim = 16
        v = oracle.ladder_state(j, n, dim)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(v, basis(3 * n + j - 1, dim), atol=1e-12)
        h = fock.build_hamiltonian(dim).matrix
        energy = 3 * n + j - 0.5
        np.testing.assert_allclose(h @ v, energy * v, atol=1e-11)

    @pytest.mark.parametrize("j", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_brute_force_oracle(self, j, n):
        # independent route: unnormalized repeated application, one final norm
        dim = 16
        raising = fock.build_deformed_ladders(dim)[1].matrix
        vec = basis(j - 1, dim)
        for _ in range(n):
            vec = raising @ vec
        vec = vec / np.linalg.norm(vec)
        np.testing.assert_allclose(
            oracle.ladder_state(j, n, dim), vec, atol=1e-12
        )

    def test_deep_rung_no_overflow(self):
        v = oracle.ladder_state(1, 99, 300)
        np.testing.assert_allclose(v, basis(297, 300), atol=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            oracle.ladder_state(3, 2, 8)  # needs |8> in an 8-dim space
        with pytest.raises(ValueError):
            oracle.ladder_state(1, -1, 8)
        for j in (0, 4):  # extremal ladders are numbered 1..3
            with pytest.raises(ValueError):
                oracle.ladder_state(j, 0, 8)


def ladder_energies(n_trunc):
    """<H> on every rung of the three extremal ladders that fits in the truncation."""
    h = fock.build_hamiltonian(n_trunc).matrix
    ladders = []
    for j in (1, 2, 3):
        rungs = [oracle.ladder_state(j, n, n_trunc) for n in range((n_trunc - j) // 3 + 1)]
        ladders.append([float(np.vdot(v, h @ v).real) for v in rungs])
    return ladders


class TestSpectrumDecomposition:
    def test_small_case(self):
        ladders = ladder_energies(6)
        expected = [[0.5, 3.5], [1.5, 4.5], [2.5, 5.5]]
        for got, want in zip(ladders, expected):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [3, 7, 20, 61])
    def test_partition_of_spectrum(self, n):
        ladders = ladder_energies(n)
        merged = sorted(e for ladder in ladders for e in ladder)
        np.testing.assert_allclose(merged, [k + 0.5 for k in range(n)], rtol=0, atol=1e-11)
        sets = [{round(e - 0.5) for e in ladder} for ladder in ladders]
        assert not (sets[0] & sets[1] or sets[0] & sets[2] or sets[1] & sets[2])

    @pytest.mark.parametrize("n", [7, 20, 61])
    def test_spacing_three(self, n):
        for ladder in ladder_energies(n):
            assert np.allclose(np.diff(ladder), 3.0)

    @pytest.mark.parametrize("n", [3, 10, 25])
    def test_every_index_in_exactly_one_ladder(self, n):
        ladders = ladder_energies(n)
        indices = sorted(int(round(e - 0.5)) for ladder in ladders for e in ladder)
        assert indices == list(range(n))


class TestLadderIndex:
    def test_conversion_bridge(self):
        # extremal ladder j_ext in 1..3 is coherent-state family j_ext - 1
        for j_cs in (0, 1, 2):
            v = oracle.ladder_state(j_cs + 1, 2, 12)
            off = np.arange(v.size) % 3 != coherent.cs_index(j_cs)
            assert np.all(v[off] == 0)
            np.testing.assert_allclose(v, basis(6 + j_cs, 12), atol=1e-12)

    def test_range_validation(self):
        # a non-integral index is refused, not truncated to a family
        for bad in (-1, 3, 1.5, 2.999, "2", True):
            with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
                coherent.cs_index(bad)

    def test_coercion_helpers(self):
        value = coherent.cs_index(np.int64(2))
        assert value == 2 and type(value) is int


class TestVectorAndOperatorTypes:
    def test_operator_validation(self):
        with pytest.raises(ValueError):
            fock.FockOperator(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            fock.FockOperator(np.zeros((0, 0)))
