import math

import numpy as np
import pytest

from triladder import fock


def basis(n, dim):
    vec = np.zeros(dim, dtype=complex)
    vec[n] = 1.0
    return vec


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
        assert a.bands == (0, 1)

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
        a = fock.build_annihilation(7)
        adag = fock.build_creation(7)
        np.testing.assert_allclose(adag.matrix, a.matrix.conj().T)

    def test_position_momentum_hermitian(self):
        for build in (fock.build_position, fock.build_momentum):
            op = build(9).matrix
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
        resid = fock.commutator(h, ag).matrix + 3.0 * ag.matrix
        block = resid[:interior, :interior]
        scale = np.linalg.norm(ag.matrix[:interior, :interior])
        assert np.linalg.norm(block) <= 1e-12 * scale

    def test_h_with_raising_interior(self):
        n = 12
        interior = n - 3
        _, agd = fock.build_deformed_ladders(n)
        h = fock.build_hamiltonian(n)
        resid = fock.commutator(h, agd).matrix - 3.0 * agd.matrix
        block = resid[:interior, :interior]
        scale = np.linalg.norm(agd.matrix[:interior, :interior])
        assert np.linalg.norm(block) <= 1e-12 * scale

    def test_self_commutator_vanishes(self):
        h = fock.build_hamiltonian(9)
        assert np.all(fock.commutator(h, h).matrix == 0)

    def test_deformed_pair_on_vacuum(self):
        ag, agd = fock.build_deformed_ladders(8)
        comm = fock.commutator(ag, agd).matrix
        # N(1/2 + 3) - N(1/2) = 3*2*1 - 0 = 6
        np.testing.assert_allclose(comm @ basis(0, 8), 6.0 * basis(0, 8), atol=1e-12)

    def test_ladder_gap_identity_interior(self):
        n = 15
        interior = n - 3
        ag, agd = fock.build_deformed_ladders(n)
        comm = fock.commutator(ag, agd).matrix
        gap = (
            fock.number_analogue(n, shift=3.0).matrix - fock.number_analogue(n).matrix
        )
        diff = (comm - gap)[:interior, :interior]
        assert np.linalg.norm(diff) <= 1e-12 * np.linalg.norm(gap[:interior, :interior])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            fock.commutator(fock.build_hamiltonian(5), fock.build_hamiltonian(6))


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
        v = fock.ladder_state(1, 0, 5)
        np.testing.assert_allclose(v.coeffs, basis(0, 5), atol=0.0)
        v = fock.ladder_state(3, 0, 5)
        np.testing.assert_allclose(v.coeffs, basis(2, 5), atol=0.0)

    def test_second_ladder_first_rung(self):
        v = fock.ladder_state(2, 1, 8)
        np.testing.assert_allclose(v.coeffs, basis(4, 8), atol=1e-13)
        h = fock.build_hamiltonian(8).matrix
        np.testing.assert_allclose(h @ v.coeffs, 4.5 * v.coeffs, atol=1e-13)

    @pytest.mark.parametrize("j", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_unit_basis_vector_and_energy(self, j, n):
        dim = 16
        v = fock.ladder_state(j, n, dim)
        assert v.norm() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(v.coeffs, basis(3 * n + j - 1, dim), atol=1e-12)
        h = fock.build_hamiltonian(dim).matrix
        energy = 3 * n + j - 0.5
        np.testing.assert_allclose(h @ v.coeffs, energy * v.coeffs, atol=1e-11)

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
            fock.ladder_state(j, n, dim).coeffs, vec, atol=1e-12
        )

    def test_deep_rung_no_overflow(self):
        v = fock.ladder_state(1, 99, 300)
        np.testing.assert_allclose(v.coeffs, basis(297, 300), atol=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            fock.ladder_state(3, 2, 8)  # needs |8> in an 8-dim space
        with pytest.raises(ValueError):
            fock.ladder_state(1, -1, 8)


class TestSpectrumDecomposition:
    def test_small_case(self):
        ladders = fock.spectrum_decomposition(6)
        assert ladders == ([0.5, 3.5], [1.5, 4.5], [2.5, 5.5])

    @pytest.mark.parametrize("n", [3, 7, 20, 61])
    def test_partition_of_spectrum(self, n):
        ladders = fock.spectrum_decomposition(n)
        merged = sorted(e for ladder in ladders for e in ladder)
        expected = [k + 0.5 for k in range(n)]
        assert merged == expected
        sets = [set(ladder) for ladder in ladders]
        assert not (sets[0] & sets[1] or sets[0] & sets[2] or sets[1] & sets[2])

    @pytest.mark.parametrize("n", [7, 20, 61])
    def test_spacing_three(self, n):
        for ladder in fock.spectrum_decomposition(n):
            assert np.allclose(np.diff(ladder), 3.0)

    @pytest.mark.parametrize("n", [3, 10, 25])
    def test_every_index_in_exactly_one_ladder(self, n):
        ladders = fock.spectrum_decomposition(n)
        indices = sorted(int(round(e - 0.5)) for ladder in ladders for e in ladder)
        assert indices == list(range(n))


class TestLadderIndex:
    def test_conversion_bridge(self):
        for j_ext in (1, 2, 3):
            assert fock.LadderIndex.extremal(j_ext).as_cs() == j_ext - 1
        for j_cs in (0, 1, 2):
            assert fock.LadderIndex.cs(j_cs).as_extremal() == j_cs + 1

    def test_range_validation(self):
        with pytest.raises(ValueError):
            fock.LadderIndex.extremal(0)
        with pytest.raises(ValueError):
            fock.LadderIndex.cs(3)
        with pytest.raises(ValueError):
            fock.LadderIndex(1, "other")

    def test_coercion_helpers(self):
        assert fock.extremal_index(2) == 2
        assert fock.extremal_index(fock.LadderIndex.cs(0)) == 1
        assert fock.cs_index(fock.LadderIndex.extremal(3)) == 2
        with pytest.raises(ValueError):
            fock.cs_index(3)

    def test_ladder_state_accepts_tagged_index(self):
        tagged = fock.LadderIndex.cs(1)  # same ladder as extremal 2
        v1 = fock.ladder_state(tagged, 1, 8)
        v2 = fock.ladder_state(2, 1, 8)
        np.testing.assert_allclose(v1.coeffs, v2.coeffs)


class TestVectorAndOperatorTypes:
    def test_vector_length_and_norm(self):
        v = fock.FockVector(np.array([3.0, 4.0j]))
        assert v.truncation == 2
        assert v.norm() == pytest.approx(5.0)

    def test_ladder_flag_validation(self):
        fock.FockVector(np.array([0.0, 1.0, 0.0, 0.0]), ladder=1)
        with pytest.raises(ValueError):
            fock.FockVector(np.array([1.0, 1.0, 0.0]), ladder=0)

    def test_inner_product(self):
        v = fock.FockVector(np.array([1.0, 1j]))
        w = fock.FockVector(np.array([1.0, 1.0]))
        assert v.inner(w) == pytest.approx(1.0 - 1j)
        with pytest.raises(ValueError):
            v.inner(fock.FockVector(np.array([1.0])))

    def test_operator_validation_and_apply(self):
        with pytest.raises(ValueError):
            fock.FockOperator(np.zeros((2, 3)))
        h = fock.build_hamiltonian(4)
        with pytest.raises(ValueError):
            h.apply(fock.FockVector(np.zeros(5) + 1.0))

    def test_dagger_swaps_bands(self):
        a = fock.build_annihilation(5)
        assert a.dagger().bands == (1, 0)

    def test_basis_state(self):
        v = fock.basis_state(2, 4)
        np.testing.assert_allclose(v.coeffs, basis(2, 4))
        with pytest.raises(ValueError):
            fock.basis_state(4, 4)
