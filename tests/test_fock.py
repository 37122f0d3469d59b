import itertools
import math

import numpy as np
import pytest

from unruh_lab import (
    DensityMatrix,
    DomainError,
    LayoutError,
    NormalizationError,
    ShapeError,
    StateVector,
    Subsystem,
    SubsystemLayout,
    SymmetryError,
    eigvals_hermitian,
    outer_product,
    partial_trace,
)
from unruh_lab.crosscheck import brute_partial_trace, eigvals_charpoly
from unruh_lab.fock import (
    check_density_stack,
    check_hermitian,
    check_isometries,
    check_norms,
    check_traces,
    trace_out,
)

from helpers import (
    TWO_QUBITS,
    assert_same_bits,
    bell_state,
    random_density,
    random_hermitian,
    random_state,
)

ALICE = Subsystem.ALICE
BOB = Subsystem.BOB
MODE = Subsystem.REGION_I_PARTICLE


def single(label):
    return SubsystemLayout((label,))


class TestLayouts:
    def test_dimension_and_positions(self):
        layout = SubsystemLayout((ALICE, BOB, MODE))
        assert layout.dim == 8

    def test_duplicate_labels_rejected(self):
        with pytest.raises(LayoutError):
            SubsystemLayout((ALICE, ALICE))

    def test_empty_rejected(self):
        with pytest.raises(LayoutError):
            SubsystemLayout(())


class TestStateVector:
    def test_norm_enforced(self):
        with pytest.raises(NormalizationError):
            StateVector(single(ALICE), [1.0, 1.0])

    def test_wrong_length_rejected(self):
        with pytest.raises(ShapeError):
            StateVector(TWO_QUBITS, [1.0, 0.0])

    def test_non_finite_amplitude_rejected(self):
        # a NaN norm is not off unit norm by more than the tolerance
        with pytest.raises(NormalizationError, match="non-finite"):
            StateVector(single(ALICE), [math.nan, 1.0])

    def test_amplitudes_read_only(self):
        state = StateVector(TWO_QUBITS, [0.0, 1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            state.amplitudes[0] = 1.0


class TestOuterProduct:
    def test_basis_projector(self):
        rho = outer_product(StateVector(single(ALICE), [1.0, 0.0]))
        assert np.allclose(rho.entries, [[1, 0], [0, 0]])

    def test_plus_projector(self):
        plus = StateVector(single(ALICE), [math.sqrt(0.5), math.sqrt(0.5)])
        assert np.allclose(outer_product(plus).entries, 0.5)

    def test_purity_one(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            rho = outer_product(random_state(rng, TWO_QUBITS))
            assert abs(rho.purity() - 1.0) < 1e-12


class TestDensityMatrix:
    def test_non_hermitian_rejected(self):
        with pytest.raises(SymmetryError):
            DensityMatrix(single(ALICE), [[0.5, 1.0], [0.0, 0.5]])

    def test_trace_enforced(self):
        with pytest.raises(NormalizationError):
            DensityMatrix(single(ALICE), [[1.0, 0.0], [0.0, 1.0]])

    def test_non_finite_entry_rejected(self):
        # a NaN trace is not off unit trace by more than the tolerance
        with pytest.raises(NormalizationError, match="non-finite"):
            DensityMatrix(single(ALICE), np.diag([math.nan, 1.0]))


class TestStackChecksRejectNaN:
    """NaN is not within any tolerance, so each stack check names the NaN item."""

    def test_norms(self):
        with pytest.raises(NormalizationError, match="state norm is nan"):
            check_norms(np.array([[1.0, 0.0], [math.nan, 0.0]]))

    def test_isometries(self):
        isometries = np.array([np.eye(2), np.full((2, 2), math.nan)])
        with pytest.raises(NormalizationError, match=r"defect nan\)"):
            check_isometries(isometries)

    def test_hermitian_and_traces(self):
        nan_off_diagonal = np.array([[0.5, math.nan], [math.nan, 0.5]])
        with pytest.raises(SymmetryError, match="defect nan"):
            check_hermitian(np.array([np.eye(2) / 2, nan_off_diagonal]))
        with pytest.raises(NormalizationError, match=r"trace is \(nan"):
            check_traces(np.array([np.eye(2) / 2, np.diag([math.nan, 0.5])]))

    def test_density_stack(self):
        stack = np.array([np.eye(2) / 2, np.full((2, 2), math.nan)])
        with pytest.raises(SymmetryError, match="defect nan"):
            check_density_stack(stack)


class TestPartialTrace:
    def test_bell_reduces_to_maximally_mixed(self):
        rho = outer_product(bell_state())
        reduced = partial_trace(rho, {BOB})
        assert np.allclose(reduced.entries, np.eye(2) / 2)

    def test_product_state_reduces_to_factor(self):
        rng = np.random.default_rng(21)
        a = random_state(rng, single(ALICE))
        b = random_state(rng, single(BOB))
        joint = outer_product(StateVector(TWO_QUBITS, np.kron(a.amplitudes, b.amplitudes)))
        reduced = partial_trace(joint, {BOB})
        assert np.allclose(reduced.entries, np.outer(a.amplitudes, a.amplitudes.conj()), atol=1e-12)

    def test_schmidt_symmetry(self):
        rng = np.random.default_rng(23)
        layout = SubsystemLayout((ALICE, BOB, MODE))
        from unruh_lab import von_neumann_entropy

        for _ in range(5):
            rho = outer_product(random_state(rng, layout))
            s_keep = von_neumann_entropy(partial_trace(rho, {MODE}))
            s_complement = von_neumann_entropy(partial_trace(rho, {ALICE, BOB}))
            assert abs(s_keep - s_complement) < 1e-9

    def test_sequential_equals_joint_discard(self):
        rng = np.random.default_rng(29)
        layout = SubsystemLayout((ALICE, BOB, MODE))
        rho = random_density(rng, layout)
        step = partial_trace(partial_trace(rho, {ALICE}), {MODE})
        direct = partial_trace(rho, {ALICE, MODE})
        assert np.allclose(step.entries, direct.entries, atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(31)
        weight = 0.3
        rho = random_density(rng, TWO_QUBITS)
        sigma = random_density(rng, TWO_QUBITS)
        mixed = DensityMatrix(
            TWO_QUBITS, weight * rho.entries + (1 - weight) * sigma.entries
        )
        lhs = partial_trace(mixed, {ALICE}).entries
        rhs = (
            weight * partial_trace(rho, {ALICE}).entries
            + (1 - weight) * partial_trace(sigma, {ALICE}).entries
        )
        assert np.abs(lhs - rhs).max() < 1e-12

    @pytest.mark.parametrize("n", [1, 7])
    def test_trace_out_has_the_bits_of_explicit_sums(self, n):
        # parts that cancel exactly or round differently in another order,
        # and signed zeros, which trace_out must turn into +0 as a sum from
        # zero does; the factors are out of enum order, which layouts keep
        parts = np.array([0.0, -0.0, -0.0, 1.0, -1.0, 0.1, -0.3, 1e-17, -1e-17])
        factors = tuple(reversed(Subsystem))
        rng = np.random.default_rng(41)
        for size in range(1, 6):
            layout = SubsystemLayout(factors[:size])
            shape = (n, layout.dim, layout.dim)
            stack = rng.choice(parts, shape) + 1j * rng.choice(parts, shape)
            stack[rng.random(shape) < 0.2] = complex(-0.0, -0.0)
            for k in range(size):
                for discard in itertools.combinations(layout.factors, k):
                    got, kept = trace_out(stack, layout, discard)
                    positions = [i for i, f in enumerate(layout.factors) if f not in discard]
                    assert kept.factors == tuple(layout.factors[i] for i in positions)
                    want = [brute_partial_trace(m, size, positions) for m in stack]
                    assert_same_bits(got, np.array(want))

    def test_empty_discard_is_identity(self):
        rho = outer_product(bell_state())
        assert partial_trace(rho, set()) is rho

    def test_unknown_label_rejected(self):
        rho = outer_product(bell_state())
        with pytest.raises(LayoutError):
            partial_trace(rho, {MODE})

    def test_full_discard_rejected(self):
        rho = outer_product(bell_state())
        with pytest.raises(DomainError):
            partial_trace(rho, {ALICE, BOB})


class TestEigvalsHermitian:
    def test_diagonal_passthrough(self):
        layout = SubsystemLayout((ALICE, BOB))
        rho = DensityMatrix(layout, np.diag([0.5, 0.3, 0.2, 0.0]))
        got = eigvals_hermitian(rho)
        assert np.allclose(got, [0.5, 0.3, 0.2, 0.0], atol=1e-12)

    def test_rank_one_projector(self):
        got = eigvals_hermitian(np.full((2, 2), 0.5))
        assert np.allclose(got, [1.0, 0.0], atol=1e-12)

    def test_matches_charpoly_oracle_small(self):
        rng = np.random.default_rng(37)
        for n in (2, 3):
            for _ in range(25):
                h = random_hermitian(rng, n)
                assert np.abs(eigvals_hermitian(h) - eigvals_charpoly(h)).max() < 1e-9

    def test_matches_lapack_large(self):
        rng = np.random.default_rng(41)
        for n in (4, 8, 16, 32):
            h = random_hermitian(rng, n)
            want = np.sort(np.linalg.eigvalsh(h))[::-1]
            assert np.abs(eigvals_hermitian(h) - want).max() < 1e-10

    def test_descending_and_trace_consistent(self):
        rng = np.random.default_rng(43)
        h = random_hermitian(rng, 8)
        eigs = eigvals_hermitian(h)
        assert all(a >= b for a, b in zip(eigs, eigs[1:]))
        assert abs(eigs.sum() - np.trace(h).real) < 1e-10

    def test_non_hermitian_rejected(self):
        with pytest.raises(SymmetryError):
            eigvals_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            eigvals_hermitian(np.zeros((2, 3)))

