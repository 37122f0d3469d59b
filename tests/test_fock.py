import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from unruh_lab import fock
from unruh_lab.crosscheck import brute_partial_trace, eigvals_charpoly_batch
from unruh_lab.fock import (
    NORM_TOL,
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
        assert state.dim == 4
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

    def test_wrong_shape_rejected(self):
        with pytest.raises(ShapeError, match=r"^matrix of shape \(2, 2\) does not fit dimension 4$"):
            DensityMatrix(TWO_QUBITS, np.diag([1.0, 0.0]))


# finite floats (subnormals included), entries of one scale, whose sum
# rounds by its order, huge entries, signed zeros and the smallest
# subnormal; a stack of up to five vectors of one length, up to an isometry
# column's 16
ENTRIES = st.one_of(
    st.floats(-1e150, 1e150),
    st.floats(0.1, 1.0),
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-320, 1e150, -1e150, 1.0]),
)
VECTOR_STACKS = st.integers(1, 16).flatmap(
    lambda d: st.lists(st.lists(ENTRIES, min_size=d, max_size=d), min_size=1, max_size=5)
)


@settings(max_examples=200, deadline=None)
@given(VECTOR_STACKS)
@example([[0.0, 0.0], [5e-324, -5e-324], [1e150, 1e150], [0.6, 0.8]])
@example([[1e150, -1e150, 1e-160, 0.0]])
@example([[0.673, 0.343, 0.137], [0.5, 0.5, 0.5]])  # a sum whose bits depend on its order
def test_norms_have_the_bits_of_linalg_norm(rows):
    vectors = np.array(rows)
    norms = np.linalg.norm(vectors, axis=-1)
    # below zero the tolerance fails every vector, so the message shows each norm
    with mock.patch.object(fock, "NORM_TOL", -1.0):
        for vector, norm in zip(vectors, norms):
            with pytest.raises(NormalizationError) as info:
                check_norms(vector[np.newaxis])
            assert str(info.value) == f"state norm is {float(norm)!r}, expected 1"
    # at the real tolerance, the first vector off unit norm is named, as before
    within = np.abs(norms - 1.0) <= NORM_TOL
    if within.all():
        check_norms(vectors)
    else:
        with pytest.raises(NormalizationError) as info:
            check_norms(vectors)
        assert str(info.value) == f"state norm is {float(norms[~within][0])!r}, expected 1"


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
        with pytest.raises(NormalizationError, match=r"trace is nan, expected 1$"):
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
        assert np.allclose(reduced.entries, np.outer(a.amplitudes, a.amplitudes), atol=1e-12)

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
            stack = rng.choice(parts, shape)
            stack[rng.random(shape) < 0.2] = -0.0
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
                assert np.abs(eigvals_hermitian(h) - eigvals_charpoly_batch([h])[0]).max() < 1e-9

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
        assert abs(eigs.sum() - np.trace(h)) < 1e-10

    def test_non_hermitian_rejected(self):
        with pytest.raises(SymmetryError):
            eigvals_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            eigvals_hermitian(np.zeros((2, 3)))

    @pytest.mark.parametrize("entry", [1.0, 2e-12, -3e-12, math.nan, math.inf, -math.inf])
    def test_hermiticity_message_is_check_hermitians(self, entry):
        # the solver tests its one matrix without check_hermitian's stack
        # arithmetic, and must raise what it raises, NaN and infinities included
        matrix = np.diag([0.5, 0.25, 0.25])
        matrix[0, 2] = entry
        with pytest.raises(SymmetryError) as want:
            check_hermitian(matrix[np.newaxis])
        with pytest.raises(SymmetryError) as got:
            eigvals_hermitian(matrix)
        assert str(got.value) == str(want.value)

    def test_rotates_the_symmetrised_matrix(self):
        # an asymmetry within the tolerance, in a 3x3 block: the rotations
        # read the symmetrised matrix, and the input is only read
        rng = np.random.default_rng(97)
        matrix = random_hermitian(rng, 3)
        matrix[0, 1] += 4e-13
        matrix[2, 1] -= 3e-13
        matrix.flags.writeable = False
        before = matrix.copy()
        got = eigvals_hermitian(matrix)
        assert_same_bits(matrix, before)
        assert_same_bits(got, eigvals_hermitian((matrix + matrix.T + 0.0) / 2.0))
        assert not np.array_equal(got, eigvals_hermitian(np.triu(matrix) + np.triu(matrix, 1).T))

    def test_each_pattern_has_its_own_plan(self):
        # one cached lookup gives a pattern's sweeps to diagonal and its pairs,
        # and the batched solver's gathers
        patterns = {
            "diagonal": (np.eye(4), 0, ()),
            "2x2 blocks": (np.eye(4) + np.eye(4)[[1, 0, 3, 2]], 1, ((0, 1, ()), (2, 3, ()))),
            "3x3 block": (
                np.eye(4) + np.eye(4)[[1, 0, 1, 3]] + np.eye(4)[[2, 2, 0, 3]],
                None,
                ((0, 1, (2,)), (0, 2, (1,)), (1, 2, (0,))),
            ),
        }
        for name, (matrix, exact_after, pairs) in patterns.items():
            plan = fock._plan((matrix != 0).tobytes(), 4)
            assert (plan.exact_after, plan.pairs) == (exact_after, pairs), name
        plan = fock._plan((patterns["2x2 blocks"][0] != 0).tobytes(), 4)
        assert plan.direct.tolist() == [0, 5, 10, 15, 0, 1, 4, 5, 10, 11, 14, 15]
        assert plan.mirror.tolist() == [0, 5, 10, 15, 0, 4, 1, 5, 10, 14, 11, 15]

    def test_other_dtypes_are_read_as_float64(self):
        matrix = np.array([[2, 1], [1, 2]])
        want = eigvals_hermitian(matrix.astype(float))
        for values in (matrix, matrix.astype(np.float32), matrix.astype(complex), matrix.tolist()):
            assert_same_bits(eigvals_hermitian(values), want)
        with pytest.raises(DomainError, match="nonzero imaginary part"):
            eigvals_hermitian(matrix + 1j * np.eye(2))

