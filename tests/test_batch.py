"""The batched evaluation path against the single-point functions it replaces.

Every batched stage must reproduce its scalar counterpart bit for bit, so
the comparisons here use ``==``, not a tolerance: the golden figure files
pin the scalar path's rounding.
"""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unruh_lab import (
    AccelerationParams,
    BobRegion,
    ChannelFamily,
    ChannelSpec,
    ConvergenceError,
    DensityMatrix,
    DomainError,
    Encoding,
    FigurePreset,
    Measure,
    NormalizationError,
    ShapeError,
    SpectrumError,
    StateVector,
    Subsystem,
    SweepPointError,
    SweepSpec,
    SymmetryError,
    build_inertial,
    build_joint,
    eigvals_hermitian,
    entropy_from_eigenvalues,
    evaluate_point,
    figure_preset,
    partial_trace,
    run_sweep,
    unruh_vacuum,
    von_neumann_entropy,
)
from unruh_lab import crosscheck, fock, measures, states, sweep, verify
from unruh_lab.fock import SubsystemLayout, check_density_stack, eigvals_hermitian_batch, trace_out
from unruh_lab.measures import entropies_from_eigenvalues, von_neumann_entropies
from unruh_lab.states import (
    JOINT_FACTORS,
    JOINT_LAYOUT,
    REGION_I_FACTORS,
    REGION_II_FACTORS,
    bob_isometries,
    trace_lifted,
)

from helpers import (
    DISPATCH_LEVELS,
    assert_same_bits,
    count_calls,
    dense_jacobi_eigvals,
    double_wedge_at,
    random_block_stack,
    random_density,
    random_hermitian,
    random_state,
    run_at_dispatch_level,
)

PI4 = math.pi / 4
SAMPLES_PER_PRESET = 40
QUANTUM_AND_CLASSICAL = [f for f in ChannelFamily if f is not ChannelFamily.WERNER]


def preset_sample():
    """(family, region, gamma, q_r, alpha, f): seeded points of every preset plus boundaries."""
    rng = np.random.default_rng(2012)
    points = []
    for preset in FigurePreset:
        spec = figure_preset(preset)
        for _ in range(SAMPLES_PER_PRESET):
            family = spec.families[rng.integers(len(spec.families))]
            region = spec.regions[rng.integers(len(spec.regions))]
            gamma = spec.gamma_grid[rng.integers(len(spec.gamma_grid))]
            q_r = spec.q_r_grid[rng.integers(len(spec.q_r_grid))]
            f = None
            if family is ChannelFamily.WERNER:
                f = spec.f_grid[rng.integers(len(spec.f_grid))]
            points.append((family, region, gamma, q_r, spec.alpha, f))
    for family in ChannelFamily:
        for f in (0.0, 1.0) if family is ChannelFamily.WERNER else (None,):
            for region in BobRegion:
                for gamma in (0.0, PI4):
                    for q_r in (0.0, 1.0):
                        points.append((family, region, gamma, q_r, PI4, f))
    return points


def single_point_matrices(points):
    """Every matrix evaluate_point(..., with_ssa=True) diagonalises, by dimension."""
    by_dim = {}
    for family, region, gamma, q_r, alpha, f in points:
        joint = build_joint(ChannelSpec(family, AccelerationParams(gamma, q_r), alpha, f))
        reduced = partial_trace(joint, region.traced_factors)
        other = partial_trace(joint, region.kept_factors)
        parts = [
            partial_trace(reduced, region.kept_factors),
            partial_trace(reduced, {Subsystem.ALICE}),
            reduced,
            other,
            partial_trace(other, {Subsystem.ALICE}),
        ]
        for part in parts:
            by_dim.setdefault(part.dim, []).append(part.entries)
    return {dim: np.array(matrices) for dim, matrices in by_dim.items()}


def seeded_points(seed, count):
    """(family, region, gamma, q_r, alpha, f): random interior points, alpha off pi/4."""
    rng = np.random.default_rng(seed)
    points = []
    for i in range(count):
        family = list(ChannelFamily)[i % len(ChannelFamily)]
        region = list(BobRegion)[i % 2]
        werner = family is ChannelFamily.WERNER
        alpha = PI4 if werner else float(rng.uniform(0.0, math.pi))
        f = float(rng.uniform()) if werner else None
        gamma, q_r = float(rng.uniform(0.0, PI4)), float(rng.uniform())
        points.append((family, region, gamma, q_r, alpha, f))
    return points


def lift_inputs(family, points):
    """The prepared states and Bob's isometries of the given points of one family."""
    inertial = np.array([
        build_inertial(ChannelSpec(family, AccelerationParams(g, q), alpha, f)).entries
        for _, _, g, q, alpha, f in points
    ])
    return inertial, bob_isometries(family.encoding, [p[2] for p in points], [p[3] for p in points])


def lifted_joints(encoding, inertial, isometries):
    """The joints (N, 32, 32) of trace_lifted with nothing traced out, each checked
    as DensityMatrix checks it."""
    joints, _ = trace_lifted(encoding, inertial, isometries, [()])[0]
    check_density_stack(joints)
    return joints


def brute_traces(joints, discard):
    """crosscheck.brute_partial_trace of each joint of a stack, and the kept layout.

    The reference for the reductions' bits: an explicit sum from zero in
    ascending order of the traced bits, sharing no plan with trace_out or
    trace_lifted.
    """
    keep = [i for i, factor in enumerate(JOINT_FACTORS) if factor not in discard]
    stack = np.array(
        [crosscheck.brute_partial_trace(joint, len(JOINT_FACTORS), keep) for joint in joints]
    )
    return stack, SubsystemLayout(tuple(JOINT_FACTORS[i] for i in keep))


def live_entries(encoding, discard):
    """The flat positions of the reduced entries that trace_lifted's term table
    for one discard set reads from a joint product, not only from the zero row
    R, and the kept layout."""
    first, _, _, ((terms, layout),) = states._call_plan(encoding, (frozenset(discard),))
    return np.flatnonzero((terms != len(first)).any(axis=0)), layout


def dense_lift_reductions(inertial, isometries, discards):
    """The joints through the dense lift kron(I2, V) and two matrix products, then traced."""
    lift = np.zeros((len(isometries), JOINT_LAYOUT.dim, 4))
    lift[:, :16, :2] = isometries
    lift[:, 16:, 2:] = isometries
    joints = (lift @ inertial) @ lift.swapaxes(1, 2)
    return [brute_traces(joints, discard)[0] for discard in discards]


# the factors the joint traces out for the AB, AC, B and C states of the
# strong-additivity value S(AB) - S(B) + S(AC) - S(C), with A Alice, B the
# wedge-I modes and C the wedge-II modes
SSA_DISCARDS = (
    REGION_II_FACTORS,
    REGION_I_FACTORS,
    REGION_II_FACTORS | {Subsystem.ALICE},
    REGION_I_FACTORS | {Subsystem.ALICE},
)

# the wedges a sweep reduces to, then the B and C states, which the sweep
# takes from the wedges but trace_lifted must give as well
SWEEP_DISCARDS = (REGION_II_FACTORS, REGION_I_FACTORS) + SSA_DISCARDS[2:]


@pytest.fixture(scope="module")
def sample():
    return preset_sample()


@pytest.fixture(scope="module")
def matrices(sample):
    return single_point_matrices(sample)


class TestBatchedJacobi:
    def test_bit_equal_on_preset_states(self, matrices):
        assert sorted(matrices) == [2, 4, 8]
        for stack in matrices.values():
            want = np.array([eigvals_hermitian(m) for m in stack])
            got = eigvals_hermitian_batch(stack)
            assert got.shape == want.shape
            assert (got == want).all()

    def test_bit_equal_on_random_hermitian(self):
        rng = np.random.default_rng(53)
        for n in (2, 3, 4, 8, 16):
            stack = np.array([random_hermitian(rng, n) for _ in range(12)])
            want = np.array([eigvals_hermitian(m) for m in stack])
            assert (eigvals_hermitian_batch(stack) == want).all()

    def test_non_hermitian_matrix_rejected(self):
        stack = np.array([np.eye(2), np.eye(2), [[0.0, 1.0], [0.0, 0.0]]])
        with pytest.raises(SymmetryError, match="defect 1.000e"):
            eigvals_hermitian_batch(stack)

    def test_unconverged_matrix_rejected(self, monkeypatch):
        rng = np.random.default_rng(59)
        stack = np.array([np.diag([0.5, 0.3, 0.2]), random_hermitian(rng, 3)])
        monkeypatch.setattr(fock, "JACOBI_MAX_SWEEPS", 1)
        with pytest.raises(ConvergenceError, match="after 1 sweeps"):
            eigvals_hermitian_batch(stack)

    def test_unrotated_blocks_keep_their_bits(self):
        # a compact (3, 3, 3) stack, the block index last: block 0 has a zero
        # pivot, block 1 one below skip_below, and block 2 rotates; the rows
        # kernel rotates its blocks too
        rng = np.random.default_rng(89)
        blocks = np.array([random_hermitian(rng, 3) for _ in range(3)])
        skip_below = fock.JACOBI_OFF_NORM_TOL / (100.0 * 3)
        blocks[0, 0, 1] = blocks[0, 1, 0] = 0.0
        blocks[1, 0, 1] = blocks[1, 1, 0] = skip_below / 4
        stack = blocks.transpose(1, 2, 0).copy()
        fock._jacobi_rotate_batch(stack, 0, 1, skip_below)
        got = stack.transpose(2, 0, 1)
        for block in (0, 1):
            want = blocks[block].copy()
            want[0, 1] = want[1, 0] = 0.0
            assert_same_bits(got[block], want)
        # the rotated block has the bits it has alone, whatever its neighbours
        alone = blocks[2][:, :, np.newaxis].copy()
        fock._jacobi_rotate_batch(alone, 0, 1, skip_below)
        assert_same_bits(got[2], alone[:, :, 0])
        pivot = blocks[2, 0, 1]
        want = np.array(float_rotation(blocks[2].tolist(), math.copysign(1.0, pivot)))
        assert_same_bits(got[2], want)
        for block, rotated in zip(blocks, got):
            rows = block.tolist()
            fock._jacobi_rotate_rows(rows, 0, 1, (2,), skip_below)
            assert_same_bits(np.array(rows), rotated)

    def test_pivot_phase_is_its_sign(self):
        # the phase of a real pivot is exactly +-1, not the 0.9999999999999999
        # of 0.41 * (1 / 0.41), which moves the rotated lines by a last bit;
        # both kernels must give the reference bits for either sign, and the
        # batched one for both signs in one stack
        skip_below = fock.JACOBI_OFF_NORM_TOL / (100.0 * 3)
        wants = []
        for sign in (1.0, -1.0):
            pivot = sign * 0.41
            block = [[0.5, pivot, 0.3], [pivot, 0.25, 0.4], [0.3, 0.4, 0.25]]
            want = float_rotation(block, sign)
            assert want != float_rotation(block, pivot * (1.0 / abs(pivot)))
            rows = [list(row) for row in block]
            fock._jacobi_rotate_rows(rows, 0, 1, (2,), skip_below)
            assert_same_bits(np.array(rows), np.array(want))
            wants.append((block, want))
        stack = np.array([block for block, _ in wants]).transpose(1, 2, 0).copy()
        fock._jacobi_rotate_batch(stack, 0, 1, skip_below)
        assert_same_bits(stack.transpose(2, 0, 1), np.array([want for _, want in wants]))

    def test_nan_matrix_fails_the_hermiticity_check(self):
        # both solvers run check_hermitian, where NaN fails as in every check
        nan_matrix = np.full((3, 3), math.nan)
        with pytest.raises(SymmetryError, match="defect nan"):
            eigvals_hermitian(nan_matrix)
        with pytest.raises(SymmetryError, match="defect nan"):
            eigvals_hermitian_batch(np.array([np.eye(3) / 3, nan_matrix]))

    def test_diagonal_negative_zero_is_a_positive_zero_eigenvalue(self):
        # both symmetrisations add +0 before halving, so a -0 on the diagonal
        # outside every block is a +0 eigenvalue in both solvers
        matrix = np.diag([0.5, -0.0, 0.5])
        matrix[0, 2] = matrix[2, 0] = 0.1
        got = eigvals_hermitian(matrix)
        assert_same_bits(got[2:], np.zeros(1))
        assert_same_bits(got, eigvals_hermitian_batch(matrix[np.newaxis])[0])

    def test_shape_is_checked_after_the_imaginary_part(self):
        for shape in ((0, 0), (2, 3), (2, 2, 2)):
            message = f"expected a nonempty square matrix, got shape {shape}"
            with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
                eigvals_hermitian(np.zeros(shape, dtype=complex))


def float_rotation(block, phase):
    """One Jacobi rotation of (0, 1) in a real 3x3 block, in Python floats.

    The formulas of ``fock._jacobi_rotate_rows`` with the given phase of
    the pivot, but the columns, then the rows, rotated in full, as a dense
    rotation does.
    """
    a = [list(row) for row in block]
    beta = abs(a[0][1])
    akk, all_ = a[0][0], a[1][1]
    tau = (all_ - akk) / (2.0 * beta)
    t = (-1.0 if tau >= 0.0 else 1.0) / (abs(tau) + math.hypot(tau, 1.0))
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c
    new_kk = akk * c * c + 2.0 * beta * c * s + all_ * s * s
    new_ll = akk * s * s - 2.0 * beta * c * s + all_ * c * c
    for m in range(3):  # columns 0 and 1, then rows 0 and 1, as the kernel
        col_k, col_l = a[m][0], a[m][1]
        a[m][0] = c * col_k + (s * phase) * col_l
        a[m][1] = (-s * phase) * col_k + c * col_l
    for m in range(3):
        row_k, row_l = a[0][m], a[1][m]
        a[0][m] = c * row_k + (s * phase) * row_l
        a[1][m] = (-s * phase) * row_k + c * row_l
    a[0][0], a[1][1] = new_kk, new_ll
    a[0][1] = a[1][0] = 0.0
    return a


def assert_solvers_match_dense(stack):
    """Both solvers give the bits of the sweep over every pair, matrix by matrix."""
    want = np.array([dense_jacobi_eigvals(m) for m in stack])
    for matrix, row in zip(stack, want):
        assert_same_bits(eigvals_hermitian(matrix), row)
    assert_same_bits(eigvals_hermitian_batch(stack), want)


@st.composite
def block_structured_stacks(draw):
    """Real symmetric stacks (N, n, n) whose zero pattern splits into blocks of 1-4.

    The blocks sit under a random permutation, and some matrices get extra
    exact zeros inside a block, so a matrix's own pattern can be finer
    than the union pattern of the stack.
    """
    n = draw(st.integers(2, 12))
    sizes = []
    while sum(sizes) < n:
        sizes.append(draw(st.integers(1, min(4, n - sum(sizes)))))
    order = draw(st.permutations(range(n)))
    count = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = np.zeros((count, n, n))
    start = 0
    for size in sizes:
        members = np.array(order[start : start + size])
        start += size
        block = np.array([random_hermitian(rng, size) for _ in range(count)])
        stack[:, members[:, np.newaxis], members[np.newaxis, :]] = block
    for matrix in stack[: draw(st.integers(0, count))]:
        k, l = rng.integers(n, size=2)
        matrix[k, l] = matrix[l, k] = 0.0
    return stack


class TestBlockJacobi:
    """The block-restricted sweeps against the sweep over every pair they replace."""

    def test_preset_matrices_match_dense_reference(self, matrices):
        for stack in matrices.values():
            assert_solvers_match_dense(stack)

    def test_joints_match_dense_reference(self, sample):
        # the sample holds gamma in {0, pi/4}, q_r in {0, 1} and F in {0, 1}
        points = {p[:1] + p[2:] for p in sample + seeded_points(61, 40)}
        for family in ChannelFamily:
            joints = np.array([
                build_joint(ChannelSpec(family, AccelerationParams(g, q), alpha, f)).entries
                for fam, g, q, alpha, f in sorted(points, key=repr)
                if fam is family
            ])
            assert_solvers_match_dense(joints)

    @settings(deadline=None, database=None, max_examples=60)
    @given(stack=block_structured_stacks())
    def test_block_structured_stacks_match_dense_reference(self, stack):
        assert_solvers_match_dense(stack)

    def test_dense_matrices_match_dense_reference(self):
        rng = np.random.default_rng(67)
        for n in (2, 3, 5, 8, 12):
            stack = np.array([random_hermitian(rng, n) for _ in range(6)])
            assert fock._blocks(np.any(stack != 0, axis=0).tobytes(), n)[0].shape == (1, n)
            assert_solvers_match_dense(stack)

    def test_blocks_of_the_preset_patterns(self):
        # components of two or more, by size: a wedge or the AB/AC state has
        # three 2-blocks (dual rail) or two 3-blocks (single rail), the B and
        # C states one 2-block, Alice's state none
        def shapes(encoding, discard):
            live, layout = live_entries(encoding, discard)
            pattern = np.zeros(layout.dim**2, dtype=bool)
            pattern[live] = True
            return [members.shape for members in fock._blocks(pattern.tobytes(), layout.dim)]

        wedge = {Encoding.DUAL_RAIL: [(3, 2)], Encoding.SINGLE_RAIL: [(2, 3)]}
        for encoding in Encoding:
            for discard in (REGION_I_FACTORS, REGION_II_FACTORS):
                assert shapes(encoding, discard) == wedge[encoding]
            for discard in SSA_DISCARDS:
                want = wedge[encoding] if len(discard) == 2 else [(1, 2)]
                assert shapes(encoding, discard) == want
            alice = frozenset(states.RINDLER_FACTORS)
            assert shapes(encoding, alice) == []
        # the 32x32 joints: one 8-block for a pure state, two 4-blocks for a
        # classical one, and both for Werner
        joint = {"quantum": [(1, 8)], "classical": [(2, 4)], "werner": [(2, 4), (1, 8)]}
        for family in ChannelFamily:
            f = 0.6 if family is ChannelFamily.WERNER else None
            spec = ChannelSpec(family, AccelerationParams(0.3, 0.8), PI4, f)
            entries = build_joint(spec).entries
            got = [members.shape for members in fock._blocks((entries != 0).tobytes(), 32)]
            assert got == joint[family.value.split("-")[0]]

    def test_blocks_members_ascending_and_nonfinite_linked(self):
        pattern = np.zeros((6, 6))
        pattern[4, 1] = math.nan
        pattern[0, 5] = math.inf
        pattern[5, 3] = 1.0
        blocks = fock._blocks((pattern != 0).tobytes(), 6)
        assert [members.tolist() for members in blocks] == [[[1, 4]], [[0, 3, 5]]]

    def test_convergence_message_matches_dense_reference(self, monkeypatch):
        rng = np.random.default_rng(71)
        matrix = np.zeros((6, 6))
        for members in ([0, 2, 5], [1, 4]):
            matrix[np.ix_(members, members)] = random_hermitian(rng, len(members))
        monkeypatch.setattr(fock, "JACOBI_MAX_SWEEPS", 1)
        with pytest.raises(ConvergenceError) as want:
            dense_jacobi_eigvals(matrix)
        assert "after 1 sweeps" in str(want.value)
        with pytest.raises(ConvergenceError) as got:
            eigvals_hermitian(matrix)
        assert str(got.value) == str(want.value)
        with pytest.raises(ConvergenceError) as got:
            eigvals_hermitian_batch(np.array([np.diag([0.5, 0.3, 0.2, 0.0, 0.0, 0.0]), matrix]))
        assert str(got.value) == str(want.value)

    def test_convergence_reads_the_whole_matrix(self):
        # each block's off-diagonal sum, 0.8e-24, is below the tolerance
        # squared, 1e-24, but the matrix's, 1.6e-24, is above it: so both
        # blocks rotate, where a test of each block alone would stop.  The
        # 3x3 block makes the solvers run the test: all-2x2 blocks take
        # their one sweep without it
        matrix = np.diag([0.2, 0.2, 0.1, 0.2, 0.2, 0.1])
        pivot = math.sqrt(0.2e-24)
        matrix[0, 1] = matrix[1, 0] = matrix[1, 2] = matrix[2, 1] = pivot
        matrix[3, 4] = matrix[4, 3] = math.sqrt(2.0) * pivot
        assert [m.shape for m in fock._blocks((matrix != 0).tobytes(), 6)] == [(1, 2), (1, 3)]
        want = dense_jacobi_eigvals(matrix)
        shifts = [math.sqrt(2.0) * pivot, pivot, -pivot, -math.sqrt(2.0) * pivot]
        assert np.allclose(want[:4] - 0.2, shifts, rtol=1e-3, atol=0)
        assert_solvers_match_dense(np.array([matrix, np.diag([0.5, 0.2, 0.1, 0.1, 0.1, 0.0])]))

    def test_tiny_two_by_two_blocks_take_their_sweep(self):
        # the wedge-I state of the quantum dual rail at gamma = 0, q_r = 1e-6,
        # alpha = 0.75: its block [[5.35e-13, 4.99e-13], [4.99e-13, 4.65e-13]]
        # has an off-diagonal norm below the tolerance, but its spectrum is
        # (1e-12, 0), so only the sweep gives the oracle's eigenvalues
        matrix = crosscheck.brute_region_matrix(
            ChannelFamily.QUANTUM_DUAL_RAIL, BobRegion.I, 0.0, 1e-6, 0.75
        )
        want = crosscheck.eigvals_charpoly_batch([matrix])[0]
        assert fock._off_diagonal_norm_sq(matrix) <= fock.JACOBI_OFF_NORM_TOL**2
        assert np.abs(eigvals_hermitian(matrix) - want).max() <= 1e-20
        assert np.abs(eigvals_hermitian_batch(matrix[np.newaxis])[0] - want).max() <= 1e-20

    def test_own_two_by_two_blocks_sweep_in_a_stack_of_larger_blocks(self):
        # the single rail's wedge-I state has one 2x2 block at gamma = 0 and
        # two 3x3 blocks at gamma = 0.3; with alpha = 1e-7 and q_r = 1e-6 the
        # first passes the norm test, and both solvers still sweep it once
        first, second = (
            crosscheck.brute_region_matrix(
                ChannelFamily.QUANTUM_SINGLE_RAIL, BobRegion.I, gamma, 1e-6, 1e-7
            )
            for gamma in (0.0, 0.3)
        )
        assert [m.shape for m in fock._blocks((first != 0).tobytes(), 8)] == [(1, 2)]
        assert fock._off_diagonal_norm_sq(first) <= fock.JACOBI_OFF_NORM_TOL**2
        got = eigvals_hermitian_batch(np.array([first, second]))
        assert_same_bits(got[0], eigvals_hermitian(first))
        assert_same_bits(got[1], eigvals_hermitian(second))
        assert np.abs(got[0] - crosscheck.eigvals_charpoly_batch([first])[0]).max() <= 1e-20

    def test_mixed_blocks_converging_at_different_sweeps(self, monkeypatch):
        rng = np.random.default_rng(79)
        three, two = [0, 2, 4], [1, 3]
        stack = np.zeros((6, 5, 5))
        stack[:, range(5), range(5)] = rng.uniform(0.0, 1.0, size=(6, 5))
        stack[1][np.ix_(two, two)] += random_hermitian(rng, 2)
        for matrix in stack[2:]:
            matrix[np.ix_(three, three)] += random_hermitian(rng, 3)
            matrix[np.ix_(two, two)] += random_hermitian(rng, 2)

        def sweeps(matrix):
            # the fewest sweeps the dense reference completes without raising
            for allowed in range(1, fock.JACOBI_MAX_SWEEPS + 1):
                with monkeypatch.context() as patch:
                    patch.setattr(fock, "JACOBI_MAX_SWEEPS", allowed)
                    try:
                        dense_jacobi_eigvals(matrix)
                    except ConvergenceError:
                        continue
                return allowed - 1

        counts = [sweeps(matrix) for matrix in stack]
        assert counts[:2] == [0, 1] and len(set(counts)) >= 3
        assert_solvers_match_dense(stack)

    @pytest.mark.parametrize("level", DISPATCH_LEVELS + ("baseline",))
    def test_solvers_match_dense_reference_at_each_dispatch_level(self, level):
        # the compact stacks may reach numpy's loops by other strides than
        # the reference, and the scalar solver rotates in Python floats
        code = "helpers.check_solvers_on_block_stacks(seed=83, count=40)"
        assert run_at_dispatch_level(level, code) == ""


def hex_rows(rows):
    return [[float(x).hex() for x in row] for row in np.asarray(rows).tolist()]


def wedge_like_stack(rng, count=6):
    """A stack (count, 8, 8) with the blocks {0,3,6} and {1,4,7} of a single-rail wedge
    state, an asymmetry within the tolerance, and -0 entries on and off the diagonal."""
    stack = np.zeros((count, 8, 8))
    for members in ((0, 3, 6), (1, 4, 7)):
        ix = np.ix_(members, members)
        stack[(slice(None),) + ix] = [random_hermitian(rng, 3) for _ in range(count)]
    stack[:, 2, 2] = -0.0
    stack[:, 5, 2] = stack[:, 2, 5] = -0.0
    stack[:, 0, 3] += 4e-13
    stack[:, 7, 4] -= 3e-13
    return stack


class TestStackSolverInput:
    """How eigvals_hermitian_batch reads a stack and which plan solves it."""

    @pytest.mark.parametrize("writeable", [True, False])
    def test_float64_stack_is_read_in_place(self, writeable):
        stack = wedge_like_stack(np.random.default_rng(131))
        before = stack.copy()
        stack.flags.writeable = writeable
        got = eigvals_hermitian_batch(stack)
        assert_same_bits(stack, before)
        # the rotations read the symmetrised stack, as the single-matrix solver does
        assert hex_rows(got) == hex_rows([eigvals_hermitian(m) for m in before])
        symmetric = (before + before.swapaxes(1, 2) + 0.0) / 2.0
        assert hex_rows(got) == hex_rows(eigvals_hermitian_batch(symmetric))

    def test_other_dtypes_give_the_float64_bits(self):
        rng = np.random.default_rng(137)
        integers = rng.integers(-3, 4, size=(5, 4, 4))
        integers = integers + integers.swapaxes(1, 2)
        want = eigvals_hermitian_batch(integers.astype(float))
        assert_same_bits(eigvals_hermitian_batch(integers), want)
        halves = integers / 2.0  # exact in float32 too
        assert_same_bits(
            eigvals_hermitian_batch(halves.astype(np.float32)), eigvals_hermitian_batch(halves)
        )
        stack = wedge_like_stack(rng)
        want = eigvals_hermitian_batch(stack)
        for zero in (0.0, -0.0):
            z = stack.astype(complex)
            z.imag = zero
            assert_same_bits(eigvals_hermitian_batch(z), want)
        z[3, 0, 3] += 1e-300j
        with pytest.raises(DomainError) as error:
            eigvals_hermitian_batch(z)
        assert error.value.param == "matrices"

    def test_one_union_pattern_has_one_plan(self, monkeypatch):
        # two stacks of one union pattern, and a single matrix of that pattern,
        # read one cached plan object
        rng = np.random.default_rng(139)
        plans = []
        real = fock._plan

        def recorded(pattern, n):
            plans.append(real(pattern, n))
            return plans[-1]

        monkeypatch.setattr(fock, "_plan", recorded)
        first, second = wedge_like_stack(rng), wedge_like_stack(rng, count=3)
        eigvals_hermitian_batch(first)
        eigvals_hermitian_batch(second)
        eigvals_hermitian((first[0] + first[0].T) / 2.0)
        assert len(plans) == 3
        assert plans[0] is plans[1] is plans[2]
        assert plans[0].exact_after is None
        assert [m.tolist() for m in plans[0].blocks] == [[[0, 3, 6], [1, 4, 7]]]

    def test_exact_stacks_equal_the_single_matrix_solver(self):
        # exact after 0 sweeps: diagonal matrices; after 1: blocks of 2, a
        # diagonal matrix among them, which the single-matrix solver does not sweep
        rng = np.random.default_rng(149)
        diagonal = np.array([np.diag(rng.normal(size=4)) for _ in range(5)])
        diagonal[2, 1, 1] = -0.0
        pairs = np.zeros((6, 6, 6))
        for k, l in ((0, 3), (1, 5), (2, 4)):
            ix = np.ix_((k, l), (k, l))
            pairs[(slice(None),) + ix] = [random_hermitian(rng, 2) for _ in range(6)]
        pairs[4] = np.diag(np.diag(pairs[4]))
        pairs[1, 0, 3] = pairs[1, 3, 0] = 1e-300  # a pivot below skip_below
        for stack, exact_after in ((diagonal, 0), (pairs, 1)):
            n = stack.shape[1]
            assert fock._plan(np.any(stack != 0, axis=0).tobytes(), n).exact_after == exact_after
            want = [eigvals_hermitian(matrix) for matrix in stack]
            assert hex_rows(eigvals_hermitian_batch(stack)) == hex_rows(want)
        assert fock._plan((pairs[4] != 0).tobytes(), 6).exact_after == 0


class TestEmptyInputs:
    def test_empty_stack_has_empty_spectra(self):
        assert eigvals_hermitian_batch(np.zeros((0, 2, 2))).shape == (0, 2)
        assert eigvals_hermitian_batch(np.zeros((0, 8, 8), dtype=complex)).shape == (0, 8)

    def test_empty_stack_has_no_entropies(self):
        assert von_neumann_entropies(np.zeros((0, 2, 2))).shape == (0,)

    def test_checks_pass_an_empty_stack(self):
        fock.check_density_stack(np.zeros((0, 4, 4)))
        fock.check_isometries(np.zeros((0, 16, 2)))

    def test_zero_by_zero_matrices_rejected(self):
        with pytest.raises(ShapeError, match=r"got shape \(0, 0\)"):
            eigvals_hermitian(np.zeros((0, 0)))
        with pytest.raises(ShapeError, match=r"got shape \(3, 0, 0\)"):
            eigvals_hermitian_batch(np.zeros((3, 0, 0)))


class TestBatchedEntropy:
    def test_bit_equal_on_preset_spectra(self, matrices):
        for stack in matrices.values():
            eigs = np.array([eigvals_hermitian(m) for m in stack])
            want = np.array([entropy_from_eigenvalues(row) for row in eigs])
            assert (entropies_from_eigenvalues(eigs) == want).all()

    def test_noise_and_signed_zeros_are_dropped_as_if_clamped(self):
        # values in [-PSD_TOL, 0] are left out of both sums; clamping them to
        # zero first, then keeping the positive values, gives the same bits
        noise = -fock.PSD_TOL / 2
        eigs = np.array([
            [0.5, 0.5, 0.0, noise],
            [0.6, 0.4, -0.0, noise],
            [1.0, 0.0, -0.0, noise],
            [0.7, 0.2, 0.1, -0.0],
            [0.0, -0.0, noise, noise],
            [-0.0, -0.0, -0.0, -0.0],
        ])

        def clamped(row):
            lam = np.clip(row, 0.0, None)
            positive = lam[lam > 0.0]
            return float(-(positive * np.log2(positive)).sum()) + 0.0

        want = np.array([clamped(row) for row in eigs])
        assert_same_bits([entropy_from_eigenvalues(row) for row in eigs], want)
        assert_same_bits(entropies_from_eigenvalues(eigs), want)

    def test_row_below_psd_tolerance_rejected(self):
        eigs = np.array([[1.0, 0.0], [1.0, -1e-9], [1.1, -0.1], [1.2, -0.2]])
        with pytest.raises(SpectrumError, match="eigenvalue -1.000e-01"):
            entropies_from_eigenvalues(eigs)


class TestBatchedStates:
    def test_joints_and_reductions_match_oracle(self, sample):
        # the oracle assembles each joint term by term and traces by explicit sums;
        # the sample holds gamma in {0, pi/4}, q_r in {0, 1} and F in {0, 1}
        keep = {BobRegion.I: [0, 1, 3], BobRegion.II: [0, 2, 4]}
        for family in ChannelFamily:
            points = [p for p in sample if p[0] is family]
            inertial = np.array([
                build_inertial(ChannelSpec(family, AccelerationParams(g, q), alpha, f)).entries
                for _, _, g, q, alpha, f in points
            ])
            gammas = [p[2] for p in points]
            q_rs = [p[3] for p in points]
            joints = lifted_joints(
                family.encoding, inertial, bob_isometries(family.encoding, gammas, q_rs)
            )
            reduced = {
                region: trace_out(joints, JOINT_LAYOUT, region.traced_factors)
                for region in BobRegion
            }
            for i, (_, region, gamma, q_r, alpha, f) in enumerate(points):
                want = crosscheck.brute_joint_matrix(family, gamma, q_r, alpha, f)
                assert np.abs(joints[i] - want).max() < 1e-12
                stack, layout = reduced[region]
                assert layout.factors == tuple(JOINT_LAYOUT.factors[k] for k in keep[region])
                sums = crosscheck.brute_partial_trace(joints[i], 5, keep[region])
                assert_same_bits(stack[i], sums)
                want = crosscheck.brute_partial_trace(want, 5, keep[region])
                assert np.abs(stack[i] - want).max() < 1e-12

    def test_stacked_joints_equal_one_at_a_time(self, sample):
        for family in ChannelFamily:
            points = [p for p in sample if p[0] is family]
            gammas = [p[2] for p in points]
            q_rs = [p[3] for p in points]
            inertial = np.array([
                build_inertial(ChannelSpec(family, AccelerationParams(0.0), alpha, f)).entries
                for _, _, _, _, alpha, f in points
            ])
            joints = lifted_joints(
                family.encoding, inertial, bob_isometries(family.encoding, gammas, q_rs)
            )
            for joint, (_, _, gamma, q_r, alpha, f) in zip(joints, points):
                spec = ChannelSpec(family, AccelerationParams(gamma, q_r), alpha, f)
                assert (joint == build_joint(spec).entries).all()

    @pytest.mark.parametrize("source", ["sample", "seeded"])
    def test_traced_lift_equals_trace_of_joints(self, sample, source):
        points = sample if source == "sample" else seeded_points(31, 150)
        assert set(SSA_DISCARDS) <= set(SWEEP_DISCARDS)
        for family in ChannelFamily:
            inertial, isometries = lift_inputs(family, [p for p in points if p[0] is family])
            joints = lifted_joints(family.encoding, inertial, isometries)
            got = trace_lifted(family.encoding, inertial, isometries, SWEEP_DISCARDS)
            for discard, (stack, layout) in zip(SWEEP_DISCARDS, got):
                want, want_layout = brute_traces(joints, discard)
                assert layout == want_layout
                assert_same_bits(stack, want)
            # a stack of one gives its point's rows
            for i in range(0, len(inertial), 7):
                one = trace_lifted(
                    family.encoding, inertial[i : i + 1], isometries[i : i + 1], SWEEP_DISCARDS
                )
                for (stack, _), (single, _) in zip(got, one):
                    assert (single[0] == stack[i]).all()

    @pytest.mark.parametrize("source", ["sample", "seeded"])
    def test_traced_lift_has_the_bits_of_the_dense_lift(self, sample, source):
        # each joint entry is one product, (V[r] * rho) * V[r'], as
        # the dense products multiply it; unlike ==, the bits also pin the
        # sign of every zero
        points = sample if source == "sample" else seeded_points(59, 150)
        discards = [()] + list(SWEEP_DISCARDS)
        for family in ChannelFamily:
            inertial, isometries = lift_inputs(family, [p for p in points if p[0] is family])
            got = trace_lifted(family.encoding, inertial, isometries, discards)
            want = dense_lift_reductions(inertial, isometries, discards)
            for (stack, _), reference in zip(got, want):
                assert_same_bits(stack, reference)
            # a stack of one adds its terms in the same order as a batch
            for i in range(len(inertial)):
                one = trace_lifted(
                    family.encoding, inertial[i : i + 1], isometries[i : i + 1], discards
                )
                for (stack, _), (single, _) in zip(got, one):
                    assert_same_bits(single[0], stack[i])

    def test_strong_additivity_reductions_match_oracle(self, sample):
        # AB, AC, B and C, by the factor positions the oracle keeps
        keep = ([0, 1, 3], [0, 2, 4], [1, 3], [2, 4])
        for points in (sample, seeded_points(37, 60)):
            for family in ChannelFamily:
                family_points = [p for p in points if p[0] is family]
                inertial, isometries = lift_inputs(family, family_points)
                parts = trace_lifted(
                    family.encoding, inertial, isometries, SSA_DISCARDS
                )
                for i, (_, _, gamma, q_r, alpha, f) in enumerate(family_points):
                    joint = crosscheck.brute_joint_matrix(family, gamma, q_r, alpha, f)
                    for (stack, layout), kept in zip(parts, keep):
                        assert layout.factors == tuple(JOINT_LAYOUT.factors[k] for k in kept)
                        want = crosscheck.brute_partial_trace(joint, 5, kept)
                        assert np.abs(stack[i] - want).max() < 1e-12


class TestGatherPlan:
    """The structural pattern the reductions gather, against the states it must hold."""

    @pytest.mark.parametrize("source", ["sample", "seeded"])
    def test_inputs_lie_inside_the_pattern(self, sample, source):
        points = sample if source == "sample" else seeded_points(47, 100)
        for family in ChannelFamily:
            inertial, isometries = lift_inputs(family, [p for p in points if p[0] is family])
            assert not inertial[:, ~states._PREPARED_SUPPORT].any()
            # the isometry entries (m, j) that can be nonzero: the slots 2m + j of the plan
            slots = states._amplitude_plan(states._ENCODING_BASIS[family.encoding])[0]
            assert not np.delete(isometries.reshape(-1, 32), slots, axis=1).any()

    @pytest.mark.parametrize("source", ["sample", "seeded"])
    def test_plan_covers_every_nonzero(self, sample, source):
        # the sample holds gamma in {0, pi/4}, q_r in {0, 1} and F in {0, 1};
        # the oracle builds its joints from its own amplitudes
        points = sample if source == "sample" else seeded_points(53, 100)
        for family in ChannelFamily:
            family_points = [p for p in points if p[0] is family]
            inertial, isometries = lift_inputs(family, family_points)
            joints = {
                "lifted": lifted_joints(family.encoding, inertial, isometries),
                "oracle": np.array([
                    crosscheck.brute_joint_matrix(family, g, q, alpha, f)
                    for _, _, g, q, alpha, f in family_points
                ]),
            }
            for discard in [()] + list(SWEEP_DISCARDS):
                live = live_entries(family.encoding, discard)[0]
                for name, stack in joints.items():
                    stack = brute_traces(stack, discard)[0]
                    nonzero = np.flatnonzero((stack != 0).any(axis=0))
                    assert set(nonzero) <= set(live), (family, discard, name)

    def test_plans_are_sparse(self):
        # a wedge state has 14 (dual rail) or 20 (single rail) entries of 64
        # that can be nonzero, and the joint 96 of 1024; the rest read only the zero row
        for encoding, wedge in ((Encoding.DUAL_RAIL, 14), (Encoding.SINGLE_RAIL, 20)):
            assert len(live_entries(encoding, REGION_II_FACTORS)[0]) == wedge
            assert len(live_entries(encoding, ())[0]) == 96

    def test_calls_compute_only_the_entries_they_read(self):
        # a wedge reads 28 of the 96 joint entries, both wedges or the SSA
        # discards 40, the joint all of them
        for encoding in Encoding:
            for discards, count in (
                ((REGION_II_FACTORS,), 28),
                ((REGION_I_FACTORS,), 28),
                ((REGION_II_FACTORS, REGION_I_FACTORS), 40),
                (SSA_DISCARDS, 40),
                ((frozenset(),), 96),
            ):
                assert len(states._call_plan(encoding, discards)[0]) == count

class TestSweepBatches:
    def test_prepared_states_are_each_points_state(self):
        # interleaved F values: each distinct state is built once and spread
        # to its points, which must get the bits of their own state
        fs = [0.95, 0.33, 0.95, 0.7, 0.33, 0.0, 0.7, 1.0, 0.95]
        points = [(0.1 * (i % 3), (0.25, 1.0)[i % 2], f) for i, f in enumerate(fs)]
        families = [(ChannelFamily.WERNER, PI4)] + [(f, 0.4) for f in QUANTUM_AND_CLASSICAL]
        for family, alpha in families:
            if family is not ChannelFamily.WERNER:
                points = [(gamma, q_r, None) for gamma, q_r, _ in points]
            got = sweep._prepared_states(family, points, alpha)
            want = [
                build_inertial(ChannelSpec(family, AccelerationParams(g, q), alpha, f)).entries
                for g, q, f in points
            ]
            assert_same_bits(got, np.array(want))

    def test_sweep_equals_point_by_point(self):
        # a batch of one takes the scalar eigensolver, larger ones the batched
        for family in ChannelFamily:
            werner = family is ChannelFamily.WERNER
            spec = SweepSpec(
                families=(family,),
                gamma_grid=(0.0, 0.1, 0.5, PI4),
                q_r_grid=(1.0, 0.6, 0.0),
                alpha=PI4 if werner else 0.6,
                f_grid=(0.9, 0.2) if werner else (),
                measure=Measure.STRONG_ADDITIVITY,
            )
            records = run_sweep(spec)
            for record in records:
                point = evaluate_point(
                    record.family, record.region, record.gamma, record.q_r,
                    record.alpha, record.f, with_ssa=True,
                )
                assert point == record

    def test_sweep_equals_point_by_point_at_tiny_weights(self):
        # at gamma = 0 the single rail's wedge states have one 2x2 block whose
        # norm passes the Jacobi test, in batches whose blocks are 3x3
        spec = SweepSpec(
            families=(ChannelFamily.QUANTUM_SINGLE_RAIL, ChannelFamily.QUANTUM_DUAL_RAIL),
            gamma_grid=(0.0, 1e-6, 0.3),
            q_r_grid=(1e-6, 1e-7),
            alpha=1e-7,
            measure=Measure.STRONG_ADDITIVITY,
        )
        for record in run_sweep(spec):
            point = evaluate_point(
                record.family, record.region, record.gamma, record.q_r,
                record.alpha, record.f, with_ssa=True,
            )
            assert point == record

    def test_point_route_has_the_bits_of_the_batch_route_on_the_point_queries_mix(self):
        # the mix of the point-queries benchmark: every family and wedge, alpha
        # off pi/4 (one per family, as a batch takes one), a drawn F for
        # Werner, and about 5% boundary values of gamma and q_r; float.hex
        # tells a -0 from a +0 where == does not
        rng = np.random.default_rng(103)

        def pick(low, high):
            if rng.uniform() < 0.05:
                return float(rng.choice((low, high)))
            return float(rng.uniform(low, high))

        def bits(record):
            return [value.hex() if isinstance(value, float) else value for value in record]

        regions = tuple(BobRegion)
        for family in ChannelFamily:
            werner = family is ChannelFamily.WERNER
            alpha = PI4 if werner else float(rng.uniform(0.0, math.pi / 2))
            points = [
                (pick(0.0, PI4), pick(0.0, 1.0), float(rng.uniform()) if werner else None)
                for _ in range(60)
            ]
            batch = sweep._evaluate_family(family, regions, points, alpha, True)
            for region, region_records in zip(regions, batch):
                for (gamma, q_r, f), record in zip(points, region_records):
                    point = evaluate_point(family, region, gamma, q_r, alpha, f, with_ssa=True)
                    assert bits(point) == bits(record)

    def test_records_follow_the_spec_region_order(self, monkeypatch):
        # one batch serves both wedges; its records still come wedge by wedge
        monkeypatch.setattr(sweep, "BATCH_POINTS", 2)
        forward = run_sweep(two_wedge_spec((BobRegion.I, BobRegion.II)))
        backward = run_sweep(two_wedge_spec((BobRegion.II, BobRegion.I)))
        assert [record.region for record in backward] == [BobRegion.II] * 4 + [BobRegion.I] * 4
        assert [record.gamma for record in backward] == [0.0, 0.1, 0.2, 0.3] * 2
        assert backward == forward[4:] + forward[:4]


class TestSweepTraffic:
    """Deterministic call counts: how many stacks a sweep builds, reduces and solves."""

    def test_one_batch_per_family_serves_every_wedge(self, monkeypatch):
        # 12 batches: one per family in fig1, fig2 and fig3 (8), and fig4's
        # werner 4; each solves three stacks per wedge but Alice's marginal
        # of the wedge only strong additivity reads: 8 * 6 + 4 * 5 = 68
        calls = count_calls(
            monkeypatch,
            (sweep, "trace_lifted"),
            (sweep, "bob_isometries"),
            (measures, "eigvals_hermitian_batch"),
        )
        for preset in FigurePreset:
            run_sweep(figure_preset(preset))
        assert calls == {"trace_lifted": 12, "bob_isometries": 12, "eigvals_hermitian_batch": 68}

    @pytest.mark.parametrize("preset", list(FigurePreset), ids=lambda preset: preset.value)
    def test_preset_batches(self, monkeypatch, preset):
        # a fig1-fig3 family has 101 x 4 = 404 points, one batch under
        # BATCH_POINTS; fig4's 1 616 werner points split into four of 404
        real = sweep._evaluate_batch
        batches = []

        def recorded(family, regions, points, alpha, with_ssa):
            batches.append((family, len(points)))
            return real(family, regions, points, alpha, with_ssa)

        monkeypatch.setattr(sweep, "_evaluate_batch", recorded)
        calls = count_calls(monkeypatch, (sweep, "trace_lifted"))
        spec = figure_preset(preset)
        run_sweep(spec)
        if preset is FigurePreset.FIG4:
            assert batches == [(ChannelFamily.WERNER, 404)] * 4
        else:
            assert batches == [(family, 404) for family in spec.families]
        assert calls == {"trace_lifted": len(batches)}

    @pytest.mark.parametrize(
        "regions, measure, sizes",
        [
            ((BobRegion.I, BobRegion.II), Measure.CONDITIONAL_ENTROPY, [8, 2, 4, 8, 2, 4]),
            ((BobRegion.I,), Measure.STRONG_ADDITIVITY, [8, 2, 4, 8, 4]),
        ],
        ids=["two-wedges", "one-wedge-with-ssa"],
    )
    def test_wedges_are_solved_one_after_another(self, monkeypatch, regions, measure, sizes):
        # each wedge's states, Alice's marginal if the wedge is requested,
        # then its modes; the wedge only strong additivity reads comes last
        real = measures.eigvals_hermitian_batch
        solved = []

        def recorded(matrices):
            solved.append(matrices.shape[1])
            return real(matrices)

        monkeypatch.setattr(measures, "eigvals_hermitian_batch", recorded)
        run_sweep(dataclasses.replace(two_wedge_spec(regions), measure=measure))
        assert solved == sizes

    def test_one_point_takes_only_scalar_solves(self, monkeypatch):
        # the wedge, Alice's marginal and the modes, then the other wedge and
        # its modes: five stacks of one, none stacked with another
        calls = count_calls(
            monkeypatch,
            (measures, "eigvals_hermitian"),
            (measures, "eigvals_hermitian_batch"),
        )
        evaluate_point(ChannelFamily.QUANTUM_SINGLE_RAIL, BobRegion.II, 0.3, 0.8, with_ssa=True)
        assert calls == {"eigvals_hermitian": 5, "eigvals_hermitian_batch": 0}

    def test_one_point_builds_its_channel_once(self, monkeypatch):
        # the spec evaluate_point reads its numbers through also prepares the state
        calls = count_calls(monkeypatch, (sweep, "ChannelSpec"), (sweep, "build_inertial"))
        evaluate_point(ChannelFamily.WERNER, BobRegion.I, 0.3, 0.8, f=0.7, with_ssa=True)
        assert calls == {"ChannelSpec": 1, "build_inertial": 1}

    def test_evaluation_route_builds_no_state_vector(self, monkeypatch):
        calls = count_calls(monkeypatch, (StateVector, "__post_init__"))
        for family in ChannelFamily:
            werner = family is ChannelFamily.WERNER
            f, alpha = (0.7, PI4) if werner else (None, 0.4)
            evaluate_point(family, BobRegion.II, 0.2, 0.6, alpha, f, with_ssa=True)
        run_sweep(dataclasses.replace(figure_preset("fig4"), gamma_grid=(0.0, 0.3)))
        run_sweep(dataclasses.replace(figure_preset("fig3"), gamma_grid=(0.0, 0.3)))
        assert calls == {"__post_init__": 0}
        unruh_vacuum(AccelerationParams(0.2))  # the counter sees a StateVector
        assert calls == {"__post_init__": 1}


def two_wedge_spec(regions):
    return SweepSpec(
        families=(ChannelFamily.QUANTUM_DUAL_RAIL,),
        gamma_grid=(0.0, 0.1, 0.2, 0.3),
        q_r_grid=(0.9,),
        regions=regions,
    )


def four_point_spec():
    return SweepSpec(
        families=(ChannelFamily.QUANTUM_DUAL_RAIL,),
        gamma_grid=(0.0, 0.1, 0.2, 0.3),
        q_r_grid=(0.9,),
        regions=(BobRegion.I,),
    )


def corrupt_amplitudes_at(monkeypatch, bad_gamma, factor=2.0):
    """Scale the Unruh-state amplitudes at one gamma; doubled, its isometry check fails."""
    real = states._rindler_amplitudes

    def corrupted(names, gammas, q_rs):
        vectors = real(names, gammas, q_rs)
        vectors[:, np.array(gammas) == bad_gamma] *= factor
        return vectors

    monkeypatch.setattr(states, "_rindler_amplitudes", corrupted)


class TestSweepFailures:
    def test_failure_names_the_failing_point(self, monkeypatch):
        corrupt_amplitudes_at(monkeypatch, 0.2)
        with pytest.raises(SweepPointError, match=r"gamma=0\.2 .*state norm is"):
            run_sweep(four_point_spec())

    def test_earlier_point_failing_at_a_later_stage_wins(self, monkeypatch):
        # point 3 fails when its isometry is checked; point 1, Hermitian with
        # unit trace but not PSD, passes every check until its entropies
        corrupt_amplitudes_at(monkeypatch, 0.3)
        real = sweep._prepared_states

        def not_psd_at(family, points, alpha):
            prepared = real(family, points, alpha)
            for i, (gamma, _, _) in enumerate(points):
                if gamma == 0.1:
                    prepared[i] = np.diag([1.5, 0.0, 0.0, -0.5])
            return prepared

        monkeypatch.setattr(sweep, "_prepared_states", not_psd_at)
        with pytest.raises(SweepPointError, match=r"gamma=0\.1 .*below the PSD tolerance"):
            run_sweep(four_point_spec())

    def test_nan_isometry_is_refused(self, monkeypatch):
        # NaN fails the norm check, so it never reaches a reduction
        corrupt_amplitudes_at(monkeypatch, 0.1, factor=math.nan)
        with pytest.raises(NormalizationError, match="state norm is nan"):
            bob_isometries(Encoding.DUAL_RAIL, [0.0, 0.1], [0.9, 0.9])
        with pytest.raises(SweepPointError, match=r"gamma=0\.1 .*state norm is nan"):
            run_sweep(four_point_spec())

    def test_bad_column_0_is_named_before_an_earlier_points_column_1(self, monkeypatch):
        # both columns' norms are checked in one call, every column 0 first
        real = states._rindler_amplitudes

        def corrupted(names, gammas, q_rs):
            assert list(names) == ["vacuum", "particle"]
            vectors = real(names, gammas, q_rs)
            vectors[0, 1] *= 2.0  # point 1, column 0 of a single-rail isometry
            vectors[1, 0] *= 3.0  # point 0, column 1
            return vectors

        monkeypatch.setattr(states, "_rindler_amplitudes", corrupted)
        norm = np.linalg.norm(2.0 * real(["vacuum"], [0.3], [0.9])[0, 0])
        with pytest.raises(NormalizationError) as info:
            bob_isometries(Encoding.SINGLE_RAIL, [0.1, 0.3], [0.8, 0.9])
        assert str(info.value) == f"state norm is {float(norm)!r}, expected 1"

    def test_out_of_domain_point_in_a_batch(self):
        spec = four_point_spec()
        object.__setattr__(spec, "gamma_grid", (0.0, 0.1, math.nan, 0.3))
        with pytest.raises(SweepPointError, match=r"gamma=nan .*gamma: must be within"):
            run_sweep(spec)

    def test_inertial_state_off_unit_trace_is_named(self, monkeypatch):
        real = sweep._prepared_states

        def doubled_at(family, points, alpha):
            prepared = real(family, points, alpha)
            for i, (gamma, _, _) in enumerate(points):
                if gamma == 0.2:
                    prepared[i] *= 2.0
            return prepared

        monkeypatch.setattr(sweep, "_prepared_states", doubled_at)
        with pytest.raises(SweepPointError, match=r"gamma=0\.2 .*trace is"):
            run_sweep(four_point_spec())

    def test_failure_of_the_batch_alone_is_raised_as_it_is(self, monkeypatch):
        # no point fails alone, so no point is named: the batch's error stands
        real = sweep._evaluate_batch
        error = ConvergenceError("batch of four failed")

        def fails_in_batches(family, regions, points, alpha, with_ssa):
            if len(points) > 1:
                raise error
            return real(family, regions, points, alpha, with_ssa)

        monkeypatch.setattr(sweep, "_evaluate_batch", fails_in_batches)
        with pytest.raises(ConvergenceError) as raised:
            run_sweep(four_point_spec())
        assert raised.value is error

    @pytest.mark.parametrize(
        "regions, named",
        [
            ((BobRegion.I, BobRegion.II), r"region=bob-i gamma=0\.3 "),
            ((BobRegion.II, BobRegion.I), r"region=bob-ii gamma=0\.0 "),
        ],
    )
    def test_first_failing_region_wins_over_an_earlier_batch(self, monkeypatch, regions, named):
        # batches (0.0, 0.1) and (0.2, 0.3): the wedge-II defect fails the
        # first batch of both wedges, but a wedge-I point comes first in
        # canonical order when wedge I is listed first
        monkeypatch.setattr(sweep, "BATCH_POINTS", 2)
        double_wedge_at(monkeypatch, {(BobRegion.I, 0.3), (BobRegion.II, 0.0)})
        with pytest.raises(SweepPointError, match=named + r".*trace is"):
            run_sweep(two_wedge_spec(regions))


def record_dtypes(monkeypatch, *targets):
    """Wrap each ``(module, name)`` function; the returned dict lists, by name,
    the dtypes of the arrays it was given and returned."""
    seen = {}
    for module, name in targets:
        real = getattr(module, name)
        seen.setdefault(name, [])

        def recorded(*args, _real=real, _name=name):
            result = _real(*args)
            outputs = [stack for stack, _ in result] if _name == "trace_lifted" else [result]
            seen[_name] += [x.dtype for x in [*args, *outputs] if isinstance(x, np.ndarray)]
            return result

        monkeypatch.setattr(module, name, recorded)
    return seen


class TestRealArithmetic:
    """The model's states are real, and the sweep carries them in float64."""

    def test_sweep_routes_solve_in_float64(self, monkeypatch):
        seen = record_dtypes(
            monkeypatch,
            (measures, "eigvals_hermitian"),
            (measures, "eigvals_hermitian_batch"),
            (verify, "eigvals_hermitian_batch"),
            (sweep, "bob_isometries"),
            (verify, "bob_isometries"),
            (sweep, "trace_lifted"),
            (states, "trace_lifted"),
        )
        spec = dataclasses.replace(figure_preset("fig3"), gamma_grid=(0.0, 0.3, PI4))
        run_sweep(spec)
        run_sweep(dataclasses.replace(figure_preset("fig4"), gamma_grid=(0.0, 0.3)))
        for family in ChannelFamily:
            werner = family is ChannelFamily.WERNER
            f, alpha = (0.7, PI4) if werner else (None, 0.4)
            evaluate_point(family, BobRegion.II, 0.2, 0.6, alpha, f, with_ssa=True)
        verify.run_checks(include_determinism=False)
        assert all(seen.values()), seen
        assert {dtype for dtypes in seen.values() for dtype in dtypes} == {np.dtype(float)}

    def test_entropy_of_a_density_matrix_rotates_in_python_floats(self, monkeypatch):
        rng = np.random.default_rng(103)
        rhos = [random_density(rng, SubsystemLayout(tuple(Subsystem)[:n])) for n in (1, 2, 3)]
        calls = count_calls(
            monkeypatch, (fock, "eigvals_hermitian_batch"), (measures, "eigvals_hermitian_batch")
        )
        for rho in rhos:
            von_neumann_entropy(rho)
        assert calls == {"eigvals_hermitian_batch": 0}

    @pytest.mark.parametrize("param", ["amplitudes", "entries", "matrix", "matrices"])
    def test_entry_points_take_only_a_zero_imaginary_part(self, param, matrices):
        # a zero imaginary part, of either sign, gives the bits of the real
        # part; any other raises, naming the argument
        call, inputs = real_inputs(param, matrices)
        for x in inputs:
            want = call(x)
            assert want.dtype == float
            for zero in (0.0, -0.0):
                z = x.astype(complex)
                z.imag = zero
                assert_same_bits(call(z), want)
            z.flat[-1] += 1e-300j
            with pytest.raises(DomainError) as error:
                call(z)
            assert error.value.param == param

    @pytest.mark.parametrize("param", ["amplitudes", "entries", "matrix", "matrices"])
    def test_entry_points_read_integer_input_as_float64(self, param, matrices):
        # real input of any dtype, in an array or a nested list, gives the
        # bits of the same values given as float64
        call = real_inputs(param, matrices)[0]
        for x in integer_inputs(param):
            want = call(x.astype(float))
            assert want.dtype == float
            for y in (x, x.tolist()):
                assert_same_bits(call(y), want)


def integer_inputs(param):
    """Integer inputs for the entry point of ``real_inputs(param, ...)``: basis
    states and their projectors, or symmetric matrices of each size up to 8."""
    rng = np.random.default_rng(107)
    if param in ("amplitudes", "entries"):
        basis = [row for n in (1, 2, 3) for row in np.eye(2**n, dtype=int)]
        return basis if param == "amplitudes" else [np.diag(v) for v in basis]
    shape = (5,) if param == "matrices" else ()
    stacks = [rng.integers(-3, 4, size=shape + (n, n)) for n in range(1, 9)]
    return [m + m.swapaxes(-1, -2) for m in stacks]


def real_inputs(param, matrices):
    """One entry point that reads its input by fock._as_real, and real inputs for it."""
    rng = np.random.default_rng(101)
    stacks = list(matrices.values()) + [random_block_stack(rng) for _ in range(60)]
    layouts = {2**n: SubsystemLayout(tuple(Subsystem)[:n]) for n in (1, 2, 3)}
    if param == "amplitudes":
        vectors = [random_state(rng, layout).amplitudes for layout in layouts.values()]
        return (lambda v: StateVector(layouts[len(v)], v).amplitudes), vectors
    if param == "entries":
        densities = [m for stack in matrices.values() for m in stack]
        return (lambda m: DensityMatrix(layouts[len(m)], m).entries), densities
    if param == "matrix":
        return eigvals_hermitian, [m for stack in stacks for m in stack]
    return eigvals_hermitian_batch, stacks
