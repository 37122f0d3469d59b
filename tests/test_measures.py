import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from unruh_lab import (
    AccelerationParams,
    BobRegion,
    ChannelFamily,
    ChannelSpec,
    DensityMatrix,
    NormalizationError,
    SpectrumError,
    Subsystem,
    SubsystemLayout,
    SymmetryError,
    build_inertial,
    build_joint,
    entropy_from_eigenvalues,
    evaluate_point,
    outer_product,
    partial_trace,
    von_neumann_entropy,
)
from unruh_lab import crosscheck
from unruh_lab.measures import entropies_from_eigenvalues, von_neumann_entropies
from unruh_lab.states import bob_isometries

from helpers import (
    TWO_QUBITS,
    assert_same_bits,
    bell_state,
    brute_mutual_information,
    entropy_without,
    random_density,
    random_state,
)

PI4 = math.pi / 4
ALICE = Subsystem.ALICE
BOB = Subsystem.BOB


def two_qubit_mutual_information(rho):
    """S(A) + S(B) - S(AB), with A Alice and B Bob."""
    return entropy_without(rho, BOB) + entropy_without(rho, ALICE) - entropy_without(rho)


def two_qubit_conditional_entropy(rho):
    """S(A|B) = S(AB) - S(B), with A Alice and B Bob."""
    return entropy_without(rho) - entropy_without(rho, ALICE)

# frozen oracle values; see test_frozen_values_match_oracle for their recomputation
MUTUAL_INFO_INFINITE_ACCEL = 1.0
WERNER_SSA_F95 = 0.272208547829
WERNER_SSA_SWAPPED_F95 = 0.857558347950


class TestVonNeumannEntropy:
    def test_pure_state_is_zero(self):
        rng = np.random.default_rng(3)
        rho = outer_product(random_state(rng, TWO_QUBITS))
        assert abs(von_neumann_entropy(rho)) < 1e-9

    def test_maximally_mixed_qubit(self):
        rho = DensityMatrix(SubsystemLayout((ALICE,)), np.eye(2) / 2)
        assert abs(von_neumann_entropy(rho) - 1.0) < 1e-12

    def test_three_quarters_closed_form(self):
        rho = DensityMatrix(SubsystemLayout((ALICE,)), np.diag([0.75, 0.25]))
        expected = 2.0 - 0.75 * math.log2(3.0)
        assert abs(von_neumann_entropy(rho) - expected) < 1e-12
        assert abs(expected - 0.8112781245) < 1e-9

    def test_clamps_small_negatives(self):
        assert entropy_from_eigenvalues([1.0, -1e-10]) == 0.0
        # an eigenvalue a hair above 1 may push the result a hair below 0
        assert abs(entropy_from_eigenvalues([1.0 + 1e-10, -1e-10])) < 1e-9

    def test_rejects_psd_violations(self):
        with pytest.raises(SpectrumError):
            entropy_from_eigenvalues([1.1, -0.1])

    def test_nan_eigenvalue_rejected_by_both_sums(self):
        # the scalar sum skipped the NaN and returned 1.0; the stack returned nan
        with pytest.raises(SpectrumError, match="non-finite"):
            entropy_from_eigenvalues([0.5, math.nan, 0.5])
        with pytest.raises(SpectrumError, match="non-finite"):
            entropies_from_eigenvalues(np.array([[math.nan, 0.5, 0.5]]))

    @pytest.mark.parametrize("row", [[math.inf], [math.inf, 0.5, 0.0], [0.5, -math.inf]])
    def test_infinite_eigenvalue_rejected_by_both_sums(self, row):
        with pytest.raises(SpectrumError, match="non-finite"):
            entropy_from_eigenvalues(row)
        with pytest.raises(SpectrumError, match="non-finite"):
            entropies_from_eigenvalues(np.array([row, [1.0] + [0.0] * (len(row) - 1)]))


def stacks_failing_at(first, later):
    """``first`` alone, and as item 2 of a stack of 3 after a valid matrix.

    The third item, ``later``, fails too, with a larger defect, so a
    message naming the first failing item tells the two apart.  The stack
    of one goes to the scalar solver, the stack of 3 to the batched one.
    """
    one, other = np.array(first, dtype=float), np.array(later, dtype=float)
    valid = np.eye(len(one)) / len(one)
    return [one[np.newaxis], np.array([valid, one, other])]


ROUTES = ["scalar", "batched"]


class TestVonNeumannEntropiesChecks:
    """The stack checks of DensityMatrix, each made once: traces here, Hermiticity in the solver."""

    @pytest.mark.parametrize(
        "stack", stacks_failing_at(2 * np.eye(2) / 2, 3 * np.eye(2) / 2), ids=ROUTES
    )
    def test_trace_off_one_raises(self, stack):
        with pytest.raises(NormalizationError, match=r"trace is 2\.0, expected 1$"):
            von_neumann_entropies(stack)

    @pytest.mark.parametrize(
        "stack",
        stacks_failing_at([[0.5, 0.1], [0.0, 0.5]], [[0.5, 0.2], [0.0, 0.5]]),
        ids=ROUTES,
    )
    def test_non_hermitian_matrix_raises(self, stack):
        with pytest.raises(SymmetryError, match="defect 1.000e-01 exceeds"):
            von_neumann_entropies(stack)

    @pytest.mark.parametrize(
        "stack",
        stacks_failing_at([[0.5, math.nan], [math.nan, 0.5]], [[0.5, 0.2], [0.0, 0.5]]),
        ids=ROUTES,
    )
    def test_nan_matrix_raises(self, stack):
        # unit trace, so the Hermiticity test is the one that sees the NaN
        with pytest.raises(SymmetryError, match="defect nan"):
            von_neumann_entropies(stack)

    def test_trace_is_checked_before_hermiticity(self):
        both = np.array([[[1.0, 0.1], [0.0, 1.0]]])
        with pytest.raises(NormalizationError, match=r"trace is 2\.0, expected 1$"):
            von_neumann_entropies(both)


class TestMutualInformation:
    def test_bell_pair_two_bits(self):
        rho = outer_product(bell_state())
        assert abs(two_qubit_mutual_information(rho) - 2.0) < 1e-12

    def test_product_state_zero(self):
        rng = np.random.default_rng(7)
        a = random_density(rng, SubsystemLayout((ALICE,)))
        b = random_density(rng, SubsystemLayout((BOB,)))
        rho = DensityMatrix(TWO_QUBITS, np.kron(a.entries, b.entries))
        assert abs(two_qubit_mutual_information(rho)) < 1e-9

    def test_infinite_acceleration_value_frozen(self):
        single = evaluate_point(
            ChannelFamily.QUANTUM_SINGLE_RAIL, BobRegion.I, PI4, 1.0, alpha=PI4
        ).mutual_info
        assert abs(single - MUTUAL_INFO_INFINITE_ACCEL) < 1e-9
        dual = evaluate_point(
            ChannelFamily.QUANTUM_DUAL_RAIL, BobRegion.I, PI4, 1.0, alpha=PI4
        ).mutual_info
        assert abs(single - dual) < 1e-9


class TestConditionalEntropy:
    def test_bell_pair_minus_one(self):
        rho = outer_product(bell_state())
        assert abs(two_qubit_conditional_entropy(rho) + 1.0) < 1e-12

    def test_classically_correlated_zero(self):
        rho = DensityMatrix(TWO_QUBITS, np.diag([0.5, 0.0, 0.0, 0.5]))
        assert abs(two_qubit_conditional_entropy(rho)) < 1e-12

    def test_two_qubit_white_noise_one_bit(self):
        rho = DensityMatrix(TWO_QUBITS, np.eye(4) / 4)
        assert abs(two_qubit_conditional_entropy(rho) - 1.0) < 1e-12


CHARLIE = Subsystem.REGION_I_PARTICLE
GHZ_LAYOUT = SubsystemLayout((ALICE, BOB, CHARLIE))


def ghz_layout_strong_additivity(rho):
    """S(AB) - S(B) + S(AC) - S(C), with A Alice, B Bob and C the third qubit."""
    return (
        entropy_without(rho, CHARLIE) - entropy_without(rho, ALICE, CHARLIE)
        + entropy_without(rho, BOB) - entropy_without(rho, ALICE, BOB)
    )


def swapped_variant(ssa, s_a, s_b):
    """S(AB) - S(A) + S(AC) - S(C) = S(B|A) + S(A|C), which carries no sign guarantee."""
    return ssa + s_b - s_a


def werner_ssa(gamma, q_r, f):
    return evaluate_point(
        ChannelFamily.WERNER, BobRegion.I, gamma, q_r, PI4, f, with_ssa=True
    ).ssa_value


def werner_swapped_variant(gamma, q_r, f):
    # in ssa_value, A is Alice and B the wedge-I modes: a wedge-I record's s_a, s_b
    record = evaluate_point(
        ChannelFamily.WERNER, BobRegion.I, gamma, q_r, PI4, f, with_ssa=True
    )
    return swapped_variant(record.ssa_value, record.s_a, record.s_b)


class TestStrongAdditivity:
    def test_pure_product_is_zero(self):
        rng = np.random.default_rng(11)
        amps = np.ones(1)
        state = None
        for label in GHZ_LAYOUT.factors:
            factor = random_state(rng, SubsystemLayout((label,)))
            amps = np.kron(amps, factor.amplitudes)
        rho = DensityMatrix(GHZ_LAYOUT, np.outer(amps, amps))
        assert abs(ghz_layout_strong_additivity(rho)) < 1e-9

    def test_ghz_is_zero(self):
        amps = np.zeros(8)
        amps[0] = amps[7] = math.sqrt(0.5)
        rho = DensityMatrix(GHZ_LAYOUT, np.outer(amps, amps))
        ssa = ghz_layout_strong_additivity(rho)
        assert abs(ssa) < 1e-12
        s_a = von_neumann_entropy(partial_trace(rho, {BOB, CHARLIE}))
        s_b = von_neumann_entropy(partial_trace(rho, {ALICE, CHARLIE}))
        assert abs(swapped_variant(ssa, s_a, s_b)) < 1e-12

    def test_werner_value_frozen(self):
        assert abs(werner_ssa(math.pi / 8, 1.0, 0.95) - WERNER_SSA_F95) < 1e-9
        swapped = werner_swapped_variant(math.pi / 8, 1.0, 0.95)
        assert abs(swapped - WERNER_SSA_SWAPPED_F95) < 1e-9

    def test_frozen_values_match_oracle(self):
        parts = crosscheck.brute_tripartite_entropies(
            ChannelFamily.WERNER, math.pi / 8, 1.0, fidelity_f=0.95
        )
        oracle = parts["s_ab"] - parts["s_b"] + parts["s_ac"] - parts["s_c"]
        oracle_swapped = parts["s_ab"] - parts["s_a"] + parts["s_ac"] - parts["s_c"]
        assert abs(oracle - WERNER_SSA_F95) < 1e-9
        assert abs(oracle_swapped - WERNER_SSA_SWAPPED_F95) < 1e-9
        oracle_mi = brute_mutual_information(
            ChannelFamily.QUANTUM_SINGLE_RAIL, BobRegion.I, PI4, 1.0
        )
        assert abs(oracle_mi - MUTUAL_INFO_INFINITE_ACCEL) < 1e-9

    def test_swapped_variant_goes_negative_where_reported_does_not(self):
        assert werner_ssa(0.0, 0.25, 0.95) >= -1e-9
        assert werner_swapped_variant(0.0, 0.25, 0.95) < -0.5

    @pytest.mark.parametrize("family", list(ChannelFamily))
    def test_equals_the_sum_of_both_wedges_conditional_entropies(self, family):
        # with A Alice, B the wedge-I and C the wedge-II modes, S(AB) - S(B)
        # + S(AC) - S(C) is CE_I + CE_II: the same bits, in either wedge
        rng = np.random.default_rng(1515)
        werner = family is ChannelFamily.WERNER
        f_values = (0.0, 1.0) if werner else (None,)
        points = [
            (gamma, q_r, PI4, f) for gamma in (0.0, PI4) for q_r in (0.0, 1.0) for f in f_values
        ]
        for _ in range(60):
            alpha = PI4 if werner else float(rng.uniform(0.0, math.pi))
            f = float(rng.uniform()) if werner else None
            points.append((float(rng.uniform(0.0, PI4)), float(rng.uniform()), alpha, f))
        got, want = [], []
        for gamma, q_r, alpha, f in points:
            near, far = (
                evaluate_point(family, region, gamma, q_r, alpha, f, with_ssa=True)
                for region in (BobRegion.I, BobRegion.II)
            )
            got += [near.ssa_value, far.ssa_value]
            want += [near.cond_entropy + far.cond_entropy] * 2
        assert_same_bits(np.array(got), np.array(want))


class TestMeasureProperties:
    def channel_records(self):
        rng = np.random.default_rng(19)
        for _ in range(12):
            family = list(ChannelFamily)[int(rng.integers(5))]
            f = float(rng.uniform()) if family is ChannelFamily.WERNER else None
            gamma, q_r = float(rng.uniform(0, PI4)), float(rng.uniform())
            region = BobRegion.I if rng.uniform() < 0.5 else BobRegion.II
            yield evaluate_point(family, region, gamma, q_r, f=f)

    def test_mutual_information_bounds(self):
        for r in self.channel_records():
            assert r.mutual_info >= -1e-9
            assert r.mutual_info <= 2.0 * min(r.s_a, r.s_b) + 1e-9

    def test_conditional_entropy_lower_bound(self):
        for r in self.channel_records():
            assert r.cond_entropy >= -r.s_a - 1e-9

    def test_pure_state_identities(self):
        rng = np.random.default_rng(23)
        for _ in range(8):
            rho = outer_product(random_state(rng, TWO_QUBITS))
            s_a = entropy_without(rho, BOB)
            assert abs(two_qubit_conditional_entropy(rho) + s_a) < 1e-9
            assert abs(two_qubit_mutual_information(rho) - 2.0 * s_a) < 1e-9

    def test_entropy_invariant_under_isometry(self):
        rng = np.random.default_rng(29)
        for _ in range(6):
            family = list(ChannelFamily)[int(rng.integers(5))]
            f = float(rng.uniform()) if family is ChannelFamily.WERNER else None
            spec = ChannelSpec(
                family,
                AccelerationParams(float(rng.uniform(0, PI4)), float(rng.uniform())),
                fidelity_f=f,
            )
            inertial = build_inertial(spec)
            lifted = build_joint(spec)
            assert (
                abs(von_neumann_entropy(inertial) - von_neumann_entropy(lifted)) < 1e-9
            )

    @settings(deadline=None, database=None)
    @given(
        family=st.sampled_from(list(ChannelFamily)),
        gamma=st.floats(0.0, PI4),
        q_r=st.floats(0.0, 1.0),
        alpha=st.floats(0.0, math.pi),
        f=st.floats(0.0, 1.0),
    )
    def test_wedge_swap_symmetry(self, family, gamma, q_r, alpha, f):
        # MI_I(gamma, q_r) = MI_II(gamma, q_l): the wedges swap with q_r and q_l
        alpha, f = (PI4, f) if family is ChannelFamily.WERNER else (alpha, None)
        q_l = math.sqrt(1.0 - q_r * q_r)
        near = evaluate_point(family, BobRegion.I, gamma, q_r, alpha, f)
        far = evaluate_point(family, BobRegion.II, gamma, q_l, alpha, f)
        assert abs(near.mutual_info - far.mutual_info) <= 1e-12

    @settings(deadline=None, database=None)
    @given(
        region=st.sampled_from(list(BobRegion)),
        gamma=st.floats(0.05, PI4 - 0.05),
        q_r=st.floats(0.0, 1 / math.sqrt(2) - 0.05) | st.floats(1 / math.sqrt(2) + 0.05, 1.0),
        alpha=st.floats(0.05, math.pi / 2 - 0.05),
    )
    def test_dual_rail_ahead_of_single_rail_above_equal_weights(self, region, gamma, q_r, alpha):
        # in wedge I the dual rail carries more MI than the single rail for
        # q_r > 1/sqrt(2) and less below; wedge II is the mirror image
        single = evaluate_point(ChannelFamily.QUANTUM_SINGLE_RAIL, region, gamma, q_r, alpha)
        dual = evaluate_point(ChannelFamily.QUANTUM_DUAL_RAIL, region, gamma, q_r, alpha)
        expected = math.copysign(1.0, q_r - 1 / math.sqrt(2))
        if region is BobRegion.II:
            expected = -expected
        assert (dual.mutual_info - single.mutual_info) * expected > 0

    @pytest.mark.parametrize("q_r", [0.3, 0.75, 0.8, 0.9, 0.97])
    def test_wedge_entropy_gap_in_closed_form_at_gamma_zero(self, q_r):
        # in wedge I, MI = S(A) + Delta with Delta = S(B_I) - S(B_II); at
        # gamma = 0 and alpha = pi/4, Delta is h(q_r^2 / 2) - h(q_l^2 / 2)
        # for the single rail and q_r^2 - q_l^2 for the dual rail
        def h(p):
            return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))

        x = q_r * q_r
        want = {
            ChannelFamily.QUANTUM_SINGLE_RAIL: h(x / 2) - h((1 - x) / 2),
            ChannelFamily.QUANTUM_DUAL_RAIL: 2 * x - 1,
        }
        for family, delta in want.items():
            wedges = [evaluate_point(family, region, 0.0, q_r, PI4) for region in BobRegion]
            assert wedges[0].s_b - wedges[1].s_b == pytest.approx(delta, abs=1e-12)
            assert wedges[0].mutual_info - wedges[0].s_a == pytest.approx(delta, abs=1e-12)

    @settings(deadline=None, database=None)
    @given(
        family=st.sampled_from(list(ChannelFamily)),
        region=st.sampled_from(list(BobRegion)),
        gamma=st.floats(0.0, PI4),
        q_r=st.floats(0.0, 1.0),
        alpha=st.floats(0.0, math.pi),
        f=st.floats(0.0, 1.0),
    )
    def test_entropy_inequalities(self, family, region, gamma, q_r, alpha, f):
        alpha, f = (PI4, f) if family is ChannelFamily.WERNER else (alpha, None)
        r = evaluate_point(family, region, gamma, q_r, alpha, f, with_ssa=True)
        tol = 1e-9
        # Alice is one qubit, the wedge two, the reduced state three
        assert -tol <= r.s_a <= 1.0 + tol
        assert -tol <= r.s_b <= 2.0 + tol
        assert -tol <= r.s_ab <= 3.0 + tol
        # Araki-Lieb and subadditivity
        assert abs(r.s_a - r.s_b) - tol <= r.s_ab <= r.s_a + r.s_b + tol
        assert r.mutual_info <= 2.0 + tol
        assert r.cond_entropy >= -1.0 - tol
        assert r.ssa_value >= -tol

    @settings(deadline=None, database=None)
    @given(
        family=st.sampled_from([f for f in ChannelFamily if not f.is_classical]),
        gamma=st.floats(0.0, PI4),
        q_r=st.floats(0.0, 1.0),
        alpha=st.floats(0.0, math.pi),
    )
    def test_schmidt_identity(self, family, gamma, q_r, alpha):
        # the joint is pure, so one wedge's reduced state and the other
        # wedge's modes are the two sides of a pure state: equal entropies
        alpha, f = (PI4, 1.0) if family is ChannelFamily.WERNER else (alpha, None)
        near = evaluate_point(family, BobRegion.I, gamma, q_r, alpha, f)
        far = evaluate_point(family, BobRegion.II, gamma, q_r, alpha, f)
        assert abs(near.s_ab - far.s_b) <= 1e-9
        assert abs(far.s_ab - near.s_b) <= 1e-9

    @settings(deadline=None, database=None)
    @given(
        region=st.sampled_from(list(BobRegion)),
        gamma=st.floats(0.0, PI4),
        alpha=st.floats(0.0, math.pi / 2),
    )
    def test_single_and_dual_rail_coincide_at_equal_weights(self, region, gamma, alpha):
        # at q_r = q_l = 1/sqrt(2) the quantum single- and dual-rail channels
        # carry the same MI and CE, although their s_b and s_ab differ
        q_r = 1 / math.sqrt(2)
        single = evaluate_point(ChannelFamily.QUANTUM_SINGLE_RAIL, region, gamma, q_r, alpha)
        dual = evaluate_point(ChannelFamily.QUANTUM_DUAL_RAIL, region, gamma, q_r, alpha)
        assert abs(single.mutual_info - dual.mutual_info) <= 1e-12
        assert abs(single.cond_entropy - dual.cond_entropy) <= 1e-12

    @settings(deadline=None, database=None)
    @given(
        family=st.sampled_from([f for f in ChannelFamily if f.is_quantum]),
        gamma=st.floats(0.0, PI4),
        q_r=st.floats(0.0, 1.0),
        alpha=st.floats(0.0, math.pi),
    )
    # the wedge-I state's 2x2 block here has entries near 5e-13 and an
    # off-diagonal norm below the Jacobi tolerance; unrotated, its diagonal
    # put S(AB_I) 1e-12 off and the sum 1.0011e-12 off
    @example(ChannelFamily.QUANTUM_DUAL_RAIL, 0.0, 1e-06, 0.75)
    def test_pure_channel_sum_rule(self, family, gamma, q_r, alpha):
        # the joint is pure, so S(AB_I) = S(B_II) and S(AB_II) = S(B_I):
        # CE_I = S(B_II) - S(B_I) = -CE_II and MI_I + MI_II = 2 S(A)
        near = evaluate_point(family, BobRegion.I, gamma, q_r, alpha)
        far = evaluate_point(family, BobRegion.II, gamma, q_r, alpha)
        assert abs(near.cond_entropy + far.cond_entropy) <= 1e-12
        assert abs(near.mutual_info + far.mutual_info - 2.0 * near.s_a) <= 1e-12

    @settings(deadline=None, database=None)
    @given(
        family=st.sampled_from([f for f in ChannelFamily if f.is_quantum]),
        region=st.sampled_from(list(BobRegion)),
        gamma=st.floats(0.0, PI4),
        alpha=st.floats(0.0, math.pi),
    )
    def test_pure_channels_at_equal_weights(self, family, region, gamma, alpha):
        # at q_r = q_l the wedge swap adds S(B_I) = S(B_II) to the sum rule,
        # so either rail has CE = 0 and MI = S(A) in both wedges
        r = evaluate_point(family, region, gamma, 1 / math.sqrt(2), alpha)
        assert abs(r.cond_entropy) <= 1e-12
        assert abs(r.mutual_info - r.s_a) <= 1e-12

    @settings(deadline=None, database=None)
    @given(
        family=st.sampled_from(list(ChannelFamily)),
        region=st.sampled_from(list(BobRegion)),
        gamma=st.floats(0.0, PI4),
        q_r=st.floats(0.0, 1.0),
        alpha=st.floats(0.0, math.pi),
        f=st.floats(0.0, 1.0),
        boundary=st.sampled_from(
            [("gamma", 0.0, 1.0), ("gamma", PI4, -1.0), ("q_r", 0.0, 1.0),
             ("q_r", 1.0, -1.0), ("f", 0.0, 1.0), ("f", 1.0, -1.0)]
        ),
    )
    def test_continuity_at_boundaries(self, family, region, gamma, q_r, alpha, f, boundary):
        # a boundary value moved inward by 1e-9 moves no measure by 1e-6
        name, edge, inward = boundary
        werner = family is ChannelFamily.WERNER
        assume(werner or name != "f")
        point = dict(gamma=gamma, q_r=q_r, alpha=PI4 if werner else alpha, f=f if werner else None)
        at_edge, inside = (
            evaluate_point(family, region, **{**point, name: value}, with_ssa=True)
            for value in (edge, edge + inward * 1e-9)
        )
        for field in ("s_a", "s_b", "s_ab", "mutual_info", "cond_entropy", "ssa_value"):
            assert abs(getattr(at_edge, field) - getattr(inside, field)) < 1e-6, field

    def test_jacobi_agrees_with_two_level_closed_form(self):
        # rank <= 2 reductions: Alice marginals plus classical reductions at gamma = 0
        def binary_entropy_from_purity(trace, purity):
            gap = math.sqrt(max(0.0, 2.0 * purity - trace * trace))
            lam = ((trace + gap) / 2.0, (trace - gap) / 2.0)
            return entropy_from_eigenvalues(lam)

        rng = np.random.default_rng(31)
        cases = []
        for _ in range(10):
            family = list(ChannelFamily)[int(rng.integers(5))]
            f = float(rng.uniform()) if family is ChannelFamily.WERNER else None
            spec = ChannelSpec(
                family,
                AccelerationParams(float(rng.uniform(0, PI4)), float(rng.uniform())),
                fidelity_f=f,
            )
            reduced = partial_trace(build_joint(spec), BobRegion.I.traced_factors)
            cases.append(partial_trace(reduced, BobRegion.I.kept_factors))
        for family in (ChannelFamily.CLASSICAL_SINGLE_RAIL, ChannelFamily.CLASSICAL_DUAL_RAIL):
            # at gamma = 0, q_r = 1 the classical reductions are exactly rank 2
            spec = ChannelSpec(family, AccelerationParams(0.0, 1.0))
            cases.append(partial_trace(build_joint(spec), BobRegion.I.traced_factors))
        for rho in cases:
            closed = binary_entropy_from_purity(rho.trace(), rho.purity())
            assert abs(von_neumann_entropy(rho) - closed) < 1e-9


class TestBobIsometryEntropyConsistency:
    def test_encoded_basis_reaches_both_wedges(self):
        from unruh_lab import Encoding

        # at gamma = pi/4 every encoding spreads weight over both wedges
        iso = bob_isometries(Encoding.SINGLE_RAIL, [PI4], [0.8])[0]
        weights = np.abs(iso) ** 2
        assert weights[:8].sum() > 0 and weights[8:].sum() > 0
