import copy
import math
import pickle
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unruh_lab import (
    BELL_ALPHA,
    AccelerationParams,
    BobRegion,
    ChannelFamily,
    ChannelSpec,
    DensityMatrix,
    DomainError,
    Encoding,
    INERTIAL_LAYOUT,
    JOINT_LAYOUT,
    NormalizationError,
    ShapeError,
    StateVector,
    Subsystem,
    build_inertial,
    build_joint,
    eigvals_hermitian,
    evaluate_point,
    gamma_from_acceleration,
    outer_product,
    partial_trace,
    unruh_antiparticle,
    unruh_particle,
    unruh_vacuum,
)
from unruh_lab import crosscheck, fock, states
from unruh_lab.states import (
    CLASSICAL_PAIR,
    JOINT_FACTORS,
    QUANTUM_PAIR,
    REGION_I_FACTORS,
    REGION_II_FACTORS,
    RINDLER_FACTORS,
    bob_isometries,
)

from helpers import assert_same_bits, bell_state, count_calls

PI4 = math.pi / 4


class TestAccelerationParams:
    def test_q_l_derived(self):
        accel = AccelerationParams(0.3, 0.8)
        assert abs(accel.q_r**2 + accel.q_l**2 - 1.0) < 1e-15

    @pytest.mark.parametrize("gamma", (-0.1, PI4 + 0.1, pytest.param(10**400, id="huge-int")))
    def test_gamma_range(self, gamma):
        with pytest.raises(DomainError) as excinfo:
            AccelerationParams(gamma, 1.0)
        assert excinfo.value.param == "gamma"

    @pytest.mark.parametrize("q_r", (-0.01, 1.01))
    def test_q_r_range(self, q_r):
        with pytest.raises(DomainError) as excinfo:
            AccelerationParams(0.0, q_r)
        assert excinfo.value.param == "q_r"


class TestGammaFromAcceleration:
    def test_infinite_acceleration_limit(self):
        assert abs(gamma_from_acceleration(1.0, 1e12, 1.0) - PI4) < 1e-9

    def test_inertial_limit(self):
        assert gamma_from_acceleration(1.0, 1e-2, 1.0) < 1e-9

    def test_monotone_in_acceleration(self):
        # below a ~ 0.3 the closed form underflows to exactly 0, so start above
        values = [
            gamma_from_acceleration(1.0, a, 1.0) for a in np.logspace(-0.3, 3, 40)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("name,args", [
        ("omega", (0.0, 1.0, 1.0)),
        ("acceleration", (1.0, -1.0, 1.0)),
        ("light_speed", (1.0, 1.0, 0.0)),
        ("omega", (math.nan, 1.0, 1.0)),
        ("acceleration", (1.0, math.inf, 1.0)),
        ("light_speed", (1.0, 1.0, math.nan)),
        ("acceleration", (1.0, 10**400, 1.0)),  # an int beyond the floats
    ])
    def test_positive_inputs_required(self, name, args):
        with pytest.raises(DomainError) as excinfo:
            gamma_from_acceleration(*args)
        assert excinfo.value.param == name


class TestUnruhStates:
    def test_vacuum_at_zero(self):
        amps = unruh_vacuum(AccelerationParams(0.0)).amplitudes
        assert amps[0] == 1.0 and np.count_nonzero(amps) == 1

    def test_vacuum_at_infinite_acceleration(self):
        amps = unruh_vacuum(AccelerationParams(PI4)).amplitudes
        expected = np.zeros(16)
        expected[[0b0000, 0b0011, 0b1100, 0b1111]] = [0.5, -0.5, 0.5, -0.5]
        assert np.allclose(amps, expected, atol=1e-12)

    def test_vacuum_ignores_q_r(self):
        a = unruh_vacuum(AccelerationParams(0.5, 1.0)).amplitudes
        b = unruh_vacuum(AccelerationParams(0.5, 0.3)).amplitudes
        assert np.array_equal(a, b)

    def test_vacuum_unit_norm_everywhere(self):
        for gamma in np.linspace(0.0, PI4, 100):
            amps = unruh_vacuum(AccelerationParams(float(gamma))).amplitudes
            assert abs(np.linalg.norm(amps) - 1.0) < 1e-12

    def test_particle_limits(self):
        assert unruh_particle(AccelerationParams(0.0, 1.0)).amplitudes[0b1000] == 1.0
        assert unruh_particle(AccelerationParams(0.0, 0.0)).amplitudes[0b0001] == 1.0

    def test_particle_beyond_single_mode_point(self):
        amps = unruh_particle(AccelerationParams(PI4, 1 / math.sqrt(2))).amplitudes
        expected = np.zeros(16)
        expected[[0b1000, 0b1011, 0b1101, 0b0001]] = [0.5, -0.5, 0.5, 0.5]
        assert np.allclose(amps, expected, atol=1e-12)

    def test_antiparticle_limits(self):
        assert unruh_antiparticle(AccelerationParams(0.0, 1.0)).amplitudes[0b0010] == 1.0
        assert unruh_antiparticle(AccelerationParams(0.0, 0.0)).amplitudes[0b0100] == 1.0

    def test_pairwise_orthonormal_on_grid(self):
        for gamma in np.linspace(0.0, PI4, 7):
            for q_r in np.linspace(0.0, 1.0, 7):
                accel = AccelerationParams(float(gamma), float(q_r))
                kets = [
                    unruh_vacuum(accel).amplitudes,
                    unruh_particle(accel).amplitudes,
                    unruh_antiparticle(accel).amplitudes,
                ]
                gram = np.array([[np.vdot(a, b) for b in kets] for a in kets])
                assert np.abs(gram - np.eye(3)).max() < 1e-12


class TestBobIsometry:
    def test_single_rail_at_zero(self):
        iso = bob_isometries(Encoding.SINGLE_RAIL, [0.0], [1.0])[0]
        assert iso[0b0000, 0] == 1.0
        assert iso[0b1000, 1] == 1.0

    def test_dual_rail_at_zero(self):
        iso = bob_isometries(Encoding.DUAL_RAIL, [0.0], [1.0])[0]
        assert iso[0b1000, 0] == 1.0
        assert iso[0b0010, 1] == 1.0

    def test_unknown_encoding_is_a_domain_error(self):
        with pytest.raises(DomainError, match="^encoding: unknown encoding 'dual'$") as excinfo:
            bob_isometries("dual", [0.1], [0.9])
        assert excinfo.value.param == "encoding"

    def test_gamma_and_q_r_counts_must_agree(self):
        for gammas, q_rs in (([0.1, 0.2], [0.9, 0.8, 0.7]), ([0.1, 0.2, 0.3], [0.9, 0.8])):
            message = f"{len(gammas)} gamma values for {len(q_rs)} q_r values"
            with pytest.raises(ShapeError, match=f"^{message}$"):
                bob_isometries(Encoding.SINGLE_RAIL, gammas, q_rs)

    def test_isometric_on_grid(self):
        for gamma in np.linspace(0.0, PI4, 10):
            for q_r in np.linspace(0.0, 1.0, 10):
                iso = bob_isometries(Encoding.SINGLE_RAIL, [float(gamma)], [float(q_r)])[0]
                gram = iso.T @ iso
                assert np.abs(gram - np.eye(2)).max() < 1e-12


class TestStateTable:
    """The state and encoding tables in ``states``, against the oracle's own amplitudes."""

    BUILDERS = {
        "vacuum": unruh_vacuum,
        "particle": unruh_particle,
        "antiparticle": unruh_antiparticle,
    }
    BASIS = {Encoding.SINGLE_RAIL: (0, 1), Encoding.DUAL_RAIL: (1, 2)}  # of the oracle's triple

    @settings(deadline=None, database=None)
    @given(
        points=st.lists(
            st.tuples(
                st.sampled_from([0.0, PI4]) | st.floats(0.0, PI4),
                st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @example(points=[(0.0, 0.0), (0.0, 1.0), (PI4, 0.0), (PI4, 1.0)])
    def test_states_and_isometry_columns_equal_the_oracle_bit_for_bit(self, points):
        oracle = [crosscheck._unruh_vectors(gamma, q_r) for gamma, q_r in points]
        for (gamma, q_r), vectors in zip(points, oracle):
            accel = AccelerationParams(gamma, q_r)
            for build, want in zip(self.BUILDERS.values(), vectors):
                assert_same_bits(build(accel).amplitudes, want)
        gammas, q_rs = zip(*points)
        for encoding, basis in self.BASIS.items():
            isometries = bob_isometries(encoding, gammas, q_rs)
            for isometry, vectors in zip(isometries, oracle):
                for j, state in enumerate(basis):
                    assert_same_bits(isometry[:, j], vectors[state])

    def test_isometries_of_repeated_unsorted_points_equal_the_oracle(self):
        # repeated values, either order, signed zeros: each point's columns are
        # its own, in a stack and alone
        gammas = [0.3, 0.0, -0.0, PI4, 0.3, 0.1, -0.0, 0.0, 0.3, 0.1]
        q_rs = [0.8, 1.0, 0.0, -0.0, 0.8, 0.8, 1.0, 0.5, 0.0, -0.0]
        oracle = [crosscheck._unruh_vectors(gamma, q_r) for gamma, q_r in zip(gammas, q_rs)]
        for encoding, basis in self.BASIS.items():
            stacked = bob_isometries(encoding, gammas, q_rs)
            alone = [bob_isometries(encoding, [g], [q])[0] for g, q in zip(gammas, q_rs)]
            for isometries in (stacked, alone):
                for isometry, vectors in zip(isometries, oracle):
                    for j, state in enumerate(basis):
                        assert_same_bits(isometry[:, j], vectors[state])

    def test_each_call_builds_only_the_states_it_reads(self, monkeypatch):
        asked = []
        real = states._rindler_amplitudes

        def recorded(names, gammas, q_rs):
            asked.append(tuple(names))
            return real(names, gammas, q_rs)

        monkeypatch.setattr(states, "_rindler_amplitudes", recorded)
        bob_isometries(Encoding.SINGLE_RAIL, [0.1, 0.2], [0.9, 0.8])
        bob_isometries(Encoding.DUAL_RAIL, [0.3], [0.7])
        assert asked == [("vacuum", "particle"), ("particle", "antiparticle")]
        asked.clear()
        for build in self.BUILDERS.values():
            build(AccelerationParams(0.4, 0.6))
        assert asked == [("vacuum",), ("particle",), ("antiparticle",)]

    def test_dual_rail_is_the_second_member_of_each_pair(self):
        dual = {f for f in ChannelFamily if f.encoding is Encoding.DUAL_RAIL}
        assert dual == {QUANTUM_PAIR[1], CLASSICAL_PAIR[1]}
        assert dual == {ChannelFamily.QUANTUM_DUAL_RAIL, ChannelFamily.CLASSICAL_DUAL_RAIL}


class TestChannelSpec:
    def test_werner_requires_f(self):
        with pytest.raises(DomainError) as excinfo:
            ChannelSpec(ChannelFamily.WERNER, AccelerationParams(0.1))
        assert excinfo.value.param == "f"

    def test_werner_f_range(self):
        with pytest.raises(DomainError) as excinfo:
            ChannelSpec(ChannelFamily.WERNER, AccelerationParams(0.1), fidelity_f=1.5)
        assert excinfo.value.param == "f"

    def test_werner_alpha_pinned(self):
        with pytest.raises(DomainError) as excinfo:
            ChannelSpec(
                ChannelFamily.WERNER, AccelerationParams(0.1), alpha=0.7, fidelity_f=0.5
            )
        assert excinfo.value.param == "alpha"

    @pytest.mark.parametrize("alpha", [1e300, -0.1, math.nan])
    def test_alpha_range(self, alpha):
        with pytest.raises(DomainError, match=r"alpha: must be within \[0, pi\]"):
            ChannelSpec(ChannelFamily.QUANTUM_SINGLE_RAIL, AccelerationParams(0.1), alpha=alpha)

    def test_f_rejected_elsewhere(self):
        with pytest.raises(DomainError) as excinfo:
            ChannelSpec(
                ChannelFamily.QUANTUM_SINGLE_RAIL, AccelerationParams(0.1), fidelity_f=0.5
            )
        assert excinfo.value.param == "f"


class TestBuildInertial:
    def test_quantum_bell_projector(self):
        spec = ChannelSpec(ChannelFamily.QUANTUM_SINGLE_RAIL, AccelerationParams(0.0), alpha=PI4)
        rho = build_inertial(spec)
        corners = rho.entries[np.ix_((0, 3), (0, 3))]
        assert np.allclose(corners, 0.5, atol=1e-12)
        assert abs(rho.purity() - 1.0) < 1e-12

    def test_classical_squared_weights(self):
        spec = ChannelSpec(ChannelFamily.CLASSICAL_SINGLE_RAIL, AccelerationParams(0.0), alpha=PI4)
        rho = build_inertial(spec)
        assert np.allclose(np.diag(rho.entries), [0.5, 0.0, 0.0, 0.5], atol=1e-12)
        assert np.abs(rho.entries - np.diag(np.diag(rho.entries))).max() == 0.0

    # The unsquared weights cos(alpha), sin(alpha) sum to one only at
    # isolated alpha values, which is why build_inertial squares them.
    @staticmethod
    def raw_weights(alpha):
        return np.diag([math.cos(alpha), 0.0, 0.0, math.sin(alpha)])

    def test_classical_raw_weights_fail_trace(self):
        with pytest.raises(NormalizationError):
            DensityMatrix(INERTIAL_LAYOUT, self.raw_weights(PI4))

    def test_classical_raw_weights_at_alpha_zero(self):
        rho = DensityMatrix(INERTIAL_LAYOUT, self.raw_weights(0.0))
        assert np.allclose(np.diag(rho.entries), [1.0, 0.0, 0.0, 0.0])

    def test_werner_zero_fidelity_is_white_noise(self):
        spec = ChannelSpec(ChannelFamily.WERNER, AccelerationParams(0.0), fidelity_f=0.0)
        assert np.allclose(build_inertial(spec).entries, np.eye(4) / 4, atol=1e-12)

    @pytest.mark.parametrize("f", [-0.0, 0.0, 0.33, 1.0])
    def test_werner_has_the_bits_of_the_outer_product_construction(self, f):
        # the Bell projector as an outer product plus the noise times the
        # identity, whose +0 off the diagonal turns the -0 of F = -0.0 into +0
        bell = np.zeros(4)
        bell[0b00] = bell[0b11] = math.sqrt(0.5)
        want = f * np.outer(bell, bell)
        want += (1.0 - f) / 4.0 * np.eye(4)
        spec = ChannelSpec(ChannelFamily.WERNER, AccelerationParams(0.2, 0.7), fidelity_f=f)
        assert_same_bits(build_inertial(spec).entries, want)
        assert not np.signbit(want).any()

    @pytest.mark.parametrize("alpha", [-0.0, 0.0, PI4, math.pi / 2, 3 * PI4, math.pi])
    @pytest.mark.parametrize("family", QUANTUM_PAIR + CLASSICAL_PAIR, ids=lambda f: f.value)
    def test_pure_and_classical_states_keep_their_bits(self, family, alpha):
        # the quantum state as the outer product of its amplitude vector,
        # the classical one as the diagonal of its squared weights
        amps = np.zeros(4)
        amps[0b00] = math.cos(alpha)
        amps[0b11] = math.sin(alpha)
        if family.is_quantum:
            want = outer_product(StateVector(INERTIAL_LAYOUT, amps)).entries
        else:
            want = np.diag(amps * amps)
        got = build_inertial(ChannelSpec(family, AccelerationParams(0.2, 0.7), alpha)).entries
        assert_same_bits(got, want)

    def test_werner_interpolates(self):
        spec = ChannelSpec(ChannelFamily.WERNER, AccelerationParams(0.0), fidelity_f=0.6)
        bell = outer_product(bell_state(INERTIAL_LAYOUT)).entries
        assert np.allclose(
            build_inertial(spec).entries, 0.6 * bell + 0.1 * np.eye(4), atol=1e-12
        )


class TestBuildJoint:
    def test_inertial_single_rail_lift(self):
        spec = ChannelSpec(
            ChannelFamily.QUANTUM_SINGLE_RAIL, AccelerationParams(0.0, 1.0), alpha=PI4
        )
        joint = build_joint(spec)
        assert joint.layout == JOINT_LAYOUT
        expected = np.zeros(32)
        expected[0b00000] = expected[0b11000] = math.sqrt(0.5)
        assert np.allclose(joint.entries, np.outer(expected, expected), atol=1e-12)

    def test_werner_fidelity_one_is_pure(self):
        spec = ChannelSpec(
            ChannelFamily.WERNER, AccelerationParams(0.4, 0.6), fidelity_f=1.0
        )
        assert abs(build_joint(spec).purity() - 1.0) < 1e-12

    def test_joint_is_checked_once(self, monkeypatch):
        # one check for the prepared state, one for the joint
        calls = count_calls(monkeypatch, (fock, "check_density_stack"), (fock, "check_traces"))
        spec = ChannelSpec(ChannelFamily.QUANTUM_DUAL_RAIL, AccelerationParams(0.3, 0.8), 0.4)
        build_joint(spec)
        assert calls == {"check_density_stack": 2, "check_traces": 2}

    def test_spectrum_padded_with_zeros(self):
        rng = np.random.default_rng(17)
        families = list(ChannelFamily)
        for _ in range(20):
            family = families[int(rng.integers(len(families)))]
            f = float(rng.uniform()) if family is ChannelFamily.WERNER else None
            alpha = PI4 if family is ChannelFamily.WERNER else float(rng.uniform(0, math.pi))
            spec = ChannelSpec(
                family,
                AccelerationParams(float(rng.uniform(0, PI4)), float(rng.uniform())),
                alpha=alpha,
                fidelity_f=f,
            )
            inertial_eigs = eigvals_hermitian(build_inertial(spec))
            joint_eigs = eigvals_hermitian(build_joint(spec))
            assert np.allclose(joint_eigs[:4], inertial_eigs, atol=1e-10)
            assert np.allclose(joint_eigs[4:], 0.0, atol=1e-10)


class TestReduceToRegion:
    def test_inertial_region_one_is_maximally_entangled(self):
        spec = ChannelSpec(
            ChannelFamily.QUANTUM_SINGLE_RAIL, AccelerationParams(0.0, 1.0), alpha=PI4
        )
        near = partial_trace(build_joint(spec), BobRegion.I.traced_factors)
        assert abs(near.purity() - 1.0) < 1e-12
        record = evaluate_point(spec.family, BobRegion.I, 0.0, 1.0, alpha=PI4)
        assert abs(record.mutual_info - 2.0) < 1e-9

    def test_inertial_region_two_is_product_vacuum(self):
        spec = ChannelSpec(
            ChannelFamily.QUANTUM_SINGLE_RAIL, AccelerationParams(0.0, 1.0), alpha=PI4
        )
        far = partial_trace(build_joint(spec), BobRegion.II.traced_factors)
        alice = partial_trace(far, BobRegion.II.kept_factors)
        wedge = np.zeros((4, 4))
        wedge[0, 0] = 1.0
        assert np.allclose(far.entries, np.kron(alice.entries, wedge), atol=1e-12)

    def test_traces_preserved(self):
        spec = ChannelSpec(
            ChannelFamily.CLASSICAL_DUAL_RAIL, AccelerationParams(0.5, 0.7)
        )
        joint = build_joint(spec)
        for region in BobRegion:
            assert abs(partial_trace(joint, region.traced_factors).trace() - 1.0) < 1e-12

    def test_schmidt_complement(self):
        from unruh_lab import von_neumann_entropy

        spec = ChannelSpec(
            ChannelFamily.QUANTUM_DUAL_RAIL, AccelerationParams(0.6, 0.8), alpha=PI4
        )
        joint = build_joint(spec)
        near = partial_trace(joint, BobRegion.I.traced_factors)
        complement = partial_trace(
            joint, {Subsystem.ALICE} | BobRegion.I.kept_factors
        )
        assert (
            abs(von_neumann_entropy(near) - von_neumann_entropy(complement)) < 1e-9
        )

    def test_bell_alpha_constant(self):
        assert BELL_ALPHA == PI4

    def test_region_two_unpopulated_at_inertial_limit(self):
        # every family: at gamma = 0, q_r = 1 the far wedge is vacuum and
        # carries no correlation with Alice
        for family in ChannelFamily:
            f = 0.6 if family is ChannelFamily.WERNER else None
            spec = ChannelSpec(family, AccelerationParams(0.0, 1.0), fidelity_f=f)
            far = partial_trace(build_joint(spec), BobRegion.II.traced_factors)
            wedge = partial_trace(far, {Subsystem.ALICE})
            assert abs(wedge.entries[0, 0] - 1.0) < 1e-12
            record = evaluate_point(family, BobRegion.II, 0.0, 1.0, f=f)
            assert abs(record.mutual_info) < 1e-9


class TestBobRegion:
    def test_wedges_split_the_rindler_factors(self):
        for region in BobRegion:
            kept, traced = region.kept_factors, region.traced_factors
            assert not kept & traced
            assert kept | traced == frozenset(RINDLER_FACTORS)

    def test_traced_factors_are_the_other_wedges_kept_factors(self):
        # the module's own frozensets, whose cached hashes key the plan caches
        assert BobRegion.I.kept_factors is REGION_I_FACTORS
        assert BobRegion.II.kept_factors is REGION_II_FACTORS
        assert BobRegion.I.traced_factors is BobRegion.II.kept_factors
        assert BobRegion.II.traced_factors is BobRegion.I.kept_factors


class TestPlanKeys:
    """The plan caches' keys are hashed in C, and identity hashing stays sound."""

    MEMBERS = list(Subsystem) + list(Encoding)

    def test_keys_hash_without_a_python_call(self):
        keys = [
            (JOINT_FACTORS, frozenset({Subsystem.ALICE})),
            (RINDLER_FACTORS, frozenset(REGION_I_FACTORS)),
            (Encoding.SINGLE_RAIL, (frozenset(REGION_II_FACTORS), frozenset(JOINT_FACTORS[:2]))),
        ]
        calls = []
        sys.setprofile(lambda frame, event, arg: calls.append(event) if event == "call" else None)
        try:
            for key in keys:
                hash(key)
        finally:
            sys.setprofile(None)
        assert calls == []

    def test_members_survive_copies_as_themselves(self):
        # identity is equality only while every copy is the member itself
        for member in self.MEMBERS:
            assert copy.copy(member) is member
            assert copy.deepcopy(member) is member
            assert pickle.loads(pickle.dumps(member)) is member
            assert type(member)(member.value) is member
