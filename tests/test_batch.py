"""The batched evaluation path against the single-point functions it replaces.

Every batched stage must reproduce its scalar counterpart bit for bit, so
the comparisons here use ``==``, not a tolerance: the golden figure files
pin the scalar path's rounding.
"""

import math

import numpy as np
import pytest

from unruh_lab import (
    AccelerationParams,
    BobRegion,
    ChannelFamily,
    ChannelSpec,
    ConvergenceError,
    FigurePreset,
    Measure,
    SpectrumError,
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
    reduce_to_region,
    run_sweep,
)
from unruh_lab import crosscheck, fock, states
from unruh_lab.fock import eigvals_hermitian_batch, trace_out
from unruh_lab.measures import (
    JOINT_TRIPARTITE,
    entropies_from_eigenvalues,
    region_split,
    ssa_discards,
)
from unruh_lab.states import JOINT_LAYOUT, bob_isometries, build_joints

from helpers import random_hermitian

PI4 = math.pi / 4
SAMPLES_PER_PRESET = 40


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
        reduced = reduce_to_region(joint, region)
        split = region_split(region)
        parts = [partial_trace(reduced, split.side_b), partial_trace(reduced, split.side_a)]
        parts.append(reduced)
        parts += [partial_trace(joint, discard) for discard in ssa_discards(JOINT_TRIPARTITE)]
        for part in parts:
            by_dim.setdefault(part.dim, []).append(part.entries)
    return {dim: np.array(matrices) for dim, matrices in by_dim.items()}


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

    def test_nan_matrix_does_not_converge(self):
        # as in the scalar solver, where the convergence test fails on NaN
        nan_matrix = np.full((3, 3), math.nan)
        with pytest.raises(ConvergenceError, match="still nan"):
            eigvals_hermitian(nan_matrix)
        with pytest.raises(ConvergenceError, match="still nan"):
            eigvals_hermitian_batch(np.array([np.eye(3) / 3, nan_matrix]))


class TestBatchedEntropy:
    def test_bit_equal_on_preset_spectra(self, matrices):
        for stack in matrices.values():
            eigs = np.array([eigvals_hermitian(m) for m in stack])
            want = np.array([entropy_from_eigenvalues(row) for row in eigs])
            assert (entropies_from_eigenvalues(eigs) == want).all()

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
            joints = build_joints(inertial, bob_isometries(family.encoding, gammas, q_rs))
            reduced = {
                region: trace_out(joints, JOINT_LAYOUT, region.traced_factors)
                for region in BobRegion
            }
            for i, (_, region, gamma, q_r, alpha, f) in enumerate(points):
                want = crosscheck.brute_joint_matrix(family, gamma, q_r, alpha, f)
                assert np.abs(joints[i] - want).max() < 1e-12
                stack, layout = reduced[region]
                assert layout.factors == tuple(JOINT_LAYOUT.factors[k] for k in keep[region])
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
            joints = build_joints(inertial, bob_isometries(family.encoding, gammas, q_rs))
            for joint, (_, _, gamma, q_r, alpha, f) in zip(joints, points):
                spec = ChannelSpec(family, AccelerationParams(gamma, q_r), alpha, f)
                assert (joint == build_joint(spec).entries).all()


class TestSweepBatches:
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

    def corrupted(gammas, q_rs):
        rows = np.array(gammas) == bad_gamma
        columns = real(gammas, q_rs)
        for column in columns:
            column[rows] *= factor
        return columns

    monkeypatch.setattr(states, "_rindler_amplitudes", corrupted)


class TestSweepFailures:
    def test_failure_names_the_failing_point(self, monkeypatch):
        corrupt_amplitudes_at(monkeypatch, 0.2)
        with pytest.raises(SweepPointError, match=r"gamma=0\.2 .*state norm is"):
            run_sweep(four_point_spec())

    def test_earlier_point_failing_at_a_later_stage_wins(self, monkeypatch):
        # point 3 fails when its isometry is checked; point 1, all NaN,
        # passes every check until its first eigensolve does not converge
        corrupt_amplitudes_at(monkeypatch, 0.3)
        corrupt_amplitudes_at(monkeypatch, 0.1, factor=math.nan)
        with pytest.raises(SweepPointError, match=r"gamma=0\.1 .*after 100 sweeps"):
            run_sweep(four_point_spec())

    def test_out_of_domain_point_in_a_batch(self):
        spec = four_point_spec()
        object.__setattr__(spec, "gamma_grid", (0.0, 0.1, math.nan, 0.3))
        with pytest.raises(SweepPointError, match=r"gamma=nan .*gamma: must be within"):
            run_sweep(spec)
