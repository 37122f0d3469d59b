"""The cross-check oracle must itself be trustworthy: these tests pin it
against LAPACK, closed forms, and the production tensor machinery."""

import math

import numpy as np
import pytest

from unruh_lab import (
    AccelerationParams,
    BobRegion,
    ChannelFamily,
    ChannelSpec,
    build_joint,
    reduce_to_region,
)
from unruh_lab import crosscheck

from helpers import random_hermitian

PI4 = math.pi / 4


def lapack_entropy(matrix):
    lam = np.linalg.eigvalsh(matrix)
    lam = lam[lam > 1e-14]
    return float(-(lam * np.log2(lam)).sum())


class TestCharpolyEigensolver:
    def test_coefficients_exact_for_diagonal(self):
        m = np.diag([0.125, 0.125, 0.375, 0.375]).astype(complex)
        got = crosscheck.charpoly_coefficients(m)
        want = np.polynomial.polynomial.polyfromroots([0.125, 0.125, 0.375, 0.375])[::-1]
        assert np.abs(got - want).max() < 1e-15

    def test_generic_random_matrices(self):
        rng = np.random.default_rng(51)
        for n in (2, 3, 4, 5, 8):
            for _ in range(10):
                h = random_hermitian(rng, n)
                got = crosscheck.eigvals_charpoly(h)
                want = np.sort(np.linalg.eigvalsh(h))[::-1]
                assert np.abs(got - want).max() < 1e-9

    def test_multiplicity_four_exact(self):
        m = np.diag([0.125, 0.125, 0.125, 0.125, 0.25, 0.25]).astype(complex)
        got = crosscheck.eigvals_charpoly(m)
        assert np.abs(got - np.array([0.25, 0.25, 0.125, 0.125, 0.125, 0.125])).max() < 1e-12

    def test_rank_deficient_projector(self):
        psi = np.zeros(8)
        psi[0] = psi[7] = math.sqrt(0.5)
        rho = np.outer(psi, psi)
        got = crosscheck.eigvals_charpoly(rho)
        assert np.allclose(got, [1.0] + [0.0] * 7, atol=1e-12)

    def test_entropy_on_random_density_matrices(self):
        rng = np.random.default_rng(53)
        for n in (4, 5, 8):
            for rank in (1, 2, n):
                for _ in range(8):
                    x = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
                    m = x @ x.conj().T
                    m /= np.trace(m).real
                    assert abs(crosscheck.brute_entropy(m) - lapack_entropy(m)) < 1e-8

    @pytest.mark.parametrize(
        "family, gamma, q_r, f, keep",
        [
            # 7.3e-8 next to an almost-zero eigenvalue (the wedge-II state)
            (ChannelFamily.CLASSICAL_SINGLE_RAIL, 0.01958023143816604, 0.23047247273079485, None, [0, 2, 4]),
            # 2.9e-8 next to three almost-zero ones (the AC part of strong additivity)
            (ChannelFamily.QUANTUM_SINGLE_RAIL, 0.007130148334669238, 0.04672711869894153, None, [0, 2, 4]),
            # three eigenvalues near 0.177, 1e-6 apart, and three near 5.6e-7 (wedge I)
            (ChannelFamily.WERNER, 0.0017801907250700143, 1.0, 0.29207680903593525, [0, 1, 3]),
        ],
    )
    def test_close_eigenvalues_kept_apart(self, family, gamma, q_r, f, keep):
        joint = crosscheck.brute_joint_matrix(family, gamma, q_r, PI4, f)
        reduced = crosscheck.brute_partial_trace(joint, 5, keep)
        got = crosscheck.eigvals_charpoly(reduced)
        want = np.sort(np.linalg.eigvalsh(reduced))[::-1]
        assert np.abs(got - want).max() < 1e-12
        assert abs(crosscheck.brute_entropy(reduced) - lapack_entropy(reduced)) < 1e-10

    def test_psd_violation_rejected(self):
        with pytest.raises(ValueError):
            crosscheck.brute_entropy(np.diag([1.5, -0.5]).astype(complex))


class TestBrutePartialTrace:
    def test_matches_production_on_random_states(self):
        rng = np.random.default_rng(59)
        for _ in range(6):
            family = list(ChannelFamily)[int(rng.integers(5))]
            f = float(rng.uniform()) if family is ChannelFamily.WERNER else None
            spec = ChannelSpec(
                family,
                AccelerationParams(float(rng.uniform(0, PI4)), float(rng.uniform())),
                fidelity_f=f,
            )
            joint = build_joint(spec)
            for region, keep in ((BobRegion.I, [0, 1, 3]), (BobRegion.II, [0, 2, 4])):
                mine = crosscheck.brute_partial_trace(joint.entries, 5, keep)
                reference = reduce_to_region(joint, region).entries
                assert np.abs(mine - reference).max() < 1e-12

    def test_trace_preserved(self):
        rng = np.random.default_rng(61)
        x = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        m = x @ x.conj().T
        m /= np.trace(m).real
        reduced = crosscheck.brute_partial_trace(m, 5, [0, 2])
        assert abs(np.trace(reduced).real - 1.0) < 1e-12


class TestBruteStates:
    def test_joint_matches_production(self):
        rng = np.random.default_rng(67)
        for _ in range(8):
            family = list(ChannelFamily)[int(rng.integers(5))]
            f = float(rng.uniform()) if family is ChannelFamily.WERNER else None
            gamma = float(rng.uniform(0, PI4))
            q_r = float(rng.uniform())
            spec = ChannelSpec(
                family, AccelerationParams(gamma, q_r), fidelity_f=f
            )
            produced = build_joint(spec).entries
            brute = crosscheck.brute_joint_matrix(family, gamma, q_r, PI4, f)
            assert np.abs(produced - brute).max() < 1e-12

    def test_entropies_match_lapack_on_endpoint_grid(self):
        # includes the degenerate infinite-acceleration corner
        for family in ChannelFamily:
            f = 0.7 if family is ChannelFamily.WERNER else None
            for gamma in (0.0, PI4 / 2, PI4):
                for q_r in (1.0, 0.8, 1 / math.sqrt(2), 0.25):
                    for region in BobRegion:
                        reduced = crosscheck.brute_region_matrix(
                            family, region, gamma, q_r, fidelity_f=f
                        )
                        assert (
                            abs(crosscheck.brute_entropy(reduced) - lapack_entropy(reduced))
                            < 1e-10
                        )
