"""The cross-check oracle must itself be trustworthy: these tests pin it
against LAPACK, closed forms, and the production tensor machinery."""

import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from unruh_lab import (
    AccelerationParams,
    BobRegion,
    ChannelFamily,
    ChannelSpec,
    build_joint,
    partial_trace,
)
from unruh_lab import crosscheck

from helpers import (
    brute_mutual_information,
    brute_tripartite_entropies,
    charpoly_coefficients,
    random_hermitian,
)

PI4 = math.pi / 4


def components(matrix):
    """Index sets of the connected components of the exact nonzero pattern,
    from the transitive closure of the adjacency (not the oracle's search)."""
    n = matrix.shape[0]
    reach = ((matrix != 0) | (matrix != 0).T | np.eye(n, dtype=bool)).astype(int)
    for _ in range(n.bit_length()):
        reach = ((reach @ reach) > 0).astype(int)
    return sorted({tuple(np.flatnonzero(row)) for row in reach})


def lapack_entropy(matrix):
    lam = np.linalg.eigvalsh(matrix)
    lam = lam[lam > 1e-14]
    return float(-(lam * np.log2(lam)).sum())


class TestCharpolyEigensolver:
    def test_coefficients_exact_for_diagonal(self):
        m = np.diag([0.125, 0.125, 0.375, 0.375])
        got = charpoly_coefficients(m)
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_diagonal_entry_rejected(self, bad):
        # the entry is a 1x1 block of its own: NaN passed the trace and PSD tests
        matrix = np.diag([0.5, bad, 0.5])
        with pytest.raises(ValueError, match="non-finite entry"):
            crosscheck.eigvals_charpoly(matrix)
        with pytest.raises(ValueError, match="non-finite entry"):
            crosscheck.brute_entropy(matrix)

    @pytest.mark.parametrize("imag", [0.0, 1e-300])
    def test_complex_matrix_rejected(self, imag):
        # the oracle is real: an imaginary part, even a zero one, is not dropped
        matrix = np.eye(2) / 2 + 0j
        matrix[0, 1] += imag * 1j
        with pytest.raises(ValueError, match="complex"):
            crosscheck.eigvals_charpoly(matrix)
        with pytest.raises(ValueError, match="complex"):
            crosscheck.brute_entropy(matrix)

    def test_non_finite_entry_inside_a_block_rejected(self):
        matrix = random_hermitian(np.random.default_rng(61), 4)
        matrix[1, 2] = matrix[2, 1] = math.nan
        with pytest.raises(ValueError, match="non-finite entry"):
            crosscheck.eigvals_charpoly(matrix)

    def test_multiplicity_four_exact(self):
        m = np.diag([0.125, 0.125, 0.125, 0.125, 0.25, 0.25])
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
                    x = rng.normal(size=(n, rank))
                    m = x @ x.T
                    m /= np.trace(m)
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
            crosscheck.brute_entropy(np.diag([1.5, -0.5]))

    def test_three_by_three_blocks_match_lapack(self):
        # the 3x3 blocks of quantum-single wedge states, each passed whole: a
        # trigonometric closed form for the cubic would miss these by up to 4e-9
        rng = np.random.default_rng(41)
        blocks = 0
        for _ in range(20):
            gamma, q_r, alpha = rng.uniform(0, PI4), rng.uniform(), rng.uniform(0, math.pi)
            for region in BobRegion:
                reduced = crosscheck.brute_region_matrix(
                    ChannelFamily.QUANTUM_SINGLE_RAIL, region, float(gamma), float(q_r), float(alpha)
                )
                for block in (b for b in components(reduced) if len(b) == 3):
                    sub = reduced[np.ix_(block, block)]
                    got = crosscheck.eigvals_charpoly(sub)
                    want = np.sort(np.linalg.eigvalsh(sub))[::-1]
                    assert np.abs(got - want).max() < 1e-12
                    blocks += 1
        assert blocks == 80


def fraction_charpoly(matrix):
    """Reference Faddeev-LeVerrier in exact rationals, M_{k+1} = A (M_k + c_k I),
    c_k = -tr(M_k) / k, as [1, c_1, ..., c_n]."""
    n = matrix.shape[0]
    a = [[Fraction(x) for x in row] for row in matrix.tolist()]
    m = a
    coeffs = [Fraction(1)]
    for k in range(1, n + 1):
        c = -sum(m[i][i] for i in range(n)) / k
        coeffs.append(c)
        s = [[x + c * (i == j) for j, x in enumerate(row)] for i, row in enumerate(m)]
        m = [[sum(a[i][p] * s[p][j] for p in range(n)) for j in range(n)] for i in range(n)]
    return coeffs


def exact_coefficient_inputs():
    rng = np.random.default_rng(83)
    for n in (1, 2, 3, 5, 8):
        yield random_hermitian(rng, n)
        yield rng.normal(size=(n, n))  # not symmetric
    yield np.array(  # entries from 5e-324 to 1
        [
            [1.0, 5e-324, 0.5],
            [5e-324, 1e-300, 2.0**-600],
            [0.5, -(2.0**-600), 5e-324],
        ]
    )
    yield np.zeros((3, 3))
    yield np.diag([0.125, 0.375, 0.1, 1e-200])


class TestExactCoefficients:
    @pytest.mark.parametrize("matrix", list(exact_coefficient_inputs()))
    def test_integer_coefficients_equal_rational_reference(self, matrix):
        coeffs = crosscheck._exact_charpoly(matrix)
        want = fraction_charpoly(matrix)
        assert [Fraction(a, coeffs[0]) for a in coeffs] == want
        assert charpoly_coefficients(matrix).tolist() == [float(c) for c in want]

    @pytest.mark.parametrize(
        "bad, error",
        [
            (math.nan, ValueError),
            (math.inf, OverflowError),
            (-math.inf, OverflowError),
        ],
    )
    def test_non_finite_entry_raises(self, bad, error):
        matrix = np.eye(3)
        matrix[1, 2] = bad
        with pytest.raises(error):
            charpoly_coefficients(matrix)

    def test_entropies_are_python_floats(self):
        args = (ChannelFamily.WERNER, 0.3, 0.8, PI4, 0.6)
        region_args = (ChannelFamily.QUANTUM_DUAL_RAIL, BobRegion.II, 0.3, 0.8)
        values = [
            crosscheck.brute_entropy(np.diag([0.25, 0.75])),
            *crosscheck.brute_subsystem_entropies(*region_args),
            brute_mutual_information(*region_args),
            *brute_tripartite_entropies(*args).values(),
            crosscheck.brute_strong_additivity(*args),
        ]
        assert [type(v) for v in values] == [float] * 11


def oracle_matrices(seed, count):
    """Seeded wedge states and five reductions of the joint, for every
    family: Alice with either wedge, Alice alone, and either wedge alone."""
    rng = np.random.default_rng(seed)
    families = list(ChannelFamily)
    for k in range(count):
        family = families[k % len(families)]
        werner = family is ChannelFamily.WERNER
        gamma, q_r = float(rng.uniform(0, PI4)), float(rng.uniform())
        alpha = PI4 if werner else float(rng.uniform(0, math.pi))
        f = float(rng.uniform()) if werner else None
        for region in BobRegion:
            yield crosscheck.brute_region_matrix(family, region, gamma, q_r, alpha, f)
        joint = crosscheck.brute_joint_matrix(family, gamma, q_r, alpha, f)
        for keep in ([0, 1, 3], [0, 2, 4], [0], [1, 3], [2, 4]):
            yield crosscheck.brute_partial_trace(joint, 5, keep)


class TestStrongAdditivityRoute:
    def test_wedge_route_equals_the_five_reduction_split(self):
        # the wedge entropies check 7 reads, against five reductions of the joint
        rng = np.random.default_rng(2929)
        for family in ChannelFamily:
            werner = family is ChannelFamily.WERNER
            points = [
                (gamma, q_r, PI4, f)
                for gamma in (0.0, PI4)
                for q_r in (0.0, 1.0)
                for f in ((0.0, 1.0) if werner else (None,))
            ]
            for _ in range(8):
                alpha = PI4 if werner else float(rng.uniform(0.0, math.pi))
                f = float(rng.uniform()) if werner else None
                points.append((float(rng.uniform(0.0, PI4)), float(rng.uniform()), alpha, f))
            for point in points:
                parts = brute_tripartite_entropies(family, *point)
                split = parts["s_ab"] - parts["s_b"] + parts["s_ac"] - parts["s_c"]
                assert abs(crosscheck.brute_strong_additivity(family, *point) - split) < 1e-12


class TestBlockSplit:
    def test_blocks_are_an_exact_permutation(self):
        for matrix in oracle_matrices(71, 30):
            n = matrix.shape[0]
            blocks = crosscheck._blocks(matrix)
            assert sorted(i for block in blocks for i in block) == list(range(n))
            inside = np.zeros((n, n), dtype=bool)
            for block in blocks:
                inside[np.ix_(block, block)] = True
            assert np.all(matrix[~inside] == 0)
            if n == 8:
                assert max(len(block) for block in blocks) <= 3

    def test_permuted_block_diagonal_matches_lapack(self):
        rng = np.random.default_rng(73)
        for _ in range(10):
            sizes = [int(s) for s in rng.integers(1, 5, size=4)]
            n = sum(sizes)
            matrix = np.zeros((n, n))
            start = 0
            for size in sizes:
                matrix[start : start + size, start : start + size] = random_hermitian(rng, size)
                start += size
            order = rng.permutation(n)
            shuffled = matrix[np.ix_(order, order)]
            assert sorted(map(len, crosscheck._blocks(shuffled))) == sorted(sizes)
            got = crosscheck.eigvals_charpoly(shuffled)
            want = np.sort(np.linalg.eigvalsh(shuffled))[::-1]
            assert np.abs(got - want).max() < 1e-12


class TestOracleIndependence:
    def test_imports_only_state_labels_from_the_package(self):
        # an oracle that borrowed the production machinery (fock, measures,
        # sweep, output) would turn check 7 into a self-comparison
        tree = ast.parse(Path(crosscheck.__file__).read_text())
        package_imports = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert all(a.name.split(".")[0] != "unruh_lab" for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level > 0 or module.split(".")[0] == "unruh_lab":
                    module = module.removeprefix("unruh_lab").lstrip(".")
                    package_imports.append((module, sorted(a.name for a in node.names)))
        assert package_imports == [("states", ["BobRegion", "ChannelFamily", "Encoding"])]


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
                reference = partial_trace(joint, region.traced_factors).entries
                assert np.abs(mine - reference).max() < 1e-12

    def test_trace_preserved(self):
        rng = np.random.default_rng(61)
        x = rng.normal(size=(32, 32))
        m = x @ x.T
        m /= np.trace(m)
        reduced = crosscheck.brute_partial_trace(m, 5, [0, 2])
        assert abs(np.trace(reduced) - 1.0) < 1e-12


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
