"""The cross-check oracle must itself be trustworthy: these tests pin it
against LAPACK, closed forms, and the production tensor machinery."""

import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unruh_lab import (
    AccelerationParams,
    BobRegion,
    ChannelFamily,
    ChannelSpec,
    build_joint,
    partial_trace,
)
from unruh_lab import crosscheck, verify
from unruh_lab.fock import PSD_TOL

from helpers import (
    assert_same_bits,
    brute_mutual_information,
    brute_tripartite_entropies,
    charpoly_coefficients,
    check7_matrices,
    count_calls,
    per_block_eigvals_charpoly,
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
                got = crosscheck.eigvals_charpoly_batch([h])[0]
                want = np.sort(np.linalg.eigvalsh(h))[::-1]
                assert np.abs(got - want).max() < 1e-9

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_diagonal_entry_rejected(self, bad):
        # the entry is a 1x1 block of its own: NaN passed the trace and PSD tests
        matrix = np.diag([0.5, bad, 0.5])
        with pytest.raises(ValueError, match="non-finite entry"):
            crosscheck.eigvals_charpoly_batch([matrix])[0]
        with pytest.raises(ValueError, match="non-finite entry"):
            crosscheck.brute_entropy_batch([matrix])[0]

    @pytest.mark.parametrize("imag", [0.0, 1e-300])
    def test_complex_matrix_rejected(self, imag):
        # the oracle is real: an imaginary part, even a zero one, is not dropped
        matrix = np.eye(2) / 2 + 0j
        matrix[0, 1] += imag * 1j
        with pytest.raises(ValueError, match="complex"):
            crosscheck.eigvals_charpoly_batch([matrix])[0]
        with pytest.raises(ValueError, match="complex"):
            crosscheck.brute_entropy_batch([matrix])[0]

    def test_non_finite_entry_inside_a_block_rejected(self):
        matrix = random_hermitian(np.random.default_rng(61), 4)
        matrix[1, 2] = matrix[2, 1] = math.nan
        with pytest.raises(ValueError, match="non-finite entry"):
            crosscheck.eigvals_charpoly_batch([matrix])[0]

    def test_multiplicity_four_exact(self):
        m = np.diag([0.125, 0.125, 0.125, 0.125, 0.25, 0.25])
        got = crosscheck.eigvals_charpoly_batch([m])[0]
        assert np.abs(got - np.array([0.25, 0.25, 0.125, 0.125, 0.125, 0.125])).max() < 1e-12

    def test_rank_deficient_projector(self):
        psi = np.zeros(8)
        psi[0] = psi[7] = math.sqrt(0.5)
        rho = np.outer(psi, psi)
        got = crosscheck.eigvals_charpoly_batch([rho])[0]
        assert np.allclose(got, [1.0] + [0.0] * 7, atol=1e-12)

    def test_entropy_on_random_density_matrices(self):
        rng = np.random.default_rng(53)
        for n in (4, 5, 8):
            for rank in (1, 2, n):
                for _ in range(8):
                    x = rng.normal(size=(n, rank))
                    m = x @ x.T
                    m /= np.trace(m)
                    assert abs(crosscheck.brute_entropy_batch([m])[0] - lapack_entropy(m)) < 1e-8

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
        got = crosscheck.eigvals_charpoly_batch([reduced])[0]
        want = np.sort(np.linalg.eigvalsh(reduced))[::-1]
        assert np.abs(got - want).max() < 1e-12
        assert abs(crosscheck.brute_entropy_batch([reduced])[0] - lapack_entropy(reduced)) < 1e-10

    def test_lost_mass_rejected(self, monkeypatch):
        # a refinement that drops every root leaves the trace unmatched
        monkeypatch.setattr(crosscheck, "_exact_newton", lambda coeffs, start: 0.0)
        message = f"root refinement lost mass: eigenvalue sum {np.float64(0.0)!r} vs trace 1.0"
        with pytest.raises(ValueError) as raised:
            crosscheck.eigvals_charpoly_batch([np.array([[0.5, 0.25], [0.25, 0.5]])])[0]
        assert str(raised.value) == message

    @pytest.mark.parametrize("exponent", [0, -20, -500])
    def test_lost_mass_rejected_at_any_scale(self, monkeypatch, exponent):
        # every root 5% high misses the trace by 5% of the spectrum, however
        # small the spectrum is
        newton = crosscheck._exact_newton
        monkeypatch.setattr(crosscheck, "_exact_newton",
                            lambda coeffs, start: 1.05 * newton(coeffs, start))
        block = np.array([[3.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 1.0]]) * 2.0**exponent
        with pytest.raises(ValueError, match="root refinement lost mass"):
            crosscheck.eigvals_charpoly_batch([block])

    def test_newton_keeps_a_start_where_the_derivative_vanishes(self):
        # p(x) = x**2 - 1 at x = 0, where a step would divide by p'(0) = 0
        assert crosscheck._exact_newton([1, 0, -1], 0.0) == 0.0
        assert crosscheck._exact_newton([1, 0, -1], 0.5) == 1.0

    def test_psd_violation_rejected(self):
        with pytest.raises(ValueError):
            crosscheck.brute_entropy_batch([np.diag([1.5, -0.5])])[0]

    def test_psd_tolerance_is_the_production_one(self):
        # an eigenvalue within -PSD_TOL is dropped as 0 log 0, one below raises
        low = -PSD_TOL / 2
        got = crosscheck.brute_entropy_batch([np.diag([1.0 - low, low])])[0]
        assert got == -(1.0 - low) * math.log2(1.0 - low)
        with pytest.raises(ValueError, match="below the PSD tolerance"):
            crosscheck.brute_entropy_batch([np.diag([1.0 + 2 * PSD_TOL, -2 * PSD_TOL])])[0]

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
                    got = crosscheck.eigvals_charpoly_batch([sub])[0]
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
        coeffs = crosscheck._exact_charpoly(matrix.tolist())
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
            crosscheck.brute_entropy_batch([np.diag([0.25, 0.75])])[0],
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


@st.composite
def symmetric_matrices(draw):
    """Real symmetric dyadic matrices of size 1-8 with random exact zeros.

    Some repeat their first row and column, so a block's determinant is an
    exact zero and is deflated.  Some are scaled by 2**-500 (about 3e-151):
    unscaled by the oracle, their float coefficients would underflow to
    zero at the tail.
    """
    n = draw(st.integers(1, 8))
    entries = draw(st.lists(st.integers(-(2**20), 2**20), min_size=n * n, max_size=n * n))
    zeros = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    a = np.array(entries, dtype=float).reshape(n, n) * 2.0**-20
    a[np.array(zeros).reshape(n, n)] = 0.0
    a = np.triu(a) + np.triu(a, 1).T
    if n > 1 and draw(st.booleans()):
        a[-1, :] = a[0, :]
        a[:, -1] = a[:, 0]
    return a * draw(st.sampled_from([1.0, 2.0**-500]))


def assert_batch_matches_reference(matrices, order):
    """Alone, in ``matrices``' batch and in the ``order`` batch, each matrix
    gets the bits of the per-block reference."""
    want = [per_block_eigvals_charpoly(matrix) for matrix in matrices]
    for got, expected in zip(crosscheck.eigvals_charpoly_batch(matrices), want, strict=True):
        assert_same_bits(got, expected)
    shuffled = crosscheck.eigvals_charpoly_batch([matrices[i] for i in order])
    for got, i in zip(shuffled, order, strict=True):
        assert_same_bits(got, want[i])
    for matrix, expected in zip(matrices, want):
        assert_same_bits(crosscheck.eigvals_charpoly_batch([matrix])[0], expected)


class TestBatchedSolve:
    """One companion eigensolve per degree gives each matrix its one-at-a-time bits."""

    @settings(deadline=None, database=None, max_examples=60)
    @given(matrices=st.lists(symmetric_matrices(), min_size=1, max_size=6), data=st.data())
    def test_random_batches_equal_the_per_block_reference(self, matrices, data):
        order = data.draw(st.permutations(range(len(matrices))))
        assert_batch_matches_reference(matrices, order)

    def test_check_7_matrices_equal_the_per_block_reference(self):
        matrices = check7_matrices()
        assert len(matrices) == 300
        assert_batch_matches_reference(matrices, list(reversed(range(300))))

    def test_tiny_blocks_are_solved_at_the_scale_of_one(self):
        # a 3x3 block at 2**-500: unscaled, c_3 = det underflows as a float,
        # not as an integer, and the solve found a 0 root
        matrix = np.array([[3.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 1.0]]) * 2.0**-500
        coeffs = crosscheck._exact_charpoly(matrix.tolist())
        assert coeffs[-1] != 0 and coeffs[-1] / coeffs[0] == 0.0
        # a traceless 2x2 block at 2**-1000: unscaled, its whole float tail
        # underflows, and Newton stayed at its two 0 estimates, where p'(0) = 0
        traceless = np.array([[-7.0, 2.0], [2.0, 7.0]]) / 8 * 2.0**-1000
        exact = crosscheck._exact_charpoly(traceless.tolist())
        assert_same_bits(np.array([c / exact[0] for c in exact]), np.array([1.0, 0.0, -0.0]))
        # the eigenvalues are +-sqrt(53) / 8 * 2**-1000
        got = crosscheck.eigvals_charpoly_batch([matrix, traceless, matrix / 2**-500])
        assert got[1].tolist() == [8.492827122963756e-302, -8.492827122963756e-302]
        for eigs, tiny in zip(got, (matrix, traceless, matrix / 2**-500)):
            want = np.linalg.eigvalsh(tiny)[::-1]
            assert np.abs(eigs - want).max() <= 2e-15 * np.abs(want).max()
        # the scaled-back roots of the 2**-500 block are those at scale 1, exactly
        assert_same_bits(got[0], np.ldexp(got[2], -500))
        assert_batch_matches_reference([matrix, traceless, matrix / 2**-500], [2, 0, 1])

    def test_check_7_solves_its_oracle_once(self, monkeypatch):
        calls = count_calls(
            monkeypatch,
            (crosscheck, "eigvals_charpoly_batch"),
            (crosscheck, "brute_joint_matrix"),
            (np.linalg, "eigvals"),
        )
        passed, detail = verify._check_oracle_equivalence(verify._SeriesTables())
        assert passed and detail.endswith(" is 1.332e-15")
        # one joint per channel, and one stack per degree: the blocks of
        # these 300 matrices have at most 3 rows, and none deflates below 2
        assert calls == {"eigvals_charpoly_batch": 1, "brute_joint_matrix": 50, "eigvals": 2}

    def test_list_form_equals_the_batches_of_one(self):
        rng = np.random.default_rng(97)
        channels = []
        for family in ChannelFamily:
            werner = family is ChannelFamily.WERNER
            alpha = PI4 if werner else float(rng.uniform(0.0, math.pi))
            f = float(rng.uniform()) if werner else None
            channels.append((family, float(rng.uniform(0.0, PI4)), float(rng.uniform()), alpha, f))
        got = crosscheck.brute_subsystem_entropies_batch(channels, tuple(BobRegion))
        assert got == [
            [crosscheck.brute_subsystem_entropies(family, region, *point) for region in BobRegion]
            for family, *point in channels
        ]
        regions = (BobRegion.II,)
        assert crosscheck.brute_subsystem_entropies_batch(channels, regions) == [
            [entropies[1]] for entropies in got
        ]


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

    def test_one_joint_and_one_subsystem_entropies_batch(self, monkeypatch):
        # both wedges' triples, as check 7 reads them, from one joint
        calls = count_calls(
            monkeypatch,
            (crosscheck, "brute_joint_matrix"),
            (crosscheck, "brute_subsystem_entropies_batch"),
            (crosscheck, "eigvals_charpoly_batch"),
        )
        crosscheck.brute_strong_additivity(ChannelFamily.WERNER, 0.3, 0.6, PI4, 0.4)
        assert calls == {
            "brute_joint_matrix": 1,
            "brute_subsystem_entropies_batch": 1,
            "eigvals_charpoly_batch": 1,
        }


class TestBlockSplit:
    def test_blocks_are_an_exact_permutation(self):
        for matrix in oracle_matrices(71, 30):
            n = matrix.shape[0]
            blocks = crosscheck._blocks(matrix.tolist())
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
            assert sorted(map(len, crosscheck._blocks(shuffled.tolist()))) == sorted(sizes)
            got = crosscheck.eigvals_charpoly_batch([shuffled])[0]
            want = np.sort(np.linalg.eigvalsh(shuffled))[::-1]
            assert np.abs(got - want).max() < 1e-12


class TestOracleIndependence:
    def test_imports_only_state_labels_from_the_package(self):
        # an oracle that borrowed the production machinery (fock, measures,
        # sweep, output) would turn check 7 into a self-comparison; it shares
        # only the eigenvalue tolerance, a constant
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
        assert package_imports == [
            ("fock", ["PSD_TOL"]),
            ("states", ["BobRegion", "ChannelFamily", "Encoding"]),
        ]


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
                        entropy = crosscheck.brute_entropy_batch([reduced])[0]
                        assert abs(entropy - lapack_entropy(reduced)) < 1e-10
