"""Brute-force cross-checks for the verification suite.

Everything here recomputes results of the main modules along a deliberately
different route and shares none of their machinery: joint states are
assembled as explicit 32-component arrays, reductions use an index-pair
double loop over occupation bit patterns, and eigenvalues come from the
characteristic polynomial (closed forms for 2x2 and 3x3, exact rational
Faddeev-LeVerrier coefficients plus Newton refinement above that) instead
of Jacobi rotations.

The code is intentionally plain; it optimizes for being obviously correct,
not for speed.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .states import BobRegion, ChannelFamily, Encoding

_CLAMP = 1e-8  # same eigenvalue clamping policy as the production path


def _exact_charpoly(matrix: np.ndarray) -> list[Fraction]:
    """Exact monic characteristic polynomial via Faddeev-LeVerrier.

    Float entries are dyadic rationals, so converting them to ``Fraction``
    and recursing M_k = A (M_{k-1} + c_{k-1} I), c_k = -tr(M_k)/k yields
    the characteristic polynomial of the stored matrix without any rounding.
    Coefficients come back as [1, c_1, ..., c_n] in descending powers.
    """
    n = matrix.shape[0]
    zero = Fraction(0)
    a_re = [[Fraction(matrix[i, j].real) for j in range(n)] for i in range(n)]
    a_im = [[Fraction(matrix[i, j].imag) for j in range(n)] for i in range(n)]
    m_re = [row[:] for row in a_re]
    m_im = [row[:] for row in a_im]
    coeffs = [Fraction(1)]
    for k in range(1, n + 1):
        trace = sum((m_re[i][i] for i in range(n)), zero)
        c_k = -trace / k
        coeffs.append(c_k)
        if k == n:
            break
        for i in range(n):
            m_re[i][i] += c_k
        new_re = [[zero] * n for _ in range(n)]
        new_im = [[zero] * n for _ in range(n)]
        for i in range(n):
            for p in range(n):
                ar, ai = a_re[i][p], a_im[i][p]
                if ar == 0 and ai == 0:
                    continue
                row_re, row_im = m_re[p], m_im[p]
                out_re, out_im = new_re[i], new_im[i]
                for j in range(n):
                    br, bi = row_re[j], row_im[j]
                    if br == 0 and bi == 0:
                        continue
                    out_re[j] += ar * br - ai * bi
                    out_im[j] += ar * bi + ai * br
        m_re, m_im = new_re, new_im
    return coeffs


def charpoly_coefficients(matrix: np.ndarray) -> np.ndarray:
    """Characteristic polynomial coefficients [1, c_{n-1}, ..., c_0] as floats."""
    a = np.asarray(matrix, dtype=complex)
    return np.array([float(c) for c in _exact_charpoly(a)])


def _eigvals_2x2(a: np.ndarray) -> np.ndarray:
    mean = (a[0, 0].real + a[1, 1].real) / 2.0
    half_gap = math.hypot((a[0, 0].real - a[1, 1].real) / 2.0, abs(a[0, 1]))
    return np.array([mean + half_gap, mean - half_gap])


def _eigvals_3x3(a: np.ndarray) -> np.ndarray:
    # trigonometric solution of the depressed cubic for Hermitian 3x3
    off_sq = abs(a[0, 1]) ** 2 + abs(a[0, 2]) ** 2 + abs(a[1, 2]) ** 2
    diag = np.array([a[0, 0].real, a[1, 1].real, a[2, 2].real])
    if off_sq == 0.0:
        return np.sort(diag)[::-1]
    q = diag.sum() / 3.0
    p2 = ((diag - q) ** 2).sum() + 2.0 * off_sq
    p = math.sqrt(p2 / 6.0)
    b = (a - q * np.eye(3)) / p
    det_b = (
        b[0, 0] * (b[1, 1] * b[2, 2] - b[1, 2] * b[2, 1])
        - b[0, 1] * (b[1, 0] * b[2, 2] - b[1, 2] * b[2, 0])
        + b[0, 2] * (b[1, 0] * b[2, 1] - b[1, 1] * b[2, 0])
    )
    r = min(1.0, max(-1.0, det_b.real / 2.0))
    phi = math.acos(r) / 3.0
    eig_hi = q + 2.0 * p * math.cos(phi)
    eig_lo = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    eig_mid = 3.0 * q - eig_hi - eig_lo
    return np.sort(np.array([eig_hi, eig_mid, eig_lo]))[::-1]


def _eval_exact(coeffs: list[Fraction], x: float) -> Fraction:
    fx = Fraction(x)
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * fx + c
    return acc


def _diff_exact(coeffs: list[Fraction]) -> list[Fraction]:
    degree = len(coeffs) - 1
    return [c * (degree - k) for k, c in enumerate(coeffs[:-1])]


def _exact_newton(coeffs: list[Fraction], start: float, steps: int = 60) -> float:
    """Newton against the exact polynomial; steps must reduce |p(x)| exactly.

    The residual comparison runs in rational arithmetic, so at a multiple
    root (where the derivative vanishes and an unguarded step would divide
    noise by noise) the start value is simply kept.
    """
    deriv = _diff_exact(coeffs)
    x = start
    val = _eval_exact(coeffs, x)
    for _ in range(steps):
        if val == 0:
            break
        dval = _eval_exact(deriv, x)
        if dval == 0:
            break
        candidate = x - float(val / dval)
        candidate_val = _eval_exact(coeffs, candidate)
        if abs(candidate_val) >= abs(val):
            break
        x, val = candidate, candidate_val
    return x


def _retry_tiny_root(coeffs: list[Fraction], root: float, band: float) -> float:
    """Second opinion for a near-zero root via the reversed polynomial.

    A root of p much smaller than the others is poorly seeded by the
    companion matrix, but equals the reciprocal of a large, well-separated
    root of x^n p(1/x).  The candidate is kept only when it stays in the
    near-zero band and strictly improves the exact residual.
    """
    if root == 0.0:
        return root
    inverse = _exact_newton(list(reversed(coeffs)), 1.0 / root)
    if inverse == 0.0:
        return root
    candidate = 1.0 / inverse
    if abs(candidate) >= band:
        return root
    if abs(_eval_exact(coeffs, candidate)) < abs(_eval_exact(coeffs, root)):
        return candidate
    return root


def _taylor_shift_exact(coeffs: list[Fraction], x: float) -> list[Fraction]:
    """Coefficients of p(x + t) in powers of t, descending like ``coeffs``.

    Repeated synthetic division by (t - x), exact in rational arithmetic.
    """
    fx = Fraction(x)
    shifted = list(coeffs)
    for k in range(len(shifted) - 1, 0, -1):
        for i in range(1, k + 1):
            shifted[i] += shifted[i - 1] * fx
    return shifted


def _refine_real_roots(
    coeffs: list[Fraction], estimates: np.ndarray, cluster_gap: float, scale: float
) -> np.ndarray:
    """Refine companion-matrix root estimates against the exact polynomial.

    Each estimate is Newton-refined on its own first (the exact residual
    guard lets the iteration creep into multiple roots linearly) and
    near-zero results get a reversed-polynomial second opinion.  Refined
    values closer together than ``cluster_gap`` are then treated as one
    cluster of m roots, which may be a multiple root, close but distinct
    roots (a tiny eigenvalue next to an almost-zero one), or one root that
    two estimates both refined onto while its close neighbour was missed.
    The cluster's roots are taken afresh as the m smallest roots t of
    p(centre + t) around the cluster's mean: the shifted coefficients are
    exact before rounding, so roots that cancel against each other in p
    stand apart in t.
    """
    band = 1e-5 * scale
    singles = []
    for estimate in estimates:
        root = _exact_newton(coeffs, float(estimate))
        if abs(root) < band:
            root = _retry_tiny_root(coeffs, root, band)
        singles.append(root)
    ordered = np.sort(singles)
    refined = np.empty_like(ordered)
    i = 0
    while i < len(ordered):
        j = i + 1
        while j < len(ordered) and ordered[j] - ordered[j - 1] <= cluster_gap:
            j += 1
        if j - i > 1:
            centre = float(ordered[i:j].mean())
            shifts = np.roots([float(c) for c in _taylor_shift_exact(coeffs, centre)])
            refined[i:j] = centre + shifts[np.argsort(np.abs(shifts))][: j - i].real
        else:
            refined[i] = ordered[i]
        i = j
    return refined


def eigvals_charpoly(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix from its characteristic polynomial.

    Descending order.  Exactly-zero trailing coefficients are deflated as
    zero eigenvalues before root finding, then the remaining real roots are
    refined against the exact deflated polynomial.
    """
    a = np.asarray(matrix, dtype=complex)
    n = a.shape[0]
    if n == 1:
        return np.array([a[0, 0].real])
    if n == 2:
        return _eigvals_2x2(a)
    if n == 3:
        return _eigvals_3x3(a)
    coeffs = _exact_charpoly(a)
    zeros = 0
    while zeros < n and coeffs[n - zeros] == 0:
        zeros += 1
    reduced = coeffs[: n + 1 - zeros]
    if len(reduced) > 1:
        first_guess = np.roots(np.array([float(c) for c in reduced])).real
        matrix_scale = max(1.0, float(np.abs(np.diag(a).real).max()))
        roots = _refine_real_roots(reduced, first_guess, 1e-7 * matrix_scale, matrix_scale)
    else:
        roots = np.array([])
    eigs = np.sort(np.concatenate([roots, np.zeros(zeros)]))[::-1]
    trace = float(np.trace(a).real)
    if abs(eigs.sum() - trace) > 1e-6 * max(1.0, abs(trace)):
        raise ValueError(
            f"root refinement lost mass: eigenvalue sum {eigs.sum()!r} vs trace {trace!r}"
        )
    return eigs


def brute_entropy(matrix: np.ndarray) -> float:
    """Von Neumann entropy in bits via the characteristic-polynomial route."""
    total = 0.0
    for lam in eigvals_charpoly(matrix):
        if lam < -_CLAMP:
            raise ValueError(f"eigenvalue {lam:.3e} below the PSD tolerance")
        if lam > 0.0:
            total -= lam * math.log2(lam)
    return total


def brute_partial_trace(matrix: np.ndarray, n_factors: int, keep: list[int]) -> np.ndarray:
    """Partial trace by explicit summation over discarded bit patterns.

    ``keep`` lists the retained factor positions (0 = most significant bit);
    their order in the output follows their original order.
    """
    keep = sorted(keep)
    drop = [i for i in range(n_factors) if i not in keep]
    shifts_keep = [n_factors - 1 - i for i in keep]
    shifts_drop = [n_factors - 1 - i for i in drop]
    dim_out = 2 ** len(keep)
    out = np.zeros((dim_out, dim_out), dtype=complex)
    for row_bits in range(dim_out):
        for col_bits in range(dim_out):
            acc = 0.0 + 0.0j
            for traced_bits in range(2 ** len(drop)):
                row = 0
                col = 0
                for b, shift in enumerate(reversed(shifts_keep)):
                    row |= ((row_bits >> b) & 1) << shift
                    col |= ((col_bits >> b) & 1) << shift
                for b, shift in enumerate(reversed(shifts_drop)):
                    row |= ((traced_bits >> b) & 1) << shift
                    col |= ((traced_bits >> b) & 1) << shift
                acc += matrix[row, col]
            out[row_bits, col_bits] = acc
    return out


def _unruh_vectors(gamma: float, q_r: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    c, s = math.cos(gamma), math.sin(gamma)
    q_l = math.sqrt(max(0.0, 1.0 - q_r * q_r))
    vac = np.zeros(16, dtype=complex)
    vac[0b0000], vac[0b0011], vac[0b1100], vac[0b1111] = c * c, -s * c, s * c, -s * s
    one = np.zeros(16, dtype=complex)
    one[0b1000], one[0b1011], one[0b1101], one[0b0001] = q_r * c, -q_r * s, q_l * s, q_l * c
    anti = np.zeros(16, dtype=complex)
    anti[0b0100], anti[0b0111], anti[0b1110], anti[0b0010] = q_l * c, -q_l * s, q_r * s, q_r * c
    return vac, one, anti


def brute_joint_matrix(
    family: ChannelFamily,
    gamma: float,
    q_r: float,
    alpha: float = math.pi / 4,
    fidelity_f: float | None = None,
) -> np.ndarray:
    """The 32x32 shared state, assembled term by term from the closed forms."""
    vac, one, anti = _unruh_vectors(gamma, q_r)
    if family.encoding is Encoding.SINGLE_RAIL:
        bob0, bob1 = vac, one
    else:
        bob0, bob1 = one, anti

    def lifted(alice_bit: int, bob_vector: np.ndarray) -> np.ndarray:
        psi = np.zeros(32, dtype=complex)
        psi[alice_bit * 16 : alice_bit * 16 + 16] = bob_vector
        return psi

    if family.is_quantum:
        psi = math.cos(alpha) * lifted(0, bob0) + math.sin(alpha) * lifted(1, bob1)
        return np.outer(psi, psi.conj())
    if family.is_classical:
        branch0 = lifted(0, bob0)
        branch1 = lifted(1, bob1)
        return math.cos(alpha) ** 2 * np.outer(branch0, branch0.conj()) + math.sin(
            alpha
        ) ** 2 * np.outer(branch1, branch1.conj())
    # Werner: Bell projector plus the lifted white-noise term, which is the
    # uniform mixture of the four lifted inertial basis states
    bell = (lifted(0, bob0) + lifted(1, bob1)) / math.sqrt(2.0)
    out = fidelity_f * np.outer(bell, bell.conj())
    for alice_bit in (0, 1):
        for bob_vector in (bob0, bob1):
            branch = lifted(alice_bit, bob_vector)
            out += (1.0 - fidelity_f) / 4.0 * np.outer(branch, branch.conj())
    return out


# factor positions in the joint state: (alice, I+, II-, I-, II+)
_REGION_KEEP = {BobRegion.I: [0, 1, 3], BobRegion.II: [0, 2, 4]}


def brute_region_matrix(
    family: ChannelFamily,
    region: BobRegion,
    gamma: float,
    q_r: float,
    alpha: float = math.pi / 4,
    fidelity_f: float | None = None,
) -> np.ndarray:
    """The 8x8 state shared with the receiver in one wedge."""
    joint = brute_joint_matrix(family, gamma, q_r, alpha, fidelity_f)
    return brute_partial_trace(joint, 5, _REGION_KEEP[region])


def brute_subsystem_entropies(
    family: ChannelFamily,
    region: BobRegion,
    gamma: float,
    q_r: float,
    alpha: float = math.pi / 4,
    fidelity_f: float | None = None,
) -> tuple[float, float, float]:
    """(S(Alice), S(wedge modes), S(joint reduction)) for one wedge."""
    reduced = brute_region_matrix(family, region, gamma, q_r, alpha, fidelity_f)
    rho_a = brute_partial_trace(reduced, 3, [0])
    rho_b = brute_partial_trace(reduced, 3, [1, 2])
    return brute_entropy(rho_a), brute_entropy(rho_b), brute_entropy(reduced)


def brute_mutual_information(
    family: ChannelFamily,
    region: BobRegion,
    gamma: float,
    q_r: float,
    alpha: float = math.pi / 4,
    fidelity_f: float | None = None,
) -> float:
    s_a, s_b, s_ab = brute_subsystem_entropies(family, region, gamma, q_r, alpha, fidelity_f)
    return s_a + s_b - s_ab


def brute_tripartite_entropies(
    family: ChannelFamily,
    gamma: float,
    q_r: float,
    alpha: float = math.pi / 4,
    fidelity_f: float | None = None,
) -> dict[str, float]:
    """All marginal entropies of the A = Alice, B = region I, C = region II split."""
    joint = brute_joint_matrix(family, gamma, q_r, alpha, fidelity_f)
    return {
        "s_ab": brute_entropy(brute_partial_trace(joint, 5, [0, 1, 3])),
        "s_ac": brute_entropy(brute_partial_trace(joint, 5, [0, 2, 4])),
        "s_a": brute_entropy(brute_partial_trace(joint, 5, [0])),
        "s_b": brute_entropy(brute_partial_trace(joint, 5, [1, 3])),
        "s_c": brute_entropy(brute_partial_trace(joint, 5, [2, 4])),
    }


def brute_strong_additivity(
    family: ChannelFamily,
    gamma: float,
    q_r: float,
    alpha: float = math.pi / 4,
    fidelity_f: float | None = None,
) -> float:
    """S(AB) - S(B) + S(AC) - S(C) with A = Alice, B = region I, C = region II."""
    parts = brute_tripartite_entropies(family, gamma, q_r, alpha, fidelity_f)
    return parts["s_ab"] - parts["s_b"] + parts["s_ac"] - parts["s_c"]
