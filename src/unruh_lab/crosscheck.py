"""Brute-force cross-checks for the verification suite.

Everything here recomputes results of the main modules along a deliberately
different route and shares none of their machinery: joint states are
assembled as explicit 32-component arrays (:func:`brute_joint_matrix`),
reductions add the matrix's views at each pattern of the discarded bits
(:func:`brute_partial_trace`), and eigenvalues come from exact
characteristic polynomials (:func:`eigvals_charpoly_batch`, whose docstring
holds its rules), not from Jacobi rotations.  Apart from solving a list of
matrices at once, the code is plain: it optimizes for being obviously
correct, not for speed.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .fock import PSD_TOL
from .states import BobRegion, ChannelFamily, Encoding


def _dyadic(x: float) -> tuple[int, int]:
    """(m, s) with x = m / 2**s; raises for NaN and infinities, as Fraction does."""
    num, den = x.as_integer_ratio()
    return num, den.bit_length() - 1


def _exact_charpoly(rows: list[list[float]]) -> list[int]:
    """Exact monic characteristic polynomial via division-free Faddeev-LeVerrier.

    Float entries are dyadic rationals, so with ``shift`` the largest
    denominator exponent, G = 2**shift * A is a matrix of integers.  The
    recursion N_1 = G, N_{k+1} = G (k N_k - tr(N_k) I) gives
    c_k = -tr(N_k) / (k! 2**(shift k)), the coefficients of the stored
    matrix without any rounding.  They come back as integers
    [a_0, ..., a_n] in descending powers over the common denominator
    Q = a_0 = n! 2**(shift n), so c_k = a_k / Q.  ``rows`` is the matrix as
    a list of rows of floats.
    """
    n = len(rows)
    parts = [[_dyadic(x) for x in row] for row in rows]
    shift = max(e for row in parts for _, e in row)
    g = [[num << (shift - e) for num, e in row] for row in parts]
    n_k = g
    denominator = math.factorial(n) << (shift * n)
    coeffs = [denominator]
    for k in range(1, n + 1):
        trace = sum(n_k[i][i] for i in range(n))
        coeffs.append(-trace * (denominator // (math.factorial(k) << (shift * k))))
        if k == n:
            break
        m = [[k * x for x in row] for row in n_k]
        for i in range(n):
            m[i][i] -= trace
        columns = list(zip(*m))
        n_k = [[sum(x * y for x, y in zip(row, col)) for col in columns] for row in g]
    return coeffs


def _eval_scaled(coeffs: list[int], m: int, s: int) -> int:
    """sum a_k m**(deg-k) 2**(s k): the polynomial at x = m / 2**s, times 2**(s deg) a_0."""
    acc = 0
    for k, a in enumerate(coeffs):
        acc = acc * m + (a << (s * k))
    return acc


def _exact_newton(coeffs: list[int], start: float) -> float:
    """Newton against the exact polynomial, at most 60 steps; each must reduce |p(x)| exactly.

    The residual comparison runs in integer arithmetic, so at a multiple
    root (where the derivative vanishes and an unguarded step would divide
    noise by noise) the start value is simply kept.
    """
    degree = len(coeffs) - 1
    deriv = [a * (degree - k) for k, a in enumerate(coeffs[:-1])]
    x = start
    m, s = _dyadic(x)
    val = _eval_scaled(coeffs, m, s)
    for _ in range(60):
        if val == 0:
            break
        dval = _eval_scaled(deriv, m, s)
        if dval == 0:
            break
        candidate = x - val / (dval << s)
        m_c, s_c = _dyadic(candidate)
        candidate_val = _eval_scaled(coeffs, m_c, s_c)
        # |p(candidate)| < |p(x)|, both sides scaled by 2**((s + s_c) degree) a_0
        if abs(candidate_val) << (s * degree) >= abs(val) << (s_c * degree):
            break
        x, m, s, val = candidate, m_c, s_c, candidate_val
    return x


def _blocks(rows: list[list[float]]) -> list[list[int]]:
    """Index sets of the connected components of the exact nonzero pattern.

    Entries are compared with exact zero, so the matrix restricted to these
    blocks is a permutation of the original with nothing rounded or dropped.
    Wedge states split into blocks of at most 3, joints of at most 8.
    """
    unseen = set(range(len(rows)))
    blocks = []
    while unseen:
        frontier = [unseen.pop()]
        block = []
        while frontier:
            i = frontier.pop()
            block.append(i)
            for j in [j for j in unseen if rows[i][j] != 0 or rows[j][i] != 0]:
                unseen.discard(j)
                frontier.append(j)
        blocks.append(sorted(block))
    return blocks


def _root_estimates(polynomials: list[list[int]]) -> list[list[float]]:
    """The real parts of the companion-matrix eigenvalues of each exact
    polynomial, one eigensolve per degree.

    Each companion matrix is built as ``np.roots`` builds it, from the
    coefficients divided by the leading one, each rounded once; unlike
    ``np.roots``, a tail that underflows to zero is kept.  The companions
    of one size are solved as a single stack, and LAPACK solves each matrix
    of a stack as it would solve it alone.
    """
    estimates = []
    companions: dict[int, list] = {}
    for reduced in polynomials:
        roots = []
        estimates.append(roots)
        if len(reduced) > 1:
            companion = np.diag(np.ones(len(reduced) - 2), -1)
            companion[0, :] = [-a / reduced[0] for a in reduced[1:]]
            companions.setdefault(len(reduced) - 1, []).append((companion, roots))
    for group in companions.values():
        solved = np.linalg.eigvals(np.stack([companion for companion, _ in group]))
        for (_, roots), values in zip(group, solved.real.tolist()):
            roots[:] = values
    return estimates


def eigvals_charpoly_batch(matrices) -> list[np.ndarray]:
    """Eigenvalues of each real symmetric matrix of a list, in descending order.

    Each matrix is split into the connected components of its exact nonzero
    pattern; its spectrum is the union of the blocks' spectra.  A 1x1 block
    is its diagonal entry.  A larger block is first scaled by the power of
    two that puts its largest entry in [0.5, 1), exactly for every entry
    that stays a normal float, so that the float coefficients of a tiny
    block do not underflow.  Its exact characteristic polynomial
    (:func:`_exact_charpoly`) loses its exactly-zero trailing coefficients
    as zero eigenvalues; the rest are the roots of the deflated polynomial,
    whose companion-matrix estimates (see ``_root_estimates``, one
    eigensolve per degree for the whole list) are Newton-refined against it
    with exact residuals (:func:`_exact_newton`), then scaled back.  A
    matrix's eigenvalues are the same bits whatever else is in the list.
    Each eigenvalue sum must reproduce its matrix's trace.  A complex
    matrix, or a NaN or infinite entry, raises ``ValueError`` before the
    matrix is split, whatever block the entry would fall in.
    """
    spectra = []  # per matrix, its trace and its blocks' eigenvalues in block order
    polynomials = []  # (deflated polynomial, zero eigenvalues, scale, the block's eigenvalues)
    for matrix in matrices:
        a = np.asarray(matrix)
        if a.dtype.kind == "c":
            raise ValueError("matrix is complex; the oracle is real")
        a = a.astype(float)
        if not np.isfinite(a).all():
            raise ValueError("matrix has a non-finite entry")
        rows = a.tolist()
        blocks = []
        for block in _blocks(rows):
            if len(block) == 1:
                blocks.append([rows[block[0]][block[0]]])
                continue
            n = len(block)
            scale = math.frexp(max(abs(rows[i][j]) for i in block for j in block))[1]
            scaled = [[math.ldexp(rows[i][j], -scale) for j in block] for i in block]
            coeffs = _exact_charpoly(scaled)
            zeros = 0
            while zeros < n and coeffs[n - zeros] == 0:
                zeros += 1
            blocks.append([])  # filled once the whole list has its root estimates
            polynomials.append((coeffs[: n + 1 - zeros], zeros, scale, blocks[-1]))
        spectra.append((float(np.trace(a)), blocks))
    estimates = _root_estimates([reduced for reduced, *_ in polynomials])
    for (reduced, zeros, scale, eigs), starts in zip(polynomials, estimates):
        eigs.extend(math.ldexp(_exact_newton(reduced, x), scale) for x in starts)
        eigs.extend([0.0] * zeros)
    results = []
    for trace, blocks in spectra:
        eigs = np.sort([lam for block in blocks for lam in block])[::-1]
        if abs(eigs.sum() - trace) > 1e-6 * max(1.0, abs(trace)):
            raise ValueError(
                f"root refinement lost mass: eigenvalue sum {eigs.sum()!r} vs trace {trace!r}"
            )
        results.append(eigs)
    return results


def brute_entropy_batch(matrices) -> list[float]:
    """Von Neumann entropy in bits of each matrix, from one ``eigvals_charpoly_batch`` call."""
    entropies = []
    for eigs in eigvals_charpoly_batch(matrices):
        total = 0.0
        for lam in eigs.tolist():
            if lam < -PSD_TOL:
                raise ValueError(f"eigenvalue {lam:.3e} below the PSD tolerance")
            if lam > 0.0:
                total -= lam * math.log2(lam)
        entropies.append(total)
    return entropies


def brute_partial_trace(matrix: np.ndarray, n_factors: int, keep: list[int]) -> np.ndarray:
    """Partial trace by explicit summation over discarded bit patterns.

    ``keep`` lists the retained factor positions (0 = most significant bit);
    their order in the output follows their original order.  The matrix is
    read as 2 * ``n_factors`` binary axes, rows then columns.  For each
    pattern of the discarded bits, in ascending order with the first
    discarded factor most significant, the view whose row and column axes
    both read that pattern is added into a zero array.
    """
    drop = [i for i in range(n_factors) if i not in keep]
    axes = np.asarray(matrix).reshape((2,) * (2 * n_factors))
    out = np.zeros((2 ** len(keep),) * 2)
    for pattern in itertools.product((0, 1), repeat=len(drop)):
        index = [slice(None)] * (2 * n_factors)
        for i, bit in zip(drop, pattern):
            index[i] = index[n_factors + i] = bit
        out += axes[tuple(index)].reshape(out.shape)
    return out


def _unruh_vectors(gamma: float, q_r: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    c, s = math.cos(gamma), math.sin(gamma)
    q_l = math.sqrt(max(0.0, 1.0 - q_r * q_r))
    vac = np.zeros(16)
    vac[0b0000], vac[0b0011], vac[0b1100], vac[0b1111] = c * c, -s * c, s * c, -s * s
    one = np.zeros(16)
    one[0b1000], one[0b1011], one[0b1101], one[0b0001] = q_r * c, -q_r * s, q_l * s, q_l * c
    anti = np.zeros(16)
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
        psi = np.zeros(32)
        psi[alice_bit * 16 : alice_bit * 16 + 16] = bob_vector
        return psi

    if family.is_quantum:
        psi = math.cos(alpha) * lifted(0, bob0) + math.sin(alpha) * lifted(1, bob1)
        return np.outer(psi, psi)
    if family.is_classical:
        branch0 = lifted(0, bob0)
        branch1 = lifted(1, bob1)
        return math.cos(alpha) ** 2 * np.outer(branch0, branch0) + math.sin(
            alpha
        ) ** 2 * np.outer(branch1, branch1)
    # Werner: Bell projector plus the lifted white-noise term, which is the
    # uniform mixture of the four lifted inertial basis states
    bell = (lifted(0, bob0) + lifted(1, bob1)) / math.sqrt(2.0)
    out = fidelity_f * np.outer(bell, bell)
    for alice_bit in (0, 1):
        for bob_vector in (bob0, bob1):
            branch = lifted(alice_bit, bob_vector)
            out += (1.0 - fidelity_f) / 4.0 * np.outer(branch, branch)
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


def brute_subsystem_entropies_batch(channels, regions) -> list[list[tuple[float, float, float]]]:
    """Each wedge's (S(Alice), S(wedge modes), S(joint reduction)), channel by channel.

    ``channels`` lists ``(family, gamma, q_r, alpha, fidelity_f)`` tuples.
    Each channel's joint is built once for all ``regions``, and every
    entropy comes from one ``brute_entropy_batch`` call.  The result holds
    one list per channel, with one triple per region in ``regions`` order.
    """
    matrices = []
    for family, gamma, q_r, alpha, fidelity_f in channels:
        joint = brute_joint_matrix(family, gamma, q_r, alpha, fidelity_f)
        for region in regions:
            reduced = brute_partial_trace(joint, 5, _REGION_KEEP[region])
            matrices += [
                brute_partial_trace(reduced, 3, [0]),
                brute_partial_trace(reduced, 3, [1, 2]),
                reduced,
            ]
    entropies = brute_entropy_batch(matrices)
    triples = [tuple(entropies[k : k + 3]) for k in range(0, len(entropies), 3)]
    width = len(regions)
    return [triples[k : k + width] for k in range(0, len(triples), width)]


def brute_subsystem_entropies(
    family: ChannelFamily,
    region: BobRegion,
    gamma: float,
    q_r: float,
    alpha: float = math.pi / 4,
    fidelity_f: float | None = None,
) -> tuple[float, float, float]:
    """(S(Alice), S(wedge modes), S(joint reduction)) for one wedge: a batch of one."""
    channel = (family, gamma, q_r, alpha, fidelity_f)
    return brute_subsystem_entropies_batch([channel], (region,))[0][0]


def brute_strong_additivity(
    family: ChannelFamily,
    gamma: float,
    q_r: float,
    alpha: float = math.pi / 4,
    fidelity_f: float | None = None,
) -> float:
    """S(AB) - S(B) + S(AC) - S(C) with A = Alice, B = region I, C = region II:
    each wedge's entropies from one :func:`brute_subsystem_entropies_batch` call."""
    channel = (family, gamma, q_r, alpha, fidelity_f)
    wedges = brute_subsystem_entropies_batch([channel], tuple(BobRegion))[0]
    return sum(s_ab - s_b for _, s_b, s_ab in wedges)
