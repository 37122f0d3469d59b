"""Brute-force cross-checks for the verification suite.

Everything here recomputes results of the main modules along a deliberately
different route and shares none of their machinery: joint states are
assembled as explicit 32-component arrays, reductions sum over index pairs
built from occupation bit patterns, and eigenvalues come from
characteristic polynomials instead of Jacobi rotations.  A matrix is first
split into the connected components of its exact nonzero pattern (wedge
states into blocks of at most 3, joints of at most 8), which permutes
entries without arithmetic.  Every float is a dyadic rational, so a
larger-than-1x1 block scaled by a power of two is a matrix of integers: a
division-free Faddeev-LeVerrier recursion in Python integers gives its
exact characteristic polynomial, and the companion-matrix roots are
Newton-refined against that polynomial with exact integer residuals.  Like
every amplitude of the model, everything here is real; a complex matrix
raises ``ValueError`` rather than lose its imaginary part.

The strong-additivity sum adds each wedge's S(AB) - S(B) from the wedge
entropies that check 7 compares.  The code is intentionally plain; it
optimizes for being obviously correct, not for speed.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .states import BobRegion, ChannelFamily, Encoding

_CLAMP = 1e-8  # same eigenvalue clamping policy as the production path


def _dyadic(x: float) -> tuple[int, int]:
    """(m, s) with x = m / 2**s; raises for NaN and infinities, as Fraction does."""
    num, den = x.as_integer_ratio()
    return num, den.bit_length() - 1


def _exact_charpoly(matrix: np.ndarray) -> list[int]:
    """Exact monic characteristic polynomial via division-free Faddeev-LeVerrier.

    Float entries are dyadic rationals, so with ``shift`` the largest
    denominator exponent, G = 2**shift * A is a matrix of integers.  The
    recursion N_1 = G, N_{k+1} = G (k N_k - tr(N_k) I) gives
    c_k = -tr(N_k) / (k! 2**(shift k)), the coefficients of the stored
    matrix without any rounding.  They come back as integers
    [a_0, ..., a_n] in descending powers over the common denominator
    Q = a_0 = n! 2**(shift n), so c_k = a_k / Q.
    """
    n = matrix.shape[0]
    parts = [[_dyadic(x) for x in row] for row in matrix.tolist()]
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


def _exact_newton(coeffs: list[int], start: float, steps: int = 60) -> float:
    """Newton against the exact polynomial; steps must reduce |p(x)| exactly.

    The residual comparison runs in integer arithmetic, so at a multiple
    root (where the derivative vanishes and an unguarded step would divide
    noise by noise) the start value is simply kept.
    """
    degree = len(coeffs) - 1
    deriv = [a * (degree - k) for k, a in enumerate(coeffs[:-1])]
    x = start
    m, s = _dyadic(x)
    val = _eval_scaled(coeffs, m, s)
    for _ in range(steps):
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


def _blocks(a: np.ndarray) -> list[list[int]]:
    """Index sets of the connected components of the exact nonzero pattern.

    Entries are compared with exact zero, so the matrix restricted to these
    blocks is a permutation of the original with nothing rounded or dropped.
    """
    linked = (a != 0) | (a != 0).T
    unseen = set(range(a.shape[0]))
    blocks = []
    while unseen:
        frontier = [unseen.pop()]
        block = []
        while frontier:
            i = frontier.pop()
            block.append(i)
            for j in [j for j in unseen if linked[i, j]]:
                unseen.discard(j)
                frontier.append(j)
        blocks.append(sorted(block))
    return blocks


def _block_eigvals(block: np.ndarray) -> list[float]:
    """Eigenvalues of one block from its exact characteristic polynomial.

    Exactly-zero trailing coefficients are deflated as zero eigenvalues, and
    each companion-matrix estimate of the remaining roots is Newton-refined
    against the exact deflated polynomial.
    """
    n = block.shape[0]
    if n == 1:
        return [float(block[0, 0])]
    coeffs = _exact_charpoly(block)
    zeros = 0
    while zeros < n and coeffs[n - zeros] == 0:
        zeros += 1
    reduced = coeffs[: n + 1 - zeros]
    estimates = np.roots([a / reduced[0] for a in reduced]).real
    return [_exact_newton(reduced, float(x)) for x in estimates] + [0.0] * zeros


def eigvals_charpoly(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of a real symmetric matrix, block by block, in descending order.

    The matrix is split into the connected components of its exact nonzero
    pattern; the spectrum is the union of the blocks' spectra.  A 1x1 block
    is its diagonal entry, and a larger one is solved through its exact
    characteristic polynomial (see ``_block_eigvals``).  The eigenvalue sum
    must reproduce the trace of the whole matrix.  A complex matrix, or a
    NaN or infinite entry, raises ``ValueError`` before the split, whatever
    block the entry would fall in.
    """
    a = np.asarray(matrix)
    if a.dtype.kind == "c":
        raise ValueError("matrix is complex; the oracle is real")
    a = a.astype(float)
    if not np.isfinite(a).all():
        raise ValueError("matrix has a non-finite entry")
    eigs = np.sort([lam for b in _blocks(a) for lam in _block_eigvals(a[np.ix_(b, b)])])[::-1]
    trace = float(np.trace(a))
    if abs(eigs.sum() - trace) > 1e-6 * max(1.0, abs(trace)):
        raise ValueError(
            f"root refinement lost mass: eigenvalue sum {eigs.sum()!r} vs trace {trace!r}"
        )
    return eigs


def brute_entropy(matrix: np.ndarray) -> float:
    """Von Neumann entropy in bits via the characteristic-polynomial route."""
    total = 0.0
    for lam in eigvals_charpoly(matrix).tolist():
        if lam < -_CLAMP:
            raise ValueError(f"eigenvalue {lam:.3e} below the PSD tolerance")
        if lam > 0.0:
            total -= lam * math.log2(lam)
    return total


@functools.lru_cache(maxsize=None)
def _trace_indices(n_factors: int, keep: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the summed entries, shaped (traced bits, row bits, col bits).

    ``keep`` lists the retained factor positions (0 = most significant bit)
    in ascending order.
    """
    drop = [i for i in range(n_factors) if i not in keep]
    shifts_keep = [n_factors - 1 - i for i in keep]
    shifts_drop = [n_factors - 1 - i for i in drop]
    dim_out = 2 ** len(keep)
    rows = np.zeros((2 ** len(drop), dim_out, dim_out), dtype=int)
    cols = np.zeros_like(rows)
    for row_bits in range(dim_out):
        for col_bits in range(dim_out):
            for traced_bits in range(2 ** len(drop)):
                row = 0
                col = 0
                for b, shift in enumerate(reversed(shifts_keep)):
                    row |= ((row_bits >> b) & 1) << shift
                    col |= ((col_bits >> b) & 1) << shift
                for b, shift in enumerate(reversed(shifts_drop)):
                    row |= ((traced_bits >> b) & 1) << shift
                    col |= ((traced_bits >> b) & 1) << shift
                rows[traced_bits, row_bits, col_bits] = row
                cols[traced_bits, row_bits, col_bits] = col
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def brute_partial_trace(matrix: np.ndarray, n_factors: int, keep: list[int]) -> np.ndarray:
    """Partial trace by explicit summation over discarded bit patterns.

    ``keep`` lists the retained factor positions (0 = most significant bit);
    their order in the output follows their original order.  Each output
    entry sums its terms in ascending order of the discarded bits.
    """
    rows, cols = _trace_indices(n_factors, tuple(sorted(keep)))
    out = np.zeros(rows.shape[1:])
    for row, col in zip(rows, cols):
        out += matrix[row, col]
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


def brute_strong_additivity(
    family: ChannelFamily,
    gamma: float,
    q_r: float,
    alpha: float = math.pi / 4,
    fidelity_f: float | None = None,
) -> float:
    """S(AB) - S(B) + S(AC) - S(C) with A = Alice, B = region I, C = region II."""
    parts = [brute_subsystem_entropies(family, r, gamma, q_r, alpha, fidelity_f) for r in BobRegion]
    return sum(s_ab - s_b for _, s_b, s_ab in parts)
