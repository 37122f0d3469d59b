"""Dense tensor-product linear algebra over labeled two-level factors.

Layouts (:class:`SubsystemLayout`) order the factors; on them sit unit
state vectors, density matrices, the partial trace (:func:`trace_out`) and
two cyclic Jacobi eigensolvers with the same bits, :func:`eigvals_hermitian`
for one matrix and :func:`eigvals_hermitian_batch` for a stack.  Everything
is small (at most 32x32), immutable and real (:func:`_as_real`).  The checks
(:func:`check_norms`, :func:`check_hermitian`, :func:`check_traces`,
:func:`check_isometries`) take stacks.  The bit rules live with the code
that keeps them: for every partial trace, one term table
(:func:`_trace_terms`) added row after row (:func:`_add_in_order`);
:func:`_plan` and :func:`eigvals_hermitian_batch` for the solvers;
:func:`_within` for the checks.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Union

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    LayoutError,
    NormalizationError,
    ShapeError,
    SymmetryError,
)

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
NORM_TOL = 1e-12
ISOMETRY_TOL = 1e-12
JACOBI_OFF_NORM_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100
PSD_TOL = 1e-8


def _as_real(values, param: str) -> np.ndarray:
    """A float64 copy of ``values``, or of the real part of complex ones whose imaginary
    part is exactly zero; any other complex input raises DomainError naming ``param``.

    The classes and both solvers read a non-float64 input by this, as every
    amplitude of the model is real."""
    a = np.asarray(values)
    if a.dtype.kind == "c":
        if a.imag.any():
            raise DomainError(param, "must be real, got a nonzero imaginary part")
        a = a.real
    return np.array(a, dtype=float)


def _within(defects: np.ndarray, tol: float) -> bool:
    """Whether every entry of ``defects`` is within ``tol`` (NaN is not), by one
    reduction to the largest entry, which is NaN if any entry is: one ufunc call
    where ``np.logical_and.reduce(defects <= tol)`` takes two.

    Every check tests its whole stack so; only a failing stack is searched
    for its first failing item, so a stack of one raises what the single
    item's check raises, and NaN fails every check.  The reductions are
    ufunc methods, not ``.max()`` or ``.all()``, which run a Python frame."""
    return np.maximum.reduce(defects, axis=None, initial=0.0) <= tol


def check_norms(vectors: np.ndarray) -> None:
    """Raise for the first vector of a stack (N, d) off unit norm by more than ``NORM_TOL``;
    a norm is sqrt(sum(v * v)), which np.linalg.norm(v, axis=-1) computes for a real v."""
    norms = np.sqrt(np.add.reduce(vectors * vectors, axis=-1))
    defects = np.abs(norms - 1.0)
    if not _within(defects, NORM_TOL):
        first = norms[~(defects <= NORM_TOL)][0]
        raise NormalizationError(f"state norm is {float(first)!r}, expected 1")


def check_hermitian(matrices: np.ndarray) -> None:
    """Raise for the first matrix (N, n, n) off symmetric by more than ``HERMITIAN_TOL``."""
    defects = np.abs(matrices - matrices.swapaxes(1, 2))
    if not _within(defects, HERMITIAN_TOL):
        _check_hermitian_defects(np.maximum.reduce(defects, axis=(1, 2)))


def _check_hermitian_defects(defects: np.ndarray) -> None:
    """Raise for the first of the matrices' largest defects (N,) beyond ``HERMITIAN_TOL``."""
    if not _within(defects, HERMITIAN_TOL):
        raise _symmetry_error(defects[~(defects <= HERMITIAN_TOL)][0])


def _symmetry_error(defect: float) -> SymmetryError:
    return SymmetryError(f"Hermiticity defect {float(defect):.3e} exceeds {HERMITIAN_TOL}")


def check_traces(matrices: np.ndarray) -> None:
    """Raise for the first matrix (N, n, n) off unit trace by more than ``TRACE_TOL``."""
    traces = matrices.trace(axis1=1, axis2=2)
    defects = np.abs(traces - 1.0)
    if not _within(defects, TRACE_TOL):
        first = traces[~(defects <= TRACE_TOL)][0]
        raise NormalizationError(f"trace is {float(first)!r}, expected 1")


def check_isometries(matrices: np.ndarray) -> None:
    """Raise for the first matrix (N, d, k) with columns off orthonormal by > ``ISOMETRY_TOL``."""
    k = matrices.shape[2]
    gram = (matrices.swapaxes(1, 2) @ matrices).reshape(len(matrices), k * k)
    gram[:, :: k + 1] -= 1.0  # gram - I, without building I
    defects = np.abs(gram)
    if not _within(defects, ISOMETRY_TOL):
        worst = np.maximum.reduce(defects, axis=1)
        first = worst[~(worst <= ISOMETRY_TOL)][0]
        raise NormalizationError(f"columns are not orthonormal (defect {float(first):.3e})")


def _check_finite(entries: np.ndarray) -> None:
    # NaN would fail the tolerance tests too; this check runs first so the
    # error names the non-finite entry, not a defect it causes
    if not np.logical_and.reduce(np.isfinite(entries), axis=None):
        raise NormalizationError("state has a non-finite entry")


def check_density_stack(matrices: np.ndarray) -> None:
    """Check each matrix (N, n, n) as :class:`DensityMatrix` does: Hermitian, unit trace."""
    check_hermitian(matrices)
    check_traces(matrices)


class Subsystem(Enum):
    """Labels for the two-level factors handled by this package.

    ``BOB`` is Bob's mode while still inertial; lifting through an encoding
    isometry replaces it with the four Rindler-wedge modes.
    """

    ALICE = "alice"
    BOB = "bob"
    REGION_I_PARTICLE = "region_i_particle"
    REGION_II_ANTIPARTICLE = "region_ii_antiparticle"
    REGION_I_ANTIPARTICLE = "region_i_antiparticle"
    REGION_II_PARTICLE = "region_ii_particle"

    # the members are singletons, so identity is equality: hashing by
    # identity hashes the plan caches' keys in C, where Enum's hash runs Python
    __hash__ = object.__hash__

    def __repr__(self) -> str:  # keep error messages short
        return self.name


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered collection of distinct two-level factors.

    Factor 0 is the most significant bit of a basis index, so a basis ket
    reads left to right in the written order.
    """

    factors: tuple[Subsystem, ...]

    def __post_init__(self):
        factors = tuple(self.factors)
        object.__setattr__(self, "factors", factors)
        if not factors:
            raise LayoutError("a layout needs at least one factor")
        if len(set(factors)) != len(factors):
            raise LayoutError(f"duplicate subsystem labels in {factors}")

    @functools.cached_property
    def dim(self) -> int:
        return 2 ** len(self.factors)


@dataclass(frozen=True)
class StateVector:
    """Unit-norm, finite real amplitude vector over a layout's basis."""

    layout: SubsystemLayout
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _as_real(self.amplitudes, "amplitudes").reshape(-1)
        if amps.shape != (self.layout.dim,):
            raise ShapeError(
                f"amplitude vector of length {amps.size} does not fit a "
                f"{self.layout.dim}-dimensional layout"
            )
        _check_finite(amps)
        check_norms(amps[np.newaxis])
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.layout.dim


@dataclass(frozen=True)
class DensityMatrix:
    """Real symmetric, unit-trace matrix over a layout.

    Finite entries, symmetry and trace are checked at construction;
    positivity is enforced wherever eigenvalues are actually computed (a
    value below ``-PSD_TOL`` raises there, see
    :func:`unruh_lab.measures.von_neumann_entropy`).
    """

    layout: SubsystemLayout
    entries: np.ndarray

    def __post_init__(self):
        m = _as_real(self.entries, "entries")
        dim = self.layout.dim
        if m.shape != (dim, dim):
            raise ShapeError(f"matrix of shape {m.shape} does not fit dimension {dim}")
        _check_finite(m)
        check_density_stack(m[np.newaxis])
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.layout.dim

    def trace(self) -> float:
        return float(np.trace(self.entries))

    def purity(self) -> float:
        """tr(rho^2); 1 for pure states."""
        return float(np.einsum("ij,ji->", self.entries, self.entries))


def outer_product(v: StateVector) -> DensityMatrix:
    """Rank-1 projector |v><v| as a density matrix."""
    return DensityMatrix(v.layout, v.amplitudes[:, np.newaxis] * v.amplitudes)


def partial_trace(rho: DensityMatrix, discard: Iterable[Subsystem]) -> DensityMatrix:
    """Trace out the given factors; remaining factors keep their order."""
    discard = frozenset(discard)
    if not discard:
        return rho
    reduced, kept_layout = trace_out(rho.entries[np.newaxis], rho.layout, discard)
    return DensityMatrix(kept_layout, reduced[0])


def trace_out(
    entries: np.ndarray, layout: SubsystemLayout, discard: Iterable[Subsystem]
) -> tuple[np.ndarray, SubsystemLayout]:
    """Partial trace of each matrix of a stack (N, d, d) over ``layout``.

    Returns the reduced stack and its layout.  The reduced matrices are not
    checked; :func:`check_density_stack` checks them as
    :func:`partial_trace` does.
    """
    terms, kept_layout = _trace_terms(layout.factors, frozenset(discard))
    return _add_in_order(entries.reshape(len(entries), -1).T, terms, kept_layout.dim), kept_layout


@functools.lru_cache(maxsize=64)
def _trace_terms(
    factors: tuple[Subsystem, ...], discard: frozenset[Subsystem]
) -> tuple[np.ndarray, SubsystemLayout]:
    """The terms of a partial trace over a layout's ``factors``, and the kept layout.

    Returns flat positions (T, K * K) into a (d, d) matrix: row t lists, for
    each reduced entry in row-major order, the entry whose traced factors
    both read t.  The rows run in lexicographic order of the traced
    factors, the first traced factor most significant.  Nothing traced out
    gives one row, the identity.  The cache key hashes in C, as
    :class:`Subsystem` members hash by identity.
    """
    labels = set(factors)
    unknown = discard - labels
    if unknown:
        raise LayoutError(f"unknown labels {sorted(s.name for s in unknown)}")
    if discard == labels:
        raise DomainError("discard", "cannot trace out every factor")
    traced = [i for i, f in enumerate(factors) if f in discard]
    kept = [i for i, f in enumerate(factors) if f not in discard]
    kept_layout = SubsystemLayout(tuple(factors[i] for i in kept))
    dim = 2 ** len(factors)
    indices = np.arange(dim).reshape((2,) * len(factors))
    rows = indices.transpose(traced + kept).reshape(2 ** len(traced), kept_layout.dim)
    terms = (dim * rows[:, :, np.newaxis] + rows[:, np.newaxis, :]).reshape(len(rows), -1)
    terms.flags.writeable = False
    return terms, kept_layout


def _add_in_order(values: np.ndarray, terms: np.ndarray, dim: int) -> np.ndarray:
    """The rows of ``values`` (V, N) that a term table (T, dim * dim) indexes, added
    row t after row t, as a stack (N, dim, dim).

    Adding the first row to +0 turns a -0 into +0, as a sum started from
    zero does, so no sum is -0, and adding a +0 then changes no bit.  One
    row after another, because numpy's own sums may add pairwise, which
    rounds differently.  :func:`trace_out` and
    :func:`unruh_lab.states.trace_lifted` both add the rows of
    :func:`_trace_terms`' table by this, so they agree bit for bit.
    """
    gathered = values[terms]
    sums = gathered[0] + 0.0
    for term in gathered[1:]:
        sums += term
    return sums.T.reshape(values.shape[1], dim, dim)


def _off_diagonal_norm_sq(rows) -> float:
    """The sum of the squared off-diagonal entries of a square matrix, given by its
    rows, in the order numpy sums the whole (n, n) array with its diagonal cleared."""
    n = len(rows)
    mags = np.fromiter(itertools.chain.from_iterable(rows), float, n * n)
    mags *= mags
    mags[:: n + 1] = 0.0
    return float(np.add.reduce(mags))


def eigvals_hermitian(matrix: Union[DensityMatrix, np.ndarray]) -> np.ndarray:
    """All eigenvalues of a real symmetric matrix, descending.

    Cyclic Jacobi: plane rotations annihilate one off-diagonal pair at a
    time, swept in row order until the off-diagonal Frobenius norm drops
    below ``JACOBI_OFF_NORM_TOL``.  The eigenvalue sum equals the trace to
    the same accuracy.  Raises :class:`DomainError` for a nonzero imaginary
    part (:func:`_as_real`), :class:`ShapeError` for a 0x0 matrix,
    :class:`SymmetryError` as :func:`check_hermitian` does, so for a defect
    beyond ``HERMITIAN_TOL`` or a NaN entry, and :class:`ConvergenceError`
    after ``JACOBI_MAX_SWEEPS`` sweeps.

    A sweep rotates the pairs of the plan of the matrix's zero pattern
    (:func:`_plan`), which also says after how many sweeps it is diagonal.

    The input is read once: a float64 array as it is, since nothing writes
    to it, anything else by :func:`_as_real`.  Its Hermiticity defect comes
    from one difference ``a - a.T`` and is tested as :func:`check_hermitian`
    tests it, with the same message.  The symmetrised matrix is rotated as
    Python floats (:func:`_jacobi_rotate_rows`), whose arithmetic gives
    numpy's float64 results bit for bit without numpy's cost per scalar;
    the convergence test stays in numpy, to sum in numpy's order.  The
    diagonal is sorted in place, as ``np.sort`` sorts its copy.
    """
    if isinstance(matrix, DensityMatrix):
        matrix = matrix.entries
    a = np.asarray(matrix)
    if a.dtype != float:
        a = _as_real(a, "matrix")
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise ShapeError(f"expected a nonempty square matrix, got shape {a.shape}")
    # a - a.T is antisymmetric, so its largest entry is its largest magnitude
    # (or NaN, which fails the test): the defect check_hermitian computes
    defect = np.maximum.reduce(a - a.T, axis=None)
    if not defect <= HERMITIAN_TOL:
        raise _symmetry_error(defect)
    symmetric = a + a.T
    symmetric += 0.0  # a -0 turns +0
    symmetric /= 2.0
    n = len(symmetric)

    plan = _plan((symmetric != 0).tobytes(), n)
    exact_after, pairs = plan.exact_after, plan.pairs
    skip_below = JACOBI_OFF_NORM_TOL / (100.0 * n)
    rows = symmetric.tolist()
    for sweep in range(JACOBI_MAX_SWEEPS):
        if sweep == exact_after:
            break
        if exact_after is None and _off_diagonal_norm_sq(rows) <= JACOBI_OFF_NORM_TOL**2:
            break
        for k, l, others in pairs:
            _jacobi_rotate_rows(rows, k, l, others, skip_below)
    else:
        raise ConvergenceError(
            f"off-diagonal norm still {math.sqrt(_off_diagonal_norm_sq(rows)):.3e} "
            f"after {JACOBI_MAX_SWEEPS} sweeps"
        )
    eigs = np.fromiter(map(list.__getitem__, rows, range(n)), float, n)  # the diagonal
    eigs.sort()
    return eigs[::-1]


def _blocks(pattern: bytes, n: int) -> tuple[np.ndarray, ...]:
    """The connected components of a zero pattern that have two or more members.

    ``pattern`` holds the bytes of a boolean (n, n) array, True where an
    entry is nonzero (NaN and infinity included); it is symmetrised, so
    entry (k, l) or (l, k) links k and l.  The components come grouped by
    size, in ascending order of size, as index arrays (C, b) whose rows
    list the members of one component in ascending order.  A dense
    matrix is one component of n.  A wedge state (8x8) has three blocks of
    2 (dual rail) or two of 3 (single rail), its modes' marginal one block
    of 2, and Alice's marginal none.
    """
    linked = np.frombuffer(pattern, dtype=bool).reshape(n, n)
    linked = linked | linked.T
    component = np.full(n, -1)
    groups: dict[int, list[list[int]]] = {}
    for start in range(n):
        if component[start] >= 0:
            continue
        component[start] = start
        members = [start]
        for k in members:  # grows as the search reaches new members
            for l in np.flatnonzero(linked[k] & (component < 0)).tolist():
                component[l] = start
                members.append(l)
        if len(members) > 1:
            groups.setdefault(len(members), []).append(sorted(members))
    blocks = tuple(np.array(groups[size]) for size in sorted(groups))
    for members in blocks:
        members.flags.writeable = False
    return blocks


class _Plan(NamedTuple):
    """How both eigensolvers solve a matrix, or a stack, of one zero pattern (:func:`_plan`)."""

    exact_after: Union[int, None]  # the sweeps to diagonal: 0, 1 or None
    pairs: tuple[tuple[int, int, tuple[int, ...]], ...]  # (k, l, others) in sweep order
    blocks: tuple[np.ndarray, ...]  # :func:`_blocks`
    # each size's blocks as flat positions (C, b, b): entry (c, i, j) is that of
    # entry (i, j) of block c in an (n, n) matrix
    positions: tuple[np.ndarray, ...]
    direct: np.ndarray  # the diagonal's flat positions, then each of ``positions`` raveled
    mirror: np.ndarray  # the flat position of the transpose of each entry of ``direct``


@functools.lru_cache(maxsize=256)
def _plan(pattern: bytes, n: int) -> _Plan:
    """How :func:`eigvals_hermitian` solves a matrix of zero pattern ``pattern``, as
    :func:`_blocks` reads it, and :func:`eigvals_hermitian_batch` a stack of that
    union pattern: its sweeps to diagonal, the pairs (k, l, others) a sweep of
    the single-matrix solver rotates, in order, and the flat positions the
    batched solver gathers.  One cached plan per pattern serves both solvers.

    Both rotate only inside the blocks.  The entries between blocks are zero
    and stay zero, since a rotation writes ``c * 0 + s * 0`` there, so the
    pairs a full sweep would visit between blocks rotate nothing, and
    skipping them keeps every bit of the sweep over all pairs.  The pairs
    are, for each block of :func:`_blocks`, in its order, the pairs k < l
    of the block in row order, each with the block's other members,
    ascending: the only rows and columns besides k and l where the rotation
    can write a nonzero.

    The sweeps to diagonal, after which every off-diagonal entry is an
    exact zero, are 0 without blocks, 1 if all blocks are 2x2 (a rotation
    zeroes its pivot) and None otherwise.  A plan of 0 or 1 is swept that
    many times with no norm test: a 2x2 block of entries near 5e-13 passes
    the test, yet its eigenvalues are 1e-12 and 0.
    """
    blocks = _blocks(pattern, n)
    sizes = {members.shape[1] for members in blocks}
    exact_after = 0 if not sizes else 1 if sizes == {2} else None
    pairs = tuple(
        (k, l, tuple(m for m in block if m not in (k, l)))
        for members in blocks
        for block in members.tolist()
        for i, k in enumerate(block)
        for l in block[i + 1 :]
    )
    positions = tuple(
        n * members[:, :, np.newaxis] + members[:, np.newaxis, :] for members in blocks
    )
    diagonal = np.arange(0, n * n, n + 1)
    direct = np.concatenate([diagonal, *(p.ravel() for p in positions)])
    mirror = np.concatenate([diagonal, *(p.swapaxes(1, 2).ravel() for p in positions)])
    for array in (*positions, direct, mirror):
        array.flags.writeable = False
    return _Plan(exact_after, pairs, blocks, positions, direct, mirror)


def _jacobi_rotate_rows(
    rows: list[list[float]], k: int, l: int, others: tuple[int, ...], skip_below: float
) -> None:
    """Annihilate rows[k][l] (and rows[l][k]) of a real symmetric matrix by a plane rotation.

    In place, on a list of rows of Python floats.  Only the entries (k, k),
    (k, l), (l, k) and (l, l) and those of rows and columns k and l in
    ``others`` are written, which is exact where rows and columns k and l
    are zero elsewhere, as outside a block.  The pivot's phase is its
    sign, exactly +-1.  The rotation keeps the matrix exactly symmetric, so
    each entry off the pivot is computed once, from the column, and written
    to its mirror too.
    """
    row_k, row_l = rows[k], rows[l]
    pivot = row_k[l]
    beta = abs(pivot)
    if not beta >= skip_below:
        # zero, or negligible against the convergence tolerance: drop it
        row_k[l] = row_l[k] = 0.0
        return
    akk = row_k[k]
    all_ = row_l[l]
    sign = math.copysign(1.0, pivot)
    tau = (all_ - akk) / (2.0 * beta)
    t = (-1.0 if tau >= 0.0 else 1.0) / (abs(tau) + math.hypot(tau, 1.0))
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c
    new_kk = akk * c * c + 2.0 * beta * c * s + all_ * s * s
    new_ll = akk * s * s - 2.0 * beta * c * s + all_ * c * c

    s_phase = s * sign
    for m in others:
        row_m = rows[m]
        col_k, col_l = row_m[k], row_m[l]
        row_m[k] = row_k[m] = c * col_k + s_phase * col_l
        row_m[l] = row_l[m] = -s_phase * col_k + c * col_l

    row_k[k] = new_kk
    row_l[l] = new_ll
    row_k[l] = row_l[k] = 0.0


def eigvals_hermitian_batch(matrices: np.ndarray) -> np.ndarray:
    """Eigenvalues of each real symmetric matrix of a stack (N, n, n), rows descending.

    Runs the cyclic Jacobi of :func:`eigvals_hermitian` on every matrix at
    once, with the same rotations in the same order, the same convergence
    test and the same skip rule for each matrix, so each row equals that
    function's result for its matrix bit for bit.  Returns (0, n) for an
    empty stack.  Raises as that function does for a nonzero imaginary
    part, for 0x0 matrices, for the first matrix that fails
    :func:`check_hermitian` (NaN included), and for the first that does
    not converge within ``JACOBI_MAX_SWEEPS`` sweeps.

    The input is read in place: a float64 stack as it is, with no copy
    and no write to it, anything else by :func:`_as_real`.  The blocks are
    those of the union of the stack's zero patterns, from its plan
    (:func:`_plan`).  Every entry outside the blocks and the diagonal is
    zero in every matrix, so its Hermiticity defect is zero too, and the
    test and the symmetrisation read only the plan's two gathers.  The
    blocks of each size go into a compact stack (b, b, M), the block index
    last, which every sweep rotates in place.

    A stack that the plan makes diagonal after 0 or 1 sweeps takes that
    sweep, or none, and has its diagonals read once, with no convergence
    test: each of its matrices is diagonal then, and the sweep is the one
    that function gives it.  Any other stack sweeps until each matrix
    converges.  Four rules keep every bit of that function's result:

    - the convergence test sums each whole matrix in numpy's order
      (:func:`_off_diagonal_norms_sq`);
    - ``skip_below`` uses the full size n, here, for every stack;
    - a matrix that converges stops rotating all its blocks, and a matrix
      whose own blocks are all 2x2 takes one sweep, as there, even in a
      stack of larger blocks (:func:`_sweep_to_convergence`; a stack of
      2x2 blocks takes the exact path's one sweep).
    """
    a = np.asarray(matrices)
    if a.dtype != float:
        a = _as_real(a, "matrices")
    if a.ndim != 3 or a.shape[1] != a.shape[2] or not a.shape[1]:
        raise ShapeError(f"expected a stack of nonempty square matrices, got shape {a.shape}")
    count, n = a.shape[:2]
    plan = _plan(np.logical_or.reduce(a != 0, axis=0).tobytes(), n)
    flat = a.reshape(count, n * n)  # only read
    x = flat[:, plan.direct]
    mirror = flat[:, plan.mirror]
    defects = x - mirror
    _check_hermitian_defects(np.maximum.reduce(np.abs(defects, out=defects), axis=1))
    x += mirror
    x += 0.0  # a -0 turns +0
    x /= 2.0
    eigs = x[:, :n].copy()
    stacks = []
    start = n
    for p in plan.positions:
        part = x[:, start : start + p.size].reshape(count, *p.shape)
        stacks.append(part.transpose(2, 3, 0, 1).reshape(*p.shape[1:], -1))
        start += p.size

    skip_below = JACOBI_OFF_NORM_TOL / (100.0 * n)
    if plan.exact_after is not None:
        for _ in range(plan.exact_after):
            _sweep_stacks(stacks, skip_below)
        for members, stack in zip(plan.blocks, stacks):
            eigs[:, members] = stack.diagonal().reshape(count, *members.shape)
    else:
        _sweep_to_convergence(a, eigs, plan, stacks, skip_below)
    eigs.sort(axis=1)
    return eigs[:, ::-1]


def _sweep_stacks(stacks: list[np.ndarray], skip_below: float) -> None:
    """One sweep of every compact stack (b, b, M): each pair k < l in row order."""
    for stack in stacks:
        for k in range(len(stack) - 1):
            for l in range(k + 1, len(stack)):
                _jacobi_rotate_batch(stack, k, l, skip_below)


def _sweep_to_convergence(
    a: np.ndarray, eigs: np.ndarray, plan: _Plan, stacks: list[np.ndarray], skip_below: float
) -> None:
    """Sweep the compact ``stacks`` of the matrices ``a`` (N, n, n) until each converges.

    Each matrix's diagonal is written into its row of ``eigs`` (N, n) when
    it converges, and its blocks leave the stacks then.  A matrix that
    passes the first test but whose own blocks are all 2x2 is kept for one
    sweep, as its own plan gives :func:`eigvals_hermitian` one.  Raises
    :class:`ConvergenceError` if some matrix has not converged after
    ``JACOBI_MAX_SWEEPS`` sweeps.
    """
    count, n = eigs.shape
    active = np.arange(count)
    squares = np.zeros((count, n * n))  # the convergence test's buffer
    for sweep in range(JACOBI_MAX_SWEEPS):
        norms = _off_diagonal_norms_sq(squares[: len(active)], stacks, plan.positions)
        converged = norms <= JACOBI_OFF_NORM_TOL**2
        if sweep == 0:  # every matrix is active: i indexes the input
            for i in np.flatnonzero(converged & (norms > 0.0)):
                own = (a[i] + a[i].T + 0.0) / 2.0  # as eigvals_hermitian reads it
                converged[i] = _plan((own != 0).tobytes(), n).exact_after != 1
        if np.logical_or.reduce(converged):
            for i, (members, stack) in enumerate(zip(plan.blocks, stacks)):
                done = np.repeat(converged, len(members))
                diagonals = stack.diagonal()[done].reshape(-1, *members.shape)
                eigs[active[converged, np.newaxis, np.newaxis], members] = diagonals
                stacks[i] = stack[:, :, ~done]
            active = active[~converged]
        if not active.size:
            return
        _sweep_stacks(stacks, skip_below)
    norms = _off_diagonal_norms_sq(squares[: len(active)], stacks, plan.positions)
    raise ConvergenceError(
        f"off-diagonal norm still {math.sqrt(norms[0]):.3e} after {JACOBI_MAX_SWEEPS} sweeps"
    )


def _off_diagonal_norms_sq(
    squares: np.ndarray, stacks: list[np.ndarray], positions: tuple[np.ndarray, ...]
) -> np.ndarray:
    """_off_diagonal_norm_sq of each of the M matrices whose blocks the compact ``stacks``
    hold, summed in ``squares`` (M, n * n), which is zero outside the blocks' ``positions``:
    each row is summed with its diagonal cleared, as numpy sums one whole matrix."""
    count, size = squares.shape
    for stack, p in zip(stacks, positions):
        squares[:, p] = (stack * stack).reshape(*p.shape[1:], count, -1).transpose(2, 3, 0, 1)
    squares[:, :: math.isqrt(size) + 1] = 0.0  # the diagonal
    return np.add.reduce(squares, axis=1)


def _jacobi_rotate_batch(a: np.ndarray, k: int, l: int, skip_below: float) -> None:
    """_jacobi_rotate_rows on every block of a compact stack (b, b, M), in place.

    Every value comes from the same operations in the same order as there,
    and ``hypot(tau, 1)`` is ``math.hypot`` for each block, since
    ``np.hypot`` can differ from it in the last bit.  A block whose pivot
    is zero or below ``skip_below`` gets the identity rotation: ``beta`` 1
    and ``t`` 0, so ``c`` is 1, ``s`` is 0 and each entry written is the
    old one times 1 plus a zero, with its old bits, but for a -0 that may
    turn +0.  Only entries off the diagonal hold a -0 (the symmetrisation
    adds +0, which turns a diagonal -0 into +0), and the eigenvalues read
    only the diagonal.  Then its pivot is set to zero, as there.
    """
    pivot = a[k, l]
    beta = np.abs(pivot)
    rotate = beta >= skip_below
    beta = np.where(rotate, beta, 1.0)
    akk = a[k, k]
    all_ = a[l, l]
    sign = np.copysign(1.0, pivot)
    tau = (all_ - akk) / (2.0 * beta)
    hypot = np.fromiter(map(math.hypot, tau.tolist(), itertools.repeat(1.0)), float, len(tau))
    t = np.where(rotate, np.where(tau >= 0.0, -1.0, 1.0) / (np.abs(tau) + hypot), 0.0)
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c
    cross = 2.0 * beta * c * s
    new_kk = akk * c * c + cross + all_ * s * s
    new_ll = akk * s * s - cross + all_ * c * c

    # the entries of columns k and l in the other rows, and their mirrors
    # in rows k and l; the four entries set below are not computed here
    others = [m for m in range(len(a)) if m not in (k, l)]
    if others:
        if len(others) == 1:
            others = others[0]  # views, not copies: both are read before either is written
        s_phase = s * sign
        col_k, col_l = a[others, k], a[others, l]
        new_k = c * col_k + s_phase * col_l
        new_l = -s_phase * col_k + c * col_l
        a[others, k] = a[k, others] = new_k
        a[others, l] = a[l, others] = new_l

    a[k, k] = new_kk
    a[l, l] = new_ll
    a[k, l] = 0.0
    a[l, k] = 0.0
