"""Dense tensor-product linear algebra over labeled two-level factors.

Layouts name an ordered set of two-level subsystems; factor 0 is the most
significant bit of a basis index, so a basis ket reads left to right in the
written mode order.  On top of the layouts sit unit state vectors, density
matrices, the partial trace, and a cyclic Jacobi eigensolver for symmetric
matrices.  Everything is small (at most 32x32), immutable and real, as
every amplitude of the model is: the classes and both solvers read their
input by :func:`_as_real`, so a nonzero imaginary part raises.

A partial trace is one term plan and one sum.  The plan (``_trace_terms``)
lists, for each value of the traced factors in lexicographic order, the
entry each reduced entry reads; the sum (``_add_in_order``) adds those
terms one after another, from +0.  :func:`trace_out` uses both on dense
stacks, and :func:`unruh_lab.states.trace_lifted` uses both on the lifted
states' few nonzero entries, so the two reductions agree bit for bit.

The eigensolvers are block-native: they rotate only inside the blocks
(connected components) of a matrix's exact zero pattern, or of the union of
the patterns of a stack.  The entries between blocks are zero and stay
zero, because a rotation writes ``c * 0 + s * 0`` there; so the pairs a
full sweep would visit between blocks rotate nothing, and skipping them
keeps every bit of the sweep over all pairs.  The channel states are sparse
this way: a wedge state (8x8) has three blocks of 2 (dual rail) or two of 3
(single rail), the wedge-mode marginal (4x4) one block of 2, and Alice's
marginal is diagonal.  A diagonal matrix needs no sweep, and one whose
blocks are all 2x2 takes one, with no norm test (a block of entries near
5e-13 passes it, yet its eigenvalues are 1e-12 and 0), after which every
off-diagonal entry is an exact zero.  The batched solver gathers the blocks
of each size into one compact stack, once, and rotates that stack across
all sweeps, a block whose pivot is zero or negligible by the identity; the
rules of :func:`eigvals_hermitian_batch` keep every bit.  The single-matrix
solver rotates a matrix as a list of rows of Python floats, which round as
numpy's float64 does, without numpy's cost per scalar.

The checks the classes make on construction take stacks of arrays, so
batched code makes the same checks on many items at once.  Each raises for
the first item that fails it, so on a stack of one it raises what the
single item's check raises.  A value fails a check unless it is within the
tolerance, so NaN fails every check.  Both eigensolvers make the test of
:func:`check_hermitian` on their input (the batched one on the diagonal
and the blocks, which hold every nonzero entry), so NaN fails there too,
with no exception, and a stack on the entropy path is tested for
Hermiticity once.  The checks' all-true test is ``np.logical_and.reduce``,
which gives ``.all()``'s value without that method's Python call.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Union

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
    part is exactly zero; any other complex input raises DomainError naming ``param``."""
    a = np.asarray(values)
    if a.dtype.kind == "c":
        if a.imag.any():
            raise DomainError(param, "must be real, got a nonzero imaginary part")
        a = a.real
    return np.array(a, dtype=float)


def check_norms(vectors: np.ndarray) -> None:
    """Raise for the first vector of a stack (N, d) off unit norm by more than ``NORM_TOL``;
    a norm is sqrt(sum(v * v)), which np.linalg.norm(v, axis=-1) computes for a real v."""
    norms = np.sqrt(np.add.reduce(vectors * vectors, axis=-1))
    within = np.abs(norms - 1.0) <= NORM_TOL
    if not np.logical_and.reduce(within):
        raise NormalizationError(f"state norm is {float(norms[~within][0])!r}, expected 1")


def check_hermitian(matrices: np.ndarray) -> None:
    """Raise for the first matrix (N, n, n) off symmetric by more than ``HERMITIAN_TOL``."""
    _check_hermitian_defects(np.abs(matrices - matrices.swapaxes(1, 2)).max(axis=(1, 2)))


def _check_hermitian_defects(defects: np.ndarray) -> None:
    """Raise for the first of the matrices' largest defects (N,) beyond ``HERMITIAN_TOL``."""
    within = defects <= HERMITIAN_TOL
    if not np.logical_and.reduce(within):
        raise SymmetryError(
            f"Hermiticity defect {float(defects[~within][0]):.3e} exceeds {HERMITIAN_TOL}"
        )


def check_traces(matrices: np.ndarray) -> None:
    """Raise for the first matrix (N, n, n) off unit trace by more than ``TRACE_TOL``."""
    traces = matrices.trace(axis1=1, axis2=2)
    within = np.abs(traces - 1.0) <= TRACE_TOL
    if not np.logical_and.reduce(within):
        raise NormalizationError(f"trace is {float(traces[~within][0])!r}, expected 1")


def check_isometries(matrices: np.ndarray) -> None:
    """Raise for the first matrix (N, d, k) with columns off orthonormal by > ``ISOMETRY_TOL``."""
    gram = matrices.swapaxes(1, 2) @ matrices
    defects = np.abs(gram - np.eye(matrices.shape[2])).max(axis=(1, 2))
    within = defects <= ISOMETRY_TOL
    if not np.logical_and.reduce(within):
        raise NormalizationError(
            f"columns are not orthonormal (defect {float(defects[~within][0]):.3e})"
        )


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

    def __repr__(self) -> str:  # keep error messages short
        return self.name


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered collection of distinct two-level factors."""

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

    def __len__(self) -> int:
        return len(self.factors)


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
    terms, kept_layout = _trace_terms(layout, frozenset(discard))
    n = len(entries)
    sums = _add_in_order(entries.reshape(n, -1).T, terms)
    return sums.T.reshape(n, kept_layout.dim, kept_layout.dim), kept_layout


@functools.lru_cache(maxsize=64)
def _trace_terms(
    layout: SubsystemLayout, discard: frozenset[Subsystem]
) -> tuple[np.ndarray, SubsystemLayout]:
    """The terms of a partial trace over ``layout``, and the kept layout.

    Returns flat positions (T, K * K) into a (d, d) matrix: row t lists, for
    each reduced entry in row-major order, the entry whose traced factors
    both read t.  The rows run in lexicographic order of the traced
    factors, the first traced factor most significant.  Nothing traced out
    gives one row, the identity.
    """
    labels = set(layout.factors)
    unknown = discard - labels
    if unknown:
        raise LayoutError(f"unknown labels {sorted(s.name for s in unknown)}")
    if discard == labels:
        raise DomainError("discard", "cannot trace out every factor")
    traced = [i for i, f in enumerate(layout.factors) if f in discard]
    kept = [i for i, f in enumerate(layout.factors) if f not in discard]
    kept_layout = SubsystemLayout(tuple(layout.factors[i] for i in kept))
    indices = np.arange(layout.dim).reshape((2,) * len(layout))
    rows = indices.transpose(traced + kept).reshape(2 ** len(traced), kept_layout.dim)
    terms = (layout.dim * rows[:, :, np.newaxis] + rows[:, np.newaxis, :]).reshape(len(rows), -1)
    terms.flags.writeable = False
    return terms, kept_layout


def _add_in_order(values: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """The rows of ``values`` (V, N) that ``terms`` (T, P) index, added row t after row t.

    Returns (P, N).  Adding the first row to +0 turns a -0 into +0, as a
    sum started from zero does, so no sum is -0.  One row after another,
    because numpy's own sums may add pairwise, which rounds differently.
    """
    gathered = values[terms]
    sums = gathered[0] + 0.0
    for term in gathered[1:]:
        sums += term
    return sums


def _off_diagonal_norm_sq(a: np.ndarray) -> float:
    mags = a * a
    np.fill_diagonal(mags, 0.0)
    return float(mags.sum())


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

    A sweep visits only the pairs inside the blocks of the matrix's zero
    pattern (:func:`_pairs`), each block's in row order.  A diagonal
    matrix is not swept, and a matrix whose blocks are all 2x2 is swept
    once (:func:`_sweeps_to_diagonal`), even if its norm passes the test.

    The matrix is checked and symmetrised in numpy, then rotated as
    Python floats (:func:`_jacobi_rotate_rows`), whose arithmetic gives
    numpy's float64 results bit for bit without numpy's cost per scalar;
    the convergence test stays in numpy, to sum in numpy's order.
    """
    if isinstance(matrix, DensityMatrix):
        matrix = matrix.entries
    a = _as_real(matrix, "matrix")
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise ShapeError(f"expected a nonempty square matrix, got shape {a.shape}")
    check_hermitian(a[np.newaxis])
    a = (a + a.T + 0.0) / 2.0
    n = a.shape[0]

    pattern = (a != 0).tobytes()
    exact_after = _sweeps_to_diagonal(_blocks(pattern, n))
    pairs = _pairs(pattern, n)
    skip_below = JACOBI_OFF_NORM_TOL / (100.0 * n)
    rows = a.tolist()
    for sweep in range(JACOBI_MAX_SWEEPS):
        if sweep == exact_after:
            break
        if exact_after is None and _off_diagonal_norm_sq(np.array(rows)) <= JACOBI_OFF_NORM_TOL**2:
            break
        for k, l, others in pairs:
            _jacobi_rotate_rows(rows, k, l, others, skip_below)
    else:
        raise ConvergenceError(
            f"off-diagonal norm still {math.sqrt(_off_diagonal_norm_sq(np.array(rows))):.3e} "
            f"after {JACOBI_MAX_SWEEPS} sweeps"
        )
    eigs = np.sort([rows[k][k] for k in range(n)])
    return eigs[::-1]


@functools.lru_cache(maxsize=256)
def _blocks(pattern: bytes, n: int) -> tuple[np.ndarray, ...]:
    """The connected components of a zero pattern that have two or more members.

    ``pattern`` holds the bytes of a boolean (n, n) array, True where an
    entry is nonzero (NaN and infinity included); it is symmetrised, so
    entry (k, l) or (l, k) links k and l.  The components come grouped by
    size, in ascending order of size, as index arrays (C, b) whose rows
    list the members of one component in ascending order.  A dense
    matrix is one component of n.
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


def _sweeps_to_diagonal(blocks: tuple[np.ndarray, ...]) -> Union[int, None]:
    """The sweeps after which every off-diagonal entry is an exact zero: 0
    without blocks, 1 if all are 2x2 (a rotation zeroes its pivot), else None."""
    sizes = {members.shape[1] for members in blocks}
    return 0 if not sizes else 1 if sizes == {2} else None


@functools.lru_cache(maxsize=256)
def _pairs(pattern: bytes, n: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """The pairs (k, l, others) a sweep of :func:`eigvals_hermitian` rotates, in order.

    For each block of :func:`_blocks`, in its order, the pairs k < l of the
    block in row order, each with the block's other members, ascending:
    the only rows and columns besides k and l where the rotation can
    write a nonzero.
    """
    return tuple(
        (k, l, tuple(m for m in block if m not in (k, l)))
        for members in _blocks(pattern, n)
        for block in members.tolist()
        for i, k in enumerate(block)
        for l in block[i + 1 :]
    )


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

    The blocks are those of the union of the stack's zero patterns
    (:func:`_blocks`); every entry outside them and the diagonal is zero
    in every matrix, so its Hermiticity defect is zero too, and the test
    and the symmetrisation read only the diagonal and the blocks.  The
    blocks of each size are gathered once into a compact stack (b, b, M),
    the block index last, which every sweep rotates in place.  Four rules
    keep every bit of that function's result:

    - the convergence test sums each whole matrix in numpy's order: the
      blocks' squared entries go into zeros (N, n * n), the diagonal
      is cleared and each row summed, as :func:`_off_diagonal_norm_sq`
      sums one matrix;
    - ``skip_below`` uses the full size n;
    - a matrix that converges stops rotating all its blocks: its
      diagonal is written out and its blocks leave the stacks;
    - a matrix whose own blocks are all 2x2 takes one sweep, as there,
      even where the stack's blocks are larger.
    """
    a = _as_real(matrices, "matrices")  # only read
    if a.ndim != 3 or a.shape[1] != a.shape[2] or not a.shape[1]:
        raise ShapeError(f"expected a stack of nonempty square matrices, got shape {a.shape}")
    count, n = a.shape[:2]
    blocks = _blocks((a != 0).any(axis=0).tobytes(), n)
    # the flat positions (C, b, b) of the blocks of each size in a matrix,
    # led by the diagonal as n blocks of one
    positions = [(n + 1) * np.arange(n).reshape(n, 1, 1)] + [
        n * members[:, :, np.newaxis] + members[:, np.newaxis, :] for members in blocks
    ]
    flat = a.reshape(count, n * n)
    parts = [(flat[:, p.ravel()], flat[:, p.swapaxes(1, 2).ravel()]) for p in positions]
    _check_hermitian_defects(
        functools.reduce(np.maximum, [np.abs(x - mirror).max(axis=1) for x, mirror in parts])
    )
    eigs, *symmetric = [(x + mirror + 0.0) / 2.0 for x, mirror in parts]
    stacks = [
        part.reshape(count, *p.shape).transpose(2, 3, 0, 1).reshape(*p.shape[1:], -1)
        for p, part in zip(positions[1:], symmetric)
    ]

    exact_after = _sweeps_to_diagonal(blocks)
    skip_below = JACOBI_OFF_NORM_TOL / (100.0 * n)
    active = np.arange(count)
    for sweep in range(JACOBI_MAX_SWEEPS):
        if exact_after is not None:
            converged = np.full(len(active), sweep == exact_after)
        else:
            norms = _off_diagonal_norms_sq(stacks, positions, len(active))
            converged = norms <= JACOBI_OFF_NORM_TOL**2
            if sweep == 0:  # every matrix is active: i indexes the input
                for i in np.flatnonzero(converged & (norms > 0.0)):
                    own = (a[i] + a[i].T + 0.0) / 2.0  # as eigvals_hermitian reads it
                    converged[i] = _sweeps_to_diagonal(_blocks((own != 0).tobytes(), n)) != 1
        if converged.any():
            for i, (members, stack) in enumerate(zip(blocks, stacks)):
                done = np.repeat(converged, len(members))
                diagonals = np.diagonal(stack)[done].reshape(-1, *members.shape)
                eigs[active[converged, np.newaxis, np.newaxis], members] = diagonals
                stacks[i] = stack[:, :, ~done]
            active = active[~converged]
        if not active.size:
            break
        for stack in stacks:
            for k in range(len(stack) - 1):
                for l in range(k + 1, len(stack)):
                    _jacobi_rotate_batch(stack, k, l, skip_below)
    else:
        norms = _off_diagonal_norms_sq(stacks, positions, len(active))
        raise ConvergenceError(
            f"off-diagonal norm still {math.sqrt(norms[0]):.3e} "
            f"after {JACOBI_MAX_SWEEPS} sweeps"
        )
    eigs = np.sort(eigs, axis=1)
    return eigs[:, ::-1]


def _off_diagonal_norms_sq(
    stacks: list[np.ndarray], positions: list[np.ndarray], count: int
) -> np.ndarray:
    """_off_diagonal_norm_sq of each of ``count`` matrices, from their compact stacks."""
    diagonal = positions[0]
    mags = np.zeros((count, len(diagonal) ** 2))
    for stack, p in zip(stacks, positions[1:]):
        mags[:, p] = (stack * stack).reshape(*p.shape[1:], count, -1).transpose(2, 3, 0, 1)
    mags[:, diagonal.ravel()] = 0.0
    return mags.sum(axis=1)


def _jacobi_rotate_batch(a: np.ndarray, k: int, l: int, skip_below: float) -> None:
    """_jacobi_rotate_rows on every block of a compact stack (b, b, M), in place.

    Every value comes from the same operations in the same order as
    there, and ``hypot(tau, 1)`` is ``math.hypot`` for each block, since
    ``np.hypot`` can differ from it in the last bit.  The sign of each
    pivot, from ``np.copysign``, is exactly +-1, as there.  The rotation
    keeps each block exactly symmetric, so, as there, each entry off the
    pivot is computed once, from the columns, and written to its mirror
    too.  A block whose pivot is zero or below ``skip_below`` gets the
    identity rotation: ``beta`` 1 and ``t`` 0, so ``c`` is 1, ``s`` is 0
    and each entry written is the old one times 1 plus a zero, with its
    old bits, but for a -0 that may turn +0.  Only entries off the
    diagonal hold a -0 (the symmetrisation adds +0, which turns a diagonal
    -0 into +0), and the eigenvalues read only the diagonal.  Then its
    pivot is set to zero, as there.
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
