"""Dense tensor-product linear algebra over labeled two-level factors.

Layouts name an ordered set of two-level subsystems; factor 0 is the most
significant bit of a basis index, so a basis ket reads left to right in the
written mode order.  On top of the layouts sit unit state vectors, density
matrices, the partial trace, and a cyclic Jacobi eigensolver for Hermitian
matrices.  Everything is small (at most 32x32) and immutable.

A partial trace is one term plan and one sum.  The plan (``_trace_terms``)
lists, for each value of the traced factors in lexicographic order, the
entry each reduced entry reads; the sum (``_add_in_order``) adds those
terms one after another, from +0.  :func:`trace_out` uses both on dense
stacks, and :func:`unruh_lab.states.trace_lifted` uses both on the lifted
states' few nonzero entries, so the two reductions agree bit for bit.

The eigensolvers rotate only inside the connected components of a
matrix's exact zero pattern, or of the union of the patterns of a stack.
The entries between components are zero and stay zero, because a
rotation writes ``c * 0 + s * 0`` there; so the pairs a full sweep would
visit between components rotate nothing, and skipping them keeps every
bit of the sweep over all pairs.  The channel states are sparse this
way: a wedge state (8x8) has three components of 2 (dual rail) or two of
3 (single rail), so a sweep rotates 3 or 6 of its 28 pairs.

The checks the classes make on construction take stacks of arrays, so
batched code makes the same checks on many items at once.  Each raises for
the first item that fails it, so on a stack of one it raises what the
single item's check raises.  A value fails a check unless it is within the
tolerance, so NaN fails every check.
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


def check_norms(vectors: np.ndarray) -> None:
    """Raise for the first vector of a stack (N, d) off unit norm by more than ``NORM_TOL``."""
    norms = np.linalg.norm(vectors, axis=-1)
    within = np.abs(norms - 1.0) <= NORM_TOL
    if not within.all():
        raise NormalizationError(f"state norm is {float(norms[~within][0])!r}, expected 1")


def check_hermitian(matrices: np.ndarray) -> None:
    """Raise for the first matrix (N, n, n) off Hermitian by more than ``HERMITIAN_TOL``."""
    _check_hermitian(matrices, nan_fails=True)


def _check_hermitian(matrices: np.ndarray, nan_fails: bool) -> None:
    defects = np.abs(matrices - matrices.conj().swapaxes(1, 2)).reshape(len(matrices), -1).max(1)
    within = defects <= HERMITIAN_TOL
    if within.all():
        return
    failed = ~within if nan_fails else defects > HERMITIAN_TOL
    if failed.any():
        raise SymmetryError(
            f"Hermiticity defect {float(defects[failed][0]):.3e} exceeds {HERMITIAN_TOL}"
        )


def check_traces(matrices: np.ndarray) -> None:
    """Raise for the first matrix (N, n, n) off unit trace by more than ``TRACE_TOL``."""
    traces = matrices.trace(axis1=1, axis2=2)
    within = np.abs(traces - 1.0) <= TRACE_TOL
    if not within.all():
        raise NormalizationError(f"trace is {complex(traces[~within][0])!r}, expected 1")


def check_isometries(matrices: np.ndarray) -> None:
    """Raise for the first matrix (N, d, k) with columns off orthonormal by > ``ISOMETRY_TOL``."""
    gram = matrices.conj().swapaxes(1, 2) @ matrices
    defects = np.abs(gram - np.eye(matrices.shape[2])).reshape(len(matrices), -1).max(1)
    within = defects <= ISOMETRY_TOL
    if not within.all():
        raise NormalizationError(
            f"columns are not orthonormal (defect {float(defects[~within][0]):.3e})"
        )


def _check_finite(entries: np.ndarray) -> None:
    # NaN passes every tolerance test, so the state types reject it up front
    if not np.isfinite(entries).all():
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

    @property
    def dim(self) -> int:
        return 2 ** len(self.factors)

    def __len__(self) -> int:
        return len(self.factors)


@dataclass(frozen=True)
class StateVector:
    """Unit-norm, finite complex amplitude vector over a layout's basis."""

    layout: SubsystemLayout
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
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
    """Hermitian, unit-trace matrix over a layout.

    Finite entries, Hermiticity and trace are checked at construction;
    positivity is enforced wherever eigenvalues are actually computed (a
    value below ``-PSD_TOL`` raises there, see
    :func:`unruh_lab.measures.von_neumann_entropy`).
    """

    layout: SubsystemLayout
    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=complex)
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
        return float(np.trace(self.entries).real)

    def purity(self) -> float:
        """tr(rho^2); 1 for pure states."""
        return float(np.einsum("ij,ji->", self.entries, self.entries).real)


def outer_product(v: StateVector) -> DensityMatrix:
    """Rank-1 projector |v><v| as a density matrix."""
    return DensityMatrix(v.layout, np.outer(v.amplitudes, v.amplitudes.conj()))


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
    mags = np.abs(a) ** 2
    np.fill_diagonal(mags, 0.0)
    return float(mags.sum())


def eigvals_hermitian(matrix: Union[DensityMatrix, np.ndarray]) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, descending.

    Cyclic Jacobi: unitary two-sided rotations annihilate one off-diagonal
    pair at a time, swept in row order until the off-diagonal Frobenius
    norm drops below ``JACOBI_OFF_NORM_TOL``.  The eigenvalue sum equals
    the trace to the same accuracy.  Raises :class:`SymmetryError` beyond
    ``HERMITIAN_TOL`` and :class:`ConvergenceError` after
    ``JACOBI_MAX_SWEEPS`` sweeps.

    A sweep visits only the pairs inside the connected components of the
    matrix's zero pattern (:func:`_blocks`), in row order.  A pair between
    two components has a zero pivot before the first sweep, and a rotation
    inside one component writes ``c * 0 + s * 0`` between components, so
    that pivot stays zero and the rotation a full sweep would make there
    does nothing: every bit is that of the sweep over all pairs.
    """
    if isinstance(matrix, DensityMatrix):
        matrix = matrix.entries
    a = np.array(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    # NaN passes, so a NaN matrix fails as not converging
    _check_hermitian(a[np.newaxis], nan_fails=False)
    a = (a + a.conj().T) / 2.0
    n = a.shape[0]
    if n == 1:
        return np.array([a[0, 0].real])

    pairs = _block_pairs((a != 0).tobytes(), n)
    skip_below = JACOBI_OFF_NORM_TOL / (100.0 * n)
    for _ in range(JACOBI_MAX_SWEEPS):
        if _off_diagonal_norm_sq(a) <= JACOBI_OFF_NORM_TOL**2:
            break
        for k, l in pairs:
            _jacobi_rotate(a, k, l, skip_below)
    else:
        raise ConvergenceError(
            f"off-diagonal norm still {math.sqrt(_off_diagonal_norm_sq(a)):.3e} "
            f"after {JACOBI_MAX_SWEEPS} sweeps"
        )
    eigs = np.sort(np.diag(a).real)
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


@functools.lru_cache(maxsize=256)
def _block_pairs(pattern: bytes, n: int) -> tuple[tuple[int, int], ...]:
    """The pairs (k, l), k < l, inside the components of :func:`_blocks`, in row order."""
    pairs = [
        (members[i], members[j])
        for group in _blocks(pattern, n)
        for members in group.tolist()
        for i in range(len(members))
        for j in range(i + 1, len(members))
    ]
    return tuple(sorted(pairs))


def _jacobi_rotate(a: np.ndarray, k: int, l: int, skip_below: float) -> None:
    """Annihilate a[k, l] (and a[l, k]) by a unitary plane rotation, in place."""
    pivot = a[k, l]
    beta = abs(pivot)
    if not beta > 0.0:  # zero, or NaN: nothing to rotate
        return
    if beta < skip_below:
        # negligible against the convergence tolerance; drop it outright
        a[k, l] = 0.0
        a[l, k] = 0.0
        return
    akk = a[k, k].real
    all_ = a[l, l].real
    phase = pivot / beta
    tau = (all_ - akk) / (2.0 * beta)
    t = (-1.0 if tau >= 0.0 else 1.0) / (abs(tau) + math.hypot(tau, 1.0))
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c
    new_kk = akk * c * c + 2.0 * beta * c * s + all_ * s * s
    new_ll = akk * s * s - 2.0 * beta * c * s + all_ * c * c

    col_k = a[:, k].copy()
    col_l = a[:, l].copy()
    a[:, k] = c * col_k + (s * np.conj(phase)) * col_l
    a[:, l] = (-s * phase) * col_k + c * col_l
    row_k = a[k, :].copy()
    row_l = a[l, :].copy()
    a[k, :] = c * row_k + (s * phase) * row_l
    a[l, :] = (-s * np.conj(phase)) * row_k + c * row_l

    a[k, k] = new_kk
    a[l, l] = new_ll
    a[k, l] = 0.0
    a[l, k] = 0.0


def eigvals_hermitian_batch(matrices: np.ndarray) -> np.ndarray:
    """Eigenvalues of each Hermitian matrix of a stack (N, n, n), rows descending.

    Runs the cyclic Jacobi of :func:`eigvals_hermitian` on every matrix at
    once, with the same rotations in the same order, the same convergence
    test and the same skip rule for each matrix, so each row equals that
    function's result for its matrix bit for bit.  A matrix stops rotating
    once it has converged.  Raises as that function does for the first
    matrix that is not Hermitian or does not converge within
    ``JACOBI_MAX_SWEEPS`` sweeps.

    The rotations run inside the connected components of the union of the
    stack's zero patterns (:func:`_blocks`).  Each sweep gathers the
    components of one size from every active matrix into one compact stack
    (N * C, b, b), rotates its pairs in row order, and scatters it back.
    The members of a component are ascending, so its pairs come in the
    order of the full sweep; rotations of different components touch
    different entries, so their order does not matter; and a pair between
    components has a zero pivot throughout, so the full sweep does nothing
    there.  The convergence test reads the full matrices, as before, so
    the sweep count and every bit are those of the sweep over all pairs.
    """
    a = np.array(matrices, dtype=complex)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ShapeError(f"expected a stack of square matrices, got shape {a.shape}")
    _check_hermitian(a, nan_fails=False)  # as in eigvals_hermitian
    # C order, so that the flat view below shares a's memory
    a = np.ascontiguousarray((a + np.conj(a).transpose(0, 2, 1)) / 2.0)
    n = a.shape[1]
    if n == 1:
        return a[:, :, 0].real

    blocks = _blocks(np.any(a != 0, axis=0).tobytes(), n)
    flat = a.reshape(len(a), n * n)
    skip_below = JACOBI_OFF_NORM_TOL / (100.0 * n)
    active = np.arange(len(a))
    for _ in range(JACOBI_MAX_SWEEPS):
        # the negation of the scalar test, so a NaN matrix stays active
        converged = _off_diagonal_norms_sq(a[active]) <= JACOBI_OFF_NORM_TOL**2
        active = active[~converged]
        if not active.size:
            break
        for members in blocks:
            b = members.shape[1]
            # the flat positions (C * b * b) of the components' entries in
            # each active matrix, gathered into (N * C, b, b)
            index = (
                active[:, np.newaxis],
                (n * members[:, :, np.newaxis] + members[:, np.newaxis, :]).ravel(),
            )
            block = flat[index].reshape(-1, b, b)
            for k in range(b - 1):
                for l in range(k + 1, b):
                    _jacobi_rotate_batch(block, k, l, skip_below)
            flat[index] = block.reshape(len(active), -1)
    else:
        raise ConvergenceError(
            f"off-diagonal norm still "
            f"{math.sqrt(_off_diagonal_norm_sq(a[active[0]])):.3e} "
            f"after {JACOBI_MAX_SWEEPS} sweeps"
        )
    eigs = np.sort(np.diagonal(a, axis1=1, axis2=2).real, axis=1)
    return eigs[:, ::-1]


def _off_diagonal_norms_sq(a: np.ndarray) -> np.ndarray:
    """_off_diagonal_norm_sq of each matrix, summed in the same order."""
    mags = np.abs(a) ** 2
    diagonal = np.arange(a.shape[1])
    mags[:, diagonal, diagonal] = 0.0
    return mags.reshape(len(a), -1).sum(axis=1)


def _jacobi_rotate_batch(a: np.ndarray, k: int, l: int, skip_below: float) -> None:
    """_jacobi_rotate on each matrix of a stack, in place, with the same arithmetic.

    Every value is computed by the same operations in the same order as in
    the scalar rotation, each coefficient multiplying whole rows and
    columns as it does there; the stack may hold blocks of the matrices,
    since the updates are elementwise.  Two functions need care: ``abs`` of a
    complex scalar is ``np.hypot`` of its parts, which ``np.abs`` of a
    complex array is not in the last bit; and ``hypot(tau, 1)`` comes from
    ``math.hypot`` for each matrix, which ``np.hypot`` is not.
    """
    pivot = a[:, k, l]
    beta = np.hypot(pivot.real, pivot.imag)
    negligible = beta < skip_below
    small = negligible & (beta != 0.0)
    a[small, k, l] = 0.0
    a[small, l, k] = 0.0
    rotate = np.flatnonzero(beta >= skip_below)  # a NaN pivot is not rotated
    if not rotate.size:
        return
    beta = beta[rotate]
    akk = a[rotate, k, k].real
    all_ = a[rotate, l, l].real
    phase = a[rotate, k, l] / beta
    tau = (all_ - akk) / (2.0 * beta)
    hypot = np.fromiter(map(math.hypot, tau.tolist(), itertools.repeat(1.0)), float, len(tau))
    t = np.where(tau >= 0.0, -1.0, 1.0) / (np.abs(tau) + hypot)
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c
    new_kk = akk * c * c + 2.0 * beta * c * s + all_ * s * s
    new_ll = akk * s * s - 2.0 * beta * c * s + all_ * c * c

    # on a 2x2 matrix the row and column updates write only the four
    # entries set below, so they are skipped there
    if a.shape[1] > 2:
        c = c[:, np.newaxis]
        s_phase = (s * phase)[:, np.newaxis]
        s_phase_conj = (s * np.conj(phase))[:, np.newaxis]
        col_k = a[rotate, :, k]
        col_l = a[rotate, :, l]
        a[rotate, :, k] = c * col_k + s_phase_conj * col_l
        a[rotate, :, l] = -s_phase * col_k + c * col_l
        row_k = a[rotate, k, :]
        row_l = a[rotate, l, :]
        a[rotate, k, :] = c * row_k + s_phase * row_l
        a[rotate, l, :] = -s_phase_conj * row_k + c * row_l

    a[rotate, k, k] = new_kk
    a[rotate, l, l] = new_ll
    a[rotate, k, l] = 0.0
    a[rotate, l, k] = 0.0
