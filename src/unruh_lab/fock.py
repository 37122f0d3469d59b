"""Dense tensor-product linear algebra over labeled two-level factors.

Layouts name an ordered set of two-level subsystems; factor 0 is the most
significant bit of a basis index, so a basis ket reads left to right in the
written mode order.  On top of the layouts sit unit state vectors, density
matrices, the partial trace, and a cyclic Jacobi eigensolver for Hermitian
matrices.  Everything is small (at most 32x32) and immutable.

The checks the classes make on construction take stacks of arrays, so
batched code makes the same checks on many items at once.  Each raises for
the first item that fails it, so on a stack of one it raises what the
single item's check raises.
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
    failed = np.abs(norms - 1.0) > NORM_TOL
    if failed.any():
        raise NormalizationError(f"state norm is {float(norms[failed][0])!r}, expected 1")


def check_hermitian(matrices: np.ndarray) -> None:
    """Raise for the first matrix (N, n, n) off Hermitian by more than ``HERMITIAN_TOL``."""
    defects = np.abs(matrices - matrices.conj().swapaxes(1, 2)).reshape(len(matrices), -1).max(1)
    failed = defects > HERMITIAN_TOL
    if failed.any():
        raise SymmetryError(
            f"Hermiticity defect {float(defects[failed][0]):.3e} exceeds {HERMITIAN_TOL}"
        )


def check_traces(matrices: np.ndarray) -> None:
    """Raise for the first matrix (N, n, n) off unit trace by more than ``TRACE_TOL``."""
    traces = matrices.trace(axis1=1, axis2=2)
    failed = np.abs(traces - 1.0) > TRACE_TOL
    if failed.any():
        raise NormalizationError(f"trace is {complex(traces[failed][0])!r}, expected 1")


def check_isometries(matrices: np.ndarray) -> None:
    """Raise for the first matrix (N, d, k) with columns off orthonormal by > ``ISOMETRY_TOL``."""
    gram = matrices.conj().swapaxes(1, 2) @ matrices
    defects = np.abs(gram - np.eye(matrices.shape[2])).reshape(len(matrices), -1).max(1)
    failed = defects > ISOMETRY_TOL
    if failed.any():
        raise NormalizationError(
            f"columns are not orthonormal (defect {float(defects[failed][0]):.3e})"
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
    in_ids, out_ids, kept_layout = _trace_plan(layout, frozenset(discard))
    tensor = entries.reshape((len(entries),) + (2,) * (2 * len(layout)))
    reduced = np.einsum(tensor, in_ids, out_ids)
    return reduced.reshape(len(entries), kept_layout.dim, kept_layout.dim), kept_layout


@functools.lru_cache(maxsize=64)
def _trace_plan(
    layout: SubsystemLayout, discard: frozenset[Subsystem]
) -> tuple[tuple[int, ...], tuple[int, ...], SubsystemLayout]:
    """einsum subscripts of trace_out, with a leading batch axis, and the kept layout."""
    labels = set(layout.factors)
    unknown = discard - labels
    if unknown:
        raise LayoutError(f"unknown labels {sorted(s.name for s in unknown)}")
    if discard == labels:
        raise DomainError("discard", "cannot trace out every factor")
    n = len(layout)
    keep = [i for i, f in enumerate(layout.factors) if f not in discard]
    batch = 2 * n
    row_ids = list(range(n))
    col_ids = [i if layout.factors[i] in discard else n + i for i in range(n)]
    out_ids = [i for i in keep] + [n + i for i in keep]
    kept_layout = SubsystemLayout(tuple(layout.factors[i] for i in keep))
    return (batch, *row_ids, *col_ids), (batch, *out_ids), kept_layout


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
    """
    if isinstance(matrix, DensityMatrix):
        matrix = matrix.entries
    a = np.array(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    check_hermitian(a[np.newaxis])
    a = (a + a.conj().T) / 2.0
    n = a.shape[0]
    if n == 1:
        return np.array([a[0, 0].real])

    skip_below = JACOBI_OFF_NORM_TOL / (100.0 * n)
    for _ in range(JACOBI_MAX_SWEEPS):
        if _off_diagonal_norm_sq(a) <= JACOBI_OFF_NORM_TOL**2:
            break
        for k in range(n - 1):
            for l in range(k + 1, n):
                _jacobi_rotate(a, k, l, skip_below)
    else:
        raise ConvergenceError(
            f"off-diagonal norm still {math.sqrt(_off_diagonal_norm_sq(a)):.3e} "
            f"after {JACOBI_MAX_SWEEPS} sweeps"
        )
    eigs = np.sort(np.diag(a).real)
    return eigs[::-1]


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
    """
    a = np.array(matrices, dtype=complex)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ShapeError(f"expected a stack of square matrices, got shape {a.shape}")
    check_hermitian(a)
    a = (a + np.conj(a).transpose(0, 2, 1)) / 2.0
    n = a.shape[1]
    if n == 1:
        return a[:, :, 0].real

    skip_below = JACOBI_OFF_NORM_TOL / (100.0 * n)
    active = np.arange(len(a))
    for _ in range(JACOBI_MAX_SWEEPS):
        # the negation of the scalar test, so a NaN matrix stays active
        converged = _off_diagonal_norms_sq(a[active]) <= JACOBI_OFF_NORM_TOL**2
        active = active[~converged]
        if not active.size:
            break
        work = a[active]
        for k in range(n - 1):
            for l in range(k + 1, n):
                _jacobi_rotate_batch(work, k, l, skip_below)
        a[active] = work
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
    the scalar rotation, each coefficient multiplying contiguous rows of
    length n as it does there.  Two functions need care: ``abs`` of a
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
