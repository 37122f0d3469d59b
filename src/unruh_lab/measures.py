"""Von Neumann entropies of density matrices, in bits (base-2 logarithms).

:func:`entropy_from_eigenvalues` holds the rule for eigenvalues at or below
zero, :func:`von_neumann_entropies` the checks a stack gets.  The channel
measures built from these entropies are computed by :mod:`unruh_lab.sweep`.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .errors import SpectrumError
from .fock import (
    PSD_TOL,
    DensityMatrix,
    check_traces,
    eigvals_hermitian,
    eigvals_hermitian_batch,
)


def entropy_from_eigenvalues(eigenvalues: Iterable[float]) -> float:
    """Shannon entropy in bits of an eigenvalue distribution.

    Only the positive values are summed: values in [-PSD_TOL, 0] are dropped
    as numerical noise (0 log 0 = 0), values below -PSD_TOL or not finite
    raise :class:`SpectrumError`, since they signal an invalid construction.
    """
    lam = np.asarray(list(eigenvalues) if not isinstance(eigenvalues, np.ndarray) else eigenvalues, dtype=float)
    if lam.size and not np.minimum.reduce(lam, axis=None) >= -PSD_TOL:
        raise _spectrum_error(float(lam.min()))
    positive = lam[lam > 0.0]  # if none, the sum is -0.0, and the + 0.0 below makes it +0.0
    entropy = -float(np.add.reduce(positive * np.log2(positive)))
    if not math.isfinite(entropy):
        raise _spectrum_error(math.inf)
    return entropy + 0.0


def _spectrum_error(value: float) -> SpectrumError:
    if not math.isfinite(value):
        return SpectrumError(f"non-finite eigenvalue {value}")
    return SpectrumError(f"eigenvalue {value:.3e} below the PSD tolerance -{PSD_TOL}")


def entropies_from_eigenvalues(eigenvalues: np.ndarray) -> np.ndarray:
    """:func:`entropy_from_eigenvalues` of each row of a stack (N, n).

    Rows must be in descending order, as :func:`eigvals_hermitian_batch`
    returns them, so the positive values, the only ones summed, are a prefix
    of a row.  Rows with the same number of positive values are summed
    together, in the order a single row is, so each result equals the
    scalar one bit for bit.
    Raises :class:`SpectrumError` for the first row below ``-PSD_TOL`` or
    holding NaN, and for any row holding an infinity.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    lowest = np.minimum.reduce(lam, axis=1, initial=0.0)
    low = ~(lowest >= -PSD_TOL)
    if np.logical_or.reduce(low):
        raise _spectrum_error(float(lowest[np.argmax(low)]))
    positives = np.add.reduce(lam > 0.0, axis=1)
    entropies = np.zeros(len(lam))
    # the distinct counts, ascending; np.unique would import numpy.ma (about 1 MB)
    for count in np.flatnonzero(np.bincount(positives)[1:]) + 1:
        rows = positives == count
        p = lam[rows, :count]
        entropies[rows] = -np.add.reduce(p * np.log2(p), axis=1)
    if not np.logical_and.reduce(np.isfinite(entropies)):
        raise _spectrum_error(math.inf)
    return entropies + 0.0


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-tr(rho log2 rho) in bits."""
    return float(von_neumann_entropies(rho.entries[np.newaxis])[0])


def von_neumann_entropies(matrices: np.ndarray) -> np.ndarray:
    """:func:`von_neumann_entropy` of each matrix of a stack (N, n, n).

    Raises :class:`NormalizationError` for the first matrix off unit trace,
    then :class:`SymmetryError` (from the eigensolver) for the first one
    that is not Hermitian, as :class:`DensityMatrix` would.  Each check runs
    once, so a stack needs no check before it is passed in.  A stack of one
    goes to :func:`eigvals_hermitian`, which rotates it in Python floats,
    faster than the batched solver for a single matrix; the results are
    the same.
    """
    check_traces(matrices)
    if len(matrices) == 1:
        return np.array([entropy_from_eigenvalues(eigvals_hermitian(matrices[0]))])
    return entropies_from_eigenvalues(eigvals_hermitian_batch(matrices))
