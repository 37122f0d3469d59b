"""Entropies of density matrices.

All entropies are in bits (base-2 logarithms), so a Bell pair's halves
each carry one bit.  Eigenvalues in [-PSD_TOL, 0) are treated as numerical
noise and clamped to zero; anything below that raises, signalling an
invalid construction rather than being silently absorbed.  The channel
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
    check_density_stack,
    eigvals_hermitian,
    eigvals_hermitian_batch,
)


def entropy_from_eigenvalues(eigenvalues: Iterable[float]) -> float:
    """Shannon entropy in bits of an eigenvalue distribution.

    Applies the clamping policy: values in [-PSD_TOL, 0) become 0 (with
    0 log 0 = 0), values below -PSD_TOL or not finite raise :class:`SpectrumError`.
    """
    lam = np.asarray(list(eigenvalues) if not isinstance(eigenvalues, np.ndarray) else eigenvalues, dtype=float)
    if lam.size and not lam.min() >= -PSD_TOL:
        raise _spectrum_error(float(lam.min()))
    lam = np.clip(lam, 0.0, None)
    positive = lam[lam > 0.0]
    if positive.size == 0:
        return 0.0
    entropy = float(-(positive * np.log2(positive)).sum())
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
    returns them, so the positive values of a row are a prefix of it.  Rows
    with the same number of positive values are summed together, in the
    order a single row is, so each result equals the scalar one bit for bit.
    Raises :class:`SpectrumError` for the first row below ``-PSD_TOL`` or
    holding NaN, and for any row holding an infinity.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    lowest = lam.min(axis=1, initial=0.0)
    low = ~(lowest >= -PSD_TOL)
    if low.any():
        raise _spectrum_error(float(lowest[np.argmax(low)]))
    lam = np.clip(lam, 0.0, None)
    positives = (lam > 0.0).sum(axis=1)
    entropies = np.zeros(len(lam))
    # the distinct counts, ascending; np.unique would import numpy.ma (about 1 MB)
    for count in np.flatnonzero(np.bincount(positives)[1:]) + 1:
        rows = positives == count
        p = lam[rows, :count]
        entropies[rows] = -(p * np.log2(p)).sum(axis=1)
    if not np.isfinite(entropies).all():
        raise _spectrum_error(math.inf)
    return entropies + 0.0


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-tr(rho log2 rho) in bits."""
    return float(von_neumann_entropies(rho.entries[np.newaxis])[0])


def von_neumann_entropies(matrices: np.ndarray) -> np.ndarray:
    """:func:`von_neumann_entropy` of each matrix of a stack (N, n, n).

    A stack of one goes to :func:`eigvals_hermitian`, which is faster than
    the batched solver for a single matrix; the results are the same.
    """
    if len(matrices) == 1:
        return np.array([entropy_from_eigenvalues(eigvals_hermitian(matrices[0]))])
    return entropies_from_eigenvalues(eigvals_hermitian_batch(matrices))


def checked_entropies(matrices: np.ndarray) -> np.ndarray:
    """Entropies of a stack (N, n, n), each checked first as :class:`DensityMatrix` checks it."""
    check_density_stack(matrices)
    return von_neumann_entropies(matrices)
