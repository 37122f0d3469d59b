"""Entropy-based channel diagnostics.

All quantities are in bits (base-2 logarithms), so a Bell pair has mutual
information 2 and conditional entropy -1.  Eigenvalues in [-PSD_TOL, 0) are
treated as numerical noise and clamped to zero; anything below that raises,
signalling an invalid construction rather than being silently absorbed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import LayoutError, SpectrumError
from .fock import (
    PSD_TOL,
    DensityMatrix,
    Subsystem,
    SubsystemLayout,
    check_density_stack,
    eigvals_hermitian,
    eigvals_hermitian_batch,
    partial_trace,
    trace_out,
)
from .states import REGION_I_FACTORS, REGION_II_FACTORS, BobRegion


def entropy_from_eigenvalues(eigenvalues: Iterable[float]) -> float:
    """Shannon entropy in bits of an eigenvalue distribution.

    Applies the clamping policy: values in [-PSD_TOL, 0) become 0 (with
    0 log 0 = 0), values below -PSD_TOL raise :class:`SpectrumError`.
    """
    lam = np.asarray(list(eigenvalues) if not isinstance(eigenvalues, np.ndarray) else eigenvalues, dtype=float)
    if lam.size and float(lam.min()) < -PSD_TOL:
        raise _spectrum_error(float(lam.min()))
    lam = np.clip(lam, 0.0, None)
    positive = lam[lam > 0.0]
    if positive.size == 0:
        return 0.0
    return float(-(positive * np.log2(positive)).sum()) + 0.0


def _spectrum_error(lowest: float) -> SpectrumError:
    return SpectrumError(f"eigenvalue {lowest:.3e} below the PSD tolerance -{PSD_TOL}")


def entropies_from_eigenvalues(eigenvalues: np.ndarray) -> np.ndarray:
    """:func:`entropy_from_eigenvalues` of each row of a stack (N, n).

    Rows must be in descending order, as :func:`eigvals_hermitian_batch`
    returns them, so the positive values of a row are a prefix of it.  Rows
    with the same number of positive values are summed together, in the
    order a single row is, so each result equals the scalar one bit for bit.
    Raises :class:`SpectrumError` for the first row below ``-PSD_TOL``.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    lowest = lam.min(axis=1, initial=0.0)
    low = lowest < -PSD_TOL
    if low.any():
        raise _spectrum_error(float(lowest[np.argmax(low)]))
    lam = np.clip(lam, 0.0, None)
    positives = (lam > 0.0).sum(axis=1)
    entropies = np.zeros(len(lam))
    for count in np.unique(positives[positives > 0]):
        rows = positives == count
        p = lam[rows, :count]
        entropies[rows] = -(p * np.log2(p)).sum(axis=1)
    return entropies + 0.0


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-tr(rho log2 rho) in bits."""
    return entropy_from_eigenvalues(eigvals_hermitian(rho))


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


@dataclass(frozen=True)
class BipartiteSplit:
    """Disjoint label sets that together cover a layout."""

    side_a: frozenset[Subsystem]
    side_b: frozenset[Subsystem]

    def __post_init__(self):
        object.__setattr__(self, "side_a", frozenset(self.side_a))
        object.__setattr__(self, "side_b", frozenset(self.side_b))
        if self.side_a & self.side_b:
            raise LayoutError("split sides must be disjoint")
        if not self.side_a or not self.side_b:
            raise LayoutError("both split sides must be non-empty")


@dataclass(frozen=True)
class TripartiteSplit:
    """Three disjoint label sets that together cover a layout."""

    side_a: frozenset[Subsystem]
    side_b: frozenset[Subsystem]
    side_c: frozenset[Subsystem]

    def __post_init__(self):
        object.__setattr__(self, "side_a", frozenset(self.side_a))
        object.__setattr__(self, "side_b", frozenset(self.side_b))
        object.__setattr__(self, "side_c", frozenset(self.side_c))
        sides = (self.side_a, self.side_b, self.side_c)
        if any(not side for side in sides):
            raise LayoutError("all split sides must be non-empty")
        total = len(self.side_a) + len(self.side_b) + len(self.side_c)
        if len(self.side_a | self.side_b | self.side_c) != total:
            raise LayoutError("split sides must be pairwise disjoint")


def _check_cover(rho: DensityMatrix, *sides: frozenset[Subsystem]) -> None:
    union = frozenset().union(*sides)
    if union != frozenset(rho.layout.factors):
        raise LayoutError(
            f"split {sorted(s.name for s in union)} does not cover the layout "
            f"{tuple(f.name for f in rho.layout.factors)}"
        )


def subsystem_entropies(rho: DensityMatrix, split: BipartiteSplit) -> tuple[float, float, float]:
    """(S(A), S(B), S(AB)) for a bipartite split of ``rho``."""
    _check_cover(rho, split.side_a, split.side_b)
    entropies = subsystem_entropies_batch(rho.entries[np.newaxis], rho.layout, split)
    return tuple(float(values[0]) for values in entropies)


def subsystem_entropies_batch(
    matrices: np.ndarray, layout: SubsystemLayout, split: BipartiteSplit
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`subsystem_entropies` of each density matrix of a stack (N, d, d) over ``layout``."""
    s_a = checked_entropies(trace_out(matrices, layout, split.side_b)[0])
    s_b = checked_entropies(trace_out(matrices, layout, split.side_a)[0])
    return s_a, s_b, von_neumann_entropies(matrices)


def mutual_information(rho: DensityMatrix, split: BipartiteSplit) -> float:
    """S(A) + S(B) - S(AB) in bits; the channel-capacity proxy."""
    s_a, s_b, s_ab = subsystem_entropies(rho, split)
    return s_a + s_b - s_ab


def conditional_entropy(rho: DensityMatrix, split: BipartiteSplit) -> float:
    """S(A|B) = S(AB) - S(B) in bits; negative values flag quantum advantage."""
    _check_cover(rho, split.side_a, split.side_b)
    s_b = von_neumann_entropy(partial_trace(rho, split.side_a))
    return von_neumann_entropy(rho) - s_b


def strong_additivity(rho: DensityMatrix, split: TripartiteSplit) -> float:
    """The conditional-entropy combination S(A|B) + S(A|C) in bits.

    Equals S(AB) - S(B) + S(AC) - S(C); weak monotonicity guarantees it is
    non-negative for every state.  Reported as computed, no sign enforced.
    """
    _check_cover(rho, split.side_a, split.side_b, split.side_c)
    return strong_additivities(
        [von_neumann_entropy(partial_trace(rho, discard)) for discard in ssa_discards(split)]
    )


def ssa_discards(split: TripartiteSplit) -> tuple[frozenset[Subsystem], ...]:
    """What :func:`strong_additivity` traces out for S(AB), S(AC), S(B), S(C), in its order."""
    return (
        split.side_c,
        split.side_b,
        split.side_a | split.side_c,
        split.side_a | split.side_b,
    )


def strong_additivities(entropies: Sequence) -> np.ndarray | float:
    """S(AB) - S(B) + S(AC) - S(C) from the entropies of the :func:`ssa_discards` parts.

    Each entropy is a float or a stack of them (N,), one per state.
    """
    s_ab, s_ac, s_b, s_c = entropies
    return s_ab - s_b + s_ac - s_c


def strong_additivity_swapped(rho: DensityMatrix, split: TripartiteSplit) -> float:
    """The variant S(AB) - S(A) + S(AC) - S(C) = S(B|A) + S(A|C), in bits.

    Unlike :func:`strong_additivity` this combination carries no
    non-negativity guarantee (it equals S(B) - S(A) on pure rho); it exists
    so the two can be compared on concrete states.
    """
    _check_cover(rho, split.side_a, split.side_b, split.side_c)
    s_ab = von_neumann_entropy(partial_trace(rho, split.side_c))
    s_ac = von_neumann_entropy(partial_trace(rho, split.side_b))
    s_a = von_neumann_entropy(partial_trace(rho, split.side_b | split.side_c))
    s_c = von_neumann_entropy(partial_trace(rho, split.side_a | split.side_b))
    return s_ab - s_a + s_ac - s_c


def region_split(region: BobRegion) -> BipartiteSplit:
    """Alice versus the two kept wedge modes, for a reduced three-factor state."""
    return BipartiteSplit(frozenset({Subsystem.ALICE}), region.kept_factors)


# Alice / region-I modes / region-II modes on the five-factor joint state.
JOINT_TRIPARTITE = TripartiteSplit(
    frozenset({Subsystem.ALICE}), REGION_I_FACTORS, REGION_II_FACTORS
)
