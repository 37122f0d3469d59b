"""Shared builders for the test suite."""

import numpy as np

from unruh_lab import (
    DensityMatrix,
    StateVector,
    Subsystem,
    SubsystemLayout,
    partial_trace,
    von_neumann_entropy,
)

TWO_QUBITS = SubsystemLayout((Subsystem.ALICE, Subsystem.BOB))
THREE_QUBITS = SubsystemLayout(
    (Subsystem.ALICE, Subsystem.BOB, Subsystem.REGION_I_PARTICLE)
)


def random_state(rng, layout) -> StateVector:
    amps = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
    return StateVector(layout, amps / np.linalg.norm(amps))


def random_density(rng, layout, rank=None) -> DensityMatrix:
    rank = rank or layout.dim
    x = rng.normal(size=(layout.dim, rank)) + 1j * rng.normal(size=(layout.dim, rank))
    m = x @ x.conj().T
    return DensityMatrix(layout, m / np.trace(m).real)


def random_hermitian(rng, n) -> np.ndarray:
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (x + x.conj().T) / 2


def bell_state(layout=TWO_QUBITS) -> StateVector:
    amps = np.zeros(4, dtype=complex)
    amps[0] = amps[3] = np.sqrt(0.5)
    return StateVector(layout, amps)


def assert_same_bits(got, want) -> None:
    """Equal shapes and equal bits: unlike ``==``, a -0 does not match a +0."""
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert (got.view(np.uint64) == want.view(np.uint64)).all()


def entropy_without(rho, *labels) -> float:
    """Entropy in bits of ``rho`` with ``labels`` traced out (none: of ``rho`` itself)."""
    return von_neumann_entropy(partial_trace(rho, set(labels)) if labels else rho)
