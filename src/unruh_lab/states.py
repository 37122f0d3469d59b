"""Unruh-mode states, Bob's encoding isometries, and channel builders.

A uniformly accelerated observer sees the inertial vacuum and one-particle
states as entangled states of four Rindler modes (region-I particle,
region-II antiparticle, region-I antiparticle, region-II particle, in that
order).  The acceleration enters through a mixing angle ``gamma`` in
[0, pi/4], with pi/4 the infinite-acceleration limit; ``q_r`` in [0, 1]
interpolates between right- and left-wedge Unruh operators (``q_r = 1`` is
the single-mode approximation).

Channels are prepared in the inertial frame on Alice (x) Bob, then Bob's
factor is lifted through an encoding isometry into the 16-dimensional
Rindler space, and either wedge is obtained by tracing out the other.
:func:`bob_isometries` and :func:`build_joints` do this for a whole stack
of grid points at once; :func:`build_joint` is a stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import DomainError, LayoutError
from .fock import (
    DensityMatrix,
    StateVector,
    Subsystem,
    SubsystemLayout,
    check_density_stack,
    check_isometries,
    check_norms,
    outer_product,
    partial_trace,
)

GAMMA_MAX = math.pi / 4
BELL_ALPHA = math.pi / 4

RINDLER_FACTORS = (
    Subsystem.REGION_I_PARTICLE,
    Subsystem.REGION_II_ANTIPARTICLE,
    Subsystem.REGION_I_ANTIPARTICLE,
    Subsystem.REGION_II_PARTICLE,
)
RINDLER_LAYOUT = SubsystemLayout(RINDLER_FACTORS)
INERTIAL_LAYOUT = SubsystemLayout((Subsystem.ALICE, Subsystem.BOB))
JOINT_FACTORS = (Subsystem.ALICE,) + RINDLER_FACTORS
JOINT_LAYOUT = SubsystemLayout(JOINT_FACTORS)

REGION_I_FACTORS = frozenset(
    {Subsystem.REGION_I_PARTICLE, Subsystem.REGION_I_ANTIPARTICLE}
)
REGION_II_FACTORS = frozenset(
    {Subsystem.REGION_II_ANTIPARTICLE, Subsystem.REGION_II_PARTICLE}
)


@dataclass(frozen=True)
class AccelerationParams:
    """Acceleration mixing angle and right-wedge weight.

    ``gamma`` is in radians within [0, pi/4]; pi/4 represents infinite
    acceleration.  ``q_r`` is in [0, 1]; the left weight ``q_l`` is derived
    as sqrt(1 - q_r**2) so the two always satisfy q_r**2 + q_l**2 = 1.
    """

    gamma: float
    q_r: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.gamma <= GAMMA_MAX):
            raise DomainError("gamma", f"must be within [0, pi/4], got {self.gamma}")
        if not (0.0 <= self.q_r <= 1.0):
            raise DomainError("q_r", f"must be within [0, 1], got {self.q_r}")

    @property
    def q_l(self) -> float:
        return _left_weight(self.q_r)


def _left_weight(q_r: float) -> float:
    return math.sqrt(max(0.0, 1.0 - q_r * q_r))


def gamma_from_acceleration(omega: float, acceleration: float, light_speed: float) -> float:
    """Mixing angle for a mode of frequency ``omega`` at a given proper acceleration.

    cos(gamma) = (exp(-2 pi omega c / a) + 1)^(-1/2); the result grows from 0
    (inertial) towards pi/4 (infinite acceleration).
    """
    for name, value in (
        ("omega", omega),
        ("acceleration", acceleration),
        ("light_speed", light_speed),
    ):
        if not (0.0 < value < math.inf):
            raise DomainError(name, f"must be positive and finite, got {value}")
    exponent = -2.0 * math.pi * omega * light_speed / acceleration
    return math.acos((math.exp(exponent) + 1.0) ** -0.5)


def _rindler_amplitudes(
    gammas: Sequence[float], q_rs: Sequence[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vacuum, particle and antiparticle amplitudes, each (N, 16), per (gamma, q_r)."""
    c = np.array([math.cos(gamma) for gamma in gammas])
    s = np.array([math.sin(gamma) for gamma in gammas])
    q_r = np.array(q_rs, dtype=float)
    q_l = np.array([_left_weight(q) for q in q_rs])
    vacuum = np.zeros((len(c), 16), dtype=complex)
    vacuum[:, 0b0000] = c * c
    vacuum[:, 0b0011] = -s * c
    vacuum[:, 0b1100] = s * c
    vacuum[:, 0b1111] = -s * s
    particle = np.zeros((len(c), 16), dtype=complex)
    particle[:, 0b1000] = q_r * c
    particle[:, 0b1011] = -q_r * s
    particle[:, 0b1101] = q_l * s
    particle[:, 0b0001] = q_l * c
    antiparticle = np.zeros((len(c), 16), dtype=complex)
    antiparticle[:, 0b0100] = q_l * c
    antiparticle[:, 0b0111] = -q_l * s
    antiparticle[:, 0b1110] = q_r * s
    antiparticle[:, 0b0010] = q_r * c
    return vacuum, particle, antiparticle


def unruh_vacuum(accel: AccelerationParams) -> StateVector:
    """Vacuum as seen in the four Rindler modes; independent of ``q_r``."""
    vacuum, _, _ = _rindler_amplitudes([accel.gamma], [accel.q_r])
    return StateVector(RINDLER_LAYOUT, vacuum[0])


def unruh_particle(accel: AccelerationParams) -> StateVector:
    """One-particle excitation over the Rindler modes."""
    _, particle, _ = _rindler_amplitudes([accel.gamma], [accel.q_r])
    return StateVector(RINDLER_LAYOUT, particle[0])


def unruh_antiparticle(accel: AccelerationParams) -> StateVector:
    """One-antiparticle excitation over the Rindler modes."""
    _, _, antiparticle = _rindler_amplitudes([accel.gamma], [accel.q_r])
    return StateVector(RINDLER_LAYOUT, antiparticle[0])


class Encoding(Enum):
    """How Bob's logical qubit is carried by the field modes."""

    SINGLE_RAIL = "single-rail"  # vacuum vs one particle
    DUAL_RAIL = "dual-rail"  # particle vs antiparticle


def bob_isometry(encoding: Encoding, accel: AccelerationParams) -> np.ndarray:
    """Embedding (16, 2) of Bob's inertial qubit basis into the Rindler space.

    Column j is the image of Bob's basis state j over ``RINDLER_LAYOUT``.
    """
    return bob_isometries(encoding, [accel.gamma], [accel.q_r])[0]


def bob_isometries(
    encoding: Encoding, gammas: Sequence[float], q_rs: Sequence[float]
) -> np.ndarray:
    """The matrices of :func:`bob_isometry` at each (gamma, q_r), stacked (N, 16, 2).

    Each column must have unit norm, as :class:`StateVector` checks it, and
    the columns must be orthonormal.  The parameters are not checked here.
    """
    vacuum, particle, antiparticle = _rindler_amplitudes(gammas, q_rs)
    if encoding is Encoding.SINGLE_RAIL:
        columns = (vacuum, particle)
    elif encoding is Encoding.DUAL_RAIL:
        columns = (particle, antiparticle)
    else:
        raise DomainError("encoding", f"unknown encoding {encoding!r}")
    matrices = np.stack(columns, axis=2)
    check_norms(columns[0])
    check_norms(columns[1])
    check_isometries(matrices)
    return matrices


class ChannelFamily(Enum):
    """The five channel preparations this package models.

    Enum values double as the command-line tokens.
    """

    QUANTUM_SINGLE_RAIL = "quantum-single"
    QUANTUM_DUAL_RAIL = "quantum-dual"
    CLASSICAL_SINGLE_RAIL = "classical-single"
    CLASSICAL_DUAL_RAIL = "classical-dual"
    WERNER = "werner"

    @property
    def encoding(self) -> Encoding:
        if self in (ChannelFamily.QUANTUM_DUAL_RAIL, ChannelFamily.CLASSICAL_DUAL_RAIL):
            return Encoding.DUAL_RAIL
        return Encoding.SINGLE_RAIL

    @property
    def is_classical(self) -> bool:
        return self in (
            ChannelFamily.CLASSICAL_SINGLE_RAIL,
            ChannelFamily.CLASSICAL_DUAL_RAIL,
        )

    @property
    def is_quantum(self) -> bool:
        return self in (
            ChannelFamily.QUANTUM_SINGLE_RAIL,
            ChannelFamily.QUANTUM_DUAL_RAIL,
        )


@dataclass(frozen=True)
class ChannelSpec:
    """One fully parameterized channel preparation.

    ``alpha`` weights the two branches of the prepared state.  It lies in
    [0, pi], one full period of every family's prepared state, and is fixed
    at pi/4 (to within 1e-9, since the Werner state never reads it) for the
    Werner family; ``fidelity_f`` is the Werner mixing weight and is
    meaningless for the other families.
    """

    family: ChannelFamily
    accel: AccelerationParams
    alpha: float = BELL_ALPHA
    fidelity_f: float | None = None

    def __post_init__(self):
        if not isinstance(self.family, ChannelFamily):
            raise DomainError("family", f"must be a ChannelFamily, got {self.family!r}")
        werner = self.family is ChannelFamily.WERNER
        check_alpha(self.alpha, werner)
        if werner:
            if self.fidelity_f is None:
                raise DomainError("f", "required for the werner family")
            if not (0.0 <= self.fidelity_f <= 1.0):
                raise DomainError("f", f"must be within [0, 1], got {self.fidelity_f}")
        elif self.fidelity_f is not None:
            raise DomainError("f", "only meaningful for the werner family")


def check_alpha(alpha: float, werner: bool) -> None:
    """Raise :class:`DomainError` unless ``alpha`` is within [0, pi], and pi/4 for Werner."""
    if not (0.0 <= alpha <= math.pi):
        raise DomainError("alpha", f"must be within [0, pi], got {alpha}")
    if werner and abs(alpha - BELL_ALPHA) > 1e-9:
        raise DomainError("alpha", "fixed at pi/4 for the werner family")


def _bell_pair() -> StateVector:
    amps = np.zeros(4, dtype=complex)
    amps[0b00] = amps[0b11] = math.sqrt(0.5)
    return StateVector(INERTIAL_LAYOUT, amps)


def build_inertial(spec: ChannelSpec) -> DensityMatrix:
    """The prepared Alice (x) Bob state before Bob accelerates.

    Quantum families give the pure superposition cos(alpha)|00> +
    sin(alpha)|11>; classical families give the diagonal mixture with
    weights cos^2(alpha), sin^2(alpha); Werner mixes the alpha = pi/4 pure
    state with white noise.
    """
    family = spec.family
    if family.is_quantum:
        amps = np.zeros(4, dtype=complex)
        amps[0b00] = math.cos(spec.alpha)
        amps[0b11] = math.sin(spec.alpha)
        return outer_product(StateVector(INERTIAL_LAYOUT, amps))
    if family.is_classical:
        entries = np.zeros((4, 4), dtype=complex)
        entries[0b00, 0b00] = math.cos(spec.alpha) ** 2
        entries[0b11, 0b11] = math.sin(spec.alpha) ** 2
        return DensityMatrix(INERTIAL_LAYOUT, entries)
    # Werner: fidelity-weighted mixture of the Bell projector and white noise
    bell = _bell_pair()
    f = spec.fidelity_f
    entries = f * np.outer(bell.amplitudes, bell.amplitudes.conj())
    entries += (1.0 - f) / 4.0 * np.eye(4)
    return DensityMatrix(INERTIAL_LAYOUT, entries)


def build_joint(spec: ChannelSpec) -> DensityMatrix:
    """The shared state after Bob accelerates: Alice plus four Rindler modes."""
    inertial = build_inertial(spec).entries[np.newaxis]
    accel = spec.accel
    isometries = bob_isometries(spec.family.encoding, [accel.gamma], [accel.q_r])
    return DensityMatrix(JOINT_LAYOUT, build_joints(inertial, isometries)[0])


def build_joints(inertial: np.ndarray, isometries: np.ndarray) -> np.ndarray:
    """Prepared states (N, 4, 4) lifted by Bob's isometries (N, 16, 2) into ``JOINT_LAYOUT``.

    Bob is the second factor of ``INERTIAL_LAYOUT``, so each state is lifted
    through ``kron(eye(2), V)``.  Each joint (32, 32) is checked as
    :class:`DensityMatrix` checks it.
    """
    lift = np.kron(np.eye(2), isometries)
    joints = lift @ inertial @ np.conj(lift).transpose(0, 2, 1)
    check_density_stack(joints)
    return joints


class BobRegion(Enum):
    """Which Rindler wedge the receiver occupies.

    Enum values double as the command-line tokens.
    """

    I = "bob-i"
    II = "bob-ii"

    @property
    def kept_factors(self) -> frozenset[Subsystem]:
        return REGION_I_FACTORS if self is BobRegion.I else REGION_II_FACTORS

    @property
    def traced_factors(self) -> frozenset[Subsystem]:
        return REGION_II_FACTORS if self is BobRegion.I else REGION_I_FACTORS


def reduce_to_region(joint: DensityMatrix, region: BobRegion) -> DensityMatrix:
    """Trace out the wedge the receiver cannot access.

    Both modes of the kept wedge (particle and antiparticle) are retained:
    the receiver's detector does not distinguish them.
    """
    if joint.layout != JOINT_LAYOUT:
        raise LayoutError(
            f"expected the five-factor joint layout {JOINT_FACTORS}, "
            f"got {joint.layout.factors}"
        )
    return partial_trace(joint, region.traced_factors)
