"""Unruh-mode states, Bob's encoding isometries, and channel builders.

A uniformly accelerated observer sees the inertial vacuum and one-particle
states as entangled states of four Rindler modes (region-I particle,
region-II antiparticle, region-I antiparticle, region-II particle, in that
order).  The acceleration enters through a mixing angle ``gamma`` in
[0, pi/4], with pi/4 the infinite-acceleration limit; ``q_r`` in [0, 1]
interpolates between right- and left-wedge Unruh operators (``q_r = 1`` is
the single-mode approximation).  Every amplitude is real, so the states
are float64, as the :mod:`unruh_lab.fock` classes hold them; those
classes reject a nonzero imaginary part.

Channels are prepared in the inertial frame on Alice (x) Bob, then Bob's
factor is lifted through an encoding isometry into the 16-dimensional
Rindler space, and either wedge is obtained by tracing out the other.
:func:`bob_isometries` and :func:`trace_lifted` do this for a whole stack
of grid points at once.  :func:`build_joints` is :func:`trace_lifted` with
nothing traced out, and :func:`build_joint` is it for one point.

The reductions use the structure of the lift, not a dense product.  Each
Unruh state has amplitudes on four fixed Rindler basis states
(``VACUUM_MODES``, ``PARTICLE_MODES``, ``ANTIPARTICLE_MODES``), and every
prepared state is zero outside its {|00>, |11>} block and diagonal.  So
each entry of a joint state is one product of an isometry entry, a
prepared-state entry and another isometry entry, and which entries can
be nonzero (96 of 1024) is known before any arithmetic.  Index plans,
computed once from those constants for each encoding and discard set,
gather just these products.  They are taken from the term plan of
:func:`~unruh_lab.fock.trace_out` and added by its in-order sum, so both
reductions add each reduced entry's terms in one order, lexicographic in
the traced factors, and the reduced states keep every bit, zero signs
included: 20 (single rail) or 14 (dual rail) of a wedge state's 64 entries
can be nonzero, and the others are exactly +0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError
from .fock import (
    DensityMatrix,
    StateVector,
    Subsystem,
    SubsystemLayout,
    _add_in_order,
    _trace_terms,
    check_density_stack,
    check_isometries,
    check_norms,
    outer_product,
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

REGION_I_FACTORS = frozenset({Subsystem.REGION_I_PARTICLE, Subsystem.REGION_I_ANTIPARTICLE})
REGION_II_FACTORS = frozenset({Subsystem.REGION_II_ANTIPARTICLE, Subsystem.REGION_II_PARTICLE})


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
        gamma = read_real("gamma", self.gamma, 0.0, GAMMA_MAX, "[0, pi/4]")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "q_r", read_real("q_r", self.q_r, 0.0, 1.0))

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
    positive = (math.ulp(0.0), math.nextafter(math.inf, 0.0))  # the positive finite floats
    names = ("omega", "acceleration", "light_speed")
    omega, acceleration, light_speed = (
        read_real(name, value, *positive, "(0, inf)")
        for name, value in zip(names, (omega, acceleration, light_speed))
    )
    exponent = -2.0 * math.pi * omega * light_speed / acceleration
    return math.acos((math.exp(exponent) + 1.0) ** -0.5)


# The basis states over RINDLER_LAYOUT on which each Unruh state has its
# amplitudes, in the order _rindler_amplitudes writes them.  Every other
# amplitude is zero, which fixes where the lifted states can be nonzero.
VACUUM_MODES = (0b0000, 0b0011, 0b1100, 0b1111)
PARTICLE_MODES = (0b1000, 0b1011, 0b1101, 0b0001)
ANTIPARTICLE_MODES = (0b0100, 0b0111, 0b1110, 0b0010)


def _rindler_amplitudes(
    gammas: Sequence[float], q_rs: Sequence[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vacuum, particle and antiparticle amplitudes, each (N, 16), per (gamma, q_r)."""
    c = np.array([math.cos(gamma) for gamma in gammas])
    s = np.array([math.sin(gamma) for gamma in gammas])
    q_r = np.array(q_rs, dtype=float)
    q_l = np.array([_left_weight(q) for q in q_rs])
    vacuum = _on_modes(VACUUM_MODES, c * c, -s * c, s * c, -s * s)
    particle = _on_modes(PARTICLE_MODES, q_r * c, -q_r * s, q_l * s, q_l * c)
    antiparticle = _on_modes(ANTIPARTICLE_MODES, q_l * c, -q_l * s, q_r * s, q_r * c)
    return vacuum, particle, antiparticle


def _on_modes(modes: tuple[int, ...], *amplitudes: np.ndarray) -> np.ndarray:
    """States (N, 16) with the given amplitudes on ``modes`` and zeros elsewhere."""
    states = np.zeros((len(amplitudes[0]), 16))
    for mode, amplitude in zip(modes, amplitudes):
        states[:, mode] = amplitude
    return states


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


# Which of (vacuum, particle, antiparticle) carry Bob's basis states 0 and 1,
# and the modes each of those two isometry columns can be nonzero on.
_ENCODING_STATES = {Encoding.SINGLE_RAIL: (0, 1), Encoding.DUAL_RAIL: (1, 2)}
_STATE_MODES = (VACUUM_MODES, PARTICLE_MODES, ANTIPARTICLE_MODES)


def bob_isometries(
    encoding: Encoding, gammas: Sequence[float], q_rs: Sequence[float]
) -> np.ndarray:
    """Embeddings of Bob's inertial qubit basis into the Rindler space, stacked (N, 16, 2).

    Matrix i is the embedding at ``(gammas[i], q_rs[i])``, in float64: its
    column j is the image of Bob's basis state j over ``RINDLER_LAYOUT``.
    Its columns must be orthonormal, and each of unit norm as :class:`StateVector` checks
    it, every column 0 before any column 1.  The parameters are not checked here.
    """
    if not isinstance(encoding, Encoding):
        raise DomainError("encoding", f"unknown encoding {encoding!r}")
    amplitudes = _rindler_amplitudes(gammas, q_rs)
    columns = np.concatenate([amplitudes[i] for i in _ENCODING_STATES[encoding]])
    check_norms(columns)
    matrices = columns.reshape(2, -1, 16).transpose(1, 2, 0).copy()
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
        object.__setattr__(self, "alpha", check_alpha(self.alpha, werner))
        if werner:
            if self.fidelity_f is None:
                raise DomainError("f", "required for the werner family")
            object.__setattr__(self, "fidelity_f", read_real("f", self.fidelity_f, 0.0, 1.0))
        elif self.fidelity_f is not None:
            raise DomainError("f", "only meaningful for the werner family")


def read_real(name: str, value, low: float, high: float, span: str = "") -> float:
    """``value`` as a float if it is an int, float or numpy real scalar, not a bool, within
    the finite range [low, high]; else :class:`DomainError` naming ``name`` and ``span``."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise DomainError(name, f"must be a real number, got {value!r}")
    number = value if isinstance(value, int) else float(value)  # float() overflows on a huge int
    if not low <= number <= high:  # NaN fails it too
        span = span or f"[{low:g}, {high:g}]"
        raise DomainError(name, f"must be within {span}, got {value}")
    return float(number)


def check_alpha(alpha: float, werner: bool) -> float:
    """``alpha`` read by :func:`read_real` within [0, pi], and pi/4 for Werner."""
    alpha = read_real("alpha", alpha, 0.0, math.pi, "[0, pi]")
    if werner and abs(alpha - BELL_ALPHA) > 1e-9:
        raise DomainError("alpha", "fixed at pi/4 for the werner family")
    return alpha


# Every family's prepared state is zero outside the {|00>, |11>} block and
# the diagonal, which only the Werner noise fills.
_PREPARED_SUPPORT = np.eye(4, dtype=bool)
_PREPARED_SUPPORT[np.ix_((0b00, 0b11), (0b00, 0b11))] = True
_PREPARED_SUPPORT.flags.writeable = False


def build_inertial(spec: ChannelSpec) -> DensityMatrix:
    """The prepared Alice (x) Bob state before Bob accelerates.

    Quantum families give the pure superposition cos(alpha)|00> +
    sin(alpha)|11>; classical families give the diagonal mixture with
    weights cos^2(alpha), sin^2(alpha); Werner mixes the alpha = pi/4 pure
    state with white noise.
    """
    family = spec.family
    if family.is_quantum:
        amps = np.zeros(4)
        amps[0b00] = math.cos(spec.alpha)
        amps[0b11] = math.sin(spec.alpha)
        return outer_product(StateVector(INERTIAL_LAYOUT, amps))
    if family.is_classical:
        entries = np.zeros((4, 4))
        entries[0b00, 0b00] = math.cos(spec.alpha) ** 2
        entries[0b11, 0b11] = math.sin(spec.alpha) ** 2
        return DensityMatrix(INERTIAL_LAYOUT, entries)
    # Werner: fidelity-weighted mixture of the Bell projector and white noise
    bell = np.zeros(4)
    bell[0b00] = bell[0b11] = math.sqrt(0.5)
    f = spec.fidelity_f
    entries = f * np.outer(bell, bell)
    entries += (1.0 - f) / 4.0 * np.eye(4)
    return DensityMatrix(INERTIAL_LAYOUT, entries)


def build_joint(spec: ChannelSpec) -> DensityMatrix:
    """The shared state after Bob accelerates: Alice plus four Rindler modes."""
    inertial = build_inertial(spec).entries[np.newaxis]
    accel = spec.accel
    encoding = spec.family.encoding
    isometries = bob_isometries(encoding, [accel.gamma], [accel.q_r])
    return DensityMatrix(JOINT_LAYOUT, build_joints(encoding, inertial, isometries)[0])


def build_joints(
    encoding: Encoding, inertial: np.ndarray, isometries: np.ndarray
) -> np.ndarray:
    """Prepared states (N, 4, 4) lifted by Bob's isometries (N, 16, 2) into ``JOINT_LAYOUT``.

    This is :func:`trace_lifted` with nothing traced out.  Each joint
    (32, 32) is checked as :class:`DensityMatrix` checks it.
    """
    joints, _ = trace_lifted(encoding, inertial, isometries, [()])[0]
    check_density_stack(joints)
    return joints


def trace_lifted(
    encoding: Encoding,
    inertial: np.ndarray,
    isometries: np.ndarray,
    discards: Sequence[Iterable[Subsystem]],
) -> list[tuple[np.ndarray, SubsystemLayout]]:
    """Partial traces of the lifted states over each discard set, without the joints.

    The prepared states (N, 4, 4) are lifted by Bob's isometries (N, 16, 2)
    of ``encoding`` through ``kron(eye(2), V)`` into ``JOINT_LAYOUT``.  For
    each discard set this returns the reduced stack and its layout, equal
    bit for bit to :func:`~unruh_lab.fock.trace_out` of the joint states.

    Every row r of the lift has at most one nonzero entry, in a column c_r
    fixed by the encoding, so each joint entry is the single product
    ``(lift[r, c_r] * rho[c_r, c_r']) * lift[r', c_r']``.  Only the
    products that can be nonzero and that the discard sets read
    (:func:`_call_plan`) are computed.  Each reduced entry takes its terms
    from the plan ``trace_out`` uses, and adds them with the same in-order
    sum, one value of the traced factors after another in lexicographic
    order, skipping only terms that are zero.  The inputs must be zero
    outside the plans' pattern, as :func:`bob_isometries` and
    :func:`build_inertial` make them; the reduced stacks are not checked.
    """
    n = len(isometries)
    first, middle, last, plans = _call_plan(
        encoding, tuple(frozenset(discard) for discard in discards)
    )
    values = np.ascontiguousarray(isometries.reshape(n, -1).T)
    prepared = np.ascontiguousarray(inertial.reshape(n, -1).T)
    # the joint entries the reductions read (R, N), then a row of zeros for
    # the plans to pad with; the sums start from +0, so adding it changes no bit
    entries = np.zeros((len(first) + 1, n))
    np.multiply(values[first], prepared[middle], out=entries[:-1])
    entries[:-1] *= values[last]
    reductions = []
    for positions, terms, kept_layout in plans:
        reduced = np.zeros((n, kept_layout.dim**2))
        reduced[:, positions] = _add_in_order(entries, terms).T
        reductions.append((reduced.reshape(n, kept_layout.dim, kept_layout.dim), kept_layout))
    return reductions


def _isometry_support(encoding: Encoding) -> np.ndarray:
    """Where the isometries (16, 2) of ``encoding`` can be nonzero."""
    support = np.zeros((16, 2), dtype=bool)
    for j, state in enumerate(_ENCODING_STATES[encoding]):
        support[_STATE_MODES[state], j] = True
    return support


@functools.lru_cache(maxsize=16)
def _call_plan(
    encoding: Encoding, discards: tuple[frozenset[Subsystem], ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple]:
    """The plans of one :func:`trace_lifted` call: only the joint entries it reads.

    Returns, for the R joint entries that ``discards`` read, in ascending
    order of their flat positions in the (32, 32) joint, the index of
    ``lift[r, c_r]`` in ``isometries.reshape(N, 32)``, of
    ``rho[c_r, c_r']`` in ``inertial.reshape(N, 16)`` and of
    ``lift[r', c_r']``.  Then, for each discard set, a plan: the flat
    positions (P,) of the reduced entries that can be nonzero; for each of
    them, the indices (M, P) of the R entries that add up to it, in the
    order of the terms of :func:`~unruh_lab.fock.trace_out`, padded at the
    end with index R; and the kept layout.  Which joint entries can be
    nonzero (96) follows from the mode constants and the prepared-state
    pattern alone, never from the values at a sample point.  A wedge reads
    28 of them, both wedges 40.
    """
    # joint row 16a + m (Alice reads a, the Rindler modes read m) has its
    # lift entry at isometry entry (m, j), where column j is nonzero on m,
    # and that entry multiplies prepared-state row (or column) 2a + j
    modes, js = np.nonzero(_isometry_support(encoding))
    value = np.full(JOINT_LAYOUT.dim, -1)
    column = np.full(JOINT_LAYOUT.dim, -1)
    for a in (0, 1):
        value[16 * a + modes] = 2 * modes + js
        column[16 * a + modes] = 2 * a + js
    lifted = column >= 0
    nonzero = (np.outer(lifted, lifted) & _PREPARED_SUPPORT[np.ix_(column, column)]).ravel()
    padding = len(nonzero)
    # a mask, not np.unique, which imports numpy.ma (about 1 MB)
    read = np.zeros(padding + 1, dtype=bool)
    gathers = []
    for discard in discards:
        plan_terms, kept_layout = _trace_terms(JOINT_LAYOUT, discard)
        present = nonzero[plan_terms]  # (T, K * K)
        positions = np.flatnonzero(present.any(axis=0))
        # each entry's present terms first, in their order, then the padding
        slots = np.where(present, plan_terms, padding)[:, positions]
        order = np.argsort(~present[:, positions], axis=0, kind="stable")
        terms = np.take_along_axis(slots, order, axis=0)
        terms = terms[: present.sum(axis=0).max()]
        read[terms] = True
        gathers.append((positions, terms, kept_layout))
    used = np.flatnonzero(read[:padding])
    renumber = np.full(padding + 1, len(used))
    renumber[used] = np.arange(len(used))
    plans = []
    for positions, terms, kept_layout in gathers:
        terms = renumber[terms]
        positions.flags.writeable = False
        terms.flags.writeable = False
        plans.append((positions, terms, kept_layout))
    rows, cols = np.divmod(used, JOINT_LAYOUT.dim)
    indices = (value[rows], 4 * column[rows] + column[cols], value[cols])
    for factor in indices:
        factor.flags.writeable = False
    return (*indices, tuple(plans))


class BobRegion(Enum):
    """Which Rindler wedge the receiver occupies.

    The receiver's state is ``partial_trace(joint, region.traced_factors)``:
    both modes of the kept wedge (particle and antiparticle) are retained,
    since the receiver's detector does not distinguish them.  Enum values
    double as the command-line tokens.
    """

    I = "bob-i"
    II = "bob-ii"

    @property
    def kept_factors(self) -> frozenset[Subsystem]:
        return REGION_I_FACTORS if self is BobRegion.I else REGION_II_FACTORS

    @property
    def traced_factors(self) -> frozenset[Subsystem]:
        return REGION_II_FACTORS if self is BobRegion.I else REGION_I_FACTORS
