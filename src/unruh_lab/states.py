"""Unruh-mode states, Bob's encoding isometries, and channel builders.

A uniformly accelerated observer sees the inertial vacuum and one-particle
states as entangled states of four Rindler modes (``RINDLER_FACTORS``),
set by :class:`AccelerationParams`.  A channel is prepared on Alice (x) Bob
(:func:`build_inertial`); Bob's factor is lifted into the Rindler modes by
an encoding isometry (:func:`bob_isometries`, from the tables
``_UNRUH_STATES`` and ``_ENCODING_BASIS``), and a wedge is the partial
trace over the other one (:func:`trace_lifted`, which adds the rows of the
term table :func:`~unruh_lab.fock.trace_out` adds; :func:`build_joint`
traces nothing out).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, ShapeError
from .fock import (
    DensityMatrix,
    StateVector,
    Subsystem,
    SubsystemLayout,
    _add_in_order,
    _trace_terms,
    check_isometries,
    check_norms,
)

GAMMA_MAX = math.pi / 4
BELL_ALPHA = math.pi / 4

# the Rindler modes, in the joint's factor order after Alice
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
    acceleration.  ``q_r`` is in [0, 1] and weighs the right-wedge Unruh
    operator (1 is the single-mode approximation); the left weight ``q_l``
    is derived as sqrt(1 - q_r**2) so the two always satisfy
    q_r**2 + q_l**2 = 1.
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


class Encoding(Enum):
    """How Bob's logical qubit is carried by the field modes."""

    SINGLE_RAIL = "single-rail"
    DUAL_RAIL = "dual-rail"

    __hash__ = object.__hash__  # in C, as fock.Subsystem's: it keys _call_plan


# each Unruh state's basis states over RINDLER_LAYOUT and its amplitude on each,
# the product of two factors of _FACTORS: "-s c" is (-sin(gamma)) * cos(gamma)
_UNRUH_STATES = {
    "vacuum": ((0b0000, 0b0011, 0b1100, 0b1111), ("c c", "-s c", "s c", "-s s")),
    "particle": ((0b1000, 0b1011, 0b1101, 0b0001), ("q_r c", "-q_r s", "q_l s", "q_l c")),
    "antiparticle": ((0b0100, 0b0111, 0b1110, 0b0010), ("q_l c", "-q_l s", "q_r s", "q_r c")),
}
# the rows of _rindler_amplitudes' factor table: cos(gamma), sin(gamma), q_r and q_l,
# then their negatives, so that a negated product is the product of a negated factor
_FACTORS = ("c", "s", "q_r", "q_l", "-c", "-s", "-q_r", "-q_l")
# the Unruh states that carry Bob's basis states 0 and 1 in each encoding
_ENCODING_BASIS = {
    Encoding.SINGLE_RAIL: ("vacuum", "particle"),
    Encoding.DUAL_RAIL: ("particle", "antiparticle"),
}


def _rindler_amplitudes(
    states: Sequence[str], gammas: Sequence[float], q_rs: Sequence[float]
) -> np.ndarray:
    """The Unruh ``states`` (keys of ``_UNRUH_STATES``) per (gamma, q_r), (len(states), N, 16).

    The result is a view of one stack (N, 16, len(states)), state k in
    column k, as :func:`bob_isometries` stacks its isometries.  Each
    amplitude is the product of two rows of the factor table (8, N),
    gathered by the index arrays of :func:`_amplitude_plan`.  cos and sin
    run per point, in one C loop with the other rows; ``_left_weight``,
    a Python function, runs once per distinct q_r, whose value is all it
    reads (a -0.0 and a 0.0 give the same weight).
    """
    slots, left, right = _amplitude_plan(tuple(states))
    q_r = np.array(q_rs, dtype=float).tolist()
    weights = {q: _left_weight(q) for q in set(q_r)}
    count = len(q_r)
    if len(gammas) != count:
        raise ShapeError(f"{len(gammas)} gamma values for {count} q_r values")
    rows = (map(math.cos, gammas), map(math.sin, gammas), q_r, map(weights.__getitem__, q_r))
    factors = np.fromiter(itertools.chain.from_iterable(rows), float, 4 * count).reshape(4, count)
    factors = np.concatenate((factors, -factors))
    stack = np.zeros((count, 16 * len(states)))
    stack[:, slots] = (factors[left] * factors[right]).T
    return stack.reshape(count, 16, len(states)).transpose(2, 0, 1)


@functools.lru_cache(maxsize=8)
def _amplitude_plan(states: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where the Unruh ``states`` are nonzero in a flat (16 * len(states)) row of
    :func:`_rindler_amplitudes`' stack, and the rows of ``_FACTORS`` whose product
    each amplitude is: three index arrays (4 * len(states),)."""
    slots, left, right = [], [], []
    for k, state in enumerate(states):
        modes, amplitudes = _UNRUH_STATES[state]
        for mode, amplitude in zip(modes, amplitudes):
            x, y = amplitude.split()
            slots.append(len(states) * mode + k)
            left.append(_FACTORS.index(x))
            right.append(_FACTORS.index(y))
    plan = (np.array(slots), np.array(left), np.array(right))
    for indices in plan:
        indices.flags.writeable = False
    return plan


def _unruh_state(state: str, accel: AccelerationParams) -> StateVector:
    return StateVector(RINDLER_LAYOUT, _rindler_amplitudes([state], [accel.gamma], [accel.q_r]))


def unruh_vacuum(accel: AccelerationParams) -> StateVector:
    """Vacuum as seen in the four Rindler modes; independent of ``q_r``."""
    return _unruh_state("vacuum", accel)


def unruh_particle(accel: AccelerationParams) -> StateVector:
    """One-particle excitation over the Rindler modes."""
    return _unruh_state("particle", accel)


def unruh_antiparticle(accel: AccelerationParams) -> StateVector:
    """One-antiparticle excitation over the Rindler modes."""
    return _unruh_state("antiparticle", accel)


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
    columns = _rindler_amplitudes(_ENCODING_BASIS[encoding], gammas, q_rs)
    check_norms(columns.reshape(-1, 16))
    matrices = columns.transpose(1, 2, 0)  # the stack the columns view
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
        dual = self in (QUANTUM_PAIR[1], CLASSICAL_PAIR[1])
        return Encoding.DUAL_RAIL if dual else Encoding.SINGLE_RAIL

    @property
    def is_classical(self) -> bool:
        return self in CLASSICAL_PAIR

    @property
    def is_quantum(self) -> bool:
        return self in QUANTUM_PAIR


# each kind of channel as its (single rail, dual rail) pair
QUANTUM_PAIR = (ChannelFamily.QUANTUM_SINGLE_RAIL, ChannelFamily.QUANTUM_DUAL_RAIL)
CLASSICAL_PAIR = (ChannelFamily.CLASSICAL_SINGLE_RAIL, ChannelFamily.CLASSICAL_DUAL_RAIL)


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
        # |v><v| as fock.outer_product forms it, with the same signed zeros
        return DensityMatrix(INERTIAL_LAYOUT, amps[:, np.newaxis] * amps)
    if family.is_classical:
        entries = np.zeros((4, 4))
        entries[0b00, 0b00] = math.cos(spec.alpha) ** 2
        entries[0b11, 0b11] = math.sin(spec.alpha) ** 2
        return DensityMatrix(INERTIAL_LAYOUT, entries)
    # Werner: fidelity-weighted mixture of the Bell projector, whose four
    # nonzero entries are sqrt(1/2) ** 2, and white noise
    f = spec.fidelity_f
    bell = f * (math.sqrt(0.5) * math.sqrt(0.5))
    noise = (1.0 - f) / 4.0
    entries = np.zeros((4, 4))
    entries[0b00, 0b00] = entries[0b11, 0b11] = bell + noise
    # the noise adds +0 off the diagonal, which turns the -0 of F = -0.0 into +0
    entries[0b00, 0b11] = entries[0b11, 0b00] = bell + 0.0
    entries[0b01, 0b01] = entries[0b10, 0b10] = noise
    return DensityMatrix(INERTIAL_LAYOUT, entries)


def build_joint(spec: ChannelSpec) -> DensityMatrix:
    """The shared state after Bob accelerates: Alice plus four Rindler modes."""
    inertial = build_inertial(spec).entries[np.newaxis]
    accel = spec.accel
    encoding = spec.family.encoding
    isometries = bob_isometries(encoding, [accel.gamma], [accel.q_r])
    joints, layout = trace_lifted(encoding, inertial, isometries, [()])[0]
    return DensityMatrix(layout, joints[0])


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
    bit for bit, zero signs included, to :func:`~unruh_lab.fock.trace_out`
    of the joint states.

    Every row r of the lift has at most one nonzero entry, in a column c_r
    fixed by the encoding, so each joint entry is the single product
    ``(lift[r, c_r] * rho[c_r, c_r']) * lift[r', c_r']``.  Only the
    products that can be nonzero and that the discard sets read
    (:func:`_call_plan`) are computed, R of them.  Each reduction adds the
    rows of ``trace_out``'s term table (:func:`~unruh_lab.fock._trace_terms`)
    by :func:`~unruh_lab.fock._add_in_order`, with each structural zero
    read from a row of +0, which changes no bit of a sum.  The inputs must
    be zero outside the plans' pattern, as :func:`bob_isometries` and
    :func:`build_inertial` make them; the reduced stacks are not checked.
    20 (single rail) or 14 (dual rail) of a wedge state's 64 entries can be
    nonzero, and the others are exactly +0.
    """
    n = len(isometries)
    first, middle, last, plans = _call_plan(encoding, tuple(map(frozenset, discards)))
    values = np.ascontiguousarray(isometries.reshape(n, -1).T)
    prepared = np.ascontiguousarray(inertial.reshape(n, -1).T)
    # the R joint products the reductions read (R, N), then row R, the zeros
    entries = np.zeros((len(first) + 1, n))
    np.multiply(values[first], prepared[middle], out=entries[:-1])
    entries[:-1] *= values[last]
    return [(_add_in_order(entries, terms, layout.dim), layout) for terms, layout in plans]


@functools.lru_cache(maxsize=16)
def _call_plan(
    encoding: Encoding, discards: tuple[frozenset[Subsystem], ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple]:
    """The plans of one :func:`trace_lifted` call: only the joint entries it reads.

    Returns, for the R joint entries that ``discards`` read, in ascending
    order of their flat positions in the (32, 32) joint, the index of
    ``lift[r, c_r]`` in ``isometries.reshape(N, 32)``, of
    ``rho[c_r, c_r']`` in ``inertial.reshape(N, 16)`` and of
    ``lift[r', c_r']``.  Then, for each discard set, its term table
    (:func:`~unruh_lab.fock._trace_terms`, (T, K * K)) with each joint
    position renumbered to its index among the R entries, or to R where
    the joint is a structural zero, and the kept layout.  Which joint
    entries can be nonzero (96) follows from the mode constants and the
    prepared-state pattern alone, never from the values at a sample point.
    A wedge reads 28 of them, both wedges 40.
    """
    # joint row 16a + m (Alice reads a, the Rindler modes read m) has its
    # lift entry at isometry entry (m, j), where column j is nonzero on m,
    # and that entry multiplies prepared-state row (or column) 2a + j; the
    # slots of _amplitude_plan are the flat isometry entries 2m + j
    modes, js = np.divmod(_amplitude_plan(_ENCODING_BASIS[encoding])[0], 2)
    value = np.full(JOINT_LAYOUT.dim, -1)
    column = np.full(JOINT_LAYOUT.dim, -1)
    for a in (0, 1):
        value[16 * a + modes] = 2 * modes + js
        column[16 * a + modes] = 2 * a + js
    lifted = column >= 0
    nonzero = (np.outer(lifted, lifted) & _PREPARED_SUPPORT[np.ix_(column, column)]).ravel()
    tables = [_trace_terms(JOINT_FACTORS, discard) for discard in discards]
    # a mask, not np.unique, which imports numpy.ma (about 1 MB)
    read = np.zeros_like(nonzero)
    for terms, _ in tables:
        read[terms] = True
    used = np.flatnonzero(read & nonzero)
    renumber = np.full(len(nonzero), len(used))
    renumber[used] = np.arange(len(used))
    plans = []
    for terms, kept_layout in tables:
        terms = renumber[terms]
        terms.flags.writeable = False
        plans.append((terms, kept_layout))
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
        """The other wedge's :attr:`kept_factors`."""
        other = BobRegion.II if self is BobRegion.I else BobRegion.I
        return other.kept_factors
