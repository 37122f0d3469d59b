"""Parameter-sweep engine: evaluate channel families over (gamma, q_r[, F]) grids.

Records come in the canonical order (family, region, gamma index, q_r
index, f index), so repeated runs are bitwise identical.  The points of one
(family, region) block are evaluated together in batches: each stage (state
build, partial traces, eigensolves, entropies) runs on a stack of points at
once, with the same arithmetic as the single-matrix functions, so a batch
gives the same bits as evaluating its points one by one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, SweepPointError, UnruhLabError
from .fock import Subsystem, check_density_stack, trace_out
from .measures import checked_entropies, von_neumann_entropies
from .states import (
    GAMMA_MAX,
    JOINT_LAYOUT,
    REGION_I_FACTORS,
    REGION_II_FACTORS,
    AccelerationParams,
    BobRegion,
    ChannelFamily,
    ChannelSpec,
    bob_isometries,
    build_inertial,
    build_joints,
    check_alpha,
)

# Batch sizes, which bound a sweep's extra memory: at most BATCH_POINTS
# points' reduced states wait for one batched eigensolve, and the 32x32
# joints (about 90 KB a point with the temporaries of their checks) are
# built JOINT_CHUNK points at a time.
BATCH_POINTS = 200
JOINT_CHUNK = 8

# The strong-additivity value is S(AB) - S(B) + S(AC) - S(C) of the joint
# state, with A Alice, B the wedge-I modes and C the wedge-II modes.  These
# are the factors the joint traces out for S(AB), S(AC), S(B) and S(C).
_SSA_DISCARDS = (
    REGION_II_FACTORS,
    REGION_I_FACTORS,
    REGION_II_FACTORS | {Subsystem.ALICE},
    REGION_I_FACTORS | {Subsystem.ALICE},
)


class Measure(Enum):
    MUTUAL_INFORMATION = "mutual_info"
    CONDITIONAL_ENTROPY = "cond_entropy"
    STRONG_ADDITIVITY = "ssa_value"


def _check_grid(name: str, grid: tuple[float, ...], low: float, high: float) -> None:
    if not grid:
        raise DomainError(name, "must not be empty")
    for value in grid:
        if not (low <= value <= high):
            raise DomainError(name, f"value {value} outside [{low}, {high}]")
    ascending = all(a < b for a, b in zip(grid, grid[1:]))
    descending = all(a > b for a, b in zip(grid, grid[1:]))
    if len(grid) > 1 and not (ascending or descending):
        raise DomainError(name, "must be strictly monotone")


def _check_members(name: str, values: tuple, kind: type[Enum]) -> None:
    if not values:
        raise DomainError(name, "must not be empty")
    for i, value in enumerate(values):
        if not isinstance(value, kind):
            raise DomainError(name, f"must hold {kind.__name__} members, got {value!r}")
        if value in values[:i]:
            raise DomainError(name, f"repeats {value.value!r}")


@dataclass(frozen=True)
class SweepSpec:
    """Which families to evaluate, over which grids, and what to report.

    ``measure`` is the value a plot-format file shows against gamma.  Only
    ``Measure.STRONG_ADDITIVITY`` computes ``ssa_value``; other sweeps
    leave it ``None``.  ``alpha`` obeys the rule of :class:`ChannelSpec`.
    """

    families: tuple[ChannelFamily, ...]
    gamma_grid: tuple[float, ...]
    q_r_grid: tuple[float, ...]
    alpha: float = math.pi / 4
    f_grid: tuple[float, ...] = ()
    regions: tuple[BobRegion, ...] = (BobRegion.I, BobRegion.II)
    measure: Measure = Measure.CONDITIONAL_ENTROPY

    def __post_init__(self):
        object.__setattr__(self, "families", tuple(self.families))
        object.__setattr__(self, "gamma_grid", tuple(float(g) for g in self.gamma_grid))
        object.__setattr__(self, "q_r_grid", tuple(float(q) for q in self.q_r_grid))
        object.__setattr__(self, "f_grid", tuple(float(f) for f in self.f_grid))
        object.__setattr__(self, "regions", tuple(self.regions))
        _check_members("families", self.families, ChannelFamily)
        _check_members("regions", self.regions, BobRegion)
        if not isinstance(self.measure, Measure):
            raise DomainError("measure", f"must be a Measure, got {self.measure!r}")
        check_alpha(self.alpha, ChannelFamily.WERNER in self.families)
        _check_grid("gamma_grid", self.gamma_grid, 0.0, GAMMA_MAX)
        _check_grid("q_r_grid", self.q_r_grid, 0.0, 1.0)
        if ChannelFamily.WERNER in self.families:
            _check_grid("f_grid", self.f_grid, 0.0, 1.0)
        elif self.f_grid:
            raise DomainError("f_grid", "only meaningful when the werner family is swept")


@dataclass(frozen=True)
class SweepRecord:
    """One evaluated grid point; entropies and measures are in bits."""

    family: ChannelFamily
    region: BobRegion
    gamma: float
    q_r: float
    alpha: float
    f: float | None
    s_a: float
    s_b: float
    s_ab: float
    mutual_info: float
    cond_entropy: float
    ssa_value: float | None


def evaluate_point(
    family: ChannelFamily,
    region: BobRegion,
    gamma: float,
    q_r: float,
    alpha: float = math.pi / 4,
    f: float | None = None,
    *,
    with_ssa: bool = False,
) -> SweepRecord:
    """Build the channel at one grid point and compute its measures."""
    if not isinstance(region, BobRegion):
        raise DomainError("region", f"must be a BobRegion, got {region!r}")
    return _evaluate_batch(family, region, [(gamma, q_r, f)], alpha, with_ssa)[0]


def run_sweep(spec: SweepSpec) -> list[SweepRecord]:
    """Evaluate every grid point; the result order is canonical and deterministic.

    Raises :class:`SweepPointError` naming the first point, in that order,
    whose evaluation fails.
    """
    with_ssa = spec.measure is Measure.STRONG_ADDITIVITY
    records: list[SweepRecord] = []
    for family in spec.families:
        f_values = spec.f_grid if family is ChannelFamily.WERNER else (None,)
        points = [
            (gamma, q_r, f)
            for gamma in spec.gamma_grid
            for q_r in spec.q_r_grid
            for f in f_values
        ]
        batches = -(-len(points) // BATCH_POINTS)
        size = -(-len(points) // batches)
        for region in spec.regions:
            for start in range(0, len(points), size):
                batch = points[start : start + size]
                try:
                    records += _evaluate_batch(family, region, batch, spec.alpha, with_ssa)
                except UnruhLabError:
                    _raise_first_point_error(family, region, batch, spec.alpha, with_ssa)
                    raise
    return records


def _raise_first_point_error(
    family: ChannelFamily,
    region: BobRegion,
    points: list[tuple],
    alpha: float,
    with_ssa: bool,
) -> None:
    """Evaluate the points one by one; raise :class:`SweepPointError` for the first that fails.

    That point is the first failing one of the batch, with the error of its
    first failing check, whatever stage the batch failed at.
    """
    for gamma, q_r, f in points:
        try:
            _evaluate_batch(family, region, [(gamma, q_r, f)], alpha, with_ssa)
        except UnruhLabError as exc:
            raise SweepPointError(
                f"sweep aborted at family={family.value} region={region.value} "
                f"gamma={gamma!r} q_r={q_r!r} f={f!r}: {exc}"
            ) from exc


def _evaluate_batch(
    family: ChannelFamily,
    region: BobRegion,
    points: list[tuple],
    alpha: float,
    with_ssa: bool,
) -> list[SweepRecord]:
    """Records for (gamma, q_r, f) points of one (family, region) block, in order.

    Every point gets the checks the single-point functions make; a failure
    raises the error of the first check that some point fails.
    """
    gammas = [gamma for gamma, _, _ in points]
    q_rs = [q_r for _, q_r, _ in points]
    inertial = _prepared_states(family, points, alpha)
    isometries = bob_isometries(family.encoding, gammas, q_rs)

    # A wedge keeps Alice and two modes (8x8).  The strong-additivity value
    # takes the AB and AC states (8x8) and the B and C states (4x4) of the
    # joint; one of AB and AC is the wedge's own state, computed the same
    # way, so its entropy is S(AB) of the record.
    reduced = np.empty((len(points), 8, 8), dtype=complex)
    joint_parts = {
        discard: np.empty((len(points), dim, dim), dtype=complex)
        for discard, dim in zip(_SSA_DISCARDS, (8, 8, 4, 4))
        if with_ssa and discard != region.traced_factors
    }
    for start in range(0, len(points), JOINT_CHUNK):
        chunk = slice(start, start + JOINT_CHUNK)
        joints = build_joints(inertial[chunk], isometries[chunk])
        reduced[chunk], reduced_layout = trace_out(joints, JOINT_LAYOUT, region.traced_factors)
        check_density_stack(reduced[chunk])
        for discard, part in joint_parts.items():
            # checked later, with their entropies
            part[chunk], _ = trace_out(joints, JOINT_LAYOUT, discard)

    s_a = checked_entropies(trace_out(reduced, reduced_layout, region.kept_factors)[0])
    s_b = checked_entropies(trace_out(reduced, reduced_layout, {Subsystem.ALICE})[0])
    s_ab = von_neumann_entropies(reduced)
    ssa = [None] * len(points)
    if with_ssa:
        parts = {region.traced_factors: s_ab}
        for discard in _SSA_DISCARDS:
            if discard not in parts:
                parts[discard] = checked_entropies(joint_parts[discard])
        s_ab_joint, s_ac, s_b_joint, s_c = (parts[discard] for discard in _SSA_DISCARDS)
        ssa = (s_ab_joint - s_b_joint + s_ac - s_c).tolist()
    measures = (s_a, s_b, s_ab, s_a + s_b - s_ab, s_ab - s_b)
    return [
        SweepRecord(family, region, gamma, q_r, alpha, f, *values)
        for (gamma, q_r, f), *values in zip(
            points, *(values.tolist() for values in measures), ssa
        )
    ]


def _prepared_states(
    family: ChannelFamily, points: list[tuple], alpha: float
) -> np.ndarray:
    """The inertial state (N, 4, 4) of each point, after the checks of ChannelSpec.

    The state depends only on ``f`` within a block, so it is built once for
    each ``f``; every point's acceleration parameters are checked.
    """
    states: dict[float | None, np.ndarray] = {}
    for gamma, q_r, f in points:
        accel = AccelerationParams(gamma, q_r)
        if f not in states:
            states[f] = build_inertial(ChannelSpec(family, accel, alpha, f)).entries
    return np.array([states[f] for _, _, f in points])


class FigurePreset(Enum):
    FIG1 = "fig1"
    FIG2 = "fig2"
    FIG3 = "fig3"
    FIG4 = "fig4"

    @classmethod
    def _missing_(cls, value):
        names = ", ".join(preset.value for preset in cls)
        raise DomainError("figure", f"{value!r} is not one of {names}")


def default_gamma_grid() -> tuple[float, ...]:
    """Uniform 101-point gamma grid over [0, pi/4] including both endpoints."""
    step = GAMMA_MAX / 100
    return tuple(i * step for i in range(100)) + (GAMMA_MAX,)

QR_GRID_MIXING = (1.0, 0.9, 0.8, 1.0 / math.sqrt(2.0))
QR_GRID_WERNER = (1.0, 0.75, 0.5, 0.25)
F_GRID_WERNER = (0.95, 0.70, 0.50, 0.33)


def figure_preset(which: FigurePreset | str) -> SweepSpec:
    """The sweep configuration behind each bundled figure dataset.

    fig1: mutual information of the two pure-state channels, both wedges.
    fig2: mutual information of the two classical channels, both wedges.
    fig3: conditional entropy of all four, both wedges.
    fig4: the strong-additivity combination for the Werner family, wedge I.
    All use alpha = pi/4 and a 101-point gamma grid.
    """
    which = FigurePreset(which)
    gamma_grid = default_gamma_grid()
    if which is FigurePreset.FIG1:
        return SweepSpec(
            families=(ChannelFamily.QUANTUM_SINGLE_RAIL, ChannelFamily.QUANTUM_DUAL_RAIL),
            gamma_grid=gamma_grid,
            q_r_grid=QR_GRID_MIXING,
            measure=Measure.MUTUAL_INFORMATION,
        )
    if which is FigurePreset.FIG2:
        return SweepSpec(
            families=(
                ChannelFamily.CLASSICAL_SINGLE_RAIL,
                ChannelFamily.CLASSICAL_DUAL_RAIL,
            ),
            gamma_grid=gamma_grid,
            q_r_grid=QR_GRID_MIXING,
            measure=Measure.MUTUAL_INFORMATION,
        )
    if which is FigurePreset.FIG3:
        return SweepSpec(
            families=(
                ChannelFamily.CLASSICAL_SINGLE_RAIL,
                ChannelFamily.CLASSICAL_DUAL_RAIL,
                ChannelFamily.QUANTUM_SINGLE_RAIL,
                ChannelFamily.QUANTUM_DUAL_RAIL,
            ),
            gamma_grid=gamma_grid,
            q_r_grid=QR_GRID_MIXING,
            measure=Measure.CONDITIONAL_ENTROPY,
        )
    return SweepSpec(
        families=(ChannelFamily.WERNER,),
        gamma_grid=gamma_grid,
        q_r_grid=QR_GRID_WERNER,
        f_grid=F_GRID_WERNER,
        regions=(BobRegion.I,),
        measure=Measure.STRONG_ADDITIVITY,
    )
