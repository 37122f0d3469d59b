"""Parameter-sweep engine: evaluate channel families over (gamma, q_r[, F]) grids.

Records come in the canonical order (family, region, gamma index, q_r
index, f index), so repeated runs are bitwise identical.  The points of one
family are evaluated together in batches that serve every region at once:
each stage (state build, partial traces, eigensolves, entropies) runs on a
stack of points, with the same arithmetic as the single-matrix functions,
so a batch gives the same bits as evaluating its points one by one.  A
batch builds the prepared states and isometries once and reduces them to
every wedge it needs in one call, so it holds up to two wedges' states.
Each wedge's states are solved as their own stack, since the two wedges'
zero patterns would merge into coarser blocks; the marginals of the
requested regions are solved together, Alice's as one stack and the
modes' as another, since their blocks are the same in both wedges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import DomainError, SweepPointError, UnruhLabError
from .fock import Subsystem, trace_out
from .measures import von_neumann_entropies
from .states import (
    GAMMA_MAX,
    AccelerationParams,
    BobRegion,
    ChannelFamily,
    ChannelSpec,
    bob_isometries,
    build_inertial,
    check_alpha,
    trace_lifted,
)

# The batch size, which bounds a sweep's extra memory: a batch reduces at
# most BATCH_POINTS points, to up to two wedges' states each, before its
# batched eigensolves.
BATCH_POINTS = 400


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


class SweepRecord(NamedTuple):
    """One evaluated grid point; entropies and measures are in bits.

    The fields are the CSV columns, in their order.
    """

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
    return _evaluate_batch(family, (region,), [(gamma, q_r, f)], alpha, with_ssa)[0][0]


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
        count = -(-len(points) // BATCH_POINTS)
        size = -(-len(points) // count)
        batches = [points[start : start + size] for start in range(0, len(points), size)]
        by_region: list[list[SweepRecord]] = [[] for _ in spec.regions]
        try:
            for batch in batches:
                evaluated = _evaluate_batch(family, spec.regions, batch, spec.alpha, with_ssa)
                for region_records, batch_records in zip(by_region, evaluated):
                    region_records += batch_records
        except UnruhLabError:
            _raise_first_point_error(family, spec.regions, batches, spec.alpha, with_ssa)
            raise
        for region_records in by_region:
            records += region_records
    return records


def _raise_first_point_error(
    family: ChannelFamily,
    regions: tuple[BobRegion, ...],
    batches: list[list[tuple]],
    alpha: float,
    with_ssa: bool,
) -> None:
    """Evaluate a family's points again; raise :class:`SweepPointError` for the first that fails.

    The points are run region by region and batch by batch, and a failing
    batch point by point, so the point named is the first failing one in
    canonical order, with the error of its first failing check, whatever
    stage and region the batch of all regions failed at.
    """
    for region in regions:
        for batch in batches:
            try:
                _evaluate_batch(family, (region,), batch, alpha, with_ssa)
            except UnruhLabError:
                for gamma, q_r, f in batch:
                    try:
                        _evaluate_batch(family, (region,), [(gamma, q_r, f)], alpha, with_ssa)
                    except UnruhLabError as exc:
                        raise SweepPointError(
                            f"sweep aborted at family={family.value} region={region.value} "
                            f"gamma={gamma!r} q_r={q_r!r} f={f!r}: {exc}"
                        ) from exc


def _evaluate_batch(
    family: ChannelFamily,
    regions: tuple[BobRegion, ...],
    points: list[tuple],
    alpha: float,
    with_ssa: bool,
) -> list[list[SweepRecord]]:
    """Records for (gamma, q_r, f) points of one family, a list per region, in order.

    Every point gets the checks the single-point functions make; a failure
    raises the error of the first check that some point fails.  Each
    reduced stack is checked once, by :func:`von_neumann_entropies`.  The
    requested wedges' states are solved first, each as its own stack, so
    their defects are reported before those of their partial traces; then
    their Alice marginals as one stack and their mode marginals as
    another; then the wedge only strong additivity reads, and its modes.
    So one region takes exactly the stacks a single point needs, and a
    stack of one point reaches the scalar eigensolver.
    """
    gammas = [gamma for gamma, _, _ in points]
    q_rs = [q_r for _, q_r, _ in points]
    inertial = _prepared_states(family, points, alpha)
    isometries = bob_isometries(family.encoding, gammas, q_rs)

    # A wedge keeps Alice and two modes (8x8).  The strong-additivity value
    # S(AB) - S(B) + S(AC) - S(C), with A Alice, B the wedge-I modes and C
    # the wedge-II modes, is the sum of the two wedges' conditional
    # entropies, so it also takes the wedge not requested and its modes.
    wedge_regions = regions
    if with_ssa:
        wedge_regions += tuple(region for region in BobRegion if region not in regions)
    wedges = trace_lifted(
        family.encoding, inertial, isometries, [r.traced_factors for r in wedge_regions]
    )
    requested = wedges[: len(regions)]
    s_ab = [von_neumann_entropies(wedge) for wedge, _ in requested]
    s_a = _entropies(
        [trace_out(wedge, layout, region.kept_factors)[0]
         for (wedge, layout), region in zip(requested, regions)]
    )
    s_b = _entropies([trace_out(wedge, layout, {Subsystem.ALICE})[0] for wedge, layout in requested])
    for wedge, layout in wedges[len(regions) :]:
        s_ab.append(von_neumann_entropies(wedge))
        s_b.append(von_neumann_entropies(trace_out(wedge, layout, {Subsystem.ALICE})[0]))
    cond_entropy = [ab - b for ab, b in zip(s_ab, s_b)]
    # both wedges' states are present with SSA, so the sum is the same for both
    ssa = [None] * len(points)
    if with_ssa:
        ssa = (cond_entropy[0] + cond_entropy[1]).tolist()
    records = []
    for i, region in enumerate(regions):
        measures = (s_a[i], s_b[i], s_ab[i], s_a[i] + s_b[i] - s_ab[i], cond_entropy[i])
        records.append([
            SweepRecord(family, region, gamma, q_r, alpha, f, *values)
            for (gamma, q_r, f), *values in zip(
                points, *(values.tolist() for values in measures), ssa
            )
        ])
    return records


def _entropies(stacks: list[np.ndarray]) -> list[np.ndarray]:
    """:func:`von_neumann_entropies` of each stack, all solved as one stack.

    The stacks hold one matrix per point of a batch, so they are equally
    long.  Joining one stack gives that same stack, so a stack of one point
    still reaches the scalar eigensolver.
    """
    return list(von_neumann_entropies(np.concatenate(stacks)).reshape(len(stacks), -1))


def _prepared_states(
    family: ChannelFamily, points: list[tuple], alpha: float
) -> np.ndarray:
    """The inertial state (N, 4, 4) of each point, after the checks of ChannelSpec.

    The state depends only on ``f`` within a block, so it is built, and its
    :class:`ChannelSpec` checked, at the first point of each ``f``.  The
    other points of a sweep are on grids that :class:`SweepSpec` checked
    against the same bounds; a single point, and each point that
    :func:`_raise_first_point_error` re-runs, is a first point.
    """
    states: dict[float | None, np.ndarray] = {}
    for gamma, q_r, f in points:
        if f not in states:
            spec = ChannelSpec(family, AccelerationParams(gamma, q_r), alpha, f)
            states[f] = build_inertial(spec).entries
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
