"""Parameter-sweep engine: evaluate channel families over (gamma, q_r[, F]) grids.

Records come in the canonical order (family, region, gamma index, q_r
index, f index), so repeated runs are bitwise identical.  The points of one
family are evaluated together in batches that serve every region at once:
each stage (state build, partial traces, eigensolves, entropies) runs on a
stack of points, with the same arithmetic as the single-matrix functions,
so a batch gives the same bits as evaluating its points one by one.  A
batch builds the prepared states and isometries once and reduces them to
every wedge it needs in one call, so it holds up to two wedges' states.
It then solves wedge by wedge: the wedge's states, Alice's marginal (for a
requested wedge) and the modes' marginal, each as its own stack.  The two
wedges' states are not joined into one stack, since their zero patterns
would merge into coarser blocks: in single rail and Werner, wedge I's
{0,3,6}, {1,4,7} and wedge II's {0,3,5}, {2,4,7} into blocks of 4.  The
strong-additivity value adds the two wedges' conditional entropies.  The
states are real: all of it is float64.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from typing import NamedTuple, Sequence

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
    read_real,
    trace_lifted,
)

# The batch size, which bounds a sweep's extra memory: a batch reduces at
# most BATCH_POINTS points, to up to two wedges' states each, and solves
# them wedge by wedge.  At 512 each 404-point family of fig1-fig3 is one
# batch, and fig4's 1 616 points are four batches of 404; any value in
# [404, 538] gives the same batches.  The benchmark's figures workload
# then peaks at about 42.1 MB resident, 0.5 MB more than at 400.
BATCH_POINTS = 512
_ALICE = frozenset({Subsystem.ALICE})  # traced out of a wedge for its modes' marginal


class Measure(Enum):
    MUTUAL_INFORMATION = "mutual_info"
    CONDITIONAL_ENTROPY = "cond_entropy"
    STRONG_ADDITIVITY = "ssa_value"


def _sequence(name: str, values) -> tuple:
    """``values`` as a tuple, if it is a 1-d array or a sequence other than a string."""
    if isinstance(values, (str, bytes)) or not isinstance(values, Sequence) and np.ndim(values) != 1:
        raise DomainError(name, f"must be a sequence, got {values!r}")
    return tuple(values)


def _check_grid(name: str, grid, low: float, high: float, span: str = "") -> tuple[float, ...]:
    grid = tuple(read_real(name, value, low, high, span) for value in _sequence(name, grid))
    if not grid:
        raise DomainError(name, "must not be empty")
    ascending = all(a < b for a, b in zip(grid, grid[1:]))
    descending = all(a > b for a, b in zip(grid, grid[1:]))
    if len(grid) > 1 and not (ascending or descending):
        raise DomainError(name, "must be strictly monotone")
    return grid


def _check_members(name: str, values, kind: type[Enum]) -> tuple:
    values = _sequence(name, values)
    if not values:
        raise DomainError(name, "must not be empty")
    for i, value in enumerate(values):
        if not isinstance(value, kind):
            raise DomainError(name, f"must hold {kind.__name__} members, got {value!r}")
        if value in values[:i]:
            raise DomainError(name, f"repeats {value.value!r}")
    return values


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
        store = functools.partial(object.__setattr__, self)
        store("families", _check_members("families", self.families, ChannelFamily))
        store("regions", _check_members("regions", self.regions, BobRegion))
        if not isinstance(self.measure, Measure):
            raise DomainError("measure", f"must be a Measure, got {self.measure!r}")
        store("alpha", check_alpha(self.alpha, ChannelFamily.WERNER in self.families))
        store("gamma_grid", _check_grid("gamma_grid", self.gamma_grid, 0.0, GAMMA_MAX, "[0, pi/4]"))
        store("q_r_grid", _check_grid("q_r_grid", self.q_r_grid, 0.0, 1.0))
        store("f_grid", _sequence("f_grid", self.f_grid))
        if ChannelFamily.WERNER in self.families:
            store("f_grid", _check_grid("f_grid", self.f_grid, 0.0, 1.0))
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
    spec = ChannelSpec(family, AccelerationParams(gamma, q_r), alpha, f)
    point = (spec.accel.gamma, spec.accel.q_r, spec.fidelity_f)
    inertial = build_inertial(spec).entries[np.newaxis]
    return _evaluate_batch(family, (region,), [point], spec.alpha, with_ssa, inertial)[0][0]


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
        for region_records in _evaluate_family(family, spec.regions, points, spec.alpha, with_ssa):
            records += region_records
    return records


def _evaluate_family(
    family: ChannelFamily,
    regions: tuple[BobRegion, ...],
    points: list[tuple],
    alpha: float,
    with_ssa: bool,
) -> list[list[SweepRecord]]:
    """:func:`_evaluate_batch` of a family's points, in batches of up to ``BATCH_POINTS``.

    If a batch fails, the points are evaluated again one at a time, region
    by region, and :class:`SweepPointError` names the first that fails
    alone, in canonical order, with the error of its first failing check,
    whatever stage and region the batch failed at.  If none fails alone,
    the batch's error is raised.
    """
    count = -(-len(points) // BATCH_POINTS)
    size = -(-len(points) // count)
    records: list[list[SweepRecord]] = [[] for _ in regions]
    try:
        for start in range(0, len(points), size):
            batch = points[start : start + size]
            evaluated = _evaluate_batch(family, regions, batch, alpha, with_ssa)
            for region_records, batch_records in zip(records, evaluated):
                region_records += batch_records
    except UnruhLabError:
        for region in regions:
            for gamma, q_r, f in points:
                try:
                    _evaluate_batch(family, (region,), [(gamma, q_r, f)], alpha, with_ssa)
                except UnruhLabError as exc:
                    raise SweepPointError(
                        f"sweep aborted at family={family.value} region={region.value} "
                        f"gamma={gamma!r} q_r={q_r!r} f={f!r}: {exc}"
                    ) from exc
        raise
    return records


def _evaluate_batch(
    family: ChannelFamily,
    regions: tuple[BobRegion, ...],
    points: list[tuple],
    alpha: float,
    with_ssa: bool,
    inertial: np.ndarray | None = None,
) -> list[list[SweepRecord]]:
    """Records for (gamma, q_r, f) points of one family, a list per region, in order.

    Every point gets the checks the single-point functions make; a failure
    raises the error of the first check that some point fails.  Each
    reduced stack is checked once, by :func:`von_neumann_entropies`.  The
    wedges are solved one after another, the requested ones first: a
    wedge's states, then their Alice marginals if the wedge is requested,
    then their mode marginals, each as its own stack.  So a wedge's defects
    are reported before those of its partial traces, one region takes
    exactly the stacks a single point needs, and a stack of one point
    reaches the scalar eigensolver.  ``inertial``, the points' prepared
    states if the caller has built them, saves building them again.
    """
    gammas, q_rs, fs = zip(*points)
    if inertial is None:
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
    s_a, s_b, s_ab = [], [], []
    for (wedge, layout), region in zip(wedges, wedge_regions):
        s_ab.append(von_neumann_entropies(wedge))
        if region in regions:
            s_a.append(von_neumann_entropies(trace_out(wedge, layout, region.kept_factors)[0]))
        s_b.append(von_neumann_entropies(trace_out(wedge, layout, _ALICE)[0]))
    cond_entropy = [ab - b for ab, b in zip(s_ab, s_b)]
    # both wedges' states are present with SSA, so the sum is the same for both
    ssa = [None] * len(points)
    if with_ssa:
        ssa = (cond_entropy[0] + cond_entropy[1]).tolist()
    # tuple.__new__ fills a record from its fields without a Python call per record
    record = functools.partial(tuple.__new__, SweepRecord)
    records = []
    for i, region in enumerate(regions):
        measures = (s_a[i], s_b[i], s_ab[i], s_a[i] + s_b[i] - s_ab[i], cond_entropy[i])
        inputs = (repeat(family), repeat(region), gammas, q_rs, repeat(alpha), fs)
        columns = (values.tolist() for values in measures)
        records.append(list(map(record, zip(*inputs, *columns, ssa))))
    return records


def _prepared_states(
    family: ChannelFamily, points: list[tuple], alpha: float
) -> np.ndarray:
    """The real inertial state (N, 4, 4) of each point, after the checks of ChannelSpec.

    The state depends only on ``f`` within a block, so it is built, and its
    :class:`ChannelSpec` checked, at the first point of each ``f``.  The
    other points of a sweep are on grids that :class:`SweepSpec` checked
    against the same bounds; each point that :func:`_evaluate_family`
    re-runs after a failed batch is a first point.
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

QUANTUM_PAIR = (ChannelFamily.QUANTUM_SINGLE_RAIL, ChannelFamily.QUANTUM_DUAL_RAIL)
CLASSICAL_PAIR = (ChannelFamily.CLASSICAL_SINGLE_RAIL, ChannelFamily.CLASSICAL_DUAL_RAIL)

# fig1-fig3: their families and measure, over the gamma grid and QR_GRID_MIXING
_MIXING_PRESETS = {
    FigurePreset.FIG1: (QUANTUM_PAIR, Measure.MUTUAL_INFORMATION),
    FigurePreset.FIG2: (CLASSICAL_PAIR, Measure.MUTUAL_INFORMATION),
    FigurePreset.FIG3: (CLASSICAL_PAIR + QUANTUM_PAIR, Measure.CONDITIONAL_ENTROPY),
}


def figure_preset(which: FigurePreset | str) -> SweepSpec:
    """The sweep configuration behind each bundled figure dataset.

    fig1: mutual information of the two pure-state channels, both wedges.
    fig2: mutual information of the two classical channels, both wedges.
    fig3: conditional entropy of all four, both wedges.
    fig4: the strong-additivity combination for the Werner family, wedge I.
    All use alpha = pi/4 and a 101-point gamma grid.
    """
    which = FigurePreset(which)
    if which in _MIXING_PRESETS:
        families, measure = _MIXING_PRESETS[which]
        return SweepSpec(families, default_gamma_grid(), QR_GRID_MIXING, measure=measure)
    return SweepSpec(
        families=(ChannelFamily.WERNER,),
        gamma_grid=default_gamma_grid(),
        q_r_grid=QR_GRID_WERNER,
        f_grid=F_GRID_WERNER,
        regions=(BobRegion.I,),
        measure=Measure.STRONG_ADDITIVITY,
    )
