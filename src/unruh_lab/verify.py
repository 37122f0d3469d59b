"""The acceptance/verification suite behind ``unruh-lab verify``.

:data:`CHECKS` is one table of ``(name, check)`` rows.  Each check takes the
shared sweep tables and returns ``(passed, detail)``: a verdict and a
one-line detail string.  :func:`run_checks` walks the table in order and
builds every :class:`CheckResult`; a check that raises is reported as FAIL
under its row's name, with the exception as its detail.  The checks pin the
headline claims of the model: inertial limits, the infinite-acceleration
coincidences, conditional-entropy signs, curve shapes, Werner strong
additivity, agreement with the brute-force cross-check, state invariants,
and byte-level determinism of the figure datasets.  The last row is an
informational note comparing two forms of the strong-additivity sum.

Check 7 evaluates its seeded random channels as a sweep evaluates a
family, both wedges at once, so a failing channel is named as a sweep
names a point, and compares each record with the characteristic-polynomial
oracle, one channel and wedge at a time.  The tier-1 tests pin that those
records equal what the single-point route, :func:`evaluate_point`, gives.

Check 5 (monotonicity at q_r = 0.9 and 0.8) is expected to fail: the
claimed shapes hold only at q_r = 1 for the states as defined.  The detail
string quantifies the violations; the README discusses the analysis.
"""

from __future__ import annotations

import filecmp
import itertools
import math
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import crosscheck
from .fock import eigvals_hermitian_batch
from .output import split_series, write_figure_set
from .states import BobRegion, ChannelFamily, bob_isometries, build_joints
from .sweep import (
    CLASSICAL_PAIR,
    QUANTUM_PAIR,
    FigurePreset,
    SweepRecord,
    SweepSpec,
    _evaluate_family,
    _prepared_states,
    figure_preset,
    run_sweep,
)

TOL = 1e-9
MONOTONE_SLACK = 1e-12
ORACLE_SAMPLES = 50
ORACLE_SEED = 20260808
RUNTIME_BUDGET_SECONDS = 60.0


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    informational: bool = False


class _SeriesTables(dict):
    """Each preset's sweep, run on first use, as series keyed (family, region, q_r, f).

    A series follows the ascending gamma grid, so ``series[-1]`` is the
    point at gamma = pi/4.  ``fig1`` and ``fig2`` sweep a subset of
    ``fig3``'s families over its grids, so their series are read from the
    ``fig3`` sweep.
    """

    def __missing__(self, figure: FigurePreset) -> dict[tuple, list[SweepRecord]]:
        spec = figure_preset(figure)
        if figure in (FigurePreset.FIG1, FigurePreset.FIG2):
            table = self[FigurePreset.FIG3]
            self[figure] = {key: s for key, s in table.items() if key[0] in spec.families}
        else:
            self[figure] = split_series(run_sweep(spec))
        return self[figure]


def _check_inertial_limit(tables: _SeriesTables) -> tuple[bool, str]:
    fig1 = tables[FigurePreset.FIG1]
    worst = 0.0
    for family in QUANTUM_PAIR:
        # each series starts at gamma = 0
        near = fig1[family, BobRegion.I, 1.0, None][0]
        far = fig1[family, BobRegion.II, 1.0, None][0]
        worst = max(
            worst,
            abs(near.mutual_info - 2.0),
            abs(near.cond_entropy + 1.0),
            abs(far.mutual_info),
        )
    return worst <= TOL, f"worst deviation from (MI_I, CE_I, MI_II) = (2, -1, 0) is {worst:.3e}"


def _check_infinite_acceleration(tables: _SeriesTables) -> tuple[bool, str]:
    end = {key: s[-1].mutual_info for key, s in tables[FigurePreset.FIG1].items()}
    spec = figure_preset(FigurePreset.FIG1)
    worst_pair = worst_spread = 0.0
    for region in spec.regions:
        for q_r in spec.q_r_grid:
            single, dual = (end[family, region, q_r, None] for family in QUANTUM_PAIR)
            worst_pair = max(worst_pair, abs(single - dual))
        for family in spec.families:
            values = [end[family, region, q_r, None] for q_r in spec.q_r_grid]
            worst_spread = max(worst_spread, max(values) - min(values))
    return worst_pair <= TOL and worst_spread <= TOL, (
        f"max |MI_single - MI_dual| = {worst_pair:.3e}, "
        f"max MI spread across q_r = {worst_spread:.3e} at gamma = pi/4"
    )


def _check_quantum_conditional_entropy(tables: _SeriesTables) -> tuple[bool, str]:
    worst = max(
        abs(s[-1].cond_entropy)
        for (family, *_), s in tables[FigurePreset.FIG3].items()
        if family.is_quantum
    )
    return worst <= TOL, (
        f"max |conditional entropy| of the pure-state channels at pi/4 is {worst:.3e}"
    )


def _check_classical_contrast(tables: _SeriesTables) -> tuple[bool, str]:
    ce_min = min(
        r.cond_entropy
        for (family, *_), s in tables[FigurePreset.FIG3].items()
        if family.is_classical
        for r in s
    )
    end = {key: s[-1].mutual_info for key, s in tables[FigurePreset.FIG2].items()}
    single, dual = CLASSICAL_PAIR
    min_gap = min(
        abs(end[single, BobRegion.I, q_r, None] - end[dual, BobRegion.I, q_r, None])
        for q_r in figure_preset(FigurePreset.FIG2).q_r_grid
    )
    return ce_min >= -TOL and min_gap > 1e-6, (
        f"min classical conditional entropy = {ce_min:.3e} (needs >= -1e-9); "
        f"min |MI_single - MI_dual| at pi/4 = {min_gap:.3e} (needs > 1e-6)"
    )


def _check_monotonicity(tables: _SeriesTables) -> tuple[bool, str]:
    violations = []
    for figure in (FigurePreset.FIG1, FigurePreset.FIG2):
        table = tables[figure]
        for family in figure_preset(figure).families:
            for q_r in (1.0, 0.9, 0.8):
                for region, sense in ((BobRegion.I, -1.0), (BobRegion.II, 1.0)):
                    values = [r.mutual_info for r in table[family, region, q_r, None]]
                    worst_step = min(sense * (b - a) for a, b in zip(values, values[1:]))
                    if worst_step < -MONOTONE_SLACK:
                        violations.append(
                            f"{family.value}/{region.value}/q_r={q_r}: {worst_step:.1e}"
                        )
    if violations:
        return False, (
            f"holds at q_r=1 but fails at q_r in (0.9, 0.8) with worst steps "
            f"[{'; '.join(violations)}]; the curves genuinely overshoot near their "
            f"common infinite-acceleration value (see README)"
        )
    return True, "all families monotone for q_r in (1, 0.9, 0.8), both wedges"


def _check_werner_strong_additivity(tables: _SeriesTables) -> tuple[bool, str]:
    fig4 = tables[FigurePreset.FIG4]
    ssa_min = min(r.ssa_value for s in fig4.values() for r in s)
    q_r_1, q_r_75 = (fig4[ChannelFamily.WERNER, BobRegion.I, q_r, 0.33] for q_r in (1.0, 0.75))
    crossing = sum(a.ssa_value < b.ssa_value - TOL for a, b in zip(q_r_1, q_r_75))
    return ssa_min >= -TOL and crossing > 0, (
        f"min value over the grid = {ssa_min:.6f} (needs >= -1e-9); F=0.33 curve has "
        f"q_r=1 below q_r=0.75 at {crossing} of {len(q_r_1)} grid points"
    )


def _oracle_samples() -> dict[ChannelFamily, list[tuple]]:
    """Check 7's seeded random channels: (gamma, q_r, f) points per family, in draw order."""
    rng = np.random.default_rng(ORACLE_SEED)
    families = list(ChannelFamily)
    samples: dict[ChannelFamily, list[tuple]] = {}
    for _ in range(ORACLE_SAMPLES):
        family = families[int(rng.integers(len(families)))]
        gamma = float(rng.uniform(0.0, math.pi / 4))
        q_r = float(rng.uniform(0.0, 1.0))
        f = float(rng.uniform(0.0, 1.0)) if family is ChannelFamily.WERNER else None
        samples.setdefault(family, []).append((gamma, q_r, f))
    return samples


def _check_oracle_equivalence(tables: _SeriesTables) -> tuple[bool, str]:
    regions = tuple(BobRegion)
    worst = 0.0
    for family, points in _oracle_samples().items():
        evaluated = _evaluate_family(family, regions, points, math.pi / 4, False)
        for record in itertools.chain.from_iterable(evaluated):
            reference = crosscheck.brute_subsystem_entropies(
                family, record.region, record.gamma, record.q_r, fidelity_f=record.f
            )
            worst = max(
                worst,
                abs(record.s_a - reference[0]),
                abs(record.s_b - reference[1]),
                abs(record.s_ab - reference[2]),
            )
    return worst <= TOL, (
        f"{ORACLE_SAMPLES} random channels, both wedges: worst entropy deviation "
        f"between the Jacobi path and the characteristic-polynomial oracle is {worst:.3e}"
    )


def _check_state_invariants(tables: _SeriesTables) -> tuple[bool, str]:
    # pure joints have S(AB) of one wedge = S(B) of the other; the classical
    # joints are mixed, so only their spectra are checked
    gammas = [i * math.pi / 16 for i in range(5)]
    q_rs = (1.0, 0.8, 0.5, 0.2)
    spec = SweepSpec(tuple(ChannelFamily), gammas, q_rs, f_grid=(1.0,))
    series = split_series(run_sweep(spec))
    worst_schmidt = 0.0
    for (family, region, q_r, f), wedge_i in series.items():
        if region is BobRegion.II or family.is_classical:
            continue
        for near, far in zip(wedge_i, series[family, BobRegion.II, q_r, f]):
            worst_schmidt = max(worst_schmidt, abs(near.s_ab - far.s_b), abs(far.s_ab - near.s_b))
    # each family's joints over the same grid, solved as one stack
    grid = [(gamma, q_r) for gamma in gammas for q_r in q_rs]
    grid_gammas, grid_q_rs = zip(*grid)
    worst_psd = worst_sum = 0.0
    for family in ChannelFamily:
        f = 1.0 if family is ChannelFamily.WERNER else None
        inertial = _prepared_states(family, [(gamma, q_r, f) for gamma, q_r in grid], spec.alpha)
        isometries = bob_isometries(family.encoding, grid_gammas, grid_q_rs)
        eigs = eigvals_hermitian_batch(build_joints(family.encoding, inertial, isometries))
        worst_psd = max(worst_psd, -float(eigs.min()), float(eigs.max()) - 1.0)
        worst_sum = max(worst_sum, float(np.abs(eigs.sum(axis=1) - 1.0).max()))
    return worst_schmidt <= TOL and worst_psd <= 1e-8 and worst_sum <= 1e-10, (
        f"max |S(AB_I) - S(B_II)|-type gap = {worst_schmidt:.3e}; joint spectra lie in "
        f"[-{max(worst_psd, 0.0):.1e}, 1+{max(worst_psd, 0.0):.1e}] and sum to 1 within "
        f"{worst_sum:.1e}; every sweep reduction passed the PSD gate inside the entropy path"
    )


def _check_determinism(tables: _SeriesTables) -> tuple[bool, str]:
    with tempfile.TemporaryDirectory(prefix="unruh-verify-") as tmp:
        first = write_figure_set(FigurePreset, Path(tmp, "first"))
        start = time.monotonic()
        second = write_figure_set(FigurePreset, Path(tmp, "second"))
        elapsed = time.monotonic() - start
        if len(first) != len(second):
            return False, f"file counts differ: {len(first)} vs {len(second)}"
        mismatched = [
            a.name
            for a, b in zip(sorted(first), sorted(second))
            if not filecmp.cmp(a, b, shallow=False)
        ]
    if mismatched:
        return False, f"files differ between runs: {mismatched[:4]}"
    return elapsed < RUNTIME_BUDGET_SECONDS, (
        f"{len(first)} files byte-identical between two runs; "
        f"full figure set took {elapsed:.1f}s (budget {RUNTIME_BUDGET_SECONDS:.0f}s)"
    )


def _report_eq13_variants(tables: _SeriesTables) -> tuple[bool, str]:
    records = [r for s in tables[FigurePreset.FIG4].values() for r in s]
    gap = max(abs(r.s_a - r.s_b) for r in records)
    swapped_min = min(r.ssa_value + r.s_b - r.s_a for r in records)
    return True, (
        f"the S(AB)-S(A)+S(AC)-S(C) variant differs from the reported "
        f"S(AB)-S(B)+S(AC)-S(C) by up to {gap:.6f} on the Werner grid and dips to "
        f"{swapped_min:.6f}; only the reported form stays non-negative"
    )


# every row of `verify`, in report order; the last row is informational
CHECKS = (
    ("1-inertial-limit", _check_inertial_limit),
    ("2-infinite-acceleration-coincidence", _check_infinite_acceleration),
    ("3-quantum-conditional-entropy-vanishes", _check_quantum_conditional_entropy),
    ("4-classical-channel-contrast", _check_classical_contrast),
    ("5-mutual-information-monotonicity", _check_monotonicity),
    ("6-werner-strong-additivity", _check_werner_strong_additivity),
    ("7-oracle-equivalence", _check_oracle_equivalence),
    ("8-purity-and-invariants", _check_state_invariants),
    ("9-figure-determinism", _check_determinism),
    ("strong-additivity-variant-comparison", _report_eq13_variants),
)


def run_checks(include_determinism: bool = True) -> list[CheckResult]:
    """Run the rows of :data:`CHECKS` in order and return one result per row.

    Check 9 is skipped unless ``include_determinism``.  A row that raises
    is reported as a failed, non-informational result under its own name.
    """
    tables = _SeriesTables()
    results = []
    for name, check in CHECKS:
        if check is _check_determinism and not include_determinism:
            continue
        try:
            passed, detail = check(tables)
        except Exception as exc:  # a crashed check is a failed check
            results.append(CheckResult(name, False, f"raised {exc!r}"))
        else:
            note = check is _report_eq13_variants
            results.append(CheckResult(name, bool(passed), detail, informational=note))
    return results
