#!/usr/bin/env python3
"""Run the committed mutation catalogue: each mutant must fail the tests named for it.

Usage: python ci/mutants.py

Each entry of :data:`MUTANTS` is a name, a file of this checkout, an exact
source snippet, the snippet's replacement and the test ids that must kill
the mutant.  The checkout's ``src/``, ``tests/`` and ``ci/`` and its
``pyproject.toml`` are copied into a temporary directory, which is removed
on every exit path.  Entry by entry, the replacement is written into the
copy, the entry's tests run there with pytest in a fresh interpreter under
a timeout, and the file is restored.  No bytecode is written, so a restored
file is never shadowed by a cached mutant.

Every named test first runs once on the unmutated copy and must pass.  A
mutant is killed when pytest then reports a failed test (exit 1); a test id
that names no test makes pytest exit 4, in the unmutated run or at its
entry, and so fails the run.  One line is printed per entry.  Exits 1 when
an entry's file is missing or its snippet does not occur exactly once
(nothing runs then), when the unmutated copy fails, or when an entry
survives, times out or ends pytest any other way.  Stdlib only.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "ci", "pyproject.toml")
TIMEOUT_SECONDS = 300


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the checkout
    snippet: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "oracle-psd-tolerance-1e-9",
        "src/unruh_lab/crosscheck.py",
        "        if lam < -PSD_TOL:",
        "        if lam < -1e-9:",
        ("tests/test_crosscheck.py::TestCharpolyEigensolver::test_psd_tolerance_is_the_production_one",),
    ),
    Mutant(
        "oracle-psd-tolerance-1e-7",
        "src/unruh_lab/crosscheck.py",
        "        if lam < -PSD_TOL:",
        "        if lam < -1e-7:",
        ("tests/test_crosscheck.py::TestCharpolyEigensolver::test_psd_tolerance_is_the_production_one",),
    ),
    Mutant(
        "oracle-batch-newton-roots-to-the-next-block",
        "src/unruh_lab/crosscheck.py",
        "    for (reduced, zeros, scale, eigs), starts in zip(polynomials, estimates):",
        "    targets = [eigs for *_, eigs in polynomials]\n"
        "    for (reduced, zeros, scale, _), starts, eigs in zip(\n"
        "        polynomials, estimates, targets[1:] + targets[:1]\n"
        "    ):",
        (
            "tests/test_crosscheck.py::TestBatchedSolve::test_check_7_matrices_equal_the_per_block_reference",
            "tests/test_crosscheck.py::TestBatchedSolve::test_tiny_blocks_are_solved_at_the_scale_of_one",
        ),
    ),
    Mutant(
        "oracle-batch-stack-roots-to-the-next-matrix",
        "src/unruh_lab/crosscheck.py",
        "        for (_, roots), values in zip(group, solved.real.tolist()):",
        "        values = solved.real.tolist()\n"
        "        for (_, roots), values in zip(group, values[1:] + values[:1]):",
        ("tests/test_crosscheck.py::TestBatchedSolve::test_check_7_matrices_equal_the_per_block_reference",),
    ),
    Mutant(
        "oracle-companion-super-diagonal",
        "src/unruh_lab/crosscheck.py",
        "            companion = np.diag(np.ones(len(reduced) - 2), -1)",
        "            companion = np.diag(np.ones(len(reduced) - 2), 1)",
        (
            "tests/test_crosscheck.py::TestBatchedSolve::test_check_7_matrices_equal_the_per_block_reference",
            "tests/test_crosscheck.py::TestBatchedSolve::test_tiny_blocks_are_solved_at_the_scale_of_one",
        ),
    ),
    Mutant(
        "oracle-block-left-unscaled",
        "src/unruh_lab/crosscheck.py",
        "            scale = math.frexp(max(abs(rows[i][j]) for i in block for j in block))[1]",
        "            scale = 0",
        ("tests/test_crosscheck.py::TestBatchedSolve::test_tiny_blocks_are_solved_at_the_scale_of_one",),
    ),
    Mutant(
        "oracle-block-scaled-the-wrong-way",
        "src/unruh_lab/crosscheck.py",
        "math.ldexp(rows[i][j], -scale)",
        "math.ldexp(rows[i][j], scale)",
        ("tests/test_crosscheck.py::TestBatchedSolve::test_check_7_matrices_equal_the_per_block_reference",),
    ),
    Mutant(
        "oracle-roots-left-at-the-block-scale",
        "src/unruh_lab/crosscheck.py",
        "math.ldexp(_exact_newton(reduced, x), scale)",
        "_exact_newton(reduced, x)",
        ("tests/test_crosscheck.py::TestBatchedSolve::test_check_7_matrices_equal_the_per_block_reference",),
    ),
    Mutant(
        "oracle-trace-sums-the-discarded-bits-in-descending-order",
        "src/unruh_lab/crosscheck.py",
        "    for pattern in itertools.product((0, 1), repeat=len(drop)):",
        "    for pattern in itertools.product((1, 0), repeat=len(drop)):",
        ("tests/test_fock.py::TestPartialTrace::test_trace_out_has_the_bits_of_explicit_sums",),
    ),
    Mutant(
        "oracle-trace-column-bit-is-the-row-bits-complement",
        "src/unruh_lab/crosscheck.py",
        "            index[i] = index[n_factors + i] = bit",
        "            index[i], index[n_factors + i] = bit, 1 - bit",
        ("tests/test_crosscheck.py::TestBrutePartialTrace::test_matches_production_on_random_states",),
    ),
    Mutant(
        "oracle-strong-additivity-sums-s_ab-minus-s_a",
        "src/unruh_lab/crosscheck.py",
        "    return sum(s_ab - s_b for _, s_b, s_ab in wedges)",
        "    return sum(s_ab - s_a for s_a, _, s_ab in wedges)",
        ("tests/test_crosscheck.py::TestStrongAdditivityRoute::test_wedge_route_equals_the_five_reduction_split",),
    ),
    Mutant(
        "figure-set-reads-a-bare-string",
        "src/unruh_lab/output.py",
        "    if isinstance(presets, (str, bytes)):",
        "    if False:",
        ("tests/test_output.py::TestWriteFigureFiles::test_presets_are_a_collection_of_distinct_members",),
    ),
    Mutant(
        "figure-set-without-member-check",
        "src/unruh_lab/output.py",
        '    figures = _check_members("figure", [FigurePreset(p) for p in presets], FigurePreset)',
        "    figures = [FigurePreset(p) for p in presets]",
        ("tests/test_output.py::TestWriteFigureFiles::test_presets_are_a_collection_of_distinct_members",),
    ),
    Mutant(
        "figure-set-accepts-an-empty-out-dir",
        "src/unruh_lab/output.py",
        '    if out_dir == "":',
        "    if False:",
        (
            "tests/test_output.py::TestWriteFigureSet::test_empty_out_dir_is_a_domain_error_before_any_sweep",
            "tests/test_cli.py::TestFigure::test_empty_out_dir_is_a_domain_error",
        ),
    ),
    Mutant(
        "render-keeps-the-negative-zero",
        "src/unruh_lab/output.py",
        '    return text.replace("-" + zero, zero) + "\\n"',
        '    return text + "\\n"',
        (
            "tests/test_output.py::TestFormatting::test_negative_zero_normalized",
            "tests/test_output.py::TestFormatting::test_point_prints_the_reference_fields",
        ),
    ),
    Mutant(
        "cli-figure-writes-its-first-preset-only",
        "src/unruh_lab/cli.py",
        "    written = write_figure_set(args.which, args.out_dir, fmt)",
        "    written = write_figure_set(args.which[:1], args.out_dir, fmt)",
        ("tests/test_cli.py::TestFigure::test_several_presets_print_every_path_then_one_total",),
    ),
    Mutant(
        "cli-point-drops-signs",
        "src/unruh_lab/cli.py",
        '        print(f"{column}={value}")',
        "        print(f\"{column}={value.lstrip('-')}\")",
        ("tests/test_output.py::TestFormatting::test_point_prints_the_reference_fields",),
    ),
    Mutant(
        "cli-verify-counts-the-notes",
        "src/unruh_lab/cli.py",
        "    total = sum(1 for r in results if not r.informational)",
        "    total = len(results)",
        ("tests/test_verify.py::test_verify_quick_prints_every_verdict_and_exits_one",),
    ),
    Mutant(
        "console-script-drops-the-exit-code",
        "src/unruh_lab/cli.py",
        "    sys.exit(main())",
        "    main()\n    sys.exit(0)",
        ("tests/test_cli.py::TestModuleEntry::test_python_dash_m_runs_the_cli[nan-3]",),
    ),
    Mutant(
        "check-1-reads-fig1",
        "src/unruh_lab/verify.py",
        "def _check_inertial_limit(tables: _SeriesTables) -> tuple[bool, str]:\n"
        "    fig3 = tables[FigurePreset.FIG3]",
        "def _check_inertial_limit(tables: _SeriesTables) -> tuple[bool, str]:\n"
        "    fig3 = tables[FigurePreset.FIG1]",
        ("tests/test_verify.py::test_quick_run_sweeps_fig3_fig4_then_check_8s_grid",),
    ),
    Mutant(
        "check-5-lists-the-classical-pair-first",
        "src/unruh_lab/verify.py",
        "    for family in QUANTUM_PAIR + CLASSICAL_PAIR:",
        "    for family in CLASSICAL_PAIR + QUANTUM_PAIR:",
        ("tests/test_verify.py::test_monotonicity_violations_list_the_quantum_pair_then_the_classical_pair",),
    ),
    Mutant(
        "notes-are-not-informational",
        "src/unruh_lab/verify.py",
        "    for rows, informational in ((checks, False), (NOTES, True)):",
        "    for rows, informational in ((checks, False), (NOTES, False)):",
        ("tests/test_verify.py::test_quick_run_is_checks_one_to_eight_then_the_note",),
    ),
    Mutant(
        "quick-keeps-check-9",
        "src/unruh_lab/verify.py",
        "    checks = CHECKS if include_determinism else CHECKS[:-1]",
        "    checks = CHECKS",
        ("tests/test_verify.py::test_quick_run_is_checks_one_to_eight_then_the_note",),
    ),
    Mutant(
        "check-8-psd-bound-1e-7",
        "src/unruh_lab/verify.py",
        "worst_psd <= PSD_TOL",
        "worst_psd <= 1e-7",
        ("tests/test_verify.py::test_check_8_fails_joint_spectra_beyond_its_bounds[psd]",),
    ),
    Mutant(
        "check-8-sum-bound-1e-9",
        "src/unruh_lab/verify.py",
        "worst_sum <= 1e-10",
        "worst_sum <= 1e-9",
        ("tests/test_verify.py::test_check_8_fails_joint_spectra_beyond_its_bounds[sum]",),
    ),
    Mutant(
        "check-8-skips-the-joint-traces",
        "src/unruh_lab/verify.py",
        "        check_traces(joints)\n",
        "",
        ("tests/test_verify.py::test_check_8_tests_the_trace_of_each_joint",),
    ),
    Mutant(
        "value-diff-compares-floats-by-value",
        "ci/value_diff.py",
        "x is not None and x.hex() != y.hex():",
        "x is not None and x != y:",
        ("tests/test_value_diff.py::test_a_sign_of_zero_moves_bits_but_no_text",),
    ),
    Mutant(
        "value-diff-ignores-unmatched-keys",
        "ci/value_diff.py",
        "    return bool(unmatched) or any(",
        "    return any(",
        ("tests/test_value_diff.py::test_a_key_on_one_side_only_is_a_change",),
    ),
    Mutant(
        "value-diff-gates-at-precision-17",
        "ci/value_diff.py",
        "GOLDEN_PRECISION = 12",
        "GOLDEN_PRECISION = 17",
        ("tests/test_value_diff.py::test_one_ulp_and_one_twelve_decimal_change",),
    ),
    Mutant(
        "particle-amplitude-sign-flipped",
        "src/unruh_lab/states.py",
        '("q_r c", "-q_r s", "q_l s", "q_l c")),',
        '("q_r c", "q_r s", "q_l s", "q_l c")),',
        ("tests/test_states.py::TestStateTable::test_states_and_isometry_columns_equal_the_oracle_bit_for_bit",),
    ),
    Mutant(
        "single-rail-pair-swapped",
        "src/unruh_lab/states.py",
        '    Encoding.SINGLE_RAIL: ("vacuum", "particle"),',
        '    Encoding.SINGLE_RAIL: ("particle", "vacuum"),',
        (
            "tests/test_states.py::TestStateTable::test_states_and_isometry_columns_equal_the_oracle_bit_for_bit",
            "tests/test_states.py::TestStateTable::test_each_call_builds_only_the_states_it_reads",
        ),
    ),
    Mutant(
        "dual-rail-family-read-as-single-rail",
        "src/unruh_lab/states.py",
        "        dual = self in (QUANTUM_PAIR[1], CLASSICAL_PAIR[1])",
        "        dual = self in (QUANTUM_PAIR[1],)",
        ("tests/test_states.py::TestStateTable::test_dual_rail_is_the_second_member_of_each_pair",),
    ),
    Mutant(
        "isometry-norms-checked-point-by-point",
        "src/unruh_lab/states.py",
        "    check_norms(columns.reshape(-1, 16))",
        "    check_norms(columns.transpose(1, 0, 2).reshape(-1, 16))",
        ("tests/test_batch.py::TestSweepFailures::test_bad_column_0_is_named_before_an_earlier_points_column_1",),
    ),
    Mutant(
        "solver-hermiticity-test-skipped",
        "src/unruh_lab/fock.py",
        "    if not defect <= HERMITIAN_TOL:",
        "    if False:",
        (
            "tests/test_fock.py::TestEigvalsHermitian::test_hermiticity_message_is_check_hermitians",
            "tests/test_batch.py::TestBatchedJacobi::test_nan_matrix_fails_the_hermiticity_check",
        ),
    ),
    Mutant(
        "solver-rotates-the-unsymmetrised-rows",
        "src/unruh_lab/fock.py",
        "    rows = symmetric.tolist()",
        "    rows = a.tolist()",
        (
            "tests/test_fock.py::TestEigvalsHermitian::test_rotates_the_symmetrised_matrix",
            "tests/test_batch.py::TestBatchedJacobi::test_diagonal_negative_zero_is_a_positive_zero_eigenvalue",
        ),
    ),
    Mutant(
        "plan-takes-the-dense-patterns-sweeps",
        "src/unruh_lab/fock.py",
        "    sizes = {members.shape[1] for members in blocks}",
        '    sizes = {members.shape[1] for members in _blocks(b"\\x01" * (n * n), n)}',
        (
            "tests/test_fock.py::TestEigvalsHermitian::test_each_pattern_has_its_own_plan",
            "tests/test_batch.py::TestBlockJacobi::test_tiny_two_by_two_blocks_take_their_sweep",
        ),
    ),
    Mutant(
        "scalar-pairs-in-column-order",
        "src/unruh_lab/fock.py",
        "        for i, k in enumerate(block)\n        for l in block[i + 1 :]\n",
        "        for i, l in enumerate(block)\n        for k in block[:i]\n",
        (
            "tests/test_batch.py::TestBlockJacobi::test_dense_matrices_match_dense_reference",
            "tests/test_batch.py::TestBlockJacobi::test_joints_match_dense_reference",
        ),
    ),
    Mutant(
        "stack-pattern-read-from-the-first-matrix-only",
        "src/unruh_lab/fock.py",
        "    plan = _plan(np.logical_or.reduce(a != 0, axis=0).tobytes(), n)",
        "    plan = _plan((a[0] != 0).tobytes(), n)",
        (
            "tests/test_batch.py::TestBlockJacobi::test_own_two_by_two_blocks_sweep_in_a_stack_of_larger_blocks",
            "tests/test_batch.py::TestBlockJacobi::test_preset_matrices_match_dense_reference",
        ),
    ),
    Mutant(
        "stack-pairs-in-reverse-row-order",
        "src/unruh_lab/fock.py",
        "        for k in range(len(stack) - 1):",
        "        for k in reversed(range(len(stack) - 1)):",
        (
            "tests/test_batch.py::TestBlockJacobi::test_preset_matrices_match_dense_reference",
            "tests/test_batch.py::TestBlockJacobi::test_dense_matrices_match_dense_reference",
        ),
    ),
    Mutant(
        "blocks-of-an-unsymmetrised-pattern",
        "src/unruh_lab/fock.py",
        "    linked = linked | linked.T\n",
        "",
        ("tests/test_batch.py::TestBlockJacobi::test_blocks_members_ascending_and_nonfinite_linked",),
    ),
    Mutant(
        "norm-test-keeps-the-diagonal",
        "src/unruh_lab/fock.py",
        "    mags[:: n + 1] = 0.0",
        "    mags[:: n] = 0.0",
        ("tests/test_batch.py::TestBlockJacobi::test_convergence_reads_the_whole_matrix",),
    ),
    Mutant(
        "stack-checks-pass-nan",
        "src/unruh_lab/fock.py",
        "    return np.maximum.reduce(defects, axis=None, initial=0.0) <= tol",
        "    return np.fmax.reduce(defects, axis=None, initial=0.0) <= tol",
        (
            "tests/test_fock.py::TestStackChecksRejectNaN::test_norms",
            "tests/test_fock.py::TestStackChecksRejectNaN::test_hermitian_and_traces",
        ),
    ),
    Mutant(
        "stack-symmetrisation-written-into-the-input",
        "src/unruh_lab/fock.py",
        "    eigs = x[:, :n].copy()\n",
        "    flat[:, plan.direct] = x\n    eigs = x[:, :n].copy()\n",
        ("tests/test_batch.py::TestStackSolverInput::test_float64_stack_is_read_in_place",),
    ),
    Mutant(
        "stack-mirror-gather-is-the-direct-one",
        "src/unruh_lab/fock.py",
        "    mirror = flat[:, plan.mirror]",
        "    mirror = flat[:, plan.direct]",
        (
            "tests/test_batch.py::TestBatchedJacobi::test_non_hermitian_matrix_rejected",
            "tests/test_batch.py::TestStackSolverInput::test_float64_stack_is_read_in_place",
        ),
    ),
    Mutant(
        "exact-one-stack-skips-its-sweep",
        "src/unruh_lab/fock.py",
        "        for _ in range(plan.exact_after):",
        "        for _ in range(0):",
        ("tests/test_batch.py::TestStackSolverInput::test_exact_stacks_equal_the_single_matrix_solver",),
    ),
    Mutant(
        "stack-norm-test-keeps-the-diagonal",
        "src/unruh_lab/fock.py",
        "    squares[:, :: math.isqrt(size) + 1] = 0.0",
        "    squares[:, :: math.isqrt(size)] = 0.0",
        ("tests/test_batch.py::TestBatchedJacobi::test_bit_equal_on_random_hermitian",),
    ),
    Mutant(
        "prepared-states-spread-the-first-state",
        "src/unruh_lab/sweep.py",
        "    return np.array(states)[[rows[f] for _, _, f in points]]",
        "    return np.array(states)[[0 for _ in points]]",
        ("tests/test_batch.py::TestSweepBatches::test_prepared_states_are_each_points_state",),
    ),
    Mutant(
        "isometry-factors-lose-their-negatives",
        "src/unruh_lab/states.py",
        "    factors = np.concatenate((factors, -factors))",
        "    factors = np.concatenate((factors, factors))",
        ("tests/test_states.py::TestStateTable::test_isometries_of_repeated_unsorted_points_equal_the_oracle",),
    ),
    Mutant(
        "left-weight-of-the-first-q_r-for-every-point",
        "src/unruh_lab/states.py",
        "map(weights.__getitem__, q_r))",
        "map(weights.__getitem__, q_r[:1] * count))",
        ("tests/test_states.py::TestStateTable::test_isometries_of_repeated_unsorted_points_equal_the_oracle",),
    ),
    Mutant(
        "isometry-support-read-column-major",
        "src/unruh_lab/states.py",
        "    modes, js = np.divmod(_amplitude_plan(_ENCODING_BASIS[encoding])[0], 2)",
        "    js, modes = np.divmod(_amplitude_plan(_ENCODING_BASIS[encoding])[0], 16)",
        ("tests/test_batch.py::TestBatchedStates::test_traced_lift_has_the_bits_of_the_dense_lift",),
    ),
    Mutant(
        "structural-zero-reads-row-0",
        "src/unruh_lab/states.py",
        "    renumber = np.full(len(nonzero), len(used))",
        "    renumber = np.zeros(len(nonzero), dtype=int)",
        (
            "tests/test_batch.py::TestGatherPlan::test_plans_are_sparse",
            "tests/test_batch.py::TestBatchedStates::test_traced_lift_has_the_bits_of_the_dense_lift",
        ),
    ),
    Mutant(
        "werner-off-diagonal-keeps-a-negative-zero",
        "src/unruh_lab/states.py",
        "entries[0b11, 0b00] = bell + 0.0",
        "entries[0b11, 0b00] = bell",
        ("tests/test_states.py::TestBuildInertial::test_werner_has_the_bits_of_the_outer_product_construction",),
    ),
    Mutant(
        "quantum-cross-term-is-c-times-c",
        "src/unruh_lab/states.py",
        "        return DensityMatrix(INERTIAL_LAYOUT, amps[:, np.newaxis] * amps)",
        "        entries = amps[:, np.newaxis] * amps\n"
        "        entries[0b00, 0b11] = entries[0b11, 0b00] = amps[0b00] * amps[0b00]\n"
        "        return DensityMatrix(INERTIAL_LAYOUT, entries)",
        ("tests/test_states.py::TestBuildInertial::test_pure_and_classical_states_keep_their_bits",),
    ),
    Mutant(
        "wedge-traces-its-own-factors",
        "src/unruh_lab/states.py",
        "        other = BobRegion.II if self is BobRegion.I else BobRegion.I",
        "        other = self",
        ("tests/test_states.py::TestBobRegion::test_wedges_split_the_rindler_factors",),
    ),
)


def catalogue_problems(mutants=MUTANTS, root: Path = ROOT) -> list[str]:
    """Entries whose file is missing or whose snippet does not occur exactly once."""
    problems = []
    for mutant in mutants:
        path = root / mutant.path
        if not path.is_file():
            problems.append(f"{mutant.name}: {mutant.path} is not a file")
            continue
        count = path.read_text(encoding="utf-8").count(mutant.snippet)
        if count != 1:
            problems.append(f"{mutant.name}: the snippet occurs {count} times in {mutant.path}")
    return problems


def pytest(tests: tuple[str, ...], tree: Path) -> str:
    """``passed``, ``failed``, ``timed out`` or pytest's other exit status, for ``tests``
    run in ``tree`` against its ``src/``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(
            command, cwd=tree, env=env, capture_output=True, timeout=TIMEOUT_SECONDS
        )
    except subprocess.TimeoutExpired:
        return "timed out"
    return {0: "passed", 1: "failed"}.get(done.returncode, f"pytest exit {done.returncode}")


def run(mutant: Mutant, tree: Path) -> str:
    """``killed``, ``survived``, or how else the tests ended, for ``mutant`` applied in ``tree``."""
    path = tree / mutant.path
    source = path.read_bytes()
    path.write_bytes(source.replace(mutant.snippet.encode(), mutant.replacement.encode()))
    try:
        outcome = pytest(mutant.tests, tree)
    finally:
        path.write_bytes(source)
    return {"passed": "survived", "failed": "killed"}.get(outcome, outcome)


def copy_checkout(tree: Path) -> None:
    """The parts of this checkout that the tests read, copied into ``tree``."""
    for name in COPIED:
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, tree / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(ROOT / name, tree / name)


def main() -> int:
    problems = catalogue_problems()
    for problem in problems:
        print(f"catalogue: {problem}")
    if problems:
        return 1
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # still removes the copy
    survivors = 0
    with tempfile.TemporaryDirectory(prefix="unruh-mutants-") as tmp:
        tree = Path(tmp)
        copy_checkout(tree)
        # a test that fails unmutated would count every mutant as killed
        tests = tuple(dict.fromkeys(test for mutant in MUTANTS for test in mutant.tests))
        outcome = pytest(tests, tree)
        if outcome != "passed":
            print(f"the unmutated copy's tests: {outcome}")
            return 1
        for mutant in MUTANTS:
            start = time.monotonic()
            verdict = run(mutant, tree)
            print(f"{verdict:<9} {mutant.name} ({time.monotonic() - start:.1f} s)", flush=True)
            survivors += verdict != "killed"
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
