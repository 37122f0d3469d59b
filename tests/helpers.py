"""Shared builders for the test suite."""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from unruh_lab import (
    BobRegion,
    ChannelFamily,
    ConvergenceError,
    DensityMatrix,
    FigurePreset,
    OutputFormat,
    StateVector,
    Subsystem,
    SubsystemLayout,
    SweepRecord,
    figure_preset,
    partial_trace,
    run_sweep,
    von_neumann_entropy,
    write_figure_set,
)
from unruh_lab import crosscheck, fock, sweep, verify
from unruh_lab.crosscheck import brute_entropy_batch, brute_joint_matrix, brute_partial_trace
from unruh_lab.output import write_figure_files
from unruh_lab.states import REGION_II_FACTORS

# numpy's x86 dispatch levels above its baseline, highest first
DISPATCH_LEVELS = ("X86_V4", "X86_V3")
ROOT = Path(__file__).resolve().parents[1]

TWO_QUBITS = SubsystemLayout((Subsystem.ALICE, Subsystem.BOB))
THREE_QUBITS = SubsystemLayout(
    (Subsystem.ALICE, Subsystem.BOB, Subsystem.REGION_I_PARTICLE)
)


def random_state(rng, layout) -> StateVector:
    amps = rng.normal(size=layout.dim)
    return StateVector(layout, amps / np.linalg.norm(amps))


def random_density(rng, layout, rank=None) -> DensityMatrix:
    rank = rank or layout.dim
    x = rng.normal(size=(layout.dim, rank))
    m = x @ x.T
    return DensityMatrix(layout, m / np.trace(m))


def random_hermitian(rng, n) -> np.ndarray:
    x = rng.normal(size=(n, n))
    return (x + x.T) / 2


def random_block_stack(rng) -> np.ndarray:
    """A real symmetric stack (N, n, n), n in 2..12, whose zero pattern splits into blocks of 1-4.

    The blocks sit under a random permutation, and some matrices get extra
    exact zeros inside a block, so a matrix's own pattern can be finer
    than the union pattern of the stack.
    """
    n = int(rng.integers(2, 13))
    sizes = []
    while sum(sizes) < n:
        sizes.append(int(rng.integers(1, min(4, n - sum(sizes)) + 1)))
    order = rng.permutation(n)
    count = int(rng.integers(1, 6))
    stack = np.zeros((count, n, n))
    start = 0
    for size in sizes:
        members = order[start : start + size]
        start += size
        block = np.array([random_hermitian(rng, size) for _ in range(count)])
        stack[:, members[:, np.newaxis], members[np.newaxis, :]] = block
    for matrix in stack[: int(rng.integers(0, count + 1))]:
        k, l = rng.integers(n, size=2)
        matrix[k, l] = matrix[l, k] = 0.0
    return stack


def bell_state(layout=TWO_QUBITS) -> StateVector:
    amps = np.zeros(4)
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


def dense_jacobi_eigvals(matrix) -> np.ndarray:
    """The cyclic Jacobi of ``fock.eigvals_hermitian`` as it was when it swept every pair.

    A reference for the solvers that rotate only inside the blocks of the
    zero pattern: each sweep visits every pair (k, l) of the full matrix
    in row order.  The constants are read from ``fock`` when called, so a
    test that patches them there patches them here too.  The solvers part
    from it on one class of input: a matrix whose blocks are all 2x2 and
    whose off-diagonal norm passes the convergence test while some pivot
    is at least ``skip_below``.  They take their one sweep there, and this
    reference stops before it.
    """
    a = np.array(matrix, dtype=float)
    fock.check_hermitian(a[np.newaxis])
    a = (a + a.T) / 2.0
    n = a.shape[0]
    skip_below = fock.JACOBI_OFF_NORM_TOL / (100.0 * n)
    for _ in range(fock.JACOBI_MAX_SWEEPS):
        if _dense_off_diagonal_norm_sq(a) <= fock.JACOBI_OFF_NORM_TOL**2:
            break
        for k in range(n - 1):
            for l in range(k + 1, n):
                _dense_jacobi_rotate(a, k, l, skip_below)
    else:
        raise ConvergenceError(
            f"off-diagonal norm still {math.sqrt(_dense_off_diagonal_norm_sq(a)):.3e} "
            f"after {fock.JACOBI_MAX_SWEEPS} sweeps"
        )
    eigs = np.sort(np.diag(a))
    return eigs[::-1]


def _dense_off_diagonal_norm_sq(a: np.ndarray) -> float:
    mags = a * a
    np.fill_diagonal(mags, 0.0)
    return float(mags.sum())


def _dense_jacobi_rotate(a: np.ndarray, k: int, l: int, skip_below: float) -> None:
    """Annihilate a[k, l] (and a[l, k]) by an orthogonal plane rotation, in place."""
    pivot = a[k, l]
    beta = abs(pivot)
    if not beta > 0.0:  # zero, or NaN: nothing to rotate
        return
    if beta < skip_below:
        # negligible against the convergence tolerance; drop it outright
        a[k, l] = 0.0
        a[l, k] = 0.0
        return
    akk = a[k, k]
    all_ = a[l, l]
    sign = math.copysign(1.0, pivot)
    tau = (all_ - akk) / (2.0 * beta)
    t = (-1.0 if tau >= 0.0 else 1.0) / (abs(tau) + math.hypot(tau, 1.0))
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c
    new_kk = akk * c * c + 2.0 * beta * c * s + all_ * s * s
    new_ll = akk * s * s - 2.0 * beta * c * s + all_ * c * c

    col_k = a[:, k].copy()
    col_l = a[:, l].copy()
    a[:, k] = c * col_k + (s * sign) * col_l
    a[:, l] = (-s * sign) * col_k + c * col_l
    row_k = a[k, :].copy()
    row_l = a[l, :].copy()
    a[k, :] = c * row_k + (s * sign) * row_l
    a[l, :] = (-s * sign) * row_k + c * row_l

    a[k, k] = new_kk
    a[l, l] = new_ll
    a[k, l] = 0.0
    a[l, k] = 0.0


def charpoly_coefficients(matrix) -> np.ndarray:
    """The oracle's characteristic polynomial coefficients [1, c_{n-1}, ..., c_0] as floats."""
    coeffs = crosscheck._exact_charpoly(np.asarray(matrix, dtype=float).tolist())
    return np.array([a / coeffs[0] for a in coeffs])


def per_block_eigvals_charpoly(matrix) -> np.ndarray:
    """The oracle's spectrum solved one block at a time, each with its own ``np.roots``.

    The reference for the batched solve: each block is an ``np.ix_`` copy
    scaled by ``np.ldexp`` to a largest entry in [0.5, 1), its deflated
    exact polynomial gets ``np.roots`` estimates, and each estimate is
    Newton-refined alone and scaled back.  Blocks come in the oracle's
    order, so the descending result has the same bits, zero signs included.
    ``np.roots`` strips a tail of coefficients that underflow, which the
    oracle keeps; no scaled block here has one.
    """
    a = np.asarray(matrix, dtype=float)
    eigs = []
    for block in crosscheck._blocks(a.tolist()):
        sub = a[np.ix_(block, block)]
        n = len(block)
        if n == 1:
            eigs.append(float(sub[0, 0]))
            continue
        scale = int(np.frexp(np.abs(sub).max())[1])
        coeffs = crosscheck._exact_charpoly(np.ldexp(sub, -scale).tolist())
        zeros = 0
        while zeros < n and coeffs[n - zeros] == 0:
            zeros += 1
        reduced = coeffs[: n + 1 - zeros]
        estimates = np.roots([c / reduced[0] for c in reduced]).real
        eigs += [math.ldexp(crosscheck._exact_newton(reduced, float(x)), scale) for x in estimates]
        eigs += [0.0] * zeros
    return np.sort(eigs)[::-1]


def check7_matrices() -> list[np.ndarray]:
    """Check 7's 300 oracle matrices: per channel and wedge, Alice's, the modes' and their state."""
    matrices = []
    for family, points in verify._oracle_samples().items():
        for gamma, q_r, f in points:
            joint = brute_joint_matrix(family, gamma, q_r, math.pi / 4, f)
            for keep in ([0, 1, 3], [0, 2, 4]):
                reduced = brute_partial_trace(joint, 5, keep)
                matrices += [
                    brute_partial_trace(reduced, 3, [0]),
                    brute_partial_trace(reduced, 3, [1, 2]),
                    reduced,
                ]
    return matrices


def brute_mutual_information(family, region, gamma, q_r, alpha=math.pi / 4, fidelity_f=None):
    """S(Alice) + S(wedge modes) - S(joint reduction) for one wedge, from the oracle."""
    s_a, s_b, s_ab = crosscheck.brute_subsystem_entropies(
        family, region, gamma, q_r, alpha, fidelity_f
    )
    return s_a + s_b - s_ab


def brute_tripartite_entropies(
    family: ChannelFamily,
    gamma: float,
    q_r: float,
    alpha: float = math.pi / 4,
    fidelity_f: float | None = None,
) -> dict[str, float]:
    """All marginal entropies of the A = Alice, B = region I, C = region II split."""
    joint = brute_joint_matrix(family, gamma, q_r, alpha, fidelity_f)
    return {
        "s_ab": brute_entropy_batch([brute_partial_trace(joint, 5, [0, 1, 3])])[0],
        "s_ac": brute_entropy_batch([brute_partial_trace(joint, 5, [0, 2, 4])])[0],
        "s_a": brute_entropy_batch([brute_partial_trace(joint, 5, [0])])[0],
        "s_b": brute_entropy_batch([brute_partial_trace(joint, 5, [1, 3])])[0],
        "s_c": brute_entropy_batch([brute_partial_trace(joint, 5, [2, 4])])[0],
    }


def cpu_features() -> dict:
    """numpy's map of CPU features to whether it dispatches to them in this process."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__


def dispatch_level() -> str:
    """The highest of ``DISPATCH_LEVELS`` numpy dispatches to here, else "baseline"."""
    features = cpu_features()
    return next((level for level in DISPATCH_LEVELS if features.get(level)), "baseline")


def run_at_dispatch_level(level, code) -> str:
    """Run ``code`` in a Python subprocess that numpy dispatches at ``level``; its stdout.

    ``level`` is one of ``DISPATCH_LEVELS`` or "baseline"; the calling test
    skips if numpy does not dispatch to it on this CPU.  The subprocess
    imports ``src`` and ``tests``, and the test fails unless it exits 0
    at that level.
    """
    features = cpu_features()
    if level != "baseline" and not features.get(level):
        pytest.skip(f"numpy does not dispatch to {level} on this CPU")
    # the levels above this one: all of them above the baseline
    above = DISPATCH_LEVELS[: (DISPATCH_LEVELS + (level,)).index(level)]
    env = dict(
        os.environ,
        NPY_DISABLE_CPU_FEATURES=" ".join(f for f in above if features.get(f)),
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]),
    )
    script = f"import helpers\nprint(helpers.dispatch_level())\n{code}\n"
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    first, _, rest = done.stdout.partition("\n")
    assert first == level
    return rest


def format_number(value: float | None, precision: int = 12) -> str:
    """One field as the renderer should print it: fixed point, empty for ``None``,
    and unsigned when it rounds to zero."""
    if value is None:
        return ""
    rendered = f"{value + 0.0:.{precision}f}"
    if rendered.startswith("-") and float(rendered) == 0.0:
        rendered = rendered[1:]
    return rendered


def record_fields(record: SweepRecord, precision: int = 12) -> list[str]:
    """The record as CSV-schema strings, empty where not applicable."""
    return [record.family.value, record.region.value] + [
        format_number(x, precision) for x in record[2:]
    ]


def write_each_preset(presets, out_dir, fmt=OutputFormat()) -> list[Path]:
    """The per-preset pairing ``write_figure_set`` stands for: each preset's
    ``run_sweep`` written by ``write_figure_files``; all paths, in preset order."""
    written = []
    for preset in presets:
        spec = figure_preset(preset)
        written += write_figure_files(preset, run_sweep(spec), spec, out_dir, fmt)
    return written


def preset_hashes(
    out_dir, presets=tuple(FigurePreset), kinds=("csv",), writer=write_figure_set
) -> dict:
    """The sha256 of each file ``writer`` writes for ``presets`` to ``out_dir``, in
    ``kinds``, at 12 digits; ``writer`` takes (presets, out_dir, fmt)."""
    for kind in kinds:
        writer(presets, out_dir, OutputFormat(kind, 12))
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in Path(out_dir).iterdir()
    }


def check_solvers_on_block_stacks(seed, count) -> None:
    """Both solvers against dense_jacobi_eigvals, bit for bit, on seeded block stacks."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        stack = random_block_stack(rng)
        want = np.array([dense_jacobi_eigvals(matrix) for matrix in stack])
        for matrix, row in zip(stack, want):
            assert_same_bits(fock.eigvals_hermitian(matrix), row)
        assert_same_bits(fock.eigvals_hermitian_batch(stack), want)


def count_calls(monkeypatch, *targets) -> dict:
    """Wrap each ``(module, name)`` function; the returned dict counts its calls by name."""
    calls = {}
    for module, name in targets:
        real = getattr(module, name)
        calls[name] = 0

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def double_wedge_at(monkeypatch, bad):
    """Double the wedge state of each (region, gamma) in ``bad``; its trace check fails.

    The sweep calls ``bob_isometries`` with a batch's gammas just before it
    reduces the batch, so the wrapper of ``trace_lifted`` reads them there.
    """
    real_isometries, real_trace = sweep.bob_isometries, sweep.trace_lifted
    batch = []

    def isometries(encoding, gammas, q_rs):
        batch[:] = gammas
        return real_isometries(encoding, gammas, q_rs)

    def defective(encoding, inertial, isometries, discards):
        reductions = real_trace(encoding, inertial, isometries, discards)
        for (wedge, _), discard in zip(reductions, discards):
            region = BobRegion.I if frozenset(discard) == REGION_II_FACTORS else BobRegion.II
            for i, gamma in enumerate(batch):
                if (region, gamma) in bad:
                    wedge[i] *= 2.0
        return reductions

    monkeypatch.setattr(sweep, "bob_isometries", isometries)
    monkeypatch.setattr(sweep, "trace_lifted", defective)
