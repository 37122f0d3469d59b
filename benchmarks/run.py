"""End-to-end and per-layer benchmark for unruh-lab.

Run from the repository root:

    python3 benchmarks/run.py --workload figures --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py            # every workload, each in a fresh process

One workload runs in this process as a closed loop with one client, against
the package in ``src/`` of the checkout that holds this file.  The last line
of standard output is a JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics from a traced run with ``--trace 1``.
The line before it records the environment and the details behind the
metrics.  README.md in this directory says why each workload exists and
which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = BENCH_DIR / "golden_figures.json"

# The thread setting is passed only through the environment, never as an
# argument, so the benchmark keeps working once the knob is removed.  Every
# workload runs serially: with two threads, verify-quick's wall time doubled
# whenever other guests took CPU time from this machine, which no number of
# runs could average out.
THREADS_ENV_VAR = "UNRUH_LAB_THREADS"
WORKLOAD_THREADS = {"figures": "1", "point-queries": "1", "verify-quick": "1"}

SETUP_SAMPLES = 15
POINT_COUNT = 4096
BOUNDARY_SHARE = 0.05  # per parameter, so about a tenth of the points
ORACLE_SAMPLES = 16
TRACED_POINT_CALLS = 2000
CSV_PRECISION = 12

# The speed gauge runs the reference kernel every GAUGE_INTERVAL_S seconds.
# Normalised times are the wall times this machine would show if the kernel
# took exactly REF_SECONDS.
GAUGE_INTERVAL_S = 0.2
REF_SECONDS = 0.01
REF_MATRIX = np.add.outer(np.arange(8.0), np.arange(8.0)) % 5 - np.eye(8)

EXPECTED_VERDICTS = {
    "1-inertial-limit": "PASS",
    "2-infinite-acceleration-coincidence": "PASS",
    "3-quantum-conditional-entropy-vanishes": "PASS",
    "4-classical-channel-contrast": "PASS",
    "5-mutual-information-monotonicity": "FAIL",
    "6-werner-strong-additivity": "PASS",
    "7-oracle-equivalence": "PASS",
    "8-purity-and-invariants": "PASS",
    "strong-additivity-variant-comparison": "NOTE",
}


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", default="all", choices=sorted(WORKLOAD_THREADS) + ["all"]
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    return parser.parse_args(argv)


def _import_lab() -> SimpleNamespace:
    """Import the checkout's package, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    import unruh_lab
    from unruh_lab import crosscheck, output, sweep, verify

    loaded = Path(unruh_lab.__file__).resolve()
    if SRC.resolve() not in loaded.parents:
        raise SystemExit(f"imported unruh_lab from {loaded}, not from {SRC}")
    return SimpleNamespace(
        package=unruh_lab, sweep=sweep, output=output, verify=verify, crosscheck=crosscheck
    )


def measure_setup(env: dict[str, str]) -> list[float]:
    """Seconds from starting a fresh interpreter to ``import unruh_lab`` returning."""
    command = [
        sys.executable,
        "-c",
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import unruh_lab",
    ]
    subprocess.run(command, env=env, check=True)  # writes bytecode caches; not timed
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(command, env=env, check=True)
        samples.append(time.perf_counter() - start)
    return samples


def preset_points(lab) -> int:
    """Grid points in the four figure presets together."""
    werner = lab.package.ChannelFamily.WERNER
    total = 0
    for preset in lab.sweep.FigurePreset:
        spec = lab.sweep.figure_preset(preset)
        f_points = len(spec.f_grid) if werner in spec.families else 1
        total += (
            len(spec.families) * len(spec.regions) * len(spec.gamma_grid)
            * len(spec.q_r_grid) * f_points
        )
    return total


class Figures:
    """All four presets built with run_sweep and written as CSV."""

    traced_units = 1
    units_per_block = 1

    def __init__(self, lab, seed: int):
        self.sweep, self.output = lab.sweep, lab.output
        self.presets = [(p, self.sweep.figure_preset(p)) for p in self.sweep.FigurePreset]
        self.points_per_unit = preset_points(lab)
        self.golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        self.out_dir = OUT / "figures"
        self.fmt = self.output.OutputFormat(kind="csv", precision=CSV_PRECISION)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def unit(self) -> float:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        start = clock()
        try:
            for preset, spec in self.presets:
                records = self.sweep.run_sweep(spec)
                self.output.write_figure_files(
                    preset, records, spec, self.out_dir, self.fmt
                )
        except Exception as exc:  # the files it did not write count as failed
            self.errors.append(repr(exc))
        elapsed = clock() - start
        self._check()
        return elapsed

    def _check(self) -> None:
        found = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in (self.out_dir.glob("*") if self.out_dir.is_dir() else ())
        }
        bad = [name for name, digest in self.golden.items() if found.get(name) != digest]
        extra = sorted(set(found) - set(self.golden))
        self.attempted += len(self.golden)
        self.failed += len(bad) + len(extra)
        if bad or extra:
            self.errors.append(f"{len(bad)} files differ, e.g. {bad[:3]}; unexpected {extra[:3]}")

    def finish(self) -> dict:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        return {}


def make_points(seed: int, families, regions, werner) -> list[tuple]:
    """Seeded point queries: every family and wedge, with some boundary values.

    Families and wedges take turns rather than being drawn, so every seed
    asks for the same mix; a family costs up to twice another, and a drawn
    mix moved the per-call median by a tenth from seed to seed.
    """
    rng = random.Random(seed)

    def pick(low: float, high: float) -> float:
        if rng.random() < BOUNDARY_SHARE:
            return rng.choice((low, high))
        return rng.uniform(low, high)

    points = []
    for i in range(POINT_COUNT):
        family = families[i % len(families)]
        region = regions[i // len(families) % len(regions)]
        gamma = pick(0.0, math.pi / 4)
        q_r = pick(0.0, 1.0)
        if family is werner:
            alpha, f = math.pi / 4, rng.uniform(0.0, 1.0)
        else:
            alpha, f = rng.uniform(0.0, math.pi / 2), None
        points.append((family, region, gamma, q_r, alpha, f))
    return points


def _entropy_lapack(matrix: np.ndarray) -> float:
    lam = np.linalg.eigvalsh(matrix)
    lam = lam[lam > 0.0]
    return float(-(lam * np.log2(lam)).sum())


class PointQueries:
    """Back-to-back evaluate_point(..., with_ssa=True) calls, as `unruh-lab point` makes."""

    points_per_unit = 1
    traced_units = TRACED_POINT_CALLS
    units_per_block = 400

    def __init__(self, lab, seed: int):
        self.sweep, self.crosscheck, self.tol = lab.sweep, lab.crosscheck, lab.verify.TOL
        package = lab.package
        self.points = make_points(
            seed, list(package.ChannelFamily), list(package.BobRegion),
            package.ChannelFamily.WERNER,
        )
        self.sample = set(random.Random(seed + 1).sample(range(POINT_COUNT), ORACLE_SAMPLES))
        self.sampled: dict[int, object] = {}
        self.position = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _evaluate(self, index: int):
        family, region, gamma, q_r, alpha, f = self.points[index]
        return self.sweep.evaluate_point(family, region, gamma, q_r, alpha, f, with_ssa=True)

    def unit(self) -> float:
        index = self.position % POINT_COUNT
        self.position += 1
        self.attempted += 1
        start = clock()
        try:
            record = self._evaluate(index)
        except Exception as exc:
            elapsed = clock() - start
            self.failed += 1
            self.errors.append(f"point {index}: {exc!r}")
            return elapsed
        elapsed = clock() - start
        if index in self.sample:
            self.sampled.setdefault(index, record)
        return elapsed

    def _oracle(self, point) -> tuple[float, ...]:
        family, region, gamma, q_r, alpha, f = point
        cc = self.crosscheck
        return cc.brute_subsystem_entropies(family, region, gamma, q_r, alpha, f) + (
            cc.brute_strong_additivity(family, gamma, q_r, alpha, f),
        )

    def _lapack_reference(self, point) -> tuple[float, ...]:
        """The oracle's closed-form matrices, diagonalised by LAPACK instead."""
        family, region, gamma, q_r, alpha, f = point
        cc = self.crosscheck
        reduced = cc.brute_region_matrix(family, region, gamma, q_r, alpha, f)
        joint = cc.brute_joint_matrix(family, gamma, q_r, alpha, f)

        def entropy(matrix, n_factors, keep):
            return _entropy_lapack(cc.brute_partial_trace(matrix, n_factors, keep))

        ssa = (
            entropy(joint, 5, [0, 1, 3]) - entropy(joint, 5, [1, 3])
            + entropy(joint, 5, [0, 2, 4]) - entropy(joint, 5, [2, 4])
        )
        return (
            entropy(reduced, 3, [0]), entropy(reduced, 3, [1, 2]),
            _entropy_lapack(reduced), ssa,
        )

    def finish(self) -> dict:
        """Compare the sampled calls with the characteristic-polynomial oracle."""
        worst = 0.0
        disagreements = 0
        for index in sorted(self.sample):
            point = self.points[index]
            try:
                record = self.sampled.get(index)
                if record is None:  # not reached in the timed loop
                    self.attempted += 1
                    record = self._evaluate(index)
                got = (record.s_a, record.s_b, record.s_ab, record.ssa_value)
                deviation = max(abs(a - b) for a, b in zip(got, self._oracle(point)))
                worst = max(worst, deviation)
                if deviation <= self.tol:
                    continue
                # The oracle merges nearly degenerate roots; LAPACK on the same
                # closed-form matrices decides which side is wrong.
                reference = self._lapack_reference(point)
                if max(abs(a - b) for a, b in zip(got, reference)) <= self.tol:
                    disagreements += 1
                    continue
                self.errors.append(f"point {index} {point}: off by {deviation:.3e}")
            except Exception as exc:
                self.errors.append(f"point {index}: {exc!r}")
            self.failed += 1
        return {
            "oracle_samples": len(self.sample),
            "oracle_worst_deviation": worst,
            "oracle_disagreements": disagreements,
        }


class VerifyQuick:
    """run_checks(include_determinism=False), the work of `unruh-lab verify --quick`."""

    traced_units = 1
    units_per_block = 1

    def __init__(self, lab, seed: int):
        self.verify = lab.verify
        self.points_per_unit = preset_points(lab)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def unit(self) -> float:
        start = clock()
        try:
            results = self.verify.run_checks(include_determinism=False)
        except Exception as exc:
            results = []
            self.errors.append(repr(exc))
        elapsed = clock() - start
        verdicts = {
            r.name: "NOTE" if r.informational else ("PASS" if bool(r.passed) else "FAIL")
            for r in results
        }
        wrong = [name for name, v in EXPECTED_VERDICTS.items() if verdicts.get(name) != v]
        extra = sorted(set(verdicts) - set(EXPECTED_VERDICTS))
        self.attempted += len(EXPECTED_VERDICTS)
        self.failed += len(wrong) + len(extra)
        if results and (wrong or extra):
            self.errors.append(f"verdicts {verdicts}")
        return elapsed

    def finish(self) -> dict:
        return {}


WORKLOADS = {"figures": Figures, "point-queries": PointQueries, "verify-quick": VerifyQuick}


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of interpreted rotations and small LAPACK calls."""
    start = time.perf_counter()
    rows = [[(i * 7 + j * 3) % 11 / 11.0 for j in range(8)] for i in range(8)]
    for _ in range(60):
        for p in range(8):
            for q in range(p + 1, 8):
                for k in range(8):
                    a, b = rows[k][p], rows[k][q]
                    rows[k][p], rows[k][q] = 0.8 * a - 0.6 * b, 0.6 * a + 0.8 * b
    for _ in range(600):
        np.linalg.eigvalsh(REF_MATRIX)
        REF_MATRIX @ REF_MATRIX
    return time.perf_counter() - start


class SpeedGauge:
    """Runs the reference kernel from an interval timer, between the workload's bytecodes.

    The kernel shares no code with the package, so a change to the package
    leaves it alone; it gauges how fast this machine runs that kind of code
    while the workload runs.  Its own time is kept out of ``clock()``.
    """

    def __init__(self) -> None:
        self.busy = 0.0
        self.samples: list[float] = []
        self._inside = False

    def _tick(self, signum, frame) -> None:
        if self._inside:  # a signal that arrived while the kernel ran
            return
        self._inside = True
        start = time.perf_counter()
        self.samples.append(reference_kernel())
        self.busy += time.perf_counter() - start
        self._inside = False

    def __enter__(self) -> "SpeedGauge":
        self._tick(None, None)  # so that even the first block has a sample
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, GAUGE_INTERVAL_S, GAUGE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


GAUGE = SpeedGauge()


def clock() -> float:
    """Wall-clock seconds, less the time the speed gauge has taken."""
    return time.perf_counter() - GAUGE.busy


def run_untraced(workload, seconds: int) -> tuple[dict, dict]:
    """Time blocks of units while the speed gauge samples the machine's speed.

    The host's speed wanders by up to a third over minutes, so each block's
    times are scaled by REF_SECONDS over the mean reference time sampled
    during that block.  The raw times go to the detail line.
    """
    setup = measure_setup(dict(os.environ))
    blocks: list[list[float]] = []
    speeds: list[float] = []
    steps: list[float] = []
    start = time.perf_counter()
    with GAUGE:
        # a block starts only if it is expected to end within half a block of the time
        while not blocks or time.perf_counter() - start + statistics.median(steps) / 2 < seconds:
            step_start, first = time.perf_counter(), len(GAUGE.samples)
            blocks.append([workload.unit() for _ in range(workload.units_per_block)])
            # a block shorter than the interval borrows the latest sample
            speeds.append(statistics.fmean(GAUGE.samples[first:] or GAUGE.samples[-1:]))
            steps.append(time.perf_counter() - step_start)
    detail = workload.finish()
    scales = [REF_SECONDS / speed for speed in speeds]
    times = [t for block in blocks for t in block]
    norm_busy = sum(sum(block) * scale for block, scale in zip(blocks, scales))
    values = {
        "setup_s": statistics.median(setup),
        "norm_wall_s": statistics.median(
            statistics.median(block) * scale for block, scale in zip(blocks, scales)
        ),
        "norm_points_per_s": workload.points_per_unit * len(times) / norm_busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail.update(
        setup_samples=len(setup),
        units=len(times),
        blocks=len(blocks),
        wall_s=statistics.median(times),
        points_per_s=workload.points_per_unit * len(times) / sum(times),
        reference_samples=len(GAUGE.samples),
        reference_s=statistics.median(GAUGE.samples),
        gauge_share=GAUGE.busy / (time.perf_counter() - start),
    )
    if len(times) >= 1000:  # ten samples beyond the 99th percentile
        detail["unit_p99_s"] = sorted(times)[int(0.99 * len(times))]
    return values, detail


def run_traced(workload, lab, name: str, seed: int) -> tuple[dict, dict]:
    from tracing import Tracer

    def timed_pass() -> float:
        return sum(workload.unit() for _ in range(workload.traced_units))

    untraced = timed_pass()
    tracer = Tracer([(lab.sweep.figure_preset(p), p.value) for p in lab.sweep.FigurePreset])
    tracer.install()
    try:
        traced = timed_pass()
    finally:
        tracer.uninstall()
    detail = workload.finish()
    tracer.write(OUT / f"trace-{name}-seed{seed}.tsv")
    values = tracer.totals()
    values["trace.overhead_ratio"] = traced / untraced
    detail.update(
        traced_units=workload.traced_units,
        untraced_wall_s=untraced,
        traced_wall_s=traced,
        spans=len(tracer.spans),
        absent_layers=tracer.absent,
    )
    return values, detail


def run_one(args: argparse.Namespace) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = contract["per_layer" if args.trace else "end_to_end"]
    os.environ[THREADS_ENV_VAR] = WORKLOAD_THREADS[args.workload]
    lab = _import_lab()
    workload = WORKLOADS[args.workload](lab, args.seed)
    if args.trace:
        values, detail = run_traced(workload, lab, args.workload, args.seed)
    else:
        values, detail = run_untraced(workload, args.seconds)
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared}
    detail["failed_ratio"] = workload.failed / workload.attempted
    detail["errors"] = workload.errors[:10]
    detail["environment"] = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        THREADS_ENV_VAR: os.environ[THREADS_ENV_VAR],
        "unruh_lab_file": lab.package.__file__,
    }
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, metric in metrics.items():
        print(f"  {name:48s} {metric['value']:14.6g} {metric['unit']}")
    print(f"  {'failed / attempted':48s} {workload.failed} / {workload.attempted}")
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": workload.failed == 0,
                "attempted": workload.attempted,
                "failed": workload.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process; prints their results together."""
    results = {}
    for name in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(command, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv: list[str]) -> int:
    args = _parse_args(argv)
    if not (SRC / "unruh_lab" / "__init__.py").is_file():
        print(f"no unruh_lab package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
