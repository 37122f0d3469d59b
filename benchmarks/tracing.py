"""Per-layer spans for the traced benchmark run.

Each layer boundary is a public function of an ``unruh_lab`` module.  The
tracer wraps it by rebinding the name in every ``unruh_lab`` module that
holds it, so calls made through ``from .x import f`` imports are seen too;
no file of the package is changed.  Every thread keeps its own span stack,
so a span's parent is the innermost open span on the same thread.  Spans
stay in memory until the run ends.

A layer whose function no longer exists is reported as absent, so the same
benchmark keeps working after a later change deletes it.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np

# (module, function) pairs, each traced as the layer "<module>.<function>".
LAYERS = (
    ("states", "build_joint"),
    ("states", "reduce_to_region"),
    ("fock", "partial_trace"),
    ("fock", "eigvals_hermitian"),
    ("measures", "entropy_from_eigenvalues"),
    ("measures", "subsystem_entropies"),
    ("measures", "strong_additivity"),
    ("sweep", "run_sweep"),
    ("sweep", "evaluate_point"),
    ("output", "write_figure_files"),
    ("crosscheck", "brute_subsystem_entropies"),
    ("verify", "run_checks"),
)


class Tracer:
    """Records one span per call of every layer function while installed."""

    def __init__(self, presets: list[tuple[object, str]]):
        # (SweepSpec, preset name) pairs, to split run_sweep time by figure
        self._presets = presets
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []
        # span: [layer, bucket, start_ns, end_ns, parent_id, child_ns, thread]
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.files = 0
        self.bytes = 0

    def _bucket(self, layer: str, args: tuple) -> str:
        if layer == "fock.eigvals_hermitian":  # by matrix dimension
            return f"d{np.shape(getattr(args[0], 'entries', args[0]))[0]}"
        if layer == "sweep.run_sweep":
            return next((name for spec, name in self._presets if spec == args[0]), "other")
        return ""

    def _wrap(self, layer: str, func):
        clock = time.perf_counter_ns
        local = self._local
        spans = self.spans
        lock = self._lock
        bucket_of = self._bucket
        # the files a write returns are counted after its span has ended
        on_result = self._count_output if layer == "output.write_figure_files" else None

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            span = [layer, bucket_of(layer, args), 0, 0, parent, 0, threading.get_ident()]
            with lock:
                span_id = len(spans)
                spans.append(span)
            stack.append(span_id)
            span[2] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
                if parent is not None:  # the parent is open on this same thread
                    spans[parent][5] += span[3] - span[2]
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def install(self) -> None:
        package = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == "unruh_lab" or name.startswith("unruh_lab."))
        ]
        for module_name, func_name in LAYERS:
            home = sys.modules.get(f"unruh_lab.{module_name}")
            original = getattr(home, func_name, None)
            if original is None:
                self.absent.append(f"{module_name}.{func_name}")
                continue
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in package:
                if getattr(module, func_name, None) is original:
                    self._restore.append((module, func_name, original))
                    setattr(module, func_name, wrapper)

    def uninstall(self) -> None:
        for module, func_name, original in reversed(self._restore):
            setattr(module, func_name, original)
        self._restore.clear()

    def _count_output(self, paths) -> None:
        for path in paths:
            self.files += 1
            self.bytes += Path(path).stat().st_size

    def write(self, path: Path) -> None:
        """One tab-separated line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tparent\tthread\tlayer\tbucket\tstart_ns\tend_ns\n")
            for span_id, (layer, bucket, start, end, parent, _, thread) in enumerate(self.spans):
                parent_id = "" if parent is None else parent
                handle.write(f"{span_id}\t{parent_id}\t{thread}\t{layer}\t{bucket}\t{start}\t{end}\n")

    def totals(self) -> dict[str, float]:
        """``<layer>.{calls,busy_ms,self_ms}[.<bucket>]`` plus the output counts."""
        counts: Counter = Counter()
        nanos: Counter = Counter()
        for layer, bucket, start, end, _, child_ns, _ in self.spans:
            duration = end - start
            for suffix in ("", f".{bucket}") if bucket else ("",):
                counts[f"{layer}.calls{suffix}"] += 1
                nanos[f"{layer}.busy_ms{suffix}"] += duration
                nanos[f"{layer}.self_ms{suffix}"] += duration - child_ns
        out: dict[str, float] = dict(counts)
        out.update((key, value / 1e6) for key, value in nanos.items())
        out["output.files"] = self.files
        out["output.bytes"] = self.bytes
        return out
