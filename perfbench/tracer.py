"""Outside-in span tracer for the adicke layers.

The tracer replaces chosen public functions with timing wrappers in every
module namespace of the package that holds a reference to them, so aliased
imports (``families.qgt_matrix_solve``, ``sweep.bogoliubov_modes``) are
traced too.  The program's source is not touched; ``uninstall`` puts the
original objects back.

A span is ``[name, start, end, parent, pid, detail]``: ``parent`` indexes the
enclosing span of the same process (or is None) and ``detail`` is the call's
first argument when that is a string (the model name of a dispatch call).
Spans stay in memory.  A forked pool worker inherits the wrappers but its
memory is lost on exit, so a worker appends its spans to a spool file each
time its outermost span closes; ``collect`` merges those files into the
parent's list.  Workers started by ``spawn`` or ``forkserver`` import the
package afresh and are not traced; the pool in ``adicke.sweep`` uses the
platform default, which is ``fork`` on Linux up to Python 3.13.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

#: Functions traced per module.  ``spectra.gauge_fix`` is left out on purpose:
#: it runs once per eigenvector, thousands of times per solve.
TARGETS = {
    "model": ("full_hamiltonian", "param_derivative", "project_parity"),
    "effective": ("form_matrix", "theta_derivative_matrix", "form_param_derivative"),
    "spectra": ("dense_eigensystem", "lowest_k", "bogoliubov_modes"),
    "geometry": ("qgt_matrix_sum", "qgt_matrix_solve", "resolvent_tangent"),
    "families": ("qgt_components",),
    "sweep": ("run_sweep", "evaluate_point", "rows_to_csv", "write_csv"),
}


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self, spool_dir: str, clock=time.perf_counter):
        self.spool_dir = spool_dir
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._owner = self._pid
        self._patched: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def wrap(self, name: str, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            if os.getpid() != self._pid:
                self._enter_worker()
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            detail = args[0] if args and isinstance(args[0], str) else None
            span = [name, self.clock(), None, parent, self._pid, detail]
            self.spans.append(span)
            self._stack.append(index)
            try:
                return func(*args, **kwargs)
            finally:
                span[2] = self.clock()
                self._stack.pop()
                if not self._stack and self._pid != self._owner:
                    self._flush_worker()

        return traced

    def _enter_worker(self) -> None:
        """A forked child starts with an empty record of its own."""
        self._pid = os.getpid()
        self.spans = []
        self._stack = []

    def _flush_worker(self) -> None:
        path = os.path.join(self.spool_dir, f"spans-{self._pid}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(self.spans) + "\n")
        self.spans = []

    def collect(self) -> None:
        """Merge spans that pool workers spooled to disk, then delete the files."""
        for entry in sorted(os.listdir(self.spool_dir)):
            if not entry.startswith("spans-"):
                continue
            path = os.path.join(self.spool_dir, entry)
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    batch = json.loads(line)
                    offset = len(self.spans)
                    for span in batch:
                        if span[3] is not None:
                            span[3] += offset
                        self.spans.append(span)
            os.remove(path)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every target in every loaded module of the adicke package."""
        namespaces = [mod for key, mod in sorted(sys.modules.items())
                      if mod is not None and (key == "adicke" or key.startswith("adicke."))]
        for short, names in TARGETS.items():
            home = sys.modules[f"adicke.{short}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self.wrap(f"{short}.{fname}", original)
                for mod in namespaces:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] is not None:
            own[span[3]] -= span[2] - span[1]
    return own


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count, total duration and total self time."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0,
                                                            "self_s": 0.0})
    for span, own in zip(spans, self_times(spans)):
        entry = out[span[0]]
        entry["calls"] += 1
        entry["total_s"] += span[2] - span[1]
        entry["self_s"] += own
    return dict(out)


def layer_metrics(spans, passes: int, workers: int) -> dict[str, float]:
    """Per-pass layer figures of the traced run, named as in BENCHMARK.json.

    An evaluation is one ``families.qgt_components`` call; the per-eval ratios
    use the evaluations of the matching model family as their base.
    """
    stats = summarize(spans)

    def total(name: str, key: str) -> float:
        return stats.get(name, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    evals = [span for span in spans if span[0] == "families.qgt_components"]
    full_evals = sum(1 for span in evals if span[5] == "full")
    solves = sum(1 for span in spans
                 if span[0] in ("spectra.dense_eigensystem", "spectra.lowest_k")
                 and (span[3] is None or spans[span[3]][0] != "spectra.lowest_k"))
    out = {}
    for name in ("model.full_hamiltonian", "model.param_derivative", "model.project_parity",
                 "effective.form_matrix", "effective.form_param_derivative",
                 "spectra.dense_eigensystem", "spectra.lowest_k", "geometry.qgt_matrix_sum",
                 "geometry.resolvent_tangent"):
        out[f"{name}.calls"] = total(name, "calls") / passes
        out[f"{name}.self_s"] = total(name, "self_s") / passes
    for name in ("spectra.bogoliubov_modes", "geometry.qgt_matrix_solve",
                 "families.qgt_components", "sweep.evaluate_point"):
        out[f"{name}.calls"] = total(name, "calls") / passes
    out["effective.theta_derivative_matrix.self_s"] = (
        total("effective.theta_derivative_matrix", "self_s") / passes)
    out["model.builds_per_eval"] = ratio(total("model.full_hamiltonian", "calls"), full_evals)
    out["effective.builds_per_eval"] = ratio(total("effective.form_matrix", "calls"),
                                             len(evals) - full_evals)
    out["spectra.solves_per_eval"] = ratio(solves, len(evals))
    busy = total("sweep.evaluate_point", "total_s")
    run_wall = total("sweep.run_sweep", "total_s")
    out["sweep.evaluate_point.busy_s"] = busy / passes
    out["sweep.run_sweep.wall_s"] = run_wall / passes
    out["sweep.pool_efficiency"] = ratio(busy, workers * run_wall)
    out["sweep.serialize.self_s"] = (total("sweep.rows_to_csv", "self_s")
                                     + total("sweep.write_csv", "self_s")) / passes
    return out
