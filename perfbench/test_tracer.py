"""Checks of the benchmark's outside-in tracer.

    python -m pytest perfbench
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

import adicke  # noqa: E402
from adicke import families, geometry, spectra, sweep  # noqa: E402
from adicke.effective import FockCutoff  # noqa: E402
from adicke.model import ModelParams  # noqa: E402
from adicke.sweep import SweepSpec  # noqa: E402

from tracer import Tracer, layer_metrics, self_times, summarize  # noqa: E402


def test_wrapping_reaches_aliased_names(tmp_path):
    solve, modes, gauge, dispatch = (geometry.qgt_matrix_solve, spectra.bogoliubov_modes,
                                     spectra.gauge_fix, families.qgt_components)
    recorder = Tracer(str(tmp_path))
    recorder.install()
    try:
        assert families.qgt_matrix_solve is geometry.qgt_matrix_solve is not solve
        assert sweep.bogoliubov_modes is spectra.bogoliubov_modes is not modes
        assert adicke.qgt_components is families.qgt_components is not dispatch
        assert spectra.gauge_fix is gauge
        p = ModelParams.from_ratios(0.5, gamma=2.0, eta=1.0, j=10.0)
        families.qgt_components("co_np", p, FockCutoff(10), method="solve")
        sweep.evaluate_point(SweepSpec(model="co_np", n_max=10, method="solve"), 0.5)
    finally:
        recorder.uninstall()
    assert geometry.qgt_matrix_solve is solve and families.qgt_matrix_solve is solve
    assert sweep.bogoliubov_modes is modes

    names = [span[0] for span in recorder.spans]
    parent = {k: recorder.spans[span[3]][0] for k, span in enumerate(recorder.spans)
              if span[3] is not None}
    solves = [k for k, name in enumerate(names) if name == "geometry.qgt_matrix_solve"]
    assert len(solves) == 2
    assert all(parent[k] == "families.qgt_components" for k in solves)
    boson = [k for k, name in enumerate(names) if name == "spectra.bogoliubov_modes"]
    assert [parent[k] for k in boson] == ["sweep.evaluate_point"]
    assert recorder.spans[0][5] == "co_np"  # the dispatch call records its model


def test_self_time_is_span_minus_child_spans(tmp_path):
    ticks = iter([0.0, 1.0, 4.0, 5.0, 7.0, 10.0])
    recorder = Tracer(str(tmp_path), clock=lambda: next(ticks))
    inner = recorder.wrap("inner", lambda: None)

    def body():
        inner()
        inner()

    recorder.wrap("outer", body)()
    assert [span[0] for span in recorder.spans] == ["outer", "inner", "inner"]
    assert self_times(recorder.spans) == [10.0 - 3.0 - 2.0, 3.0, 2.0]
    stats = summarize(recorder.spans)
    assert stats["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 5.0}
    assert stats["inner"] == {"calls": 2, "total_s": 5.0, "self_s": 5.0}


def test_pool_worker_spans_are_collected(tmp_path):
    recorder = Tracer(str(tmp_path))
    recorder.install()
    try:
        rows = sweep.run_sweep(SweepSpec(model="co_np", start=0.3, stop=0.6, points=2,
                                         n_max=10, workers=2))
    finally:
        recorder.uninstall()
    assert all(row.converged for row in rows)
    recorder.collect()
    assert not os.listdir(tmp_path)
    points = [span for span in recorder.spans if span[0] == "sweep.evaluate_point"]
    assert len(points) == 2
    assert all(span[4] != os.getpid() and span[3] is None for span in points)
    evals = [span for span in recorder.spans if span[0] == "families.qgt_components"]
    assert len(evals) == 2
    assert all(recorder.spans[span[3]][0] == "sweep.evaluate_point" for span in evals)
    layers = layer_metrics(recorder.spans, passes=1, workers=2)
    assert layers["sweep.evaluate_point.calls"] == 2
    assert 0.0 < layers["sweep.pool_efficiency"] <= 1.0
