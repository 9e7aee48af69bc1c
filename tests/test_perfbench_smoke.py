"""The benchmark's span tracer against the package as it is: `perfbench/spans.py`
wraps every public layer function and `PolyMap.jacobian_at` by name, so a
refactor that renames or deletes one breaks `perfbench/run.py --trace 1`,
and one that stops calling it makes its per-layer metrics read 0.  One
catalog_small input and the projection_chart input are analyzed without
and with the tracer, and every input of both workloads with it."""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

from secantgeo import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _analyze(path) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["analyze", "--input", str(path), "--format", "json", "--seed", "3"]) == 0
    return out.getvalue()


def _traced(monkeypatch, tmp_path, workload, name):
    """The tracer after analyzing the workload's poly_map input `name`,
    whose traced report must equal the plain one."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads

    inputs = workloads.make_inputs(workload, tmp_path)
    path = next(p for n, kind, p, _ in inputs if (n, kind) == (name, "poly_map"))
    plain = _analyze(path)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = _analyze(path)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.stats["report.analyze"][0] == 1
    return tracer


def test_traced_analysis_is_byte_identical(tmp_path, monkeypatch):
    tracer = _traced(monkeypatch, tmp_path, "catalog_small", "severi_C")
    assert tracer.stats["jets.chart_at"][0] >= 1
    assert tracer.layer_calls["linalg"] > 0


def test_chart_and_series_spans_fire_on_the_projection_chart(tmp_path, monkeypatch):
    """The chart's per-layer metrics (`jets.chart_at.*` and the `series.*`
    of BENCHMARK.json) read calls on the projection_chart input."""
    tracer = _traced(monkeypatch, tmp_path, "projection_chart", "veronese_2_4")
    for span in ("jets.chart_at", "series.mul_trunc", "series.compose_each",
                 "series.invert_map_series"):
        assert tracer.stats.get(span, [0])[0] >= 1, span


# The per-layer spans of BENCHMARK.json that no input of either workload
# calls: the functions ROADMAP item 1 lists for deletion.
DEAD_SPANS = ("linalg.rank", "linalg.rref", "quadrics.quadric_from_coefficients",
              "quadrics.generic_vector", "polymaps.jacobian_at")


def test_every_benchmark_span_fires(tmp_path, monkeypatch):
    """Each function span that BENCHMARK.json reads a per-layer metric of
    (`<layer>.<function>.calls`, `.self_s`, `.incl_s` or `.entries`) is
    called at least once over the inputs of both workloads at seed 3, but
    for DEAD_SPANS: a metric that reads 0 on working code shows nothing."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads

    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    named = set()
    for metric in spec["per_layer"]:
        span, _, what = metric["name"].rpartition(".")
        if what in ("calls", "self_s", "incl_s", "entries") and span not in spans.LAYERS:
            named.add(span)
    assert set(DEAD_SPANS) <= named
    paths = [p for w in sorted(workloads.WORKLOADS)
             for _, _, p, _ in workloads.make_inputs(w, tmp_path)]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for path in paths:
            _analyze(path)
    finally:
        tracer.uninstall()
    silent = sorted(span for span in named if tracer.stats.get(span, [0])[0] == 0)
    assert [span for span in silent if span not in DEAD_SPANS] == []
