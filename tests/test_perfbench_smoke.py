"""The benchmark's span tracer against the package as it is: `perfbench/spans.py`
wraps every public layer function and `PolyMap.jacobian_at` by name, so a
refactor that renames or deletes one breaks `perfbench/run.py --trace 1`.
One catalog_small input is analyzed without and with the tracer."""

import io
from contextlib import redirect_stdout
from pathlib import Path

from secantgeo import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _analyze(path) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["analyze", "--input", str(path), "--format", "json", "--seed", "3"]) == 0
    return out.getvalue()


def test_traced_analysis_is_byte_identical(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads

    inputs = workloads.make_inputs("catalog_small", tmp_path)
    path = next(p for name, kind, p, _ in inputs if (name, kind) == ("severi_C", "poly_map"))
    plain = _analyze(path)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = _analyze(path)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.stats["report.analyze"][0] == 1
    assert tracer.stats["jets.chart_at"][0] >= 1
    assert tracer.layer_calls["linalg"] > 0
