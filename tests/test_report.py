import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secantgeo import defects, genericity, oracles, quadrics, report
from secantgeo.linalg import Gaussian, gauss, integer_combination
from secantgeo.polymaps import polymap_to_json
from secantgeo.quadrics import (QuadricSystem, quadric_system, quadric_system_from_json,
                                quadric_system_to_json)
from secantgeo.report import (AnalyzeOptions, InputError, analyze, load_input, render,
                              report_to_json)
from secantgeo.scalars import Scalar
from secantgeo.zoo import veronese
from test_defects import base_system

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

VERDICT_NAMES = (
    "independent_system",
    "formula_oracle_agreement",
    "secant_superadditivity",
    "tau_gauss_lower_bound",
    "tau_gauss_smooth_bound",
    "rank_restriction",
    "zak_bound",
    "clifford_fiber_condition",
    "clifford_proportionality",
    "clifford_identity",
    "clifford_relation",
    "so_membership",
    "kernel_in_singular_locus",
    "annihilator_matches_image_perp",
    "fiber_contains_singloc_products",
    "fiber_dimension_identity",
    "quotient_singular_locus_match",
    "third_form_vanishing",
    "chart_roundtrip",
)


def sym(n, entries):
    rows = [[Scalar(0)] * n for _ in range(n)]
    for (i, j), val in entries.items():
        rows[i][j] = Scalar(val)
        rows[j][i] = Scalar(val)
    return rows


def severi_r_system():
    return quadric_system(2, [
        sym(2, {(0, 0): 1}),
        sym(2, {(1, 1): 1}),
        sym(2, {(0, 1): "1/2"}),
    ])


def test_verdict_names_and_order(analysis):
    rep, _ = analysis("severi_C")
    assert tuple(v.name for v in rep.verdicts) == VERDICT_NAMES
    assert all(v.status in ("pass", "fail", "not-applicable") for v in rep.verdicts)
    assert not any(v.status == "fail" for v in rep.verdicts)


def test_cross_checks_agree_on_severi(analysis):
    rep, _ = analysis("severi_C")
    names = [c.quantity for c in rep.cross_checks]
    assert names == ["dim_x", "dim_tau", "dim_sigma_2", "dim_sigma_3", "dim_sigma_4"]
    for c in rep.cross_checks:
        assert c.oracle is not None
        assert c.agree is True
    d = rep.dims
    assert d["n"] == 4 and d["a"] == 4 and d["ambient"] == 8
    assert d["dim_tau"] == 7
    assert d["dim_sigma"] == 7
    assert d["delta_tau"] == 1
    assert d["tau_degenerate"] is True
    assert d["sigma_degenerate"] is True
    assert d["third_form_vanishes"] is True
    assert d["tau_gauss_fiber"] == 3


def test_projection_only_when_tau_is_not_a_hypersurface(analysis):
    rep, _ = analysis("severi_C")
    assert rep.defects_projected is None  # a0 = a - 1 already
    rep, _ = analysis("grassmannian_2_7")
    assert rep.defects_projected is not None
    # the projected chart lives where tau is a hypersurface, and the rank
    # restriction transfers to it
    assert rep.defects_projected.profile.dim_ann == 1
    rr = next(v for v in rep.verdicts if v.name == "rank_restriction")
    assert rr.status == "pass"
    assert "projection" in rr.detail


def test_nondegenerate_sigma_skips_gauss_and_third_form(analysis):
    rep, _ = analysis("veronese_3_1")
    d = rep.dims
    assert d["sigma_degenerate"] is False
    assert d["third_form_vanishes"] is False
    by_name = {v.name: v for v in rep.verdicts}
    assert by_name["third_form_vanishing"].status == "not-applicable"
    assert by_name["tau_gauss_lower_bound"].status == "not-applicable"
    assert by_name["chart_roundtrip"].status == "pass"


def test_quadric_system_input_has_no_oracle_columns():
    obj = quadric_system_to_json(severi_r_system())
    rep = analyze(obj, AnalyzeOptions())
    assert rep.input_kind == "quadric_system"
    for c in rep.cross_checks:
        assert c.oracle is None
        assert c.agree is None
    by_name = {v.name: v for v in rep.verdicts}
    assert by_name["formula_oracle_agreement"].status == "not-applicable"
    assert by_name["chart_roundtrip"].status == "not-applicable"
    assert by_name["third_form_vanishing"].status == "not-applicable"
    assert rep.dims["dim_sigma"] is None
    assert rep.profile.a0 == 2 and rep.profile.r == 1
    # the span formula still fills the higher rows
    rows = {r["k"]: r for r in rep.dims["sigma_k"]}
    assert rows[2]["formula"] is None
    assert rows[3]["formula"] is not None


def test_one_join_and_one_span_certification_per_analysis(monkeypatch):
    """dim X and every sigma_k of the oracle column come from one certified
    join tuple, and the k >= 3 rows of the formula column from one certified
    span tuple: a certification per k would add labels here."""
    whats = []

    def counting(sample, stream, trials, what="value"):
        whats.append(what)
        return genericity.certified_value(sample, stream, trials, what)

    for module in (oracles, quadrics):
        monkeypatch.setattr(module, "certified_value", counting)
    ent = veronese(2, 4)
    rep = analyze(polymap_to_json(ent.map, base_point=ent.base_point), AnalyzeOptions(k_max=4))
    assert [r["k"] for r in rep.dims["sigma_k"]] == [2, 3, 4]
    assert [w for w in whats if "join" in w or "span" in w] == \
        ["secant span dimensions", "join ranks (k <= 4)"]


@pytest.mark.parametrize("trials", [1, 2, 3, 5])
def test_property_checks_read_the_certified_batch(monkeypatch, trials):
    """The five structural checks run at the first 3 points of the batch that
    certified the profile; only at trials < 3 are the missing points drawn
    (on the "properties" stream), and each check still runs at 3 points.
    Besides those, `generic_vector` is called once per defect report:
    v2(P^4) has two, its own and its projection's."""
    draws = {"report": 0, "defects": 0}
    batches, checked = [], []

    def count_draws(module, label):
        def drawn(*args):
            draws[label] += 1
            return quadrics.generic_vector(*args)
        monkeypatch.setattr(module, "generic_vector", drawn)

    count_draws(report, "report")
    count_draws(defects, "defects")

    def profiled(*args):
        out = quadrics.rank_profile(*args)
        batches.append(out[1])
        return out

    def checking(s, point):
        checked.append(point)
        return defects.kernel_in_singular_locus(s, point)

    monkeypatch.setattr(report, "rank_profile", profiled)
    monkeypatch.setattr(report, "kernel_in_singular_locus", checking)
    ent = veronese(2, 4)
    rep = analyze(polymap_to_json(ent.map, base_point=ent.base_point),
                  AnalyzeOptions(trials=trials))
    assert rep.defects_projected is not None
    assert len(batches) == 1 and len(batches[0]) == trials
    assert len(checked) == 3
    assert all(p is q for p, q in zip(checked, batches[0][:3]))
    assert all(p.profile == rep.profile[:5] for p in checked)
    assert draws == {"report": max(0, 3 - trials), "defects": 2}
    by_name = {v.name: v for v in rep.verdicts}
    for name in VERDICT_NAMES[12:17]:
        assert by_name[name] == (name, "pass", "checked at 3 certified-generic vectors")


def test_render_json_matches_report_dict():
    obj = quadric_system_to_json(severi_r_system())
    rep = analyze(obj, AnalyzeOptions())
    blob = render(rep, "json")
    assert json.loads(blob) == report_to_json(rep)
    text = render(rep, "text")
    assert text.startswith("analysis of quadric_system")
    assert "dim_sigma_2" in text
    assert "PASS" in text
    try:
        render(rep, "yaml")
        assert False
    except ValueError:
        pass


def test_render_json_is_the_indented_dump(analysis):
    """render(rep, "json") writes the bytes of json.dumps(..., indent=2): on a
    chart whose report has a projected defect block and on a quadric system."""
    for rep in (analysis("veronese_conic")[0], analysis("severi_C")[0],
                analyze(quadric_system_to_json(severi_r_system()), AnalyzeOptions())):
        assert render(rep, "json") == json.dumps(report_to_json(rep), indent=2) + "\n"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text() |
    st.sampled_from(["", "\x00\x1f\x7f", "\u00e9\u2028\U0001f600", "\"\\/\b\f\n\r\t"]),
    lambda kids: st.lists(kids, max_size=4) |
    st.dictionaries(st.text(max_size=4), kids, max_size=4),
    max_leaves=20)


@settings(max_examples=100, deadline=None, database=None)
@given(JSON_VALUES)
def test_json_writer_is_json_dumps(x):
    """Nested dicts and lists (empty ones too) of strs with non-ASCII and
    control characters, ints, bools and None."""
    assert report.dumps(x) == json.dumps(x, indent=2)


@pytest.mark.parametrize("bad", [1.5, {1: 2}, {"a": {(1,): 2}}, [set()], (1, 2), b"x",
                                 Scalar(1), gauss(1, 2)])
def test_json_writer_rejects_types_a_report_does_not_hold(bad):
    with pytest.raises(TypeError):
        report.dumps(bad)


@pytest.mark.parametrize("name", ["veronese_3_1", "veronese_conic", "segre_2_2"])
def test_one_trial_joins_give_the_default_values(entries, name):
    """A single join sample has distinct sources, so at seeds 0-9 `--trials
    1` gives the dims and cross-checks of the default 5 trials; with
    coinciding sources it gave, say, dim sigma_2 = 1 for the twisted cubic
    (veronese_3_1 at seed 1)."""
    ent = entries[name]
    obj = polymap_to_json(ent.map, base_point=ent.base_point)
    for seed in range(10):
        one, five = (analyze(obj, AnalyzeOptions(seed=seed, trials=t)) for t in (1, 5))
        assert (one.dims, one.cross_checks) == (five.dims, five.cross_checks)


def test_reports_are_deterministic():
    obj = quadric_system_to_json(severi_r_system())
    a = render(analyze(obj, AnalyzeOptions(seed=3)), "json")
    b = render(analyze(obj, AnalyzeOptions(seed=3)), "json")
    c = render(analyze(obj, AnalyzeOptions(seed=4)), "json")
    assert a == b
    assert json.loads(a)["options"]["seed"] == 3
    assert json.loads(c)["options"]["seed"] == 4


def test_scaled_systems_give_byte_identical_reports(tmp_path, monkeypatch):
    """Scaling every quadric of a system by one nonzero Gaussian integer
    changes no byte of its JSON report: by -3, and by 1 + 2i, which takes a
    real system into Z[i].  On the quadric systems of the
    catalog_small benchmark workload and on the three Gaussian systems of
    scripts/regen_golden.py."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    systems = [quadric_system_from_json(json.loads(path.read_text(encoding="utf-8")))
               for _, kind, path, _ in workloads.make_inputs("catalog_small", tmp_path)
               if kind == "quadric_system"]
    systems += [base_system(name, True) for name in ("severi_C", "severi_H", "segre_3_3")]
    for s in systems:
        want = render(analyze(quadric_system_to_json(s)), "json")
        for c in (-3, gauss(1, 2)):
            scaled = QuadricSystem(s.n, s.a, tuple(integer_combination([(c, q)])
                                                   for q in s.quadrics), s.den)
            assert render(analyze(quadric_system_to_json(scaled)), "json") == want


def test_real_inputs_build_no_gaussian(tmp_path, monkeypatch):
    """Real data stays on ints: with `Gaussian.__init__` made to raise,
    `analyze` runs through every input of the catalog_small benchmark
    workload (poly_maps and quadric systems) at seed 0, and it does raise on
    a Gaussian system of scripts/regen_golden.py."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    inputs = [json.loads(path.read_text(encoding="utf-8"))
              for _, _, path, _ in workloads.make_inputs("catalog_small", tmp_path)]
    gaussian = quadric_system_to_json(base_system("severi_C", True))

    class Built(Exception):
        pass

    def refuse(self, real, imag):
        raise Built(real, imag)

    monkeypatch.setattr(Gaussian, "__init__", refuse)
    assert {obj["kind"] for obj in inputs} == {"poly_map", "quadric_system"}
    for obj in inputs:
        analyze(obj, AnalyzeOptions(seed=0))
    with pytest.raises(Built):
        analyze(gaussian, AnalyzeOptions(seed=0))


def test_load_input_rejects_malformed_objects():
    for bad in (42, [], {"n": 2}, {"kind": "nope"}, {"kind": "poly_map"}):
        with pytest.raises(InputError):
            load_input(bad)
