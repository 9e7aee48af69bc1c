"""Benchmark workloads: which charts are analyzed, how their input files are
made, and the invariants each report must carry.

One analysis of severi_O or grassmannian_2_7 takes about 50 s (Python 3.11,
fractions backend, one CPU of a shared 2-CPU virtual machine), longer than a
run may last, and even severi_H (5 s) gives too few runs per analysis to
be steady under the machine noise described in run.py.  So each stress is
carried by the smallest inputs that still exercise it.

Every analysis must certify at any seed the benchmark may be given.  Under
the program's fixed draw schedule (`genericity.certified_value`: bounds 1, 2,
4, 8, five draws each) some charts exit 2 ("not stable up to coordinate
bound 12") at a few seeds in a hundred or a thousand.  Measured on random
31-bit seeds: cone_twisted_cubic 4 of 54, segre_3_4 1 of 54, segre_3_3 as a
poly_map 2 of 621 (join rank), veronese_2_3 1 of 583; and on seeds 0-199,
severi_R, veronese_2_2 and veronese_3_2 3 of 200 between them.  That exit is
the program's specified answer to a value that would not stabilize, not a
wrong report; the workloads leave these inputs out so that no run loses
analyses to it, and a run that meets it anyway fails.  Every input kept
certified at every seed tried: 621 random seeds and seeds 0-199 for
catalog_small, 583 random seeds for projection_chart.

- catalog_small: the catalog entries whose analysis takes under a second,
  each once as a poly_map and once as its quadric_system (segre_3_3 only as
  the latter).  The poly_map half holds the secant-hypersurface chart
  severi_C, whose time goes to exact ranks, the oracles and the defect
  pipeline, and three curves and surfaces; the quadric_system half runs
  the report pipeline with no chart and no oracles.  Inputs are small, so
  fixed per-call costs weigh most.  The projection path never runs here.
- projection_chart: the quadratic Veronese embedding of P^4, the smallest
  chart whose secant variety is degenerate with a0 < a - 1 and that
  certified at every seed tried (v2(P^3) and Segre P^2 x P^3 did not), so
  `report.analyze` charts a random linear projection (`jets.chart_at` and
  `series` on dense polynomials), as on grassmannian_2_7.
"""

from __future__ import annotations

import json
from pathlib import Path

KINDS = ("poly_map", "quadric_system")

SMALL = ("severi_C", "veronese_3_1", "veronese_conic", "segre_2_2")

WORKLOADS = {
    "projection_chart": (("veronese_2_4", "poly_map"),),
    "catalog_small": tuple((name, kind) for name in SMALL for kind in KINDS)
    + (("segre_3_3", "quadric_system"),),
}

# Invariants of the chart outside the catalog's golden file, from the
# classical determinantal description of v2(P^4) (projective dimensions):
# sigma = tau = symmetric 5 x 5 matrices of rank <= 2, dimension 8; sigma_3
# = those of rank <= 3, dimension 11; a0 = 4 (w -> v w is injective on the
# 4-dimensional tangent space T); Ann(v) is the quadrics on T/v, of rank
# <= 3; the Gauss fiber of tau is P(Sym^2 C^2) = P^2.
EXTRA_EXPECTED = {
    "veronese_2_4": {"n": 4, "ambient": 14, "a": 10, "a0": 4, "r": 3, "dim_x": 4,
                     "dim_sigma": 8, "dim_tau": 8, "sigma3": 11, "tau_gauss_fiber": 2},
}


def build_entry(zoo, name):
    """The zoo entry called `name`, built without building the whole catalog."""
    builders = {
        "severi_C": lambda: zoo.severi("C"),
        "veronese_2_4": lambda: zoo.veronese(2, 4),
        "veronese_3_1": lambda: zoo.veronese(3, 1),
        "veronese_conic": lambda: zoo.veronese_of(zoo.veronese(2, 1), 2,
                                                  name="veronese_conic"),
        "segre_2_2": lambda: zoo.segre(2, 2),
        "segre_3_3": lambda: zoo.segre(3, 3),
    }
    entry = builders[name]()
    if entry.name != name:
        raise RuntimeError("zoo built %r for %r" % (entry.name, name))
    return entry


def make_inputs(workload, outdir: Path):
    """Generate the workload's input files: zoo chart -> poly_map JSON, and
    chart -> second fundamental form -> quadric_system JSON.  Returns a list
    of (name, kind, path, expected invariants)."""
    from secantgeo import zoo
    from secantgeo.jets import chart_at, second_fundamental_form
    from secantgeo.polymaps import polymap_to_json
    from secantgeo.quadrics import quadric_system_to_json

    out = []
    for name, kind in WORKLOADS[workload]:
        entry = build_entry(zoo, name)
        if kind == "poly_map":
            obj = polymap_to_json(entry.map, base_point=entry.base_point)
        else:
            jet = chart_at(entry.map, list(entry.base_point), 3)
            obj = quadric_system_to_json(second_fundamental_form(jet))
        path = outdir / ("%s.%s.json" % (name, kind))
        path.write_text(json.dumps(obj), encoding="utf-8")
        gold = zoo.expected(entry) or EXTRA_EXPECTED[name]
        out.append((name, kind, path, gold))
    return out


def check_report(report: dict, kind: str, gold: dict) -> list[str]:
    """Every golden number the report carries, and the formula/oracle
    verdict.  Returns the mismatches (empty when the report is right)."""
    prof, dims = report["profile"], report["dims"]
    got = {"n": dims["n"], "a": dims["a"], "ambient": dims["ambient"],
           "a0": prof["a0"], "r": prof["r"]}
    if kind == "quadric_system":
        got["dim_tau"] = dims["dim_tau"]
    else:
        oracle = {c["quantity"]: c["oracle"] for c in report["cross_checks"]}
        got["dim_x"] = oracle["dim_x"]
        got["dim_tau"] = oracle["dim_tau"]
        got["dim_sigma"] = oracle["dim_sigma_2"]
        if "sigma3" in gold:
            got["sigma3"] = oracle["dim_sigma_3"]
        if dims["tau_gauss_fiber"] is not None:
            got["tau_gauss_fiber"] = dims["tau_gauss_fiber"]
    bad = ["%s = %s, expected %s" % (k, v, gold[k]) for k, v in got.items() if v != gold[k]]
    for v in report["verdicts"]:
        if v["name"] == "formula_oracle_agreement" and v["status"] == "fail":
            bad.append("formula_oracle_agreement failed: %s" % v["detail"])
    return bad
