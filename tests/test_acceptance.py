"""Acceptance gate.  Each test prints one pass/fail line for its criterion;
all comparisons are exact (integer equality, no tolerances)."""

import io
import json
import os
import sys

from oracle_reference import terracini_consistency_check
from secantgeo.cli import main
from secantgeo.genericity import derive_stream
from secantgeo.oracles import gauss_fiber_dimension
from secantgeo.polymaps import polymap_to_json
from secantgeo.report import AnalyzeOptions, analyze, render
from secantgeo.zoo import catalog

DATA = os.path.join(os.path.dirname(__file__), "data")

# per algebra: n, a, dim tau = dim sigma, a0, r
SEVERI = {
    "severi_R": (2, 3, 4, 2, 1),
    "severi_C": (4, 4, 7, 3, 2),
    "severi_H": (8, 6, 13, 5, 4),
    "severi_O": (16, 10, 25, 9, 8),
}


def _criterion(num, name, ok, extra=""):
    line = "criterion %d (%s): %s" % (num, name, "PASS" if ok else "FAIL")
    if extra:
        line += "  [%s]" % extra
    print(line)
    assert ok, line


def _verdict_map(rep):
    return {v.name: v.status for v in rep.verdicts}


def _sigma_row(rep, k):
    for row in rep.dims["sigma_k"]:
        if row["k"] == k:
            return row
    raise AssertionError("no sigma_%d row" % k)


def test_criterion_1_severi_table(analysis):
    bad = []
    for name, (n, a, tausig, a0, r) in SEVERI.items():
        rep, _ = analysis(name)
        d, p = rep.dims, rep.profile
        if (d["n"], d["a"]) != (n, a):
            bad.append("%s n,a" % name)
        if (p.a0, p.r) != (a0, r):
            bad.append("%s profile" % name)
        if d["dim_tau"] != tausig or d["dim_sigma"] != tausig:
            bad.append("%s tau/sigma" % name)
        for c in rep.cross_checks:
            if c.quantity in ("dim_tau", "dim_sigma_2"):
                if c.formula != tausig or c.oracle != tausig:
                    bad.append("%s %s oracle" % (name, c.quantity))
        if p.r != n - a + 2:
            bad.append("%s rank equality" % name)
        zb = rep.defects.zak_bound
        if not (zb.applicable and zb.holds and zb.equality):
            bad.append("%s zak equality" % name)
    _criterion(1, "severi table exact over R/C/H/O", not bad, ", ".join(bad))


def test_criterion_2_clifford_structure(analysis):
    bad = []
    signs = set()
    want = {"severi_C": (1, 2), "severi_H": (3, 4), "severi_O": (7, 8)}
    for name, (kdim, mdim) in want.items():
        cv = analysis(name)[0].defects.clifford_verdict
        if not (cv.applicable and cv.relation_holds and cv.phi_v_is_identity):
            bad.append("%s relation" % name)
        if (cv.kernel_dim, cv.module_dim) != (kdim, mdim):
            bad.append("%s dims" % name)
        signs.add(cv.sign)
        if analysis(name)[0].defects.so_membership is not True:
            bad.append("%s so membership" % name)
    if len(signs) != 1:
        bad.append("signs %s" % sorted(signs))
    _criterion(2, "clifford module structure on C/H/O", not bad, ", ".join(bad))


def test_criterion_3_tau_gauss_fibers(analysis, charted):
    bad = []
    # severi_R has a nondegenerate tau, so its fiber is not in the report;
    # measure it with the same oracle the report uses for the others
    ent, _, s, prof = charted["severi_R"]
    fiber = gauss_fiber_dimension(ent.map, derive_stream(0, "acceptance", "gauss"))
    fibers = {"severi_R": (fiber, s.n - prof.a0)}
    for name in ("severi_C", "severi_H", "severi_O"):
        d = analysis(name)[0].dims
        fibers[name] = (d["tau_gauss_fiber"], d["delta_tau"])
    for name, want in (("severi_R", 2), ("severi_C", 3), ("severi_H", 5), ("severi_O", 9)):
        fiber, delta = fibers[name]
        if fiber != want or fiber != delta + 2:
            bad.append("%s fiber %s" % (name, fiber))

    d = analysis("cone_twisted_cubic")[0].dims
    if d["tau_gauss_fiber"] != 2 or d["tau_gauss_fiber"] != d["delta_tau"] + 1:
        bad.append("cone fiber %s" % d["tau_gauss_fiber"])

    g27 = analysis("grassmannian_2_7")[0].dims["tau_gauss_fiber"]
    if g27 is None or g27 < 5:
        bad.append("g27 fiber %s" % g27)
    _criterion(3, "tau gauss fibers", not bad,
               ", ".join(bad) if bad else "g27 fiber %d" % g27)


def test_criterion_4_nondegenerate_secants(analysis):
    bad = []
    for name, want in (("veronese_3_1", 3), ("veronese_3_2", 5), ("veronese_conic", 3)):
        rep, _ = analysis(name)
        d = rep.dims
        expected = min(2 * d["n"] + 1, d["ambient"])
        row = _sigma_row(rep, 2)
        if d["dim_sigma"] != want or want != expected or row["oracle"] != want:
            bad.append("%s sigma %s" % (name, d["dim_sigma"]))
    # the conic reaches 2n + 1 through a nonvanishing cubic form
    if analysis("veronese_conic")[0].dims["third_form_vanishes"] is not False:
        bad.append("conic cubic form")
    _criterion(4, "nondegenerate secant dimensions", not bad, ", ".join(bad))


def test_criterion_5_higher_secants(analysis):
    bad = []
    for name, sigma3 in (("segre_3_3", 8), ("severi_O", 26)):
        rep, _ = analysis(name)
        for k in (2, 3):
            row = _sigma_row(rep, k)
            if row["formula"] is None or row["formula"] != row["oracle"]:
                bad.append("%s sigma_%d oracle" % (name, k))
            if row["within_bound"] is not True:
                bad.append("%s sigma_%d bound" % (name, k))
        if _sigma_row(rep, 3)["formula"] != sigma3 or sigma3 != rep.dims["ambient"]:
            bad.append("%s sigma_3 fill" % name)
    _criterion(5, "higher secants formula vs join oracle", not bad, ", ".join(bad))


def test_criterion_6_property_suites_across_zoo(analysis):
    properties = ("kernel_in_singular_locus", "annihilator_matches_image_perp",
                  "fiber_contains_singloc_products", "fiber_dimension_identity",
                  "quotient_singular_locus_match")
    bad = []
    degenerate = 0
    for e in catalog():
        rep, _ = analysis(e.name)
        vm = _verdict_map(rep)
        if vm["chart_roundtrip"] != "pass":
            bad.append("%s roundtrip" % e.name)
        if not terracini_consistency_check(e.map, derive_stream(0, "acceptance",
                                                                "terracini", e.name)):
            bad.append("%s terracini" % e.name)
        if rep.dims["tau_degenerate"]:
            degenerate += 1
            for prop in properties:
                if vm[prop] != "pass":
                    bad.append("%s %s" % (e.name, prop))
    _criterion(6, "structural identities across the zoo", not bad and degenerate >= 5,
               ", ".join(bad) if bad else "%d degenerate entries" % degenerate)


def _run_cli(argv, stdin_text=""):
    old = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin_text), io.StringIO(), io.StringIO()
    try:
        code = main(argv)
        return code, sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = old


def test_criterion_7_determinism_and_loud_failure():
    bad = []
    opts = AnalyzeOptions(seed=3)
    ent = _zoo_entry("severi_R")
    obj = polymap_to_json(ent.map, base_point=ent.base_point)
    blobs = [render(analyze(obj, opts), "json") for _ in range(2)]
    if blobs[0] != blobs[1]:
        bad.append("same-seed reports differ")

    path = os.path.join(DATA, "unstable_system.json")
    code2, _ = _run_cli(["analyze", "--input", path, "--seed", "5", "--trials", "5"])
    code0, out = _run_cli(["analyze", "--input", path, "--seed", "5", "--trials", "8",
                           "--format", "json"])
    if code2 != 2:
        bad.append("adversarial run exited %d, not 2" % code2)
    if code0 != 0 or json.loads(out)["profile"]["a0"] != 2:
        bad.append("escalated trials did not certify the true profile")
    _criterion(7, "byte determinism and certification exits", not bad, ", ".join(bad))


def _zoo_entry(name):
    for e in catalog():
        if e.name == name:
            return e
    raise AssertionError(name)


def test_runtime_budget(analysis):
    import conftest

    for name in ("severi_O", "grassmannian_2_7"):
        analysis(name)
    severi_o = conftest._ANALYSES["severi_O"][1]
    g27 = conftest._ANALYSES["grassmannian_2_7"][1]
    total = sum(wall for _, wall in conftest._ANALYSES.values())
    ok = severi_o < 120 and g27 < 120 and total < 300
    line = "runtime budget: %s  [severi_O %.1fs, g27 %.1fs, all analyses %.1fs]" % (
        "PASS" if ok else "FAIL", severi_o, g27, total)
    print(line)
    assert ok, line
