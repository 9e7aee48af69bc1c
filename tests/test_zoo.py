import importlib.util
import random
from pathlib import Path

import pytest

from algebras_reference import AlgebraElement, element_is_zero, from_coeffs, norm
from linalg_reference import kernel
from quadrics_reference import apply_ii
from secantgeo import derive_stream
from secantgeo.algebras import AlgebraTag
from secantgeo.jets import chart_at, chart_roundtrip_check, refined_third_form_cube, second_fundamental_form
from secantgeo.linalg import IntegerSpan, Matrix, scalar_values
from secantgeo.oracles import gauss_fiber_dimension, join_dimension
from secantgeo.polymaps import polymap_to_json
from secantgeo.quadrics import contract, higher_secant_dimension, rank_profile
from secantgeo.report import AnalyzeOptions, analyze
from secantgeo.scalars import Scalar
from secantgeo.zoo import build, catalog, expected, rank_variety, segre, severi, veronese, veronese_of


def test_catalog_matches_frozen_invariants(charted):
    for name, (ent, jet, s, prof) in charted.items():
        want = expected(ent)
        assert want is not None
        assert want["n"] == ent.n == s.n
        assert want["ambient"] == ent.ambient
        assert want["a"] == s.a
        assert want["a0"] == prof.a0
        assert want["r"] == prof.r


def test_chart_roundtrip_every_entry(charted):
    for name, (ent, jet, s, prof) in charted.items():
        assert chart_roundtrip_check(ent.map, jet), name


def test_severi_charts_are_exactly_quadratic():
    # every component of the rank-one Hermitian chart has degree <= 2, so
    # the cubic and quartic jets vanish identically
    for tag in ("R", "C", "H", "O"):
        ent = severi(tag)
        assert all(c.degree() <= 2 for c in ent.map.components)
        jet = chart_at(ent.map, list(ent.base_point), 4)
        assert not any(jet.c3[0]) and not any(jet.c4[0])
        rng = derive_stream(0, "tz", "c3", tag)
        v = [rng.randint(-3, 3) for _ in range(ent.n)]
        s = second_fundamental_form(jet)
        assert refined_third_form_cube(jet, v, IntegerSpan(s.a, list(zip(*contract(s, v)))))


def test_base_locus_of_severi_systems(charted):
    """Null first column and a conjugated kernel element of its left
    multiplication give points where every entry of the form vanishes:
    the base locus of |II| is positive-dimensional over C, H, O."""
    for tagname in ("C", "H", "O"):
        tag = AlgebraTag[tagname]
        d = tag.dim
        _, _, s, _ = charted["severi_%s" % tagname]
        stream = derive_stream(0, "tz", "bl", tagname)
        hits = 0
        while hits < 20:
            g = from_coeffs(
                tag, [Scalar(stream.randint(-3, 3)) for _ in range(d)])
            null = from_coeffs(tag, [Scalar(1), Scalar(0, 1)] + [Scalar(0)] * (d - 2))
            w1 = g * null
            if element_is_zero(w1):
                continue
            assert norm(w1) == Scalar(0)
            # left multiplication by a nonzero null element has a d/2-dim kernel
            cols = [(w1 * AlgebraElement.unit(tag, j)).coeffs for j in range(d)]
            lmat = Matrix(d, d, zip(*cols))
            ker = kernel(lmat)
            assert ker.dim == d // 2
            combo = [Scalar(0)] * d
            for row in ker.basis:
                c = Scalar(stream.randint(-3, 3))
                combo = [acc + c * x for acc, x in zip(combo, row)]
            x = from_coeffs(tag, combo)
            if element_is_zero(x):
                continue
            assert element_is_zero(w1 * x)
            assert norm(x) == Scalar(0)
            w2 = x.conj()
            w = list(w1.coeffs) + list(w2.coeffs)
            assert any(w)
            assert apply_ii(s, w) == [Scalar(0)] * s.a
            hits += 1


def test_base_locus_is_empty_over_r(charted):
    _, _, s, _ = charted["severi_R"]
    stream = derive_stream(0, "tz", "bl", "R")
    for _ in range(20):
        w = [Scalar(stream.randint(-3, 3)) for _ in range(s.n)]
        if not any(w):
            continue
        assert any(apply_ii(s, w))


def test_apply_ii_jacobian_is_twice_contraction(charted):
    # directional derivatives of w -> II(w, w): quadratics differentiate
    # exactly through symmetric differences; c is the integer contraction
    rng = random.Random(7)
    for name in ("severi_C", "segre_3_3", "veronese_2_2"):
        _, _, s, _ = charted[name]
        v = [rng.randint(-3, 3) for _ in range(s.n)]
        c = [scalar_values(r, s.den) for r in contract(s, v)]
        for j in range(s.n):
            up = list(v)
            dn = list(v)
            up[j] += 1
            dn[j] -= 1
            diff = [(a - b) / Scalar(2) for a, b in zip(apply_ii(s, up), apply_ii(s, dn))]
            assert diff == [Scalar(2) * c[mu][j] for mu in range(s.a)]


def test_higher_secants_respect_span_bound(charted):
    """n + (k-1) a0 caps every higher secant; the join oracle agrees with
    the span formula on entries whose refined cubic vanishes."""
    for name in ("severi_R", "segre_2_2", "segre_3_3"):
        ent, jet, s, prof = charted[name]
        hs = higher_secant_dimension(s, 4, prof, derive_stream(0, "tz", "hs", name))
        assert [h.k for h in hs] == [2, 3, 4]
        for h in hs:
            assert h.bound == s.n + (h.k - 1) * prof.a0
            assert h.dimension <= min(ent.ambient, h.bound)
        dim_x, sigma = join_dimension(ent.map, 2, derive_stream(0, "tz", "j2", name))
        assert dim_x == s.n
        assert hs[0].dimension == sigma


def test_build_dispatcher():
    assert build("segre", {"k": 2, "r": 2}).name == "segre_2_2"
    assert build("veronese", {"d": 3, "m": 1}).name == "veronese_3_1"
    assert build("severi", {"algebra": "H"}).name == "severi_H"
    assert build("grassmannian", {"m": 6}).name == "grassmannian_2_6"
    assert build("cone", {}).name == "cone_twisted_cubic"
    assert build("rank-variety", {"k": 4, "r": 4, "l": 2}).name == "rank_4_4_2"
    re_embed = build("veronese_of", {"of": "veronese:2,1", "d": 2})
    assert re_embed.map.codomain_dim == veronese_of(veronese(2, 1), 2).map.codomain_dim
    # each inner family's positional parameters fill the named ones of build
    for of, inner in (("segre:2,3", "segre_2_3"), ("veronese:3,1", "veronese_3_1"),
                      ("severi:C", "severi_C"), ("grassmannian:6", "grassmannian_2_6"),
                      ("cone", "cone_twisted_cubic")):
        assert build("veronese_of", {"of": of, "d": 2}).name == inner + "_v2"


def test_build_rejects_bad_parameters():
    cases = [
        ("segre", {"k": 2}),
        ("segre", {"k": 1, "r": 2}),
        ("veronese", {"d": 0, "m": 1}),
        ("severi", {}),
        ("severi", {"algebra": "X"}),
        ("grassmannian", {"m": 3}),
        ("rank_variety", {"k": 2, "r": 2, "l": 2}),
        ("veronese_of", {"d": 2}),
        ("veronese_of", {"of": "nope:1", "d": 2}),
        ("veronese_of", {"of": "segre:2", "d": 2}),
        ("veronese_of", {"of": "severi", "d": 2}),
        ("veronese_of", {"of": "grassmannian", "d": 2}),
        ("veronese_of", {"of": "segre:2,3,9", "d": 2}),
        ("veronese_of", {"of": "veronese:2,1,5", "d": 2}),
        ("veronese_of", {"of": "cone:1", "d": 2}),
        ("cone", {"k": 7, "algebra": "O"}),
        ("segre", {"k": 2, "r": 3, "m": 4}),
        ("severi", {"algebra": "C", "d": 3}),
        ("veronese_of", {"of": "veronese:2,1", "d": 2, "m": 1}),
        ("frobnicate", {}),
    ]
    for family, params in cases:
        try:
            build(family, params)
            assert False, (family, params)
        except ValueError:
            pass


def test_grassmannian_rejects_higher_planes():
    try:
        from secantgeo.zoo import grassmannian
        grassmannian(3, 6)
        assert False
    except ValueError:
        pass


def test_expected_records_shape():
    for ent in catalog():
        rec = expected(ent)
        assert rec is not None
        assert {"n", "ambient", "a", "a0", "r", "dim_x", "tau_gauss_fiber"} <= set(rec)
        if ent.name == "cone_twisted_cubic":
            assert "dim_tau_sm" in rec and "dim_sigma_sm" in rec
        else:
            assert "dim_tau" in rec and "dim_sigma" in rec
    assert expected(catalog()[0])["n"] == 2
    rec = expected(severi("O"))
    assert rec["sigma3"] == 26
    assert expected(veronese(4, 1)) is None


def _regen_golden():
    script = Path(__file__).resolve().parents[1] / "scripts" / "regen_golden.py"
    spec = importlib.util.spec_from_file_location("regen_golden", script)
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)
    return regen


@pytest.mark.slow
def test_regen_golden_reproduces_committed_file():
    regen = _regen_golden()
    assert regen.golden_text().encode("utf-8") == regen.OUT.read_bytes()


@pytest.mark.slow
def test_reports_match_committed_digests():
    """Every byte of the seed-0 JSON report of each lighter catalog entry and
    v2(P^4), as poly_map and as quadric_system, and of three Gaussian-rational
    systems (tests/data/report_digests.json, written by scripts/regen_golden.py)."""
    regen = _regen_golden()
    assert regen.digest_text().encode("utf-8") == regen.DIGESTS.read_bytes()


@pytest.mark.slow
def test_reports_do_not_read_the_sign_of_perp(monkeypatch):
    """perp's rows and last are the canonical basis times the least integer
    that clears it, up to one overall sign that depends on the route
    (`tests/linalg_reference.perp_by_free_columns` gives the other sign on
    about a third of random spans).  With the rows and last of every perp
    negated, every report the digest file pins stays byte-identical."""
    perp, calls = IntegerSpan.perp, []

    def negated(span):
        out = perp(span)
        out.rows, out.last = [[-x for x in r] for r in out.rows], -out.last
        calls.append(out.dim)
        return out

    monkeypatch.setattr(IntegerSpan, "perp", negated)
    regen = _regen_golden()
    assert regen.digest_text().encode("utf-8") == regen.DIGESTS.read_bytes()
    assert any(calls)


# v3 re-embeddings: wide systems (a >> n) whose perps run from the small side
WIDE_SEED0 = {
    "veronese_2_2": (2, 53, 2, {"dim_x": (2, 2), "dim_tau": (4, 4), "dim_sigma_2": (5, 5),
                                "dim_sigma_3": (None, 8), "dim_sigma_4": (None, 11)}),
    "severi_C": (4, 160, 4, {"dim_x": (4, 4), "dim_tau": (8, 8), "dim_sigma_2": (9, 9),
                             "dim_sigma_3": (None, 14), "dim_sigma_4": (None, 19)}),
}


@pytest.mark.parametrize("name", sorted(WIDE_SEED0))
def test_wide_reembeddings_at_seed_0(entries, name):
    """v3 of veronese_2_2 and severi_C at seed 0: n, a, a0 and the cross
    checks as the report gave them before perp worked from the smaller side.
    sigma_2 = 2n + 1 from both columns and the refined cubic form does not
    vanish, as the abstract's extension of Roberts' theorem predicts."""
    n, a, a0, checks = WIDE_SEED0[name]
    ent = veronese_of(entries[name], 3)
    rep = analyze(polymap_to_json(ent.map, base_point=ent.base_point), AnalyzeOptions(seed=0))
    assert (rep.dims["n"], rep.dims["a"], rep.profile.a0) == (n, a, a0)
    assert {c.quantity: (c.formula, c.oracle) for c in rep.cross_checks} == checks
    assert checks["dim_sigma_2"] == (2 * n + 1, 2 * n + 1)
    assert rep.dims["third_form_vanishes"] is False


def test_analyses_reproduce_every_golden_number(entries, analysis):
    """Every value in zoo_expected.json, read off the cached analyses.  The
    report carries the Gauss fiber of tau only when tau is degenerate;
    otherwise it is recomputed as scripts/regen_golden.py does."""
    for name, ent in entries.items():
        rep, _ = analysis(name)
        want = expected(ent)
        oracle = {c.quantity: c.oracle for c in rep.cross_checks}
        sm = "_sm" if name == "cone_twisted_cubic" else ""
        fiber = rep.dims["tau_gauss_fiber"]
        if fiber is None:
            fiber = gauss_fiber_dimension(ent.map, derive_stream(0, name, "golden", "gauss"))
        got = {
            "n": rep.dims["n"], "ambient": rep.dims["ambient"], "a": rep.dims["a"],
            "a0": rep.profile.a0, "r": rep.profile.r, "dim_x": oracle["dim_x"],
            "dim_tau" + sm: oracle["dim_tau"], "dim_sigma" + sm: oracle["dim_sigma_2"],
            "tau_gauss_fiber": fiber,
        }
        if "sigma3" in want:
            got["sigma3"] = oracle["dim_sigma_3"]
        assert got == want, name


def test_segre_base_point_maps_to_rank_one():
    ent = segre(3, 3)
    vals = ent.map.evaluate(list(ent.base_point))
    # at the base chart everything except the pinned (0,0) product vanishes
    assert vals == [Scalar(0)] * ent.map.codomain_dim


def test_rank_variety_base_point_is_regular():
    ent = rank_variety(4, 4, 2)
    jet = chart_at(ent.map, list(ent.base_point), 3)
    s = second_fundamental_form(jet)
    assert s.n == ent.n
    prof = rank_profile(s, derive_stream(0, "tz", "rk"))[0]
    assert prof.a0 == s.a  # no tangential defect for this stratum
