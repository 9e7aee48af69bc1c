"""Golden numbers from closed forms, with no oracle call.

`zoo_expected.json` was written from the dimension oracles.  Here every
catalog entry's n, a, ambient, dim_x, dim_tau, a0 = dim_tau - n, dim_sigma,
sigma3 and sigma4 come from classical formulas instead, dim sigma_s of the
s-secant variety (projective dimensions, capped at the ambient one):

- Segre P^{k-1} x P^{r-1}: s(k + r - s) - 1;
- v2(P^m): s(m + 1) - s(s - 1)/2 - 1;
- v_d(P^m), d >= 3, outside the Alexander-Hirschowitz exceptions:
  s(m + 1) - 1;
- G(2, m): 2sm - s(2s + 1) - 1;
- the Severi varieties: 3n/2 + 1 for s = 2, and sigma_3 fills;
- rational normal curves of degree d: min(2s - 1, d);
- k x r matrices of rank <= l: the determinantal dimension
  (k + r - sl) sl - 1 of rank <= sl;
- the cone over a curve with a point vertex: the curve's values plus one,
  for sigma and tau alike.

By Fulton-Hansen, dim tau = dim sigma when sigma is degenerate (below
min(2n + 1, ambient)), and min(2n, ambient) otherwise; rank_4_4_2 and
segre_2_2 fill their ambient space.  The two remaining fields of the golden
file, r and tau_gauss_fiber, are oracle-only: no closed form here gives
them.

Three inputs past the catalog, G(2, 10), Segre P^5 x P^5 and v2(P^8), are
analyzed at seed 0, and both columns of every cross-check of their reports
are checked against the same closed forms.
"""

from math import comb

import pytest

from secantgeo import zoo
from secantgeo.polymaps import polymap_to_json
from secantgeo.report import AnalyzeOptions, analyze
from secantgeo.zoo import catalog, expected


def _fields(n: int, ambient: int, sigma, tau=None) -> dict:
    """The golden fields of an n-fold in P^ambient whose s-secant variety
    has dimension sigma(s); tau defaults to Fulton-Hansen's."""
    s2 = sigma(2)
    if tau is None:
        tau = s2 if s2 < min(2 * n + 1, ambient) else min(2 * n, ambient)
    return {"n": n, "dim_x": n, "ambient": ambient, "a": ambient - n, "dim_sigma": s2,
            "sigma3": sigma(3), "sigma4": min(sigma(4), ambient), "dim_tau": tau,
            "a0": tau - n}


def segre(k: int, r: int) -> dict:
    ambient = k * r - 1
    return _fields(k + r - 2, ambient, lambda s: min(s * (k + r - s) - 1, ambient))


def veronese(d: int, m: int) -> dict:
    ambient = comb(m + d, d) - 1
    if m == 1:  # the rational normal curve of degree d
        return _fields(1, ambient, lambda s: min(2 * s - 1, d))
    if d == 2:
        return _fields(m, ambient, lambda s: min(s * (m + 1) - s * (s - 1) // 2 - 1, ambient))
    assert (d, m) not in ((4, 2), (4, 3), (4, 4), (3, 4))  # Alexander-Hirschowitz
    return _fields(m, ambient, lambda s: min(s * (m + 1) - 1, ambient))


def severi(n: int) -> dict:
    ambient = 3 * n // 2 + 2
    return _fields(n, ambient, lambda s: 3 * n // 2 + 1 if s == 2 else ambient)


def grassmannian(m: int) -> dict:
    ambient = comb(m, 2) - 1
    return _fields(2 * (m - 2), ambient,
                   lambda s: min(2 * s * m - s * (2 * s + 1) - 1, ambient))


def rank_variety(k: int, r: int, l: int) -> dict:
    def rank_locus(rank):
        return (k + r - rank) * rank - 1 if rank < min(k, r) else k * r - 1

    return _fields(rank_locus(l), k * r - 1, lambda s: rank_locus(s * l))


def cone_over(curve: dict) -> dict:
    """The cone with a point vertex over a curve: one more dimension and
    one more ambient coordinate, every secant and tangent variety a cone
    too.  The golden file names its values *_sm: read on the smooth locus."""
    n, ambient = curve["n"] + 1, curve["ambient"] + 1
    sigma = {2: curve["dim_sigma"] + 1, 3: curve["sigma3"] + 1, 4: curve["sigma4"] + 1}
    return _fields(n, ambient, sigma.get, tau=curve["dim_tau"] + 1)


CLOSED_FORMS = {
    "severi_R": severi(2),
    "severi_C": severi(4),
    "severi_H": severi(8),
    "severi_O": severi(16),
    "veronese_2_2": veronese(2, 2),
    "veronese_3_1": veronese(3, 1),
    "veronese_3_2": veronese(3, 2),
    # the conic's quadratic re-embedding: a rational normal quartic, in the
    # P^5 of the five monomials of degree 1 and 2 in (t, t^2), two equal
    "veronese_conic": dict(veronese(4, 1), ambient=5, a=4),
    "segre_2_2": segre(2, 2),
    "segre_3_3": segre(3, 3),
    "grassmannian_2_6": grassmannian(6),
    "grassmannian_2_7": grassmannian(7),
    "cone_twisted_cubic": cone_over(veronese(3, 1)),
    "rank_4_4_2": rank_variety(4, 4, 2),
}

ORACLE_ONLY = ("r", "tau_gauss_fiber")


@pytest.mark.parametrize("ent", catalog(), ids=lambda e: e.name)
def test_closed_forms_give_the_golden_numbers(ent):
    """Every golden number but the oracle-only ones has its closed form,
    and n and ambient are the chart's own."""
    want = expected(ent)
    got = CLOSED_FORMS[ent.name]
    sm = "_sm" if ent.name == "cone_twisted_cubic" else ""
    for key, value in want.items():
        if key not in ORACLE_ONLY:
            assert got[key.removesuffix(sm)] == value, key
    assert (got["n"], got["ambient"]) == (ent.n, ent.ambient)


def test_every_catalog_entry_has_a_closed_form():
    assert sorted(CLOSED_FORMS) == sorted(e.name for e in catalog())


def test_fulton_hansen_cases():
    """sigma degenerate, so tau = sigma, on the Severi varieties, v2(P^2)
    and G(2, 6); sigma filling, so tau = ambient, on rank_4_4_2 and
    segre_2_2; and tau = 2n below a nondegenerate sigma on the twisted
    cubic and v3(P^2)."""
    for name in ("severi_C", "veronese_2_2", "grassmannian_2_6"):
        f = CLOSED_FORMS[name]
        assert f["dim_tau"] == f["dim_sigma"] < min(2 * f["n"] + 1, f["ambient"])
    for name in ("rank_4_4_2", "segre_2_2"):
        f = CLOSED_FORMS[name]
        assert f["dim_tau"] == f["dim_sigma"] == f["ambient"] < 2 * f["n"] + 1
    for name in ("veronese_3_1", "veronese_3_2"):
        f = CLOSED_FORMS[name]
        assert f["dim_tau"] == 2 * f["n"] and f["dim_sigma"] == 2 * f["n"] + 1


PAST_THE_CATALOG = {
    "grassmannian_2_10": (zoo.grassmannian(2, 10), grassmannian(10)),
    "segre_6_6": (zoo.segre(6, 6), segre(6, 6)),
    "veronese_2_8": (zoo.veronese(2, 8), veronese(2, 8)),
}


@pytest.mark.parametrize("name", sorted(PAST_THE_CATALOG))
def test_reports_past_the_catalog_give_the_closed_forms(name):
    """G(2, 10), Segre P^5 x P^5 and v2(P^8) at seed 0: dim_x, dim_tau and
    sigma_2, sigma_3, sigma_4 from the formula and the oracle column alike
    (29, 38, 43; 19, 26, 31; 16, 23, 29)."""
    ent, want = PAST_THE_CATALOG[name]
    rep = analyze(polymap_to_json(ent.map, base_point=ent.base_point), AnalyzeOptions(seed=0))
    closed = {"dim_x": want["dim_x"], "dim_tau": want["dim_tau"],
              "dim_sigma_2": want["dim_sigma"], "dim_sigma_3": want["sigma3"],
              "dim_sigma_4": want["sigma4"]}
    assert {c.quantity: (c.formula, c.oracle) for c in rep.cross_checks} == \
        {key: (value, value) for key, value in closed.items()}
    assert (rep.dims["n"], rep.dims["ambient"]) == (want["n"], want["ambient"])
