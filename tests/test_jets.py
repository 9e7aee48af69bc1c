import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jets_reference as reference
from linalg_reference import is_zero, rank
from quadrics_reference import ii_image, scalar_quadrics
from secantgeo.genericity import derive_stream, nonzero_vector
from secantgeo.jets import (ChartError, NotImmersiveError, chart_at, chart_roundtrip_check,
                            refined_third_form_cube, second_fundamental_form)
from secantgeo.linalg import IntegerSpan
from secantgeo.polymaps import Poly, PolyMap, polymap_to_json
from secantgeo.quadrics import contract
from secantgeo.report import analyze
from secantgeo.scalars import ONE, ZERO, Rational, Scalar
from secantgeo.zoo import veronese


def graph_map(n, quad_polys, cubic_polys=None):
    """(u_1..u_n) -> (u, q_1(u) + c_1(u), ...): a graph over its tangent plane."""
    cubic_polys = cubic_polys or [Poly(n) for _ in quad_polys]
    comps = [Poly.variable(n, i) for i in range(n)]
    comps += [q + c for q, c in zip(quad_polys, cubic_polys)]
    return PolyMap(n, len(comps), False, tuple(comps))


def test_chart_reads_off_graph_quadrics():
    # z1 = u1^2 + u2^2, z2 = u1 u2 at the origin
    q1 = Poly.monomial(2, (2, 0), 1) + Poly.monomial(2, (0, 2), 1)
    q2 = Poly.monomial(2, (1, 1), 1)
    f = graph_map(2, [q1, q2])
    jet = chart_at(f, [0, 0], 3)
    assert jet.n == 2 and jet.a == 2
    s = second_fundamental_form(jet)
    m1, m2 = scalar_quadrics(s)
    assert m1.at(0, 0) == ONE and m1.at(1, 1) == ONE and m1.at(0, 1) == ZERO
    assert m2.at(0, 1) == Scalar(1, 0) / Scalar(2) and m2.at(0, 0) == ZERO
    assert jet.c3 == (({}, {}), 1)


def test_chart_away_from_origin_agrees():
    # same graph, chart at a nonzero point: the pivot normalization changes
    # the quadric entries but never the rank
    q1 = Poly.monomial(2, (2, 0), 1) + Poly.monomial(2, (0, 2), 1)
    f = graph_map(2, [q1])
    jet = chart_at(f, [3, -2], 3)
    s = second_fundamental_form(jet)
    assert s.a == 1
    assert rank(scalar_quadrics(s)[0]) == 2


def test_cubic_coefficients():
    # z = u^3: c3 carries it, c2 and the quadric vanish
    c = Poly.monomial(1, (3,), 1)
    f = graph_map(1, [Poly(1)], [c])
    jet = chart_at(f, [0], 4)
    assert jet.c2 == (({},), 1)
    assert is_zero(scalar_quadrics(second_fundamental_form(jet))[0])
    assert reference.c3_entry(jet, 0, 0, 0, 0) == ONE
    assert jet.c4 is not None
    assert reference.c4_entry(jet, 0, 0, 0, 0, 0) == ZERO


def test_chart_builds_no_scalar(monkeypatch, entries):
    """`chart_at` runs on Gaussian integers: with `Scalar.__init__` counting,
    charting the light catalog entries and the Gaussian map at order 3 and
    4, from Scalar and from int base points, builds no Scalar; the Scalar
    reference route builds many."""
    f, base = _gaussian_map()
    cases = [(e.map, list(e.base_point)) for name, e in sorted(entries.items())
             if name not in HEAVY] + [(f, base), (f, [1, -2]), (f, [Scalar(0, 1), 2])]
    built = [0]
    init = Scalar.__init__

    def counted(self, *args):
        built[0] += 1
        init(self, *args)

    monkeypatch.setattr(Scalar, "__init__", counted)
    for g, u in cases:
        for order in (3, 4):
            chart_at(g, u, order)
    assert built[0] == 0
    reference.chart_fields(f, base, 3)
    assert built[0] > 0


def test_pivot_rule_matches_the_scalar_rule():
    """On a graph whose components take values of every size at random
    Gaussian-rational points, with repeated components for ties, the chart
    divides by the coordinate the Scalar pivot rule picks."""
    rng = random.Random(52)

    def part():
        return Rational(rng.randint(-4, 4), rng.randint(1, 4))

    quads = []
    for _ in range(3):
        terms = {e: Scalar(part(), part()) for e in ((2, 0), (1, 1), (0, 2))}
        quads.append(Poly(2, {e: c for e, c in terms.items() if c}))
    f = graph_map(2, quads + quads[:1] + [Poly.monomial(2, (2, 0), 1)] * 2)
    picked = set()
    for _ in range(40):
        base = [Scalar(part(), part() if rng.random() < 0.5 else 0) for _ in range(2)]
        jet = chart_at(f, base, 3)
        assert jet.pivot_index == reference.pivot_index(f, base)
        picked.add(jet.pivot_index)
    assert len(picked) > 2


def test_not_immersive():
    f = PolyMap(1, 2, False, (Poly.monomial(1, (2,), 1), Poly.monomial(1, (3,), 1)))
    try:
        chart_at(f, [0], 3)
        assert False
    except NotImmersiveError:
        pass
    # away from the cusp the chart exists
    jet = chart_at(f, [1], 3)
    assert jet.n == 1


def test_conical_chart_needs_nonvanishing_lift():
    f = PolyMap(2, 2, True, (Poly.monomial(2, (2, 0), 1), Poly.monomial(2, (1, 1), 1)))
    try:
        chart_at(f, [0, 0], 3)
        assert False
    except ChartError:
        pass


def test_roundtrip_random_graphs():
    rng = random.Random(51)
    for _ in range(6):
        n = rng.randint(1, 3)
        a = rng.randint(1, 2)
        quads = []
        cubes = []
        for _ in range(a):
            q = Poly(n)
            for i in range(n):
                for j in range(i, n):
                    e = [0] * n
                    e[i] += 1
                    e[j] += 1
                    q = q + Poly.monomial(n, e, rng.randint(-3, 3))
            quads.append(q)
            e = [0] * n
            e[rng.randrange(n)] = 3
            cubes.append(Poly.monomial(n, e, rng.randint(-2, 2)))
        f = graph_map(n, quads, cubes)
        base = [rng.randint(-2, 2) for _ in range(n)]
        jet = chart_at(f, base, 3)
        assert chart_roundtrip_check(f, jet)


def _image(jet, v) -> IntegerSpan:
    """II_v(T) of the chart's second fundamental form, as an integer span."""
    s = second_fundamental_form(jet)
    return IntegerSpan(s.a, list(zip(*contract(s, v))))


def test_refined_third_form_cube():
    # z = u^3 in the plane: II = 0, the cube survives reduction
    f = graph_map(1, [Poly(1)], [Poly.monomial(1, (3,), 1)])
    jet = chart_at(f, [0], 3)
    assert not refined_third_form_cube(jet, [1], _image(jet, [1]))
    residue, _ = reference.refined_third_form_cube(
        jet, [1], ii_image(second_fundamental_form(jet), [1]))
    assert residue == [ONE]
    # quadratic graph: third form identically zero
    g = graph_map(1, [Poly.monomial(1, (2,), 1)])
    jg = chart_at(g, [0], 3)
    assert refined_third_form_cube(jg, [1], _image(jg, [1]))


def test_order_validation():
    f = graph_map(1, [Poly.monomial(1, (2,), 1)])
    try:
        chart_at(f, [0], 5)
        assert False
    except ValueError:
        pass
    try:
        chart_at(f, [0, 0], 3)
        assert False
    except ValueError:
        pass


PROPERTY = settings(max_examples=40, deadline=None, database=None)


@st.composite
def graph_charts(draw):
    """A chart of a random graph map at an integer, rational or
    Gaussian-rational base point, at order 3 or 4: its normal components
    are sums of terms of degree 2 to 4 with rational or Gaussian-rational
    coefficients."""
    n = draw(st.integers(1, 3))
    gaussian = draw(st.booleans())
    part = st.builds(Rational, st.integers(-4, 4), st.integers(1, 3))
    coeff = (st.builds(Scalar, part, part) if gaussian else st.builds(Scalar, part)).filter(bool)
    comps = []
    for _ in range(draw(st.integers(1, 3))):
        terms = {}
        for _ in range(draw(st.integers(1, 4))):
            e = [0] * n
            for i in draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=4)):
                e[i] += 1
            terms[tuple(e)] = draw(coeff)
        comps.append(Poly(n, terms))
    f = graph_map(n, comps)
    kind = draw(st.sampled_from(("integer", "rational", "gaussian")))
    ints = st.integers(-2, 2)
    point = {"integer": st.builds(Scalar, ints),
             "rational": st.builds(Scalar, part),
             "gaussian": st.builds(Scalar, part, part)}[kind]
    base = draw(st.lists(point, min_size=n, max_size=n))
    return f, chart_at(f, base, draw(st.sampled_from((3, 4))))


@PROPERTY
@given(graph_charts(), st.integers(0, 10 ** 6))
def test_roundtrip_matches_the_poly_reference(chart, seed):
    """The exact check passes exactly where the Poly series route along
    random lines passes: on the chart, and on none of its perturbations
    (`_perturbed`).  The chart itself, its normal correction, c2, c3 and
    c4, equals the one the route through the Scalar RREF, `solve_left` and
    `inverse` gives, and the quadrics of its second fundamental form are
    the forms c2."""
    f, jet = chart
    fields = reference.scalar_fields(jet)
    base = reference.scalar_chart(jet).base_point
    assert fields == reference.chart_fields(f, base, jet.order), "Scalar solver route"
    assert jet.pivot_index == reference.pivot_index(f, base)
    assert _quadratic_forms(jet) == fields[1]
    for name, j in [("chart", jet), *_perturbed(jet).items()]:
        got = chart_roundtrip_check(f, j)
        assert got == (name == "chart"), name
        assert got == reference.chart_roundtrip_check(f, j, derive_stream(seed, "rt"), samples=3), name


def _gaussian_map():
    """A graph map with Gaussian-rational coefficients and a cubic term,
    and a Gaussian-rational base point."""
    i = Scalar(0, 1)
    q1 = Poly.monomial(2, (2, 0), i) + Poly.monomial(2, (0, 2), 1)
    q2 = Poly.monomial(2, (1, 1), Scalar(1, "1/2")) + Poly.monomial(2, (0, 3), 1)
    return graph_map(2, [q1, q2]), [Scalar("1/2"), i]


HEAVY = ("severi_O", "grassmannian_2_7")


def test_catalog_charts_and_refined_cubes_match_the_references(charted):
    """On the light catalog charts and a Gaussian map: the chart's fields
    equal the Scalar solver route's, and at the same draws the refined cubic
    on integer spans says what c3(v) reduced modulo a Scalar `Subspace`
    says, vanishing at some charts and not at others."""
    f, base = _gaussian_map()
    cases = [(e.map, list(e.base_point), jet) for name, (e, jet, _, _) in sorted(charted.items())
             if name not in HEAVY] + [(f, base, chart_at(f, base, 3))]
    seen = set()
    for f, base, jet in cases:
        fields = reference.scalar_fields(jet)
        assert fields == reference.chart_fields(f, base, 3)
        assert jet.pivot_index == reference.pivot_index(f, base)
        assert _quadratic_forms(jet) == fields[1]
        s = second_fundamental_form(jet)
        stream = derive_stream(0, "jets", "cube")
        for bound in (1, 2, 3):
            v = nonzero_vector(s.n, bound, stream)
            got = refined_third_form_cube(jet, v, _image(jet, v))
            assert got == reference.refined_third_form_cube(jet, v, ii_image(s, v))[1]
            seen.add(got)
    assert seen == {True, False}


def _quadratic_forms(jet):
    """The quadratic forms u^T q u of the Scalar quadrics of the chart's
    second fundamental form."""
    n = jet.n
    forms = []
    for m in scalar_quadrics(second_fundamental_form(jet)):
        form = Poly(n)
        for i in range(n):
            for k in range(n):
                e = [0] * n
                e[i] += 1
                e[k] += 1
                form = form + Poly.monomial(n, e, m.at(i, k))
        forms.append(form)
    return tuple(forms)


def _perturbed(jet):
    """The chart with one numerator of its cleared values moved by 1, for
    each field the round trip reads (c4 only at order 4)."""
    (corr, kappa), (center, delta) = jet.normal_correction, jet.chart_center
    corr = [list(r) for r in corr]
    corr[0][0] += 1
    center = list(center)
    center[jet.normal_rows[0]] += 1
    out = {"normal_correction": jet._replace(normal_correction=(corr, kappa)),
           "chart_center": jet._replace(chart_center=(center, delta))}
    e = [0] * jet.n
    for name in ("c2", "c3", "c4")[:jet.order - 1]:
        forms, den = getattr(jet, name)
        e[0] = int(name[1])
        first = dict(forms[0])
        first[tuple(e)] = first.get(tuple(e), 0) + 1
        out[name] = jet._replace(**{name: ((first,) + forms[1:], den)})
    return out


@pytest.mark.parametrize("gaussian", [False, True])
def test_perturbed_chart_fails_both_routes(gaussian, entries):
    """Moving one entry of c2, c3, c4, the center or the normal correction
    breaks the identity, on Z and on Z[i].  On Z also for every light
    catalog chart at orders 3 and 4, each at its base point, where the
    pivot is the constant coordinate 0, and for v2(P^4) at an integer base
    point, where the pivot is another coordinate, whose series is not
    constant."""
    c = Scalar(1, 2) if gaussian else Scalar(1)
    q1 = Poly.monomial(2, (2, 0), c) + Poly.monomial(2, (0, 2), 1)
    q2 = Poly.monomial(2, (1, 1), 1) + Poly.monomial(2, (0, 3), c)
    f = graph_map(2, [q1, q2])
    cases = [(f, base, 4) for base in ([0, 0], [Scalar("1/2"), Scalar(-1, 1)])]
    if not gaussian:
        cases += [(e.map, list(e.base_point), order) for name, e in sorted(entries.items())
                  if name not in HEAVY for order in (3, 4)]
        v2 = veronese(2, 4).map
        assert chart_at(v2, [1, -2, 1, 3], 3).pivot_index != 0
        cases += [(v2, [1, -2, 1, 3], order) for order in (3, 4)]
    for f, base, order in cases:
        jet = chart_at(f, base, order)
        assert chart_roundtrip_check(f, jet)
        for name, bad in _perturbed(jet).items():
            assert not chart_roundtrip_check(f, bad), name
            assert not reference.chart_roundtrip_check(f, bad, derive_stream(0, "jets", "rt")), name


def test_vanishing_pivot_is_never_accepted():
    """A pivot series vanishing at t = 0 is no unit: multiplied through, the
    identity can hold on a line (0 = 0 here), yet the check fails, where the
    reference cannot divide at all."""
    f = graph_map(1, [Poly(1)])  # the line u -> (u, 0)
    jet = chart_at(f, [0], 3)
    assert chart_roundtrip_check(f, jet)
    bad = jet._replace(pivot_index=1)  # u itself, zero at the base point
    assert not chart_roundtrip_check(f, bad)
    with pytest.raises(ZeroDivisionError):
        reference.chart_roundtrip_check(f, bad, derive_stream(0, "jets", "pivot"))


def test_gaussian_map_roundtrip_in_the_report():
    """A poly_map with Gaussian-rational coefficients and base point: the
    round trip runs on Gaussian integers and the report's verdict passes."""
    f, base = _gaussian_map()
    rep = analyze(polymap_to_json(f, base_point=base))
    assert {v.name: v.status for v in rep.verdicts}["chart_roundtrip"] == "pass"
    jet = chart_at(f, base, 3)
    assert not chart_roundtrip_check(f, _perturbed(jet)["c2"])
