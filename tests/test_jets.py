import random

from secantgeo.genericity import derive_stream
from secantgeo.jets import (ChartError, NotImmersiveError, chart_at, chart_roundtrip_check,
                            refined_third_form_cube, second_fundamental_form)
from secantgeo.polymaps import Poly, PolyMap
from secantgeo.quadrics import ii_image
from secantgeo.scalars import ONE, ZERO, Scalar


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
    m1, m2 = s.quadrics
    assert m1.at(0, 0) == ONE and m1.at(1, 1) == ONE and m1.at(0, 1) == ZERO
    assert m2.at(0, 1) == Scalar(1, 0) / Scalar(2) and m2.at(0, 0) == ZERO
    for c in jet.c3:
        assert c.is_zero()


def test_chart_away_from_origin_agrees():
    # same graph, chart at a nonzero point: the pivot normalization changes
    # the quadric entries but never the rank
    from secantgeo.linalg import rank

    q1 = Poly.monomial(2, (2, 0), 1) + Poly.monomial(2, (0, 2), 1)
    f = graph_map(2, [q1])
    jet = chart_at(f, [3, -2], 3)
    s = second_fundamental_form(jet)
    assert s.a == 1
    assert rank(s.quadrics[0]) == 2


def test_cubic_coefficients():
    # z = u^3: c3 carries it, q vanishes
    c = Poly.monomial(1, (3,), 1)
    f = graph_map(1, [Poly(1)], [c])
    jet = chart_at(f, [0], 4)
    assert jet.q[0].is_zero()
    assert jet.c3_entry(0, 0, 0, 0) == ONE
    assert jet.c4 is not None
    assert jet.c4_entry(0, 0, 0, 0, 0) == ZERO


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
    for trial in range(6):
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
        assert chart_roundtrip_check(f, jet, derive_stream(0, "jets", trial), samples=4)


def test_refined_third_form_cube():
    # z = u^3 in the plane: II = 0, the cube survives reduction
    f = graph_map(1, [Poly(1)], [Poly.monomial(1, (3,), 1)])
    jet = chart_at(f, [0], 3)
    residue, is_zero = refined_third_form_cube(
        jet, [ONE], ii_image(second_fundamental_form(jet), [ONE]))
    assert not is_zero
    assert residue == [ONE]
    # quadratic graph: third form identically zero
    g = graph_map(1, [Poly.monomial(1, (2,), 1)])
    jg = chart_at(g, [0], 3)
    _, z = refined_third_form_cube(jg, [ONE], ii_image(second_fundamental_form(jg), [ONE]))
    assert z


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
