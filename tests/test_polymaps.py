import random

from jets_reference import graded_part, truncated
from oracle_reference import embed
from secantgeo.polymaps import (Poly, PolyMap, poly_from_json, poly_sum, poly_to_json,
                                polymap_base_point, polymap_from_json, polymap_to_json)
from secantgeo.scalars import ONE, Scalar


def test_poly_evaluate_and_diff():
    # p = 3 x^2 y - y + 5
    p = Poly.monomial(2, (2, 1), 3) - Poly.variable(2, 1) + Poly.constant(2, 5)
    assert p.evaluate([Scalar(2), Scalar(-1)]) == Scalar(-6)
    px = p.diff(0)
    assert px == Poly.monomial(2, (1, 1), 6)
    py = p.diff(1)
    assert py == Poly.monomial(2, (2, 0), 3) - Poly.constant(2, 1)


def test_poly_graded_parts_and_homogeneous():
    p = Poly.monomial(2, (2, 0), 1) + Poly.variable(2, 1) + Poly.constant(2, 4)
    assert graded_part(p, 2) == Poly.monomial(2, (2, 0), 1)
    assert truncated(p, 1) == Poly.variable(2, 1) + Poly.constant(2, 4)
    assert p.is_homogeneous() is None
    q = Poly.monomial(3, (1, 1, 0), 2) + Poly.monomial(3, (0, 0, 2), -1)
    assert q.is_homogeneous() == 2


def test_poly_embed():
    p = Poly.variable(2, 1) + Poly.monomial(2, (1, 1), 1)
    q = embed(p, 5, 2)
    assert q.nvars == 5
    pt = [Scalar(9), Scalar(9), Scalar(2), Scalar(3), Scalar(9)]
    assert q.evaluate(pt) == p.evaluate([Scalar(2), Scalar(3)])


def test_polymap_lift_and_jacobian():
    # affine chart (u, v) -> (u, v, u v): lift gets a leading 1
    comps = (Poly.variable(2, 0), Poly.variable(2, 1), Poly.monomial(2, (1, 1), 1))
    f = PolyMap(2, 3, False, comps)
    lift = f.lift()
    assert len(lift) == 4
    assert lift[0] == Poly.constant(2, 1)
    jac = f.jacobian_at([Scalar(2), Scalar(5)])
    # rows are gradients of the lift components
    assert jac.rows == 4 and jac.cols == 2
    assert jac.at(3, 0) == Scalar(5) and jac.at(3, 1) == Scalar(2)


def test_projective_map_validation():
    comps = (Poly.monomial(2, (2, 0), 1), Poly.monomial(2, (1, 1), 1))
    f = PolyMap(2, 2, True, comps)
    assert f.conical
    assert f.lift() == comps
    try:
        PolyMap(2, 2, True, (Poly.variable(2, 0), Poly.monomial(2, (1, 1), 1)))
        assert False
    except ValueError:
        pass


def test_poly_json_roundtrip():
    rng = random.Random(41)
    for _ in range(20):
        nvars = rng.randint(1, 4)
        p = Poly(nvars)
        for _ in range(rng.randint(0, 6)):
            e = tuple(rng.randint(0, 2) for _ in range(nvars))
            p = p + Poly.monomial(nvars, e, Scalar(rng.randint(-5, 5), rng.randint(-2, 2)))
        assert poly_from_json(poly_to_json(p), nvars) == p


def test_polymap_json_roundtrip_with_base_point():
    comps = (Poly.variable(1, 0), Poly.monomial(1, (2,), 1))
    f = PolyMap(1, 2, False, comps)
    obj = polymap_to_json(f, base_point=[Scalar(1)])
    assert obj["base_point"] == [{"re": "1", "im": "0"}] or obj["base_point"][0]["re"] == "1"
    g = polymap_from_json(obj)
    assert g == f
    assert polymap_base_point(obj) == [Scalar(1)]
    # base point omitted when all zero
    obj2 = polymap_to_json(f, base_point=[Scalar(0)])
    assert "base_point" not in obj2
    assert polymap_base_point(obj2) is None


def test_polymap_json_validation_errors():
    comps = (Poly.variable(1, 0),)
    f = PolyMap(1, 1, False, comps)
    obj = polymap_to_json(f)
    bad = dict(obj)
    bad["base_point"] = [{"re": "1", "im": "0"}, {"re": "2", "im": "0"}]
    try:
        polymap_from_json(bad)
        assert False
    except ValueError:
        pass


def test_poly_sum():
    parts = [Poly.variable(3, i) for i in range(3)]
    s = poly_sum(3, parts)
    assert s.evaluate([ONE, ONE, ONE]) == Scalar(3)
    assert poly_sum(2, []).is_zero()
