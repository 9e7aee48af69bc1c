import random

from hypothesis import given, settings
from hypothesis import strategies as st

from secantgeo.polymaps import Poly
from secantgeo.series import (compose_each, compose_trunc, invert_map_series, mul_trunc,
                              reciprocal_trunc, shift_poly)
from secantgeo.scalars import ONE, Rational, Scalar


def rand_poly(rng, nvars, degree, bound=4):
    p = Poly(nvars)
    for _ in range(rng.randint(1, 8)):
        e = [0] * nvars
        for _ in range(rng.randint(0, degree)):
            e[rng.randrange(nvars)] += 1
        p = p + Poly.monomial(nvars, e, rng.randint(-bound, bound))
    return p


def test_mul_trunc_matches_full_product():
    rng = random.Random(31)
    for _ in range(40):
        nvars = rng.randint(1, 4)
        p = rand_poly(rng, nvars, 3)
        q = rand_poly(rng, nvars, 3)
        order = rng.randint(0, 6)
        assert mul_trunc(p, q, order) == (p * q).truncated(order)


def test_compose_trunc_linear_substitution():
    # f(x, y) = x^2 + y with x -> u + w, y -> u w
    f = Poly.monomial(2, (2, 0), 1) + Poly.variable(2, 1)
    gs = [Poly.variable(2, 0) + Poly.variable(2, 1),
          Poly.monomial(2, (1, 1), 1)]
    out = compose_trunc(f, gs, 4)
    expect = (gs[0] * gs[0]) + gs[1]
    assert out == expect


def test_compose_each_matches_individual_composition():
    rng = random.Random(32)
    for _ in range(15):
        nvars = rng.randint(1, 3)
        inner = rng.randint(1, 3)
        fs = [rand_poly(rng, nvars, 3) for _ in range(3)]
        gs = [rand_poly(rng, inner, 2) for _ in range(nvars)]
        order = rng.randint(1, 5)
        whole = compose_each(fs, gs, order)
        for f, w in zip(fs, whole):
            assert w == compose_trunc(f, gs, order)


def test_compose_truncation_consistency():
    rng = random.Random(33)
    for _ in range(15):
        nvars = rng.randint(1, 3)
        f = rand_poly(rng, nvars, 3)
        gs = [rand_poly(rng, 2, 2) for _ in range(nvars)]
        hi = compose_trunc(f, gs, 6)
        lo = compose_trunc(f, gs, 3)
        assert hi.truncated(3) == lo


def test_shift_poly_exact():
    rng = random.Random(34)
    for _ in range(20):
        nvars = rng.randint(1, 3)
        p = rand_poly(rng, nvars, 3)
        point = [Scalar(rng.randint(-3, 3)) for _ in range(nvars)]
        sh = shift_poly(p, point)
        for _ in range(5):
            h = [Scalar(rng.randint(-2, 2)) for _ in range(nvars)]
            assert sh.evaluate(h) == p.evaluate([a + b for a, b in zip(point, h)])


def test_reciprocal():
    rng = random.Random(35)
    for _ in range(20):
        nvars = rng.randint(1, 3)
        p = rand_poly(rng, nvars, 2)
        p = p - p.graded_part(0) + Poly.constant(nvars, rng.randint(1, 4))
        order = rng.randint(1, 4)
        r = reciprocal_trunc(p, order)
        assert mul_trunc(p, r, order) == Poly.constant(nvars, 1)
    try:
        reciprocal_trunc(Poly.variable(2, 0), 3)
        assert False
    except ZeroDivisionError:
        pass


def test_invert_map_series_roundtrip():
    rng = random.Random(36)
    for _ in range(12):
        n = rng.randint(1, 3)
        order = rng.randint(2, 4)
        # linear part: identity plus a strictly triangular tweak keeps it invertible
        ys = []
        for i in range(n):
            p = Poly.variable(n, i)
            for j in range(i):
                p = p + Poly.variable(n, j, rng.randint(-2, 2))
            q = rand_poly(rng, n, order)
            # drop constant and linear pieces of the perturbation
            q = q - q.truncated(1)
            ys.append((p + q).truncated(order))
        phi = invert_map_series(ys, order)
        back = compose_each(ys, phi, order)
        for i, b in enumerate(back):
            assert b == Poly.variable(n, i)


def test_degenerate_orders():
    p = Poly.variable(2, 0) + Poly.monomial(2, (1, 1), 2)
    assert mul_trunc(p, p, 0).is_zero()
    one = Poly.constant(2, 3)
    assert mul_trunc(p, one, 2) == p.scale(3)


# -- properties on random maps over Q and Q(i) ------------------------------

PROPERTY = settings(max_examples=60, deadline=None, database=None)


def coefficients(real):
    part = st.builds(Rational, st.integers(-5, 5), st.integers(1, 4))
    return st.builds(Scalar, part) if real else st.builds(Scalar, part, part)


@st.composite
def series_maps(draw, nonlinear_from=0):
    """(n, order, ys): n polynomials in n variables over Q or Q(i), each with
    p/q coefficients on monomials of degree nonlinear_from..order."""
    real = draw(st.booleans())
    n, order = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    ys = []
    for _ in range(n):
        p = Poly(n)
        for _ in range(draw(st.integers(0, 4))):
            e = draw(st.lists(st.integers(0, order), min_size=n, max_size=n))
            if nonlinear_from <= sum(e) <= order:
                p = p + Poly.monomial(n, e, draw(coefficients(real)))
        ys.append(p)
    return n, order, ys


@PROPERTY
@given(series_maps(nonlinear_from=2), st.data())
def test_invert_map_series_roundtrips_on_random_invertible_maps(m, data):
    """y(h) = L h + higher terms, L lower triangular with a nonzero
    diagonal: the truncated inverse is a two-sided inverse up to order."""
    n, order, higher = m
    real = data.draw(st.booleans())
    ys = []
    for i, q in enumerate(higher):
        lin = Poly.variable(n, i, data.draw(coefficients(real).filter(bool)))
        for j in range(i):
            lin = lin + Poly.variable(n, j, data.draw(coefficients(real)))
        ys.append(lin + q)
    phi = invert_map_series(ys, order)
    ident = [Poly.variable(n, i) for i in range(n)]
    assert compose_each(ys, phi, order) == ident
    assert compose_each(phi, ys, order) == ident


@PROPERTY
@given(series_maps())
def test_compose_each_with_identity_substitution_is_identity(m):
    n, order, fs = m
    ident = [Poly.variable(n, i) for i in range(n)]
    assert compose_each(fs, ident, order) == [f.truncated(order) for f in fs]
