"""The integer series routines of `secantgeo.series` against the Scalar
`Poly` routines of `jets_reference`, on random series over Z and Z[i]; and
the reference routines that only the references use (`shift_poly`,
`reciprocal_trunc`) on their own."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import jets_reference as reference
from secantgeo.linalg import _unit, gauss
from secantgeo.polymaps import Poly
from secantgeo.scalars import Scalar
from secantgeo.series import compose_each, invert_map_series, mul_trunc


def rand_poly(rng, nvars, degree, bound=4):
    p = Poly(nvars)
    for _ in range(rng.randint(1, 8)):
        e = [0] * nvars
        for _ in range(rng.randint(0, degree)):
            e[rng.randrange(nvars)] += 1
        p = p + Poly.monomial(nvars, e, rng.randint(-bound, bound))
    return p


def rand_series(rng, nvars, degree, gaussian, low=0, bound=4):
    """A dict series with up to 8 terms of degree low..degree, Gaussian
    integer coefficients when gaussian is set."""
    out = {}
    for _ in range(rng.randint(1, 8)):
        e = [0] * nvars
        for _ in range(rng.randint(low, max(low, degree))):
            e[rng.randrange(nvars)] += 1
        c = gauss(rng.randint(-bound, bound), rng.randint(-bound, bound) if gaussian else 0)
        if c:
            out[tuple(e)] = c
    return out


def poly(p: dict, nvars: int) -> Poly:
    """The dict series as a Scalar Poly."""
    return Poly(nvars, {e: Scalar(c.real, c.imag) for e, c in p.items()})


def test_mul_trunc_matches_full_product():
    rng = random.Random(31)
    for trial in range(60):
        nvars = rng.randint(1, 4)
        p = rand_series(rng, nvars, 3, trial % 2)
        q = rand_series(rng, nvars, 3, trial % 3 == 0)
        order = rng.randint(0, 6)
        got = poly(mul_trunc(p, q, order), nvars)
        assert got == reference.truncated(poly(p, nvars) * poly(q, nvars), order)
        assert got == reference.mul_trunc(poly(p, nvars), poly(q, nvars), order)


def test_compose_trunc_linear_substitution():
    # f(x, y) = x^2 + y with x -> u + w, y -> u w
    f = Poly.monomial(2, (2, 0), 1) + Poly.variable(2, 1)
    gs = [Poly.variable(2, 0) + Poly.variable(2, 1),
          Poly.monomial(2, (1, 1), 1)]
    expect = (gs[0] * gs[0]) + gs[1]
    assert reference.compose_trunc(f, gs, 4) == expect
    out = compose_each([{(2, 0): 1, (0, 1): 1}], [{(1, 0): 1, (0, 1): 1}, {(1, 1): 1}], 2, 4)
    assert out == [{(2, 0): 1, (1, 1): 3, (0, 2): 1}]
    assert poly(out[0], 2) == expect


def test_compose_each_matches_individual_composition():
    rng = random.Random(32)
    for trial in range(30):
        nvars = rng.randint(1, 3)
        inner = rng.randint(1, 3)
        fs = [rand_series(rng, nvars, 3, trial % 2) for _ in range(3)]
        gs = [rand_series(rng, inner, 2, trial % 3 == 0) for _ in range(nvars)]
        order = rng.randint(1, 5)
        whole = compose_each(fs, gs, inner, order)
        for f, w in zip(fs, whole):
            assert poly(w, inner) == reference.compose_trunc(
                poly(f, nvars), [poly(g, inner) for g in gs], order)


def test_compose_truncation_consistency():
    rng = random.Random(33)
    for trial in range(15):
        nvars = rng.randint(1, 3)
        f = rand_series(rng, nvars, 3, trial % 2)
        gs = [rand_series(rng, 2, 2, trial % 2) for _ in range(nvars)]
        hi = compose_each([f], gs, 2, 6)[0]
        lo = compose_each([f], gs, 2, 3)[0]
        assert {e: c for e, c in hi.items() if sum(e) <= 3} == lo


def test_shift_poly_exact():
    rng = random.Random(34)
    for _ in range(20):
        nvars = rng.randint(1, 3)
        p = rand_poly(rng, nvars, 3)
        point = [Scalar(rng.randint(-3, 3)) for _ in range(nvars)]
        sh = reference.shift_poly(p, point)
        for _ in range(5):
            h = [Scalar(rng.randint(-2, 2)) for _ in range(nvars)]
            assert sh.evaluate(h) == p.evaluate([a + b for a, b in zip(point, h)])


def test_reciprocal():
    rng = random.Random(35)
    for _ in range(20):
        nvars = rng.randint(1, 3)
        p = rand_poly(rng, nvars, 2)
        p = p - reference.graded_part(p, 0) + Poly.constant(nvars, rng.randint(1, 4))
        order = rng.randint(1, 4)
        r = reference.reciprocal_trunc(p, order)
        assert reference.mul_trunc(p, r, order) == Poly.constant(nvars, 1)
    try:
        reference.reciprocal_trunc(Poly.variable(2, 0), 3)
        assert False
    except ZeroDivisionError:
        pass


def _unipotent(rng, n, order, gaussian):
    """x + random terms of degree 2..order, over Z or Z[i]."""
    ys = []
    for i in range(n):
        y = rand_series(rng, n, order, gaussian, low=2)
        y = {e: c for e, c in y.items() if 2 <= sum(e) <= order}
        y[_unit(n, i)] = 1
        ys.append(y)
    return ys


def test_invert_map_series_roundtrip():
    rng = random.Random(36)
    for trial in range(16):
        n = rng.randint(1, 3)
        order = rng.randint(2, 4)
        ys = _unipotent(rng, n, order, trial % 2)
        phi = invert_map_series(ys, order)
        ident = [{_unit(n, i): 1} for i in range(n)]
        assert compose_each(ys, phi, n, order) == ident
        assert compose_each(phi, ys, n, order) == ident
    try:
        invert_map_series([{(1,): 2}], 3)
        assert False
    except ValueError:
        pass


def test_degenerate_orders():
    p = {(1, 0): 1, (1, 1): 2}
    assert mul_trunc(p, p, 0) == {}
    assert mul_trunc(p, {(0, 0): 3}, 2) == {(1, 0): 3, (1, 1): 6}
    assert compose_each([{(0,): 5}], [{}], 2, 3) == [{(0, 0): 5}]


# -- properties on random maps over Z and Z[i] -----------------------------

PROPERTY = settings(max_examples=60, deadline=None, database=None)


def gaussian_integers(gaussian):
    part = st.integers(-5, 5)
    return st.builds(gauss, part, part) if gaussian else part


@st.composite
def series_maps(draw, nonlinear_from=0):
    """(n, order, ys): n dict series in n variables over Z or Z[i],
    each with terms of degree nonlinear_from..order."""
    gaussian = draw(st.booleans())
    n, order = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    ys = []
    for _ in range(n):
        p = {}
        for _ in range(draw(st.integers(0, 4))):
            e = tuple(draw(st.lists(st.integers(0, order), min_size=n, max_size=n)))
            c = draw(gaussian_integers(gaussian))
            if nonlinear_from <= sum(e) <= order and c:
                p[e] = c
        ys.append(p)
    return n, order, ys


@PROPERTY
@given(series_maps(nonlinear_from=2))
def test_invert_map_series_roundtrips_on_random_invertible_maps(m):
    """y(h) = h + higher terms over Z or Z[i]: the truncated inverse is a
    two-sided inverse up to order, and it is the inverse the Scalar
    reference finds."""
    n, order, higher = m
    ident = [{_unit(n, i): 1} for i in range(n)]
    ys = [{**x, **h} for x, h in zip(ident, higher)]
    phi = invert_map_series(ys, order)
    assert compose_each(ys, phi, n, order) == ident
    assert compose_each(phi, ys, n, order) == ident
    assert [poly(p, n) for p in phi] == \
        reference.invert_map_series([poly(y, n) for y in ys], order)


@PROPERTY
@given(series_maps())
def test_compose_each_with_identity_substitution_is_identity(m):
    """Substituting the identity truncates; substituting the map into
    itself gives what the Scalar reference gives."""
    n, order, fs = m
    ident = [{_unit(n, i): 1} for i in range(n)]
    assert compose_each(fs, ident, n, order) == \
        [{e: c for e, c in f.items() if sum(e) <= order} for f in fs]
    polys = [poly(f, n) for f in fs]
    assert [poly(p, n) for p in compose_each(fs, fs, n, order)] == \
        reference.compose_each(polys, polys, order)
