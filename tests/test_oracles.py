import ast
import random
from itertools import combinations_with_replacement
from math import lcm
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import secantgeo

import oracle_reference as reference
from oracle_reference import build_join_map, build_tangent_map, terracini_consistency_check
from secantgeo import derive_stream, oracles
from secantgeo.genericity import CertificationError, fully_nonzero_vector
from secantgeo.linalg import Gaussian, IntegerSpan, eliminate, gauss, integer_combination
from secantgeo.oracles import gauss_fiber_dimension, join_dimension, tangent_join_dimension
from secantgeo.polymaps import Poly, PolyMap, lift_jet
from secantgeo.scalars import Rational, Scalar
from secantgeo.zoo import catalog


def test_formula_layer_never_imports_oracles():
    """The formula modules import nothing of `oracles`, at module level or
    inside a function, so that each cross-check of the report compares two
    independent routes."""
    root = Path(secantgeo.__file__).parent
    for module in ("quadrics", "jets", "series", "defects"):
        for node in ast.walk(ast.parse((root / (module + ".py")).read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            assert not any("oracles" in name.split(".") for name in names), (module, node.lineno)


def twisted_cubic() -> PolyMap:
    comps = tuple(Poly.monomial(1, (d,), 1) for d in (1, 2, 3))
    return PolyMap(1, 3, False, comps)


def test_join_map_shape_and_values():
    f = twisted_cubic()
    g = build_join_map(f, 2)
    assert g.domain_dim == 4
    assert g.codomain_dim == 4
    assert g.conical
    rng = random.Random(11)
    lift = f.lift()
    for _ in range(10):
        u1, u2 = rng.randint(-4, 4), rng.randint(-4, 4)
        s1, s2 = rng.randint(-4, 4), rng.randint(-4, 4)
        pt = [Scalar(x) for x in (u1, u2, s1, s2)]
        got = g.evaluate(pt)
        want = [pt[2] * c.evaluate([pt[0]]) + pt[3] * c.evaluate([pt[1]]) for c in lift]
        assert got == want


def test_tangent_map_shape_and_values():
    f = twisted_cubic()
    g = build_tangent_map(f)
    assert g.domain_dim == 3
    assert g.codomain_dim == 4
    assert g.conical
    rng = random.Random(12)
    lift = f.lift()
    for _ in range(10):
        s, u, t = (Scalar(rng.randint(-4, 4)) for _ in range(3))
        got = g.evaluate([s, u, t])
        want = [s * (c.evaluate([u]) + t * c.diff(0).evaluate([u])) for c in lift]
        assert got == want


def test_join_k_validation():
    try:
        build_join_map(twisted_cubic(), 0)
        assert False
    except ValueError:
        pass
    try:
        join_dimension(twisted_cubic(), 0, derive_stream(0, "to", "k0"))
        assert False
    except ValueError:
        pass


def test_twisted_cubic_dimensions():
    """Curve of degree 3 in P^3: secants fill, tangents give a surface."""
    f = twisted_cubic()
    assert join_dimension(f, 1, derive_stream(0, "to", "x")) == (1,)
    assert join_dimension(f, 2, derive_stream(0, "to", "s2")) == (1, 3)
    assert tangent_join_dimension(f, derive_stream(0, "to", "t")) == 2
    # a curve carries no Gauss fiber (the reference's Gauss map of X), its
    # tangent developable a 1-dim one
    assert reference.gauss_fiber_dimension(f, derive_stream(0, "to", "g1")) == 0
    assert gauss_fiber_dimension(f, derive_stream(0, "to", "g2")) == 1


def test_line_has_degenerate_secants():
    # image is a line in P^3, so every join of points stays on it
    comps = tuple(Poly.monomial(1, (1,), c) for c in (1, 2, 3))
    f = PolyMap(1, 3, False, comps)
    assert join_dimension(f, 1, derive_stream(0, "to", "l1")) == (1,)
    assert join_dimension(f, 2, derive_stream(0, "to", "l2")) == (1, 1)
    assert join_dimension(f, 3, derive_stream(0, "to", "l3")) == (1, 1, 1)


def test_plane_gauss_fiber_is_full():
    # linear image: constant tangent plane, Gauss map contracts everything
    comps = (Poly.variable(2, 0), Poly.variable(2, 1),
             Poly.variable(2, 0) + Poly.variable(2, 1))
    f = PolyMap(2, 3, False, comps)
    assert reference.gauss_fiber_dimension(f, derive_stream(0, "to", "pl")) == 2


def test_double_point_rejection_on_small_domains():
    """Joins of a one-parameter family certify even though tiny coordinate
    bounds keep redrawing coincident source points."""
    ents = {e.name: e for e in catalog()}
    f = ents["veronese_conic"].map
    assert join_dimension(f, 2, derive_stream(0, "to", "cc")) == (1, 3)


def test_double_cover_never_certifies_wrong():
    """Even powers glue u and -u to one point, so tiny-bound joins collapse.
    Staggered in-batch bounds force either the true dimension or a loud
    failure; a silently accepted collapsed rank would show up here as 1."""
    comps = (Poly.monomial(1, (2,), 1), Poly.monomial(1, (4,), 1))
    f = PolyMap(1, 2, False, comps)
    failures = []
    for seed in range(30):
        try:
            assert join_dimension(f, 2, derive_stream(seed, "to", "dbl"), trials=5) == (1, 2)
        except CertificationError:
            failures.append(seed)
    # seeds 6 and 22 land a batch's draws on collapsed pairs u, -u: neither
    # equal nor, for this affine map, proportional, so no block is redrawn
    assert failures == [6, 22]


def test_immersed_graph_dimension_random():
    rng = random.Random(13)
    for _ in range(5):
        n = rng.randint(1, 3)
        extra = rng.randint(1, 2)
        comps = [Poly.variable(n, i) for i in range(n)]
        for _ in range(extra):
            e = tuple(rng.randint(0, 2) for _ in range(n))
            if sum(e) < 2:
                e = (2,) + (0,) * (n - 1)
            comps.append(Poly.monomial(n, e, rng.randint(1, 3)))
        f = PolyMap(n, n + extra, False, tuple(comps))
        stream = derive_stream(0, "to", "im", n, extra, _)
        assert join_dimension(f, 1, stream) == (n,)


def test_terracini_consistency_on_small_charts():
    """Symbolic join Jacobian rank vs the jet-based rank, at random pairs.  The
    twisted cubic has filling secants, the quadric cone degenerate ones;
    the identity must hold either way."""
    assert terracini_consistency_check(twisted_cubic(), derive_stream(0, "to", "terr"))
    cone = PolyMap(2, 4, False, (
        Poly.variable(2, 0),
        Poly.variable(2, 1),
        Poly.monomial(2, (2, 0), 1),
        Poly.monomial(2, (1, 1), 1),
    ))
    assert terracini_consistency_check(cone, derive_stream(1, "to", "terr"))


PROPERTY = settings(max_examples=60, deadline=None, database=None)


@PROPERTY
@given(st.integers(1, 2), st.booleans(), st.integers(1, 4), st.integers(1, 5),
       st.integers(0, 2 ** 32))
def test_join_sources_are_distinct_points(p, homogeneous, k, bound, seed):
    """Every pair of source blocks of a join sample names two points of the
    variety: distinct, and not proportional when the map is homogeneous
    (only for p = 2, since a homogeneous map of one variable has a point as
    its image).  The scalings are drawn at the nominal bound."""
    homogeneous = homogeneous and p == 2
    f = PolyMap(p, p, homogeneous, tuple(Poly.variable(p, j) for j in range(p)))
    pt = oracles._join_point(f, k, bound, random.Random(seed))
    blocks = [pt[i * p:(i + 1) * p] for i in range(k)]
    assert len(pt) == k * p + k and all(pt) and all(abs(x) <= bound for x in pt[k * p:])
    for i, w in enumerate(blocks):
        for b in blocks[:i]:
            assert w != b
            if homogeneous:
                assert w[0] * b[1] != w[1] * b[0]


@st.composite
def poly_maps(draw):
    """Small affine or projective maps with rational or Gaussian-rational
    coefficients.  An affine map starts with its coordinates, as a graph
    chart does, so that its image is rarely linear."""
    projective = draw(st.booleans())
    gaussian = draw(st.booleans())
    p = draw(st.integers(1, 3))
    deg = draw(st.integers(1 if projective else 2, 3))
    part = st.builds(Rational, st.integers(-6, 6), st.integers(1, 4))
    coeff = (st.builds(Scalar, part, part) if gaussian else st.builds(Scalar, part)).filter(bool)
    comps = [] if projective else [Poly.variable(p, j) for j in range(p)]
    for _ in range(draw(st.integers(2, 6))):
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            e = [0] * p
            # a term of degree deg, or of degree 2 to deg for an affine map
            for j in draw(st.lists(st.integers(0, p - 1), min_size=deg if projective else 2,
                                   max_size=deg)):
                e[j] += 1
            terms[tuple(e)] = draw(coeff)
        comps.append(Poly(p, terms))
    return PolyMap(p, len(comps), projective, tuple(comps))


def _every_sample(module, oracle, f, *args, stream):
    """The values of all samples of module.oracle(f, *args, stream), drawn at
    small bounds where special points are common, with certification
    stubbed out: five draws at bound 1, then bounds 2, 3 and 5."""
    log = []

    def certified(sample, stream, trials, what="value"):
        log.extend(sample(b, stream) for b in (1, 1, 1, 1, 1, 2, 3, 5))
        return log[0]

    with mock.patch.object(module, "certified_value", certified):
        getattr(module, oracle)(f, *args, stream)
    return log


@PROPERTY
@given(poly_maps(), st.lists(st.integers(-3, 3), min_size=3, max_size=3))
def test_lift_jet_is_the_scaled_derivatives(f, point):
    p = f.domain_dim
    u = point[:p]
    lift = f.lift()
    jet = lift_jet(f, u, 3)
    scales = [lcm(*[x.denominator for c in q.terms.values() for x in (c.re, c.im)])
              for q in lift]
    for r in range(4):
        for idx in combinations_with_replacement(range(p), r):
            vec = jet.get(idx, [0] * len(lift))
            # Gaussian integers: an int whenever the imaginary part is 0
            assert all(type(x) is int or (type(x) is Gaussian and x.imag) for x in vec)
            for i, q in enumerate(lift):
                for j in idx:
                    q = q.diff(j)
                want = Scalar(scales[i]) * q.evaluate([Scalar(x) for x in u])
                got = Scalar(vec[i].real, vec[i].imag)
                assert got == want, (idx, i)


def test_lift_jet_keeps_one_plan_per_order():
    """One map asked at interleaved orders and points gives the jets of a
    fresh copy of it, key order included, for a real and a Gaussian map."""
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    real = PolyMap(2, 3, False, ((x * x).scale(Scalar("1/3")) + y, x * y * y,
                                 y.scale(Scalar("-5/2"))))
    gaussian = PolyMap(2, 3, True, ((x * x).scale(Scalar(1, "1/2")), x * y,
                                    (y * y).scale(Scalar(0, 3))))
    for f, types in ((real, {int}), (gaussian, {int, Gaussian})):
        for u in ([1, 2], [0, -3], [2, 5]):
            for order in (3, 1, 2):
                got = lift_jet(f, u, order)
                fresh = PolyMap(f.domain_dim, f.codomain_dim, f.projective, f.components)
                assert list(got.items()) == list(lift_jet(fresh, u, order).items())
                assert {type(x) for vec in got.values() for x in vec} == types
        assert sorted(f.jet_plans) == [1, 2, 3]


@PROPERTY
@given(poly_maps(), st.integers(0, 10 ** 6))
def test_jet_oracles_match_the_symbolic_reference(f, seed):
    """Every sample value, not only the certified one: equal ranks at the
    same points, special ones included.  The tau Gauss oracle is compared
    with the reference's Gauss map of the symbolic tangent map."""
    def both(name, *args, ref_map=f):
        got = _every_sample(oracles, name, f, *args, stream=derive_stream(seed, name, *args))
        want = _every_sample(reference, name, ref_map, *args, stream=derive_stream(seed, name, *args))
        assert got == want, name

    for k in (1, 2, 3):
        both("join_dimension", k)
    both("tangent_join_dimension")
    both("gauss_fiber_dimension", ref_map=build_tangent_map(f))


@st.composite
def frames(draw):
    """Generators of a span in C^m on Z or Z[i], each a combination of at most
    m random vectors, so that dependent, repeated and zero generators are
    common."""
    m, g = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    part = st.integers(-3, 3)
    entry = st.builds(gauss, part, part) if draw(st.booleans()) else part
    basis = [draw(st.lists(entry, min_size=m, max_size=m))
             for _ in range(draw(st.integers(1, m)))]
    return [integer_combination([(draw(entry), vec) for vec in basis]) for _ in range(g)]


@PROPERTY
@given(frames())
def test_frame_elimination_gives_the_basis_and_the_annihilator(gens):
    """One elimination of [F | Id]: its pivots below g are F's own, and its
    other rows' identity parts span the annihilator of the generators."""
    m = len(gens[0])
    basis, ann = oracles._frame(gens)
    assert basis == eliminate(list(zip(*gens)))[0]
    assert len(ann) == m - len(basis)
    assert IntegerSpan(m, ann) == IntegerSpan(m, gens).perp()


def gaussian_graph() -> PolyMap:
    """(u1, u2, u3) -> (u, i u1^2 + u2 u3, (1 + i/2) u1 u2 + u3^3, u1 u3^2 / 3):
    a graph chart with Gaussian-rational coefficients."""
    u = [Poly.variable(3, j) for j in range(3)]
    return PolyMap(3, 6, False, (*u, (u[0] * u[0]).scale(Scalar(0, 1)) + u[1] * u[2],
                                 (u[0] * u[1]).scale(Scalar(1, "1/2")) + u[2] * u[2] * u[2],
                                 (u[0] * u[2] * u[2]).scale(Scalar("1/3"))))


def test_frame_kernels_match_the_closure_kernels(entries):
    """The tangent rank and the Gauss sample read off the jet's keys equal
    the closure kernels at every sample point, at bounds 1-5, where special
    points are common: on a rank variety, a Severi variety, a Grassmannian,
    a singular cone and a map with Gaussian coefficients."""
    maps = [entries[name].map for name in
            ("rank_4_4_2", "severi_H", "grassmannian_2_6", "cone_twisted_cubic")]
    for f in maps + [gaussian_graph()]:
        stream = derive_stream(0, "to", "kernels", f.domain_dim)
        for bound in range(1, 6):
            for _ in range(4):
                pt = fully_nonzero_vector(1 + 2 * f.domain_dim, bound, stream)
                assert oracles._tangent_rank(f, pt) == reference.closure_tangent_rank(f, pt)
                assert oracles._gauss_sample(f, pt) == reference.closure_gauss_sample(f, pt)
