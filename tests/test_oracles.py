import random

from secantgeo import derive_stream
from secantgeo.genericity import CertificationError
from secantgeo.oracles import (
    build_join_map,
    build_tangent_map,
    gauss_fiber_dimension,
    join_dimension,
    tangent_join_dimension,
    terracini_consistency_check,
)
from secantgeo.polymaps import Poly, PolyMap
from secantgeo.scalars import Scalar
from secantgeo.zoo import catalog


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


def test_twisted_cubic_dimensions():
    """Curve of degree 3 in P^3: secants fill, tangents give a surface."""
    f = twisted_cubic()
    assert join_dimension(f, 1, derive_stream(0, "to", "x")) == 1
    assert join_dimension(f, 2, derive_stream(0, "to", "s2")) == 3
    assert tangent_join_dimension(f, derive_stream(0, "to", "t")) == 2
    # a curve carries no Gauss fiber, its tangent developable a 1-dim one
    assert gauss_fiber_dimension(f, derive_stream(0, "to", "g1")) == 0
    assert gauss_fiber_dimension(build_tangent_map(f), derive_stream(0, "to", "g2")) == 1


def test_line_has_degenerate_secants():
    # image is a line in P^3, so every join of points stays on it
    comps = tuple(Poly.monomial(1, (1,), c) for c in (1, 2, 3))
    f = PolyMap(1, 3, False, comps)
    assert join_dimension(f, 1, derive_stream(0, "to", "l1")) == 1
    assert join_dimension(f, 2, derive_stream(0, "to", "l2")) == 1
    assert join_dimension(f, 3, derive_stream(0, "to", "l3")) == 1


def test_plane_gauss_fiber_is_full():
    # linear image: constant tangent plane, Gauss map contracts everything
    comps = (Poly.variable(2, 0), Poly.variable(2, 1),
             Poly.variable(2, 0) + Poly.variable(2, 1))
    f = PolyMap(2, 3, False, comps)
    assert gauss_fiber_dimension(f, derive_stream(0, "to", "pl")) == 2


def test_double_point_rejection_on_small_domains():
    """Joins of a one-parameter family certify even though tiny coordinate
    bounds keep redrawing coincident source points."""
    ents = {e.name: e for e in catalog()}
    f = ents["veronese_conic"].map
    assert join_dimension(f, 2, derive_stream(0, "to", "cc")) == 3


def test_double_cover_never_certifies_wrong():
    """Even powers glue u and -u to one point, so tiny-bound joins collapse.
    Staggered in-batch bounds force either the true dimension or a loud
    failure; a silently accepted collapsed rank would show up here as 1."""
    comps = (Poly.monomial(1, (2,), 1), Poly.monomial(1, (4,), 1))
    f = PolyMap(1, 2, False, comps)
    failures = 0
    for seed in range(30):
        try:
            assert join_dimension(f, 2, derive_stream(seed, "to", "dbl"), trials=5) == 2
        except CertificationError:
            failures += 1
    # seed 22 lands every staggered draw on a collapsed pair
    assert failures == 1


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
        assert join_dimension(f, 1, stream) == n


def test_terracini_consistency_on_small_charts():
    """Join Jacobian rank vs tangent-span dimension, at random pairs.  The
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
