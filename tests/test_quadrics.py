import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadrics_reference as reference
from linalg_reference import add, kernel, mul_vec, rank, scale, subspace, transpose, zero
from secantgeo import linalg, quadrics
from secantgeo.defects import vertex
from secantgeo.genericity import CertificationError, derive_stream, nonzero_vector, random_vector
from secantgeo.jets import chart_at, second_fundamental_form
from secantgeo.linalg import IntegerSpan, Matrix, gauss, integer_values, scalar_values
from secantgeo.polymaps import Poly, PolyMap
from secantgeo.quadrics import (QuadricSystem, _max_rank_in_span, _profile_at, contract,
                                generic_image, generic_vector, higher_secant_dimension,
                                hypersurface_projection, integer_quadric,
                                is_tangentially_degenerate, quadric_system,
                                quadric_system_from_json, quadric_system_to_json, rank_profile,
                                secant_dimension, singular_locus, tangential_dimension)
from secantgeo.scalars import ZERO, Rational, Scalar
from secantgeo.zoo import veronese


def sym(n, entries):
    """Rows of the symmetric matrix of an upper-triangular {(i, j): value}
    dict."""
    rows = [[ZERO] * n for _ in range(n)]
    for (i, j), v in entries.items():
        rows[i][j] = rows[i][j] + Scalar(v)
        if i != j:
            rows[j][i] = rows[j][i] + Scalar(v)
    return rows


def severi_r_system():
    # u1^2, u2^2, u1 u2 on C^2
    return quadric_system(2, [
        sym(2, {(0, 0): 1}),
        sym(2, {(1, 1): 1}),
        sym(2, {(0, 1): "1/2"}),
    ])


def test_contraction_and_image():
    s = severi_r_system()
    v = [1, 2]
    c = contract(s, v)
    assert [scalar_values(r, s.den) for r in c] == \
        [list(r) for r in reference.scalar_contraction(s, v).data]
    assert reference.apply_ii(s, v) == [Scalar(1), Scalar(4), Scalar(2)]
    assert IntegerSpan(s.a, list(zip(*c))).dim == reference.ii_image(s, v).dim == 2


def test_annihilator_and_singular_locus():
    s = severi_r_system()
    v = [1, 2]
    point = _profile_at(s, v, derive_stream(0, "tq", "an"), 5)
    ann = point.annihilator
    assert ann.dim == 1
    q = reference.quadric_from_coefficients(s, scalar_values(ann.rows[0], 1))
    # the annihilator quadric is singular exactly at multiples of v
    assert not any(mul_vec(q, v))
    sl = singular_locus(s, [integer_quadric(s, ann.rows[0])])
    assert sl == point.singloc
    assert subspace(sl) == kernel(q)
    assert sl.dim == 1
    assert sl.contains(v)


def test_rank_profile_severi_r():
    s = severi_r_system()
    prof = rank_profile(s, derive_stream(0, "tq", "profile"))[0]
    assert prof.certified
    assert prof.a0 == 2
    assert prof.r == 1
    assert prof.dim_ker == 0
    assert prof.dim_ann == 1
    assert prof.dim_singloc == 1
    assert tangential_dimension(s, prof) == 4
    assert not is_tangentially_degenerate(s, prof)


def test_rank_profile_single_quadric():
    # one smooth quadric on C^3: a hypersurface, never counted degenerate
    s = quadric_system(3, [sym(3, {(0, 0): 1, (1, 1): 1, (2, 2): 1})])
    prof = rank_profile(s, derive_stream(0, "tq", "single"))[0]
    assert prof.a0 == 1
    assert prof.dim_ker == 2
    assert prof.dim_ann == 0
    assert prof.r == 0
    assert not is_tangentially_degenerate(s, prof)


def test_degenerate_pair_system():
    # x1 x3, x2 x3: kernel dim 1 is exactly what a = 2 allows on C^3, so
    # the system is not counted tangentially degenerate
    s = quadric_system(3, [
        sym(3, {(0, 2): "1/2"}),
        sym(3, {(1, 2): "1/2"}),
    ])
    prof = rank_profile(s, derive_stream(0, "tq", "pair"))[0]
    assert prof.a0 == 2
    assert prof.dim_ker == 1
    assert not is_tangentially_degenerate(s, prof)


def test_cylinder_system_is_degenerate():
    # severi R quadrics viewed on C^3: the extra coordinate never appears,
    # so every contraction kills e3 and the kernel exceeds n - a
    s = quadric_system(3, [
        sym(3, {(0, 0): 1}),
        sym(3, {(1, 1): 1}),
        sym(3, {(0, 1): "1/2"}),
    ])
    prof = rank_profile(s, derive_stream(0, "tq", "cyl"))[0]
    assert prof.a0 == 2
    assert prof.dim_ker == 1
    assert prof.dim_ker > max(0, s.n - s.a)
    assert is_tangentially_degenerate(s, prof)


def test_generic_vector_certified():
    s = severi_r_system()
    prof = rank_profile(s, derive_stream(0, "tq", "gv"))[0]
    point = generic_vector(s, prof, derive_stream(0, "tq", "gv", 1))
    c = reference.contraction(s, point.v)
    assert subspace(point.image) == reference.ii_image(s, point.v)
    assert subspace(point.kernel) == kernel(c)
    assert subspace(point.annihilator) == kernel(transpose(c))
    assert point.profile == (prof.a0, prof.r, prof.dim_ker, prof.dim_ann, prof.dim_singloc)


def test_generic_image_draws_as_generic_vector_on_full_profile_draws():
    """Where every draw has the whole certified profile, both rules accept
    the same v with the same image and leave the stream in the same state."""
    s = severi_r_system()
    prof = rank_profile(s, derive_stream(0, "tq", "gi"))[0]
    for label in range(6):
        ours, theirs = derive_stream(0, "tq", "gi", label), derive_stream(0, "tq", "gi", label)
        for _ in range(4):
            v, image = generic_image(s, prof, ours)
            point = generic_vector(s, prof, theirs)
            assert (v, image) == (point.v, point.image)
            assert ours.getstate() == theirs.getstate()


def test_each_profile_draw_contracts_once(monkeypatch):
    draws, contractions = [], []
    draw, contract_once = quadrics._profile_at, quadrics.contract
    monkeypatch.setattr(quadrics, "_profile_at", lambda *a: draws.append(1) or draw(*a))
    monkeypatch.setattr(quadrics, "contract",
                        lambda *a: contractions.append(1) or contract_once(*a))
    s = severi_r_system()
    prof = rank_profile(s, derive_stream(0, "tq", "once"))[0]
    generic_vector(s, prof, derive_stream(0, "tq", "once", 1))
    assert len(draws) >= 6
    assert len(contractions) == len(draws)


def test_profile_and_vertex_draws_build_no_scalar(monkeypatch):
    """A rank_profile call and a vertex call stay on the integer form: no
    draw converts a contraction or a span back to Scalars."""
    built = []
    for mod in (linalg, quadrics):
        convert = mod.scalar_values
        monkeypatch.setattr(mod, "scalar_values",
                            lambda *a, convert=convert: built.append(a) or convert(*a))
    s = severi_r_system()
    prof = rank_profile(s, derive_stream(0, "tq", "noscalar"))[0]
    vertex(s, prof, derive_stream(0, "tq", "noscalar", 1))
    assert built == []
    # the count sees a conversion where one is made
    quadric_system_to_json(s)
    assert built


def test_each_profile_draw_reduces_the_contraction_once(monkeypatch):
    """II_v(T) and Ann(v) both come from one elimination of the transposed
    integer contraction."""
    seen = []
    eliminate = linalg.eliminate
    monkeypatch.setattr(linalg, "eliminate", lambda rows, reduce=False:
                        seen.append([list(r) for r in rows]) or eliminate(rows, reduce))
    s = severi_r_system()
    stream = derive_stream(0, "tq", "rref")
    for v in ([1, 0], [1, 1], [2, -3]):
        seen.clear()
        _profile_at(s, v, stream, 5)
        assert seen.count([list(r) for r in zip(*contract(s, v))]) == 1


def test_annihilator_rank_search_combinations():
    """Members, sum and difference only for up to two quadrics, and every
    random combination with the drawn coefficients as drawn."""
    # q0 = diag(0, 2, 2, 1) and q1 = diag(1, -1, 1, 0), on the integer form:
    # rank 3 each and at q0 -+ 2 q1, while q0 -+ q1 reach rank 4
    q0 = [x if i % 5 == 0 else 0 for i, x in enumerate([0, 2, 2, 1] * 4)]
    q1 = [x if i % 5 == 0 else 0 for i, x in enumerate([1, -1, 1, 0] * 4)]
    assert _max_rank_in_span(4, [q0, q1], random.Random(0), 0, 4) == 4
    assert _max_rank_in_span(4, [q0, q1, q0], random.Random(0), 0, 4) == 0
    seen = set()
    for seed in range(40):
        c = nonzero_vector(3, 4, random.Random(seed))
        want = int(c[0] + c[1] != 0)
        assert _max_rank_in_span(1, [[1], [1], [0]], random.Random(seed), 1, 1) == want
        seen.add(want)
    assert seen == {0, 1}


def test_annihilator_rank_search_stops_at_its_ceiling(monkeypatch):
    """Once a combination reaches the ceiling no further one is eliminated,
    yet every coefficient vector is still drawn: r and the stream state
    after the search equal the uncapped search's."""
    eliminated = []
    eliminate = quadrics.eliminate
    monkeypatch.setattr(quadrics, "eliminate",
                        lambda rows, *a: eliminated.append(1) or eliminate(rows, *a))
    # q0 = diag(1, 1, 1, 0) reaches the ceiling 3 at the first combination
    q0 = [x if i % 5 == 0 else 0 for i, x in enumerate([1, 1, 1, 0] * 4)]
    q1 = [x if i % 5 == 0 else 0 for i, x in enumerate([0, 1, 0, 0] * 4)]
    runs = {}
    for ceiling in (3, 5):  # n - dim singloc, and one no rank reaches
        eliminated.clear()
        stream = random.Random(7)
        r = _max_rank_in_span(4, [q0, q1], stream, 5, ceiling)
        runs[ceiling] = (r, len(eliminated), stream.getstate())
    assert runs[3][0] == runs[5][0] == 3
    assert runs[3][1] == 1 and runs[5][1] == 4 + 5
    assert runs[3][2] == runs[5][2]


def test_generic_vector_unmatchable_profile_is_certification_error():
    s = severi_r_system()
    prof = rank_profile(s, derive_stream(0, "tq", "gv"))[0]
    # II_v has rank at most a, so no vector realizes a0 = a + 1
    impossible = prof._replace(a0=s.a + 1)
    with pytest.raises(CertificationError):
        generic_vector(s, impossible, derive_stream(0, "tq", "gv", 2))


def test_hypersurface_projection_keeps_a0():
    # four quadrics with a0 = 2: a generic combination of three of them
    # makes tau a hypersurface
    s = quadric_system(2, [sym(2, {(0, 0): 1}), sym(2, {(1, 1): 1}),
                           sym(2, {(0, 1): 1}), sym(2, {(0, 0): 1, (1, 1): 1})])
    prof = rank_profile(s, derive_stream(0, "tq", "hp"))[0]
    assert prof.a0 == 2
    t, tprof = hypersurface_projection(s, prof, derive_stream(0, "tq", "hp", 1))
    assert (t.n, t.a) == (2, 3)
    assert tprof.a0 == t.a - 1
    # a claimed a0 the projection cannot keep is a certification failure
    with pytest.raises(CertificationError):
        hypersurface_projection(s, prof._replace(a0=1), derive_stream(0, "tq", "hp", 2))


def test_projected_quadrics_are_the_drawn_combinations():
    """The projected quadrics over the parent's den are, by the Scalar
    reference, the combinations of the parent's quadrics with the rows the
    projection draws: the first full-rank (a0 + 1) x a draw from [-5, 5].
    On a real system, on one with Gaussian entries, and on v2(P^4)."""
    c, i = Scalar(1, 1), Scalar(0, 1)
    ent = veronese(2, 4)
    cases = [
        quadric_system(2, [sym(2, {(0, 0): 1}), sym(2, {(1, 1): 1}),
                           sym(2, {(0, 1): 1}), sym(2, {(0, 0): 1, (1, 1): 1})]),
        quadric_system(2, [sym(2, {(0, 0): 1}), sym(2, {(1, 1): "1/3"}),
                           [[ZERO, c], [c, ZERO]], [[Scalar(1), ZERO], [ZERO, i]]]),
        second_fundamental_form(chart_at(ent.map, list(ent.base_point), 3)),
    ]
    for k, s in enumerate(cases):
        prof = rank_profile(s, derive_stream(0, "tq", "hpref", k))[0]
        stream = derive_stream(0, "tq", "hpref", k, 1)
        replay = random.Random()
        replay.setstate(stream.getstate())
        t, _ = hypersurface_projection(s, prof, stream)
        rows = prof.a0 + 1
        while True:
            m = [[Scalar(replay.randint(-5, 5)) for _ in range(s.a)] for _ in range(rows)]
            if rank(Matrix(rows, s.a, m)) == rows:
                break
        assert (t.n, t.a, t.den) == (s.n, rows, s.den)
        assert reference.scalar_quadrics(t) == \
            tuple(reference.quadric_from_coefficients(s, row) for row in m)


def test_input_json_of_catalog_charts_is_pinned(charted):
    """The bytes `quadric_system_to_json` writes for every catalog chart and
    v2(P^4), the benchmark's quadric_system inputs among them."""
    ent = veronese(2, 4)
    systems = [(name, s) for name, (_, _, s, _) in sorted(charted.items())]
    systems.append((ent.name, second_fundamental_form(chart_at(ent.map, list(ent.base_point), 3))))
    h = hashlib.sha256()
    for name, s in systems:
        h.update(json.dumps([name, quadric_system_to_json(s)]).encode() + b"\n")
    assert h.hexdigest() == "6b9eaa391884f67c960865f76cbbb30073e36b8f950fb929cfbe2dff03538935"


def test_secant_dimension_branches():
    # quadratic graph: third form vanishes, sigma = n + a0; the 2 keeps the
    # contraction nonsingular at every nonzero rational point
    q1 = Poly.monomial(2, (2, 0), 1) + Poly.monomial(2, (0, 2), 2)
    q2 = Poly.monomial(2, (1, 1), 1)
    comps = [Poly.variable(2, i) for i in range(2)] + [q1, q2]
    f = PolyMap(2, 4, False, tuple(comps))
    jet = chart_at(f, [0, 0], 3)
    s = second_fundamental_form(jet)
    prof = rank_profile(s, derive_stream(0, "tq", "sd"))[0]
    sd = secant_dimension(s, jet, prof, derive_stream(0, "tq", "sd", 1))
    assert sd.third_form_vanishes
    assert sd.dimension == 2 + prof.a0
    # cubic normal part: the III branch adds one
    comps3 = [Poly.variable(1, 0), Poly.monomial(1, (2,), 1), Poly.monomial(1, (3,), 1)]
    g = PolyMap(1, 3, False, tuple(comps3))
    jg = chart_at(g, [0], 3)
    sg = second_fundamental_form(jg)
    pg = rank_profile(sg, derive_stream(0, "tq", "sd3"))[0]
    sd3 = secant_dimension(sg, jg, pg, derive_stream(0, "tq", "sd3", 1))
    assert not sd3.third_form_vanishes
    assert sd3.dimension == 1 + pg.a0 + 1


def test_higher_secant_dimension():
    # the full quadric system of the plane: sigma_3 fills P^5
    comps = [Poly.variable(2, i) for i in range(2)]
    comps += [Poly.monomial(2, (2, 0), 1), Poly.monomial(2, (1, 1), 1), Poly.monomial(2, (0, 2), 1)]
    f = PolyMap(2, 5, False, tuple(comps))
    jet = chart_at(f, [0, 0], 3)
    s = second_fundamental_form(jet)
    prof = rank_profile(s, derive_stream(0, "tq", "hs"))[0]
    stream = derive_stream(0, "tq", "hs", 2)
    state = stream.getstate()
    # sigma_2's span is the certified a0: nothing is drawn for it
    (h2,) = higher_secant_dimension(s, 2, prof, stream)
    assert stream.getstate() == state
    assert h2.k == 2
    assert h2.dimension == 2 + prof.a0
    assert h2.bound == 2 + prof.a0
    hs = higher_secant_dimension(s, 3, prof, derive_stream(0, "tq", "hs", 3))
    assert hs[0] == h2
    h3 = hs[1]
    assert h3.k == 3
    assert h3.dimension == 5
    assert h3.bound == 2 + 2 * prof.a0
    assert h3.dimension <= h3.bound


def test_system_json_roundtrip():
    s = severi_r_system()
    obj = quadric_system_to_json(s)
    t = quadric_system_from_json(obj)
    assert t.n == s.n and t.a == s.a
    assert t.quadrics == s.quadrics and t.den == s.den
    try:
        quadric_system_from_json({"kind": "quadric_system", "n": 2, "a": 1,
                                  "quadrics": [[["1", "0"], ["1", "0"]]]})
        assert False
    except (ValueError, KeyError, TypeError):
        pass


def test_asymmetric_quadric_is_rejected():
    s = severi_r_system()
    bad = list(s.quadrics[2])
    bad[1] += 1
    with pytest.raises(ValueError, match="quadric 1 is not symmetric"):
        QuadricSystem(2, 2, (s.quadrics[0], bad), s.den)
    with pytest.raises(ValueError, match="quadric size != n"):
        QuadricSystem(2, 1, (s.quadrics[0][:3],), s.den)


def test_independent_flag():
    s = severi_r_system()
    assert s.independent()
    dup = QuadricSystem(2, 2, (s.quadrics[0], s.quadrics[0]), s.den)
    assert not dup.independent()


# -- the integer form against the Scalar reference --------------------------

PROPERTY = settings(max_examples=120, deadline=None, database=None)


def entries(real):
    """Zero often; otherwise p/q with a small denominator, and complex
    unless real."""
    part = st.builds(Rational, st.integers(-9, 9), st.integers(1, 6))
    nonzero = st.builds(Scalar, part) if real else st.builds(Scalar, part, part)
    return st.one_of(st.just(ZERO), nonzero)


@st.composite
def systems(draw):
    """Small systems over Q or Q(i) with zero quadrics and quadrics that are
    combinations of earlier ones."""
    real = draw(st.booleans())
    n, a = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    quads = []
    for _ in range(a):
        kind = draw(st.sampled_from(["zero", "dependent", "random"] if quads else
                                    ["zero", "random"]))
        if kind == "zero":
            quads.append(zero(n, n))
        elif kind == "dependent":
            coeffs = draw(st.lists(entries(real), min_size=len(quads), max_size=len(quads)))
            acc = zero(n, n)
            for c, q in zip(coeffs, quads):
                acc = add(acc, scale(q, c))
            quads.append(acc)
        else:
            rows = [[ZERO] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1):
                    rows[i][j] = rows[j][i] = draw(entries(real))
            quads.append(Matrix(n, n, rows))
    return quadric_system(n, [q.data for q in quads])


@PROPERTY
@given(systems(), st.integers(0, 2**32), st.integers(1, 6), st.booleans())
def test_profile_matches_scalar_reference(s, seed, bound, gaussian):
    """Every field of the point, and the stream state after it, equal the
    Scalar route's at the same draws, for v in Z^n and in Z[i]^n."""
    draws = random.Random(seed)
    v = nonzero_vector(s.n, bound, draws)
    if gaussian:
        v = [gauss(x, y) for x, y in zip(v, random_vector(s.n, bound, draws))]
    ours, theirs = random.Random(seed), random.Random(seed)
    point = _profile_at(s, v, ours, 3)
    want = reference.profile_at(s, scalar_values(v, 1), theirs, 3)
    assert reference.scalar_point(s, point) == want
    assert ours.getstate() == theirs.getstate()


@PROPERTY
@given(systems(), st.data())
def test_combinations_match_scalar_reference(s, data):
    coeffs = data.draw(st.lists(entries(data.draw(st.booleans())), min_size=s.a,
                                max_size=s.a))
    if s.a:
        ints = integer_values(coeffs)[0]
        combined = QuadricSystem(s.n, 1, (integer_quadric(s, ints),), s.den)
        assert reference.scalar_quadrics(combined)[0] == \
            reference.quadric_from_coefficients(s, scalar_values(ints, 1))
    # v real and complex, on real and Gaussian systems: ints and Gaussians
    # in both factors of `contract`
    for real in (True, False):
        v = data.draw(st.lists(entries(real), min_size=s.n, max_size=s.n))
        assert reference.contraction(s, v) == reference.scalar_contraction(s, v)
    flat = Matrix(s.a, s.n * s.n, [[x for r in q.data for x in r]
                                   for q in reference.scalar_quadrics(s)])
    assert s.independent() == (rank(flat) == s.a)


@PROPERTY
@given(systems(), st.integers(0, 2**32))
def test_generic_image_matches_scalar_reference(s, seed):
    """The v, the image and the stream state after `generic_image` equal the
    Scalar route's at the same draws."""
    try:
        prof = rank_profile(s, random.Random(seed))[0]
    except CertificationError:
        return
    ours, theirs = random.Random(seed), random.Random(seed)
    v, image = generic_image(s, prof, ours)
    assert (v, subspace(image)) == reference.generic_image(s, prof, theirs)
    assert ours.getstate() == theirs.getstate()
