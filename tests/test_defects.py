import dataclasses
import functools
import importlib.util
import random
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import defects_reference
import quadrics_reference
from defects_reference import ii_second_fundamental_form
from linalg_reference import add, identity, matmul, scale, subspace, transpose, zero
from quadrics_reference import scalar_point
from secantgeo import defects, derive_stream, quadrics, report
from secantgeo.defects import (
    DefectError,
    annihilator_matches_image_perp,
    clifford_action,
    clifford_relation_check,
    defect_report,
    fiber_contains_singloc_products,
    fiber_dimension_identity,
    kernel_in_singular_locus,
    minimal_subsystem,
    quotient_frames,
    quotient_singular_locus_match,
    rank_restriction_check,
    so_membership_check,
    tau_gauss_bound_check,
    vertex,
    zak_bound_check,
)
from secantgeo.genericity import CertificationError, nonzero_vector
from secantgeo.jets import chart_at, second_fundamental_form
from secantgeo.linalg import Gaussian, IntegerSpan, Matrix, scalar_values
from secantgeo.polymaps import polymap_to_json
from secantgeo.quadrics import (GenericPoint, QuadricSystem, _profile_at, generic_image,
                                generic_vector, higher_secant_dimension, quadric_system,
                                rank_profile)
from secantgeo.report import analyze
from secantgeo.scalars import ONE, ZERO, Scalar
from secantgeo.zoo import catalog
from test_quadrics import systems


def sym(n, entries):
    rows = [[Scalar(0)] * n for _ in range(n)]
    for (i, j), val in entries.items():
        rows[i][j] = Scalar(val)
        rows[j][i] = Scalar(val)
    return rows


def pair_system():
    # x1 x3, x2 x3 on C^3
    return quadric_system(3, [sym(3, {(0, 2): "1/2"}), sym(3, {(1, 2): "1/2"})])


def cylinder_system():
    # x1^2, x2^2, x1 x2 on C^3: x3 never appears
    return quadric_system(3, [
        sym(3, {(0, 0): 1}),
        sym(3, {(1, 1): 1}),
        sym(3, {(0, 1): "1/2"}),
    ])


def test_vertex_of_pair_system():
    # II_v(T) is all of C^2 at generic v, so the swept variety has a full
    # vertex and no quadric is needed to cut it out
    s = pair_system()
    prof = rank_profile(s, derive_stream(0, "td", "pv"))[0]
    vert = vertex(s, prof, derive_stream(0, "td", "pv", 1))
    assert vert.dim == 2
    mini = minimal_subsystem(s, vert)
    assert mini.dim == 0
    assert mini.quadrics == ()


def test_vertex_of_single_quadric():
    s = quadric_system(3, [sym(3, {(0, 0): 1, (1, 2): "1/2"})])
    prof = rank_profile(s, derive_stream(0, "td", "sg"))[0]
    vert = vertex(s, prof, derive_stream(0, "td", "sg", 1))
    assert vert.dim == 1


def test_vertex_of_severi_system(charted):
    _, _, s, prof = charted["severi_R"]
    vert = vertex(s, prof, derive_stream(0, "td", "vr"))
    assert vert.dim == 0
    # the whole system is then needed to cut out tau
    assert minimal_subsystem(s, vert).dim == s.a


def test_gauss_fiber_of_cylinder():
    s = cylinder_system()
    prof = rank_profile(s, derive_stream(0, "td", "cy"))[0]
    point = generic_vector(s, prof, derive_stream(0, "td", "cy", 1))
    fib = point.fiber
    assert fib.dim == 1
    assert fiber_dimension_identity(s, point)


def test_ii_second_fundamental_form_residues(charted):
    _, _, s, prof = charted["severi_R"]
    point = generic_vector(s, prof, derive_stream(0, "td", "ii"))
    # II(v, v) is by definition inside II_v(T)
    point = scalar_point(s, point)
    residue, vanished = ii_second_fundamental_form(s, point, point.v, point.v)
    assert vanished
    assert residue == [Scalar(0)] * s.a
    # a direction transverse to the contact locus escapes
    e1 = [Scalar(1), Scalar(0)]
    _, vanished = ii_second_fundamental_form(s, point, e1, e1)
    assert not vanished


def test_clifford_on_division_algebra_systems(charted):
    """Anticommutation on ker II_v with one sign, module dims 2, 4, 8."""
    want_dims = {"severi_C": (1, 2), "severi_H": (3, 4), "severi_O": (7, 8)}
    signs = set()
    for name, (kdim, mdim) in want_dims.items():
        _, _, s, prof = charted[name]
        stream = derive_stream(0, "td", "cl", name)
        point = generic_vector(s, prof, stream)
        mini = minimal_subsystem(s, vertex(s, prof, stream))
        verdict = clifford_relation_check(s, prof, point, mini, quotient_frames(s, point))
        assert verdict.applicable
        assert verdict.fiber_condition_ok
        assert verdict.proportionality_ok
        assert verdict.phi_v_is_identity
        assert verdict.relation_holds
        assert verdict.kernel_orthogonal_to_v
        assert verdict.kernel_dim == kdim
        assert verdict.module_dim == mdim
        assert verdict.sign in (-1, 1)
        signs.add(verdict.sign)
    assert len(signs) == 1


def test_clifford_not_applicable_without_hypersurface_tau():
    # a0 = a: tau has the expected dimension, no forced representation
    s = quadric_system(2, [sym(2, {(0, 1): "1/2"})])
    prof = rank_profile(s, derive_stream(0, "td", "na"))[0]
    stream = derive_stream(0, "td", "na", 1)
    point = generic_vector(s, prof, stream)
    mini = minimal_subsystem(s, vertex(s, prof, stream))
    verdict = clifford_relation_check(s, prof, point, mini, quotient_frames(s, point))
    assert not verdict.applicable


def test_clifford_action_rejects_inadmissible_direction(charted):
    _, _, s, prof = charted["severi_R"]
    point = generic_vector(s, prof, derive_stream(0, "td", "ad"))
    v = point.v
    frames = quotient_frames(s, point)
    m, den = clifford_action(s, frames, v)
    k = len(frames.tangent_reps)
    assert Matrix(k, k, [scalar_values(r, den) for r in m]) == identity(k)
    # II_w(T) of a transverse w is not contained in II_v(T)
    w = [v[0] + 1, v[1] + 2]
    if list(w) != list(v):
        try:
            clifford_action(s, frames, w)
            assert False
        except DefectError:
            pass


def test_so_membership(charted):
    for name in ("severi_R", "severi_C"):
        _, _, s, prof = charted[name]
        point = generic_vector(s, prof, derive_stream(0, "td", "so", name))
        assert so_membership_check(s, point, quotient_frames(s, point))
    single = quadric_system(3, [sym(3, {(0, 0): 1, (1, 2): "1/2"})])
    prof = rank_profile(single, derive_stream(0, "td", "so1"))[0]
    point = generic_vector(single, prof, derive_stream(0, "td", "so2"))
    try:
        so_membership_check(single, point, quotient_frames(single, point))
        assert False
    except DefectError:
        pass


def test_rank_restriction_and_zak_on_severi(charted):
    # both bounds hold with equality on every division-algebra system
    for name in ("severi_R", "severi_C", "severi_H", "severi_O"):
        ent, _, s, prof = charted[name]
        sigma = ent.n + prof.a0  # degenerate: vanishing refined cubic
        rr = rank_restriction_check(s, prof, sigma)
        assert rr.applicable
        assert rr.holds
        assert rr.r == rr.lower == s.n - s.a + 2
        zb = zak_bound_check(s, prof, sigma, 0)
        assert zb.applicable
        assert zb.holds
        assert zb.equality


def test_rank_restriction_not_applicable_when_sigma_fills():
    s = cylinder_system()
    prof = rank_profile(s, derive_stream(0, "td", "rn"))[0]
    # sigma filling its ambient space leaves nothing to restrict
    rr = rank_restriction_check(s, prof, min(2 * s.n + 1, s.n + s.a))
    assert not rr.applicable
    zb = zak_bound_check(s, prof, min(2 * s.n + 1, s.n + s.a), 0)
    assert not zb.applicable


def test_structural_identities_at_generic_points(charted):
    systems = [cylinder_system(), pair_system()]
    for name in ("severi_R", "severi_C"):
        systems.append(charted[name][2])
    for idx, s in enumerate(systems):
        prof = rank_profile(s, derive_stream(0, "td", "st", idx))[0]
        point = generic_vector(s, prof, derive_stream(0, "td", "st", idx, 1))
        assert kernel_in_singular_locus(s, point)
        assert annihilator_matches_image_perp(s, point)
        assert fiber_contains_singloc_products(s, point)
        assert fiber_dimension_identity(s, point)
        assert quotient_singular_locus_match(s, point)


def test_annihilator_check_reads_the_quadrics(charted):
    """A span of the dimension of Ann(v) holding a quadric not singular at v
    fails the check, on both routes, and so does a proper part of Ann(v)."""
    for idx, s in enumerate((cylinder_system(), charted["severi_R"][2])):
        prof = rank_profile(s, derive_stream(0, "td", "ann", idx))[0]
        point = generic_vector(s, prof, derive_stream(0, "td", "ann", idx, 1))
        ann = point.annihilator
        assert ann.dim >= 1 and annihilator_matches_image_perp(s, point)
        unit = next(e for e in ([int(i == j) for j in range(s.a)] for i in range(s.a))
                    if not ann.contains(e))
        wrong = IntegerSpan(s.a, ann.rows[1:] + [unit])
        assert wrong.dim == ann.dim
        bad = _with_annihilator(point, wrong)
        assert not annihilator_matches_image_perp(s, bad)
        assert not defects_reference.annihilator_matches_image_perp(s, scalar_point(s, bad))
        part = _with_annihilator(point, IntegerSpan(s.a, ann.rows[1:]))
        assert not annihilator_matches_image_perp(s, part)


def _with_annihilator(point, ann):
    """The point with Ann(v) replaced by `ann`."""
    return GenericPoint(point.v, point.contraction, point.image, ann, point.singloc, point.r)


def test_tau_gauss_bounds(charted):
    ent, _, s, prof = charted["severi_R"]
    tg = tau_gauss_bound_check(ent.map, s, prof, derive_stream(0, "td", "tg"))
    assert tg.fiber_dim == 2
    assert tg.delta_tau == 0
    assert tg.weak_bound_holds
    assert tg.smooth_bound_holds
    # the singular cone meets the weak bound only
    ent, _, s, prof = charted["cone_twisted_cubic"]
    tg = tau_gauss_bound_check(ent.map, s, prof, derive_stream(0, "td", "tg2"))
    assert tg.fiber_dim == 2
    assert tg.delta_tau == 1
    assert tg.weak_bound_holds
    assert not tg.smooth_bound_holds


def test_defect_report_on_severi(charted):
    ent, _, s, prof = charted["severi_C"]
    rep = defect_report(s, prof, ent.n + prof.a0, derive_stream(0, "td", "dr"))
    assert rep.profile == prof
    assert rep.vertex_dim == 0
    assert rep.fiber_dim == 0
    assert rep.minimal_subsystem.dim == s.a
    assert rep.clifford_verdict.relation_holds
    assert rep.so_membership is True
    assert rep.rank_restriction.holds
    assert rep.zak_bound.equality


# -- the integer route against the Scalar reference --------------------------

REFERENCE = settings(max_examples=40, deadline=None, database=None)

# Severi systems and the Gaussian-rational ones of scripts/regen_golden.py:
# they reach the Clifford branch, and the latter the pair format
SEVERI = ("severi_R", "severi_C", "severi_H")
GAUSSIAN = ("severi_C", "segre_3_3")


@functools.lru_cache(maxsize=None)
def base_system(name: str, gaussian: bool) -> QuadricSystem:
    ent = {e.name: e for e in catalog()}[name]
    if gaussian:
        spec = importlib.util.spec_from_file_location(
            "regen_golden", Path(__file__).resolve().parents[1] / "scripts" / "regen_golden.py")
        regen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(regen)
        return regen.complex_system(ent)
    return second_fundamental_form(chart_at(ent.map, list(ent.base_point), 3))


@st.composite
def changed_systems(draw):
    """A base system under random unimodular changes of coordinates A on T
    and B on N, over Z or Z[i]: q'^mu = sum_nu B[mu][nu] A^T q^nu A."""
    name, gaussian = draw(st.sampled_from([(n, False) for n in SEVERI] +
                                          [(n, True) for n in GAUSSIAN]))
    s = base_system(name, gaussian)
    im = st.integers(-2, 2) if draw(st.booleans()) else st.just(0)
    entry = st.builds(Scalar, st.integers(-2, 2), im)

    def unimodular(m):
        # unit lower times unit upper triangular: determinant 1
        low = Matrix(m, m, [[ONE if i == j else draw(entry) if j < i else ZERO
                             for j in range(m)] for i in range(m)])
        up = Matrix(m, m, [[ONE if i == j else draw(entry) if j > i else ZERO
                            for j in range(m)] for i in range(m)])
        return matmul(low, up)

    a, b = unimodular(s.n), unimodular(s.a)
    moved = [matmul(transpose(a), matmul(q, a)) for q in quadrics_reference.scalar_quadrics(s)]
    quads = []
    for row in b.data:
        acc = zero(s.n, s.n)
        for c, q in zip(row, moved):
            acc = add(acc, scale(q, c))
        quads.append(acc)
    return quadric_system(s.n, [q.data for q in quads])


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except Exception as e:  # the two routes must fail alike
        return "raises", type(e).__name__, str(e)


class LoggedRandom(random.Random):
    """A stream that logs each getrandbits(k) it serves as (k, value).  Every
    draw of the package calls getrandbits, directly or through randint, so
    two routes made the same draws exactly when their logs are equal; equal
    states count only the 32-bit words used, which draws at bound 1 and
    bound 2 can share."""

    def __init__(self, seed):
        self.log = []
        super().__init__(seed)

    def getrandbits(self, k):
        x = super().getrandbits(k)
        self.log.append((k, x))
        return x


def _same(ours, theirs, convert=lambda x: x, seed=7):
    """Run both routes at equal fresh streams: equal outcomes, ours
    converted explicitly, and the same draws."""
    s1, s2 = LoggedRandom(seed), LoggedRandom(seed)
    got, want = _outcome(ours, s1), _outcome(theirs, s2)
    assert (got[0], convert(got[1])) == want if got[0] == "value" else got == want
    assert s1.log == s2.log and s1.getstate() == s2.getstate()
    return got


def _values(record) -> tuple:
    """The field values of a package record (a NamedTuple) or of a reference
    one (a dataclass)."""
    return tuple(record) if isinstance(record, tuple) else dataclasses.astuple(record)


def _report_fields(s, rep):
    """Every DefectReport field, the integer ones converted: each span to its
    canonical Scalar subspace, each integer-form quadric to its Scalar matrix."""
    mini = rep.minimal_subsystem
    if isinstance(mini.coefficients, IntegerSpan):
        last, den = mini.coefficients.last, s.den
        den = den * last if type(last) is int else (den * last[0], den * last[1])
        quads = tuple(Matrix(s.n, s.n, [scalar_values(q, den)[i:i + s.n]
                                        for i in range(0, s.n * s.n, s.n)])
                      for q in mini.quadrics)
        coeffs = subspace(mini.coefficients)
    else:
        quads, coeffs = mini.quadrics, mini.coefficients
    return (rep.profile, rep.vertex_dim, rep.fiber_dim, coeffs, mini.dim, quads,
            _values(rep.clifford_verdict), rep.so_membership,
            _values(rep.rank_restriction), _values(rep.zak_bound))


PROPERTY_CHECKS = ("kernel_in_singular_locus", "annihilator_matches_image_perp",
                   "fiber_contains_singloc_products", "fiber_dimension_identity",
                   "quotient_singular_locus_match")


def compare_with_reference(s):
    """Every DefectReport field, vertex, higher_secant_dimension, and at two
    generic points and at twice the second one (a non-primitive v) the
    five property checks, so-membership and the Clifford verdict, against
    the Scalar route.  Returns our defect report, or None when the profile
    does not certify."""
    try:
        prof = rank_profile(s, random.Random(3))[0]
    except CertificationError:
        return None
    sigma = s.n + prof.a0
    got = _same(lambda st: defect_report(s, prof, sigma, st),
                lambda st: _report_fields(s, defects_reference.defect_report(s, prof, sigma, st)),
                lambda rep: _report_fields(s, rep))
    vert = _same(lambda st: vertex(s, prof, st), lambda st: defects_reference.vertex(s, prof, st),
                 subspace)[1]
    for k_max in (3, 4):
        _same(lambda st: higher_secant_dimension(s, k_max, prof, st),
              lambda st: quadrics_reference.higher_secant_dimension(s, k_max, prof, st))
    stream, points = random.Random(11), []
    try:
        points += [generic_vector(s, prof, stream) for _ in range(2)]
        points.append(_profile_at(s, [2 * x for x in points[-1].v], stream, 3))
    except CertificationError:
        pass
    for point in points:
        ref_point = scalar_point(s, point)
        for name in PROPERTY_CHECKS:
            ours, theirs = getattr(defects, name), getattr(defects_reference, name)
            assert _outcome(ours, s, point) == _outcome(theirs, s, ref_point), name
        assert _outcome(lambda: so_membership_check(s, point, quotient_frames(s, point))) == \
            _outcome(defects_reference.so_membership_check, s, ref_point)
        if isinstance(vert, IntegerSpan):
            assert _outcome(lambda: _values(clifford_relation_check(
                s, prof, point, minimal_subsystem(s, vert), quotient_frames(s, point)))) == _outcome(
                lambda: _values(defects_reference.clifford_relation_check(
                    s, prof, ref_point, subspace(vert))))
    return got[1] if got[0] == "value" else None


@REFERENCE
@given(systems())
def test_defect_route_matches_reference_on_random_systems(s):
    compare_with_reference(s)


@REFERENCE
@given(changed_systems())
def test_defect_route_matches_reference_on_changed_severi_systems(s):
    compare_with_reference(s)


def test_reference_comparison_reaches_the_clifford_branch():
    """The Gaussian severi_C system passes every Clifford check, on a kernel
    and on Gaussian entries."""
    s = base_system("severi_C", True)
    assert any(type(x) is Gaussian for q in s.quadrics for x in q)
    rep = compare_with_reference(s)
    cv = rep.clifford_verdict
    assert cv.applicable and cv.proportionality_ok and cv.relation_holds
    assert cv.kernel_dim == 1 and cv.module_dim == 2
    assert rep.so_membership is True


# -- vertex draws accepted on a0 ---------------------------------------------

def full_profile_vertex(s, prof, stream):
    """`vertex` with each image taken at a point of the whole certified
    profile, as `generic_vector` accepts it."""

    def full(*args):
        point = generic_vector(*args)
        return point.v, point.image

    with mock.patch.object(defects, "generic_image", full):
        return vertex(s, prof, stream)


# The first vector of Random(4), v = (-1, 0, -1), has dim II_v(T) = a0 = 3,
# but its annihilator quadric has rank 1 and a 2-dimensional kernel, where
# the certified profile has r = 2 and dim singloc = 1.
DIVERGENT = QuadricSystem(3, 4, ([0, 0, 2, 0, 0, 0, 2, 0, 0], [0, 0, 0, 0, -1, 0, 0, 0, 0],
                                 [0, 2, 0, 2, 0, 0, 0, 0, 1], [0, 0, 1, 0, 0, 2, 1, 2, 0]), 1)


def test_draw_of_a0_without_the_full_profile():
    """Both a0 routes accept the draw that the full-profile rule redraws,
    end at equal stream states, and give the full-profile route's vertex."""
    s = DIVERGENT
    prof = rank_profile(s, random.Random(3))[0]
    assert (prof.a0, prof.r, prof.dim_ann, prof.dim_singloc) == (3, 2, 1, 1)
    first = tuple(nonzero_vector(s.n, 1, random.Random(4)))
    assert first == (-1, 0, -1)
    assert _profile_at(s, first, random.Random(0), 5).profile == (3, 1, 0, 1, 2)
    assert generic_image(s, prof, random.Random(4))[0] == first
    assert quadrics_reference.generic_image(s, prof, random.Random(4))[0] == first
    assert generic_vector(s, prof, random.Random(4)).v != first

    got = _same(lambda st: vertex(s, prof, st), lambda st: defects_reference.vertex(s, prof, st),
                subspace, seed=4)
    assert full_profile_vertex(s, prof, random.Random(4)) == got[1]


def test_draw_logs_tell_the_acceptance_rules_apart():
    """On DIVERGENT at Random(4) the full-profile and the a0 vertex calls
    end at equal stream states and give the same vertex, but do not make
    the same draws: the logs, unlike the states, tell them apart."""
    s = DIVERGENT
    prof = rank_profile(s, random.Random(3))[0]
    a0, full = LoggedRandom(4), LoggedRandom(4)
    assert vertex(s, prof, a0) == full_profile_vertex(s, prof, full)
    assert a0.getstate() == full.getstate()
    assert a0.log != full.log


@REFERENCE
@given(systems(), st.integers(0, 2**16))
def test_vertex_is_the_full_profile_vertex(s, seed):
    """Accepting images on a0 alone finds the vertex that images at points
    of the whole profile find, as a span.  Both routes stop after 3
    unchanged images, and each draw starts again at coordinate bound 1, so
    on some streams either one stops early, at a span above the vertex;
    none of the derandomized examples here does."""
    try:
        prof = rank_profile(s, random.Random(3))[0]
    except CertificationError:
        return
    got = _outcome(vertex, s, prof, random.Random(seed))
    want = _outcome(full_profile_vertex, s, prof, random.Random(seed))
    if got[0] == want[0] == "value":
        assert got[1] == want[1]


def test_vertex_and_third_form_draws_skip_the_annihilator(monkeypatch, entries):
    """A vertex call and the five third-form draws build no Ann(v), singular
    locus or r search: nothing but the contraction and its image."""
    built = []
    for name in ("_profile_at", "singular_locus", "_max_rank_in_span", "eliminate"):
        orig = getattr(quadrics, name)
        monkeypatch.setattr(quadrics, name, lambda *a, orig=orig, name=name, **k:
                            built.append(name) or orig(*a, **k))
    s = quadric_system(2, [sym(2, {(0, 0): 1}), sym(2, {(1, 1): 1}), sym(2, {(0, 1): "1/2"})])
    prof = rank_profile(s, derive_stream(0, "td", "skip"))[0]
    built.clear()
    vertex(s, prof, derive_stream(0, "td", "skip", 1))
    assert built == []

    draws, draw = [], quadrics.generic_image

    def counted(*args):
        mark = len(built)
        out = draw(*args)
        draws.append(built[mark:])
        return out

    monkeypatch.setattr(report, "generic_image", counted)
    ent = entries["severi_R"]
    rep = analyze(polymap_to_json(ent.map, base_point=ent.base_point))
    assert draws == [[]] * 5
    assert {v.name: v.status for v in rep.verdicts}["third_form_vanishing"] == "pass"
    # the count sees the full-profile draws of the other verdicts
    assert {"_profile_at", "singular_locus", "_max_rank_in_span"} <= set(built)
