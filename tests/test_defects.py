import dataclasses
import functools
import importlib.util
import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import defects_reference
import quadrics_reference
from defects_reference import ii_second_fundamental_form
from linalg_reference import add, identity, matmul, scale, subspace, transpose, zero
from quadrics_reference import scalar_point
from secantgeo import defects, derive_stream, quadrics
from secantgeo.defects import (
    DefectError,
    annihilator_matches_image_perp,
    clifford_action,
    clifford_relation_check,
    defect_report,
    fiber_contains_singloc_products,
    fiber_dimension_identity,
    kernel_in_singular_locus,
    quotient_frames,
    quotient_singular_locus_match,
    rank_restriction_check,
    so_membership_check,
    vertex,
    zak_bound_check,
)
from secantgeo.genericity import CertificationError, nonzero_vector
from secantgeo.jets import chart_at, second_fundamental_form
from secantgeo.linalg import Gaussian, IntegerSpan, Matrix, scalar_values
from secantgeo.oracles import gauss_fiber_dimension
from secantgeo.polymaps import polymap_to_json
from secantgeo.quadrics import (GenericPoint, QuadricSystem, _profile_at, contract,
                                higher_secant_dimension, integer_quadric, quadric_system,
                                quadric_system_to_json, rank_profile)
from secantgeo.report import AnalyzeOptions, analyze
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
    prof, points = rank_profile(s, derive_stream(0, "td", "pv"))
    vert = vertex(s, prof, points, derive_stream(0, "td", "pv", 1))
    assert vert.dim == 2
    perp = vert.perp()
    assert perp.dim == 0
    assert tuple(integer_quadric(s, row) for row in perp.rows) == ()


def test_vertex_of_single_quadric():
    s = quadric_system(3, [sym(3, {(0, 0): 1, (1, 2): "1/2"})])
    prof, points = rank_profile(s, derive_stream(0, "td", "sg"))
    vert = vertex(s, prof, points, derive_stream(0, "td", "sg", 1))
    assert vert.dim == 1


def test_vertex_of_severi_system(charted):
    s = charted["severi_R"][2]
    prof, points = rank_profile(s, derive_stream(0, "td", "vr"))
    vert = vertex(s, prof, points, derive_stream(0, "td", "vr", 1))
    assert vert.dim == 0
    # the whole system is then needed to cut out tau
    assert vert.perp().dim == s.a


# Small systems on which the vertex, when it drew its own points from bound 1
# and stopped after 3 unchanged images, stopped at a 1-dimensional span at
# some of the streams below: the first at Random(15), the second at
# Random(8) and Random(10).
STOPPED_ABOVE_THE_VERTEX = (
    QuadricSystem(3, 4, ([1, 1, 0, 1, 0, 0, 0, 0, 2], [0, 2, 1, 2, 1, 0, 1, 0, 0],
                         [-1, 0, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0, 0, 0, 0]), 1),
    QuadricSystem(2, 4, ([0, 0, 0, 1], [0, 0, 0, -1], [-2, 0, 0, 2], [0, 1, 1, -1]), 1),
)


@pytest.mark.parametrize("index", range(len(STOPPED_ABOVE_THE_VERTEX)))
def test_vertex_of_small_systems_on_12_streams(index):
    s = STOPPED_ABOVE_THE_VERTEX[index]
    prof, points = rank_profile(s, random.Random(3))
    assert [vertex(s, prof, points, random.Random(k)).dim for k in range(4, 16)] == [0] * 12


@pytest.mark.parametrize("name, seed", [("severi_C", 16), ("severi_C", 31), ("severi_C", 39),
                                        ("segre_3_3", 66)])
def test_smooth_entries_have_no_vertex_at_seeds_that_stopped_above_it(entries, name, seed):
    """Analyses that reported a vertex above 0, and so FAILed the Clifford
    fiber condition on a smooth variety, when the vertex drew its own
    points: as a poly_map and as a quadric system."""
    ent = entries[name]
    s = second_fundamental_form(chart_at(ent.map, list(ent.base_point), 3))
    for obj in (polymap_to_json(ent.map, base_point=ent.base_point), quadric_system_to_json(s)):
        rep = analyze(obj, AnalyzeOptions(seed=seed))
        assert rep.defects.vertex_dim == 0
        assert {v.name: v.status for v in rep.verdicts}["clifford_fiber_condition"] == "pass"


def test_gauss_fiber_of_cylinder():
    s = cylinder_system()
    point = rank_profile(s, derive_stream(0, "td", "cy"))[1][0]
    fib = point.fiber
    assert fib.dim == 1
    assert fiber_dimension_identity(s, point)


def test_ii_second_fundamental_form_residues(charted):
    s = charted["severi_R"][2]
    point = rank_profile(s, derive_stream(0, "td", "ii"))[1][0]
    # II(v, v) is by definition inside II_v(T)
    point = scalar_point(s, point)
    residue, vanished = ii_second_fundamental_form(s, point, point.v, point.v)
    assert vanished
    assert residue == [Scalar(0)] * s.a
    # a direction transverse to the contact locus escapes
    e1 = [Scalar(1), Scalar(0)]
    _, vanished = ii_second_fundamental_form(s, point, e1, e1)
    assert not vanished


def clifford_data(s, point):
    """The quotient frames at the point and phi_w for w = v and the kernel
    rows, as `defect_report` builds them."""
    frames = quotient_frames(s, point)
    return frames, [clifford_action(s, frames, w) for w in (point.v, *point.kernel.rows)]


def test_clifford_on_division_algebra_systems(charted):
    """Anticommutation on ker II_v with one sign, module dims 2, 4, 8."""
    want_dims = {"severi_C": (1, 2), "severi_H": (3, 4), "severi_O": (7, 8)}
    signs = set()
    for name, (kdim, mdim) in want_dims.items():
        s = charted[name][2]
        prof, points = rank_profile(s, derive_stream(0, "td", "cl", name))
        verdict = defect_report(s, prof, points, s.n + prof.a0,
                                derive_stream(0, "td", "cl", name, 1)).clifford_verdict
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


def test_defect_report_builds_each_phi_once(monkeypatch, charted):
    """One `clifford_action` per w in (v, *ker II_v): the relation and the
    so check read the same phis, 2, 4 and 8 of them on the C, H and O
    systems."""
    calls, action = [], defects.clifford_action
    monkeypatch.setattr(defects, "clifford_action", lambda *a: calls.append(1) or action(*a))
    for name, want in (("severi_C", 2), ("severi_H", 4), ("severi_O", 8)):
        s = charted[name][2]
        prof, points = rank_profile(s, derive_stream(0, "td", "once", name))
        calls.clear()
        rep = defect_report(s, prof, points, s.n + prof.a0,
                            derive_stream(0, "td", "once", name, 1))
        assert rep.clifford_verdict.relation_holds and rep.so_membership is True
        assert len(calls) == 1 + prof.dim_ker == want


def test_clifford_not_applicable_without_hypersurface_tau():
    # a0 = a: tau has the expected dimension, no forced representation
    s = quadric_system(2, [sym(2, {(0, 1): "1/2"})])
    prof, points = rank_profile(s, derive_stream(0, "td", "na"))
    verdict = defect_report(s, prof, points, s.n + prof.a0,
                            derive_stream(0, "td", "na", 1)).clifford_verdict
    assert not verdict.applicable


def test_clifford_action_rejects_inadmissible_direction(charted):
    s = charted["severi_R"][2]
    point = rank_profile(s, derive_stream(0, "td", "ad"))[1][0]
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
        s = charted[name][2]
        point = rank_profile(s, derive_stream(0, "td", "so", name))[1][0]
        assert so_membership_check(s, point, *clifford_data(s, point))
    single = quadric_system(3, [sym(3, {(0, 0): 1, (1, 2): "1/2"})])
    point = rank_profile(single, derive_stream(0, "td", "so1"))[1][0]
    try:
        so_membership_check(single, point, *clifford_data(single, point))
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
        point = rank_profile(s, derive_stream(0, "td", "st", idx))[1][0]
        assert kernel_in_singular_locus(s, point)
        assert annihilator_matches_image_perp(s, point)
        assert fiber_contains_singloc_products(s, point)
        assert fiber_dimension_identity(s, point)
        assert quotient_singular_locus_match(s, point)


def test_annihilator_check_reads_the_quadrics(charted):
    """A span of the dimension of Ann(v) holding a quadric not singular at v
    fails the check, on both routes, and so does a proper part of Ann(v)."""
    for idx, s in enumerate((cylinder_system(), charted["severi_R"][2])):
        point = rank_profile(s, derive_stream(0, "td", "ann", idx))[1][0]
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
    """The fiber of the Gauss map of tau against the two lower bounds the
    report checks, delta_tau + 1 (always) and delta_tau + 2 (smooth
    source)."""
    ent, _, s, prof = charted["severi_R"]
    fiber = gauss_fiber_dimension(ent.map, derive_stream(0, "td", "tg"))
    delta_tau = s.n - prof.a0
    assert fiber == 2
    assert delta_tau == 0
    assert fiber >= delta_tau + 1
    assert fiber >= delta_tau + 2
    # the singular cone meets the weak bound only
    ent, _, s, prof = charted["cone_twisted_cubic"]
    fiber = gauss_fiber_dimension(ent.map, derive_stream(0, "td", "tg2"))
    delta_tau = s.n - prof.a0
    assert fiber == 2
    assert delta_tau == 1
    assert fiber >= delta_tau + 1
    assert not fiber >= delta_tau + 2


def test_defect_report_on_severi(charted):
    ent, _, s, _ = charted["severi_C"]
    prof, points = rank_profile(s, derive_stream(0, "td", "dr"))
    rep = defect_report(s, prof, points, ent.n + prof.a0, derive_stream(0, "td", "dr", 1))
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
    canonical Scalar subspace, each integer-form quadric of the minimal
    subsystem to its Scalar matrix."""
    mini = rep.minimal_subsystem
    if isinstance(mini, IntegerSpan):
        last, den = mini.last, s.den
        den = den * last if type(last) is int else (den * last[0], den * last[1])
        quads = tuple(Matrix(s.n, s.n, [scalar_values(integer_quadric(s, row), den)[i:i + s.n]
                                        for i in range(0, s.n * s.n, s.n)])
                      for row in mini.rows)
        coeffs = subspace(mini)
    else:
        quads, coeffs = mini.quadrics, mini.coefficients
    return (rep.profile, rep.vertex_dim, rep.fiber_dim, coeffs, mini.dim, quads,
            _values(rep.clifford_verdict), rep.so_membership,
            _values(rep.rank_restriction), _values(rep.zak_bound))


PROPERTY_CHECKS = ("kernel_in_singular_locus", "annihilator_matches_image_perp",
                   "fiber_contains_singloc_products", "fiber_dimension_identity",
                   "quotient_singular_locus_match")


def compare_with_reference(s):
    """Every DefectReport field, vertex (from the whole batch and from its
    first point alone, so that it draws), higher_secant_dimension, and at
    the first two batch points and at twice the second one (a non-primitive
    v) the five property checks and so-membership, and in the hypersurface
    case, the only one where `defect_report` builds the Clifford verdict
    (outside it the report's not-applicable verdict is compared above), the
    Clifford verdict, against the Scalar route.  Returns our defect report,
    or None when the profile does not certify."""
    try:
        prof, batch = rank_profile(s, random.Random(3))
    except CertificationError:
        return None
    sigma = s.n + prof.a0
    got = _same(lambda st: defect_report(s, prof, batch, sigma, st),
                lambda st: _report_fields(
                    s, defects_reference.defect_report(s, prof, batch, sigma, st)),
                lambda rep: _report_fields(s, rep))
    for first in (batch[:1], batch):  # vert is the whole batch's
        vert = _same(lambda st: vertex(s, prof, first, st),
                     lambda st: defects_reference.vertex(s, prof, first, st), subspace)[1]
    for k_max in (3, 4):
        _same(lambda st: higher_secant_dimension(s, k_max, prof, st),
              lambda st: quadrics_reference.higher_secant_dimension(s, k_max, prof, st))
    points = batch[:2] + [_profile_at(s, [2 * x for x in batch[1].v], random.Random(11), 3)]
    for point in points:
        ref_point = scalar_point(s, point)
        for name in PROPERTY_CHECKS:
            ours, theirs = getattr(defects, name), getattr(defects_reference, name)
            assert _outcome(ours, s, point) == _outcome(theirs, s, ref_point), name
        assert _outcome(lambda: so_membership_check(s, point, *clifford_data(s, point))) == \
            _outcome(defects_reference.so_membership_check, s, ref_point)
        if prof.a0 == s.a - 1 and isinstance(vert, IntegerSpan):
            assert _outcome(lambda: _values(clifford_relation_check(
                s, point, vert.perp(), *clifford_data(s, point)))) == _outcome(
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

def full_profile_vertex(s, prof, points, stream):
    """`vertex` keeping a fresh draw only where v realizes the whole
    certified profile, on the same schedule: any other v gets a zero
    contraction, whose image has dimension 0, not a0 (the batch reaches 0
    before any draw when a0 = 0)."""
    want = tuple(prof[:5])

    def full(s, v):
        point = _profile_at(s, v, random.Random(0), 5)
        return point.contraction if point.profile == want else [[0] * s.n] * s.a

    with mock.patch.object(defects, "contract", full):
        return vertex(s, prof, points, stream)


# The quadrics of a 3 x 4 system on x1..x3, and x4^2 on a fifth normal
# direction e5: every image II_v(T) with v4 != 0 contains e5, so the vertex
# is span{e5}, the batch never intersects to 0, and `vertex` draws.  The
# first draw of Random(17), v = (2, 0, 6, -2) at bound 6, has dim II_v(T) =
# a0 = 4, but its annihilator quadric has rank 1 and a 3-dimensional
# kernel, where the certified profile has r = 2 and dim singloc = 2.
DIVERGENT = QuadricSystem(4, 5, (
    [0, 0, 2, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 2, 0, 0, 2, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 2, 0, 1, 2, 0, 0, 0, 0, 0, 0],
    [0] * 15 + [1]), 1)


def test_draw_of_a0_without_the_full_profile():
    """`vertex` and its Scalar reference keep the draw that the
    full-profile rule skips, make the same draws, and give the full-profile
    route's vertex."""
    s = DIVERGENT
    prof, points = rank_profile(s, random.Random(0))
    assert (prof.a0, prof.r, prof.dim_ann, prof.dim_singloc) == (4, 2, 1, 2)
    e5 = IntegerSpan(5, [[0, 0, 0, 0, 1]])
    assert functools.reduce(IntegerSpan.intersect, [p.image for p in points]) == e5
    first = nonzero_vector(s.n, len(points) + 1, random.Random(17))
    assert first == [2, 0, 6, -2]
    assert _profile_at(s, first, random.Random(0), 5).profile == (4, 1, 0, 1, 3)
    kept = quadrics_reference.generic_image(s, prof, random.Random(17), len(points) + 1)
    assert kept[0] == tuple(first)

    got = _same(lambda st: vertex(s, prof, points, st),
                lambda st: defects_reference.vertex(s, prof, points, st), subspace, seed=17)
    assert got[1] == e5
    assert full_profile_vertex(s, prof, points, random.Random(17)) == got[1]


def test_draw_logs_tell_the_acceptance_rules_apart():
    """On DIVERGENT at Random(17) both rules draw one vector per bound,
    len(points) + 1, + 2, ..., with nothing drawn between them, and give
    the same vertex.  The a0 rule keeps the first draw and stops after 3
    unchanged images; the full-profile rule skips it and needs a 4th, so
    its log extends the a0 rule's."""
    s = DIVERGENT
    prof, points = rank_profile(s, random.Random(0))
    a0, full, replay = LoggedRandom(17), LoggedRandom(17), LoggedRandom(17)
    assert vertex(s, prof, points, a0) == full_profile_vertex(s, prof, points, full)
    for bound in range(len(points) + 1, len(points) + 5):
        nonzero_vector(s.n, bound, replay)
    assert full.log == replay.log
    assert a0.log == full.log[:len(a0.log)] and len(a0.log) < len(full.log)


@REFERENCE
@given(systems(), st.integers(0, 2**16))
def test_vertex_is_the_full_profile_vertex(s, seed):
    """Accepting fresh images on a0 alone finds the vertex that images at
    points of the whole profile find, as a span."""
    try:
        prof, points = rank_profile(s, random.Random(3))
    except CertificationError:
        return
    got = _outcome(vertex, s, prof, points, random.Random(seed))
    want = _outcome(full_profile_vertex, s, prof, points, random.Random(seed))
    if got[0] == want[0] == "value":
        assert got[1] == want[1]


@REFERENCE
@given(systems(), st.integers(0, 2**16))
def test_vertex_is_the_perp_of_the_summed_annihilators(s, seed):
    """The vertex is (sum of Ann(v))^perp over 3a independent draws at
    bound 50 with dim II_v(T) = a0: the intersection of their images, taken
    in N*, with no stop rule."""
    try:
        prof, points = rank_profile(s, random.Random(3))
    except CertificationError:
        return
    got = _outcome(vertex, s, prof, points, random.Random(seed))
    stream, anns = random.Random(seed + 1), []
    for _ in range(3 * s.a):
        image = IntegerSpan(s.a, list(zip(*contract(s, nonzero_vector(s.n, 50, stream)))))
        if image.dim == prof.a0:
            anns += image.perp().rows
    if got[0] == "value" and anns:
        assert got[1] == IntegerSpan(s.a, anns).perp()


def test_vertex_draws_skip_the_annihilator(monkeypatch, entries):
    """A vertex call builds no Ann(v), singular locus or r search: nothing
    but the contraction and its image.  The third-form verdict draws
    nothing of its own: it reads the profile's batch."""
    built = []
    for name in ("_profile_at", "singular_locus", "_max_rank_in_span", "eliminate"):
        orig = getattr(quadrics, name)
        monkeypatch.setattr(quadrics, name, lambda *a, orig=orig, name=name, **k:
                            built.append(name) or orig(*a, **k))
    s = quadric_system(2, [sym(2, {(0, 0): 1}), sym(2, {(1, 1): 1}), sym(2, {(0, 1): "1/2"})])
    prof, points = rank_profile(s, derive_stream(0, "td", "skip"))
    built.clear()
    vertex(s, prof, points[:1], derive_stream(0, "td", "skip", 1))
    assert built == []

    ent = entries["severi_R"]
    rep = analyze(polymap_to_json(ent.map, base_point=ent.base_point))
    assert {v.name: v.status for v in rep.verdicts}["third_form_vanishing"] == "pass"
    # the count sees the full-profile draws of the analysis
    assert {"_profile_at", "singular_locus", "_max_rank_in_span"} <= set(built)
