from secantgeo import derive_stream
from secantgeo.defects import (
    DefectError,
    annihilator_matches_image_perp,
    clifford_action,
    clifford_relation_check,
    defect_report,
    fiber_contains_singloc_products,
    fiber_dimension_identity,
    gauss_fiber,
    ii_second_fundamental_form,
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
from secantgeo.linalg import Matrix
from secantgeo.quadrics import QuadricSystem, generic_vector, rank_profile
from secantgeo.scalars import Scalar


def sym(n, entries):
    rows = [[Scalar(0)] * n for _ in range(n)]
    for (i, j), val in entries.items():
        rows[i][j] = Scalar(val)
        rows[j][i] = Scalar(val)
    return Matrix(n, n, rows)


def pair_system():
    # x1 x3, x2 x3 on C^3
    return QuadricSystem(3, 2, (sym(3, {(0, 2): "1/2"}), sym(3, {(1, 2): "1/2"})))


def cylinder_system():
    # x1^2, x2^2, x1 x2 on C^3: x3 never appears
    return QuadricSystem(3, 3, (
        sym(3, {(0, 0): 1}),
        sym(3, {(1, 1): 1}),
        sym(3, {(0, 1): "1/2"}),
    ))


def test_vertex_of_pair_system():
    # II_v(T) is all of C^2 at generic v, so the swept variety has a full
    # vertex and no quadric is needed to cut it out
    s = pair_system()
    prof = rank_profile(s, derive_stream(0, "td", "pv"))
    vert = vertex(s, prof, derive_stream(0, "td", "pv", 1))
    assert vert.dim == 2
    mini = minimal_subsystem(s, vert)
    assert mini.dim == 0
    assert mini.quadrics == ()


def test_vertex_of_single_quadric():
    s = QuadricSystem(3, 1, (sym(3, {(0, 0): 1, (1, 2): "1/2"}),))
    prof = rank_profile(s, derive_stream(0, "td", "sg"))
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
    prof = rank_profile(s, derive_stream(0, "td", "cy"))
    point = generic_vector(s, prof, derive_stream(0, "td", "cy", 1))
    fib = gauss_fiber(s, point)
    assert fib.dim == 1
    assert fiber_dimension_identity(s, point)


def test_ii_second_fundamental_form_residues(charted):
    _, _, s, prof = charted["severi_R"]
    point = generic_vector(s, prof, derive_stream(0, "td", "ii"))
    # II(v, v) is by definition inside II_v(T)
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
        verdict = clifford_relation_check(s, prof, point, vertex(s, prof, stream))
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
    s = QuadricSystem(2, 1, (sym(2, {(0, 1): "1/2"}),))
    prof = rank_profile(s, derive_stream(0, "td", "na"))
    stream = derive_stream(0, "td", "na", 1)
    point = generic_vector(s, prof, stream)
    verdict = clifford_relation_check(s, prof, point, vertex(s, prof, stream))
    assert not verdict.applicable


def test_clifford_action_rejects_inadmissible_direction(charted):
    _, _, s, prof = charted["severi_R"]
    point = generic_vector(s, prof, derive_stream(0, "td", "ad"))
    v = point.v
    frames = quotient_frames(s, point)
    phi_v = clifford_action(s, frames, v)
    assert phi_v == Matrix.identity(len(frames.tangent_reps))
    # II_w(T) of a transverse w is not contained in II_v(T)
    w = [v[0] + Scalar(1), v[1] + Scalar(2)]
    if list(w) != list(v):
        try:
            clifford_action(s, frames, w)
            assert False
        except DefectError:
            pass


def test_so_membership(charted):
    for name in ("severi_R", "severi_C"):
        _, _, s, prof = charted[name]
        assert so_membership_check(s, generic_vector(s, prof, derive_stream(0, "td", "so", name)))
    single = QuadricSystem(3, 1, (sym(3, {(0, 0): 1, (1, 2): "1/2"}),))
    prof = rank_profile(single, derive_stream(0, "td", "so1"))
    try:
        so_membership_check(single, generic_vector(single, prof, derive_stream(0, "td", "so2")))
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
    prof = rank_profile(s, derive_stream(0, "td", "rn"))
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
        prof = rank_profile(s, derive_stream(0, "td", "st", idx))
        point = generic_vector(s, prof, derive_stream(0, "td", "st", idx, 1))
        assert kernel_in_singular_locus(s, point)
        assert annihilator_matches_image_perp(s, point)
        assert fiber_contains_singloc_products(s, point)
        assert fiber_dimension_identity(s, point)
        assert quotient_singular_locus_match(s, point)


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
