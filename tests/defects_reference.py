"""The defect route `secantgeo.defects` took before it worked on the integer
form: the vertex, Gauss fibers, quotient frames, Clifford actions and the
structural checks all built as Scalar matrices and subspaces, on the point
as `quadrics_reference.scalar_point` converts it.  Kept as the reference the
integer route is checked against, at the same draws, with
`ii_second_fundamental_form`, which only the tests use."""

from __future__ import annotations

from dataclasses import dataclass

from linalg_reference import (Subspace, _dot, add, col, complement_indices, contains_subspace,
                              identity, inverse, is_zero, kernel, matmul, mul_vec, scale,
                              solve_left, span_sum, transpose)
from linalg_reference import intersect_through_perps as intersect
from quadrics_reference import (ScalarPoint, contraction, generic_image, quadric_from_coefficients,
                                scalar_contraction, scalar_point, scalar_quadrics)
from secantgeo.defects import DefectError
from secantgeo.genericity import CertificationError
from secantgeo.linalg import Matrix
from secantgeo.quadrics import QuadricSystem, RankProfile
from secantgeo.scalars import ONE, ZERO, Scalar, _coerce


def vertex(s: QuadricSystem, profile: RankProfile, points, stream) -> Subspace:
    """Intersection of the Scalar images II_v(T) at the batch points, then
    at fresh v drawn at bounds len(points) + 1, + 2, ..., at most 64, each
    kept on a0 alone (`quadrics_reference.generic_image`); stabilized when 3
    kept draws in a row leave it unchanged, or final as soon as it is 0."""
    w = None
    for p in points:
        img = Subspace.from_vectors(s.a, transpose(scalar_contraction(s, p.v)).data)
        w = img if w is None else intersect([w, img])
        if not w.dim:
            return w
    stable = 0
    for i in range(1, 61):
        found = generic_image(s, profile, stream, min(len(points) + i, 64))
        if found is None:
            continue
        nxt = intersect([w, found[1]])
        if not nxt.dim:
            return nxt
        stable = stable + 1 if nxt == w else 0
        w = nxt
        if stable >= 3:
            return w
    raise CertificationError("vertex intersection did not stabilize")


@dataclass(frozen=True)
class MinimalSubsystem:
    """The subsystem II*(V^perp) cutting out the same tangential variety:
    coefficient vectors in N* together with the matching quadrics."""

    coefficients: Subspace
    quadrics: tuple[Matrix, ...]

    @property
    def dim(self) -> int:
        return self.coefficients.dim


def _basis_vec(n: int, i: int) -> list[Scalar]:
    v = [ZERO] * n
    v[i] = ONE
    return v


def minimal_subsystem(s: QuadricSystem, vert: Subspace) -> MinimalSubsystem:
    coeffs = vert.perp()
    quads = tuple(quadric_from_coefficients(s, row) for row in coeffs.basis)
    return MinimalSubsystem(coeffs, quads)


def gauss_fiber(s: QuadricSystem, point: ScalarPoint) -> Subspace:
    """F_v = II_v(singloc Ann(v)) inside N: the affine direction space of
    the Gauss fiber of the tangentially swept variety through [II(v,v)]."""
    c = point.contraction
    return Subspace.from_vectors(s.a, [mul_vec(c, w) for w in point.singloc.basis])


def ii_pairing(s: QuadricSystem, w1, w2) -> list[Scalar]:
    """II(w1, w2) as a vector in N."""
    w1 = [_coerce(x) for x in w1]
    w2 = [_coerce(x) for x in w2]
    return [_dot(mul_vec(q, w2), w1) for q in scalar_quadrics(s)]


def ii_second_fundamental_form(s: QuadricSystem, point: ScalarPoint, w1,
                               w2) -> tuple[list[Scalar], bool]:
    """II(w1, w2) reduced modulo II_v(T): the second fundamental form of the
    tangential image at [II(v,v)] evaluated on tangent lifts."""
    residue = point.image.reduce(ii_pairing(s, w1, w2))
    return residue, not any(residue)


@dataclass(frozen=True)
class QuotientFrames:
    """Coset representative frames for T / singloc(Ann v) and
    II_v(T) / F_v, plus the matrix of the induced isomorphism between
    them."""

    tangent_reps: tuple[int, ...]
    singloc: Subspace
    image: Subspace
    fiber: Subspace
    image_reps: Matrix  # rows: reduced representatives spanning the image quotient
    iso: Matrix  # matrix of v -> II_v on the quotients, invertible


def quotient_frames(s: QuadricSystem, point: ScalarPoint) -> QuotientFrames:
    sl, img = point.singloc, point.image
    fib = gauss_fiber(s, point)
    treps = tuple(complement_indices(sl))
    reduced = []
    for row in img.basis:
        red = fib.reduce(row)
        if any(red):
            cand = reduced + [red]
            if Subspace.from_vectors(s.a, cand).dim == len(cand):
                reduced.append(red)
    image_reps = Matrix(len(reduced), s.a, reduced)
    if len(treps) != len(reduced):
        raise DefectError(
            "tangent quotient (dim %d) and image quotient (dim %d) disagree"
            % (len(treps), len(reduced)))
    cols = [fib.reduce(col(point.contraction, j)) for j in treps]
    coords = solve_left(image_reps, Matrix(len(cols), s.a, cols))
    iso = transpose(coords)
    return QuotientFrames(treps, sl, img, fib, image_reps, iso)


def clifford_action(s: QuadricSystem, frames: QuotientFrames, w) -> Matrix:
    """The endomorphism phi_w of T / singloc(Ann v) obtained by following
    II_w and inverting the isomorphism induced by II_v (the frames at v).
    Requires II_w(T) inside II_v(T) and II_w(singloc) inside F_v; phi_v is
    the identity by construction."""
    cw = contraction(s, [_coerce(x) for x in w])
    for j in range(s.n):
        if not frames.image.contains(col(cw, j)):
            raise DefectError("II_w(T) escapes II_v(T); w is not admissible")
    for row in frames.singloc.basis:
        if not frames.fiber.contains(mul_vec(cw, row)):
            raise DefectError("II_w(singloc) escapes the Gauss fiber directions")
    cols = [frames.fiber.reduce(col(cw, j)) for j in frames.tangent_reps]
    coords = solve_left(frames.image_reps, Matrix(len(cols), s.a, cols))
    return matmul(inverse(frames.iso), transpose(coords))


@dataclass(frozen=True)
class CliffordVerdict:
    applicable: bool
    fiber_condition_ok: bool
    proportionality_ok: bool
    phi_v_is_identity: bool
    relation_holds: bool
    sign: int
    kernel_orthogonal_to_v: bool
    module_dim: int
    kernel_dim: int


def _restrict_quadric(q: Matrix, basis) -> Matrix:
    rows = []
    for u in basis:
        qu = mul_vec(q, u)
        rows.append([_dot(qu, w) for w in basis])
    return Matrix(len(rows), len(rows), rows)


def clifford_relation_check(s: QuadricSystem, profile: RankProfile, point: ScalarPoint,
                            vert: Subspace) -> CliffordVerdict:
    """At a certified-generic point v of a degenerate tangential
    hypersurface, with the vertex `vert`, verify the anticommutation relation

        phi_w1 phi_w2 + phi_w2 phi_w1 + 2 sign Q_v(w1, w2) Id = 0

    on pairs from ker II_v, with one global sign; Q_v is the common
    restriction of the minimal-subsystem quadrics to span{v} + ker II_v,
    normalized so Q_v(v, v) = 1.  phi_v must be the identity, and v must be
    Q_v-orthogonal to the kernel directions."""
    if profile.a0 != s.a - 1:
        return CliffordVerdict(False, False, False, False, False, 0, False,
                               s.n - profile.dim_singloc, profile.dim_ker)
    frames = quotient_frames(s, point)
    fiber_ok = frames.fiber.dim == vert.dim + 1
    mini = minimal_subsystem(s, vert)

    ker = point.kernel
    kspan = [point.v, *ker.basis]
    restrictions = [_restrict_quadric(q, kspan) for q in mini.quadrics]
    ref = next((m for m in restrictions if not is_zero(m)), None)
    prop_ok = ref is not None
    if prop_ok:
        for m in restrictions:
            if not _proportional(m, ref):
                prop_ok = False
                break
    if not prop_ok or not ref or not ref.at(0, 0):
        return CliffordVerdict(True, fiber_ok, False, False, False, 0, False,
                               s.n - frames.singloc.dim, ker.dim)
    qv = scale(ref, ONE / ref.at(0, 0))  # Q_v on (v, w_1, ..., w_k) coordinates

    ident = identity(len(frames.tangent_reps))
    phi_v_ok = clifford_action(s, frames, point.v) == ident
    phis = [clifford_action(s, frames, row) for row in ker.basis]

    sign = 0
    relation = True
    k = ker.dim
    for i in range(k):
        for j in range(i, k):
            anti = add(matmul(phis[i], phis[j]), matmul(phis[j], phis[i]))
            coeff = qv.at(i + 1, j + 1)
            if sign == 0:
                sign = _infer_sign(anti, coeff, ident)
                if sign == 0:
                    continue
            want = scale(ident, Scalar(-2 * sign) * coeff)
            if anti != want:
                relation = False
    if sign == 0:
        sign = 1
        relation = relation and all(
            is_zero(add(matmul(phis[i], phis[j]), matmul(phis[j], phis[i])))
            for i in range(k) for j in range(i, k))

    v_orth = all(not qv.at(0, i + 1) for i in range(k))

    return CliffordVerdict(True, fiber_ok, True, phi_v_ok, relation, sign, v_orth,
                           len(frames.tangent_reps), k)


def _proportional(m: Matrix, ref: Matrix) -> bool:
    lam = None
    for i in range(m.rows):
        for j in range(m.cols):
            a, b = m.at(i, j), ref.at(i, j)
            if not b:
                if a:
                    return False
                continue
            ratio = a / b
            if lam is None:
                lam = ratio
            elif ratio != lam:
                return False
    return True


def _infer_sign(anti: Matrix, coeff: Scalar, ident: Matrix) -> int:
    if not coeff:
        return 0
    for cand in (1, -1):
        if anti == scale(ident, Scalar(-2 * cand) * coeff):
            return cand
    return 0


def so_membership_check(s: QuadricSystem, point: ScalarPoint) -> bool:
    """Each phi_w for w in ker II_v is skew for the quotient descent of the
    annihilator generator: P(phi_w x, y) + P(x, phi_w y) = 0.  Requires
    dim Ann(v) = 1."""
    ann = point.annihilator
    if ann.dim != 1:
        raise DefectError("so membership needs a one-dimensional annihilator")
    p = quadric_from_coefficients(s, ann.basis[0])
    frames = quotient_frames(s, point)
    pbar = _restrict_quadric(p, [_basis_vec(s.n, j) for j in frames.tangent_reps])
    for row in point.kernel.basis:
        phi = clifford_action(s, frames, row)
        if not is_zero(add(matmul(transpose(phi), pbar), matmul(pbar, phi))):
            return False
    return True


@dataclass(frozen=True)
class RankRestriction:
    applicable: bool
    holds: bool
    r: int
    lower: int


def rank_restriction_check(s: QuadricSystem, profile: RankProfile,
                           sigma_dim: int) -> RankRestriction:
    """For a degenerate secant variety whose tangential variety is a
    hypersurface, the maximal annihilator rank satisfies r >= n - a + 2."""
    ambient = s.n + s.a
    degenerate = sigma_dim < min(2 * s.n + 1, ambient)
    applicable = degenerate and profile.a0 == s.a - 1
    lower = s.n - s.a + 2
    return RankRestriction(applicable, profile.r >= lower, profile.r, lower)


@dataclass(frozen=True)
class ZakBound:
    applicable: bool
    holds: bool
    equality: bool


def zak_bound_check(s: QuadricSystem, profile: RankProfile, sigma_dim: int,
                    fiber_dim: int) -> ZakBound:
    """a >= n/2 + 2 + fiber_dim/2, compared exactly: 2a >= n + 4 + fiber.
    Applies under the same hypotheses as the rank restriction."""
    ambient = s.n + s.a
    degenerate = sigma_dim < min(2 * s.n + 1, ambient)
    applicable = degenerate and profile.a0 == s.a - 1
    lhs = 2 * s.a
    rhs = s.n + 4 + fiber_dim
    return ZakBound(applicable, lhs >= rhs, lhs == rhs)


@dataclass(frozen=True)
class TauGaussBound:
    fiber_dim: int
    delta_tau: int
    weak_bound_holds: bool
    smooth_bound_holds: bool


def tau_gauss_bound_check(f, s: QuadricSystem, profile: RankProfile, stream,
                          trials: int = 5) -> TauGaussBound:
    """Fiber dimension of the Gauss map of the tangential variety against
    the two lower bounds delta_tau + 1 (always) and delta_tau + 2 (smooth
    source)."""
    from .oracles import gauss_fiber_dimension

    fiber = gauss_fiber_dimension(f, stream, trials)
    delta = s.n - profile.a0
    return TauGaussBound(fiber, delta, fiber >= delta + 1, fiber >= delta + 2)


@dataclass(frozen=True)
class DefectReport:
    profile: RankProfile
    vertex_dim: int
    fiber_dim: int
    minimal_subsystem: MinimalSubsystem
    clifford_verdict: CliffordVerdict
    so_membership: bool | None
    rank_restriction: RankRestriction
    zak_bound: ZakBound


def kernel_in_singular_locus(s: QuadricSystem, point: ScalarPoint) -> bool:
    """span{v, ker II_v} lies inside singloc(Ann(v))."""
    return point.singloc.contains(point.v) and contains_subspace(point.singloc, point.kernel)


def annihilator_matches_image_perp(s: QuadricSystem, point: ScalarPoint) -> bool:
    """Ann(v) is all of II_v(T)^perp: each of its quadrics is singular at v,
    and dim Ann(v) + dim II_v(T) = a."""
    v = list(point.v)
    return point.annihilator.dim + point.image.dim == s.a and all(
        not any(mul_vec(quadric_from_coefficients(s, row), v)) for row in point.annihilator.basis)


def fiber_contains_singloc_products(s: QuadricSystem, point: ScalarPoint) -> bool:
    """II(w1, w2) lies in F_v for all w1, w2 in singloc(Ann(v))."""
    fib = gauss_fiber(s, point)
    rows = point.singloc.basis
    for i, w1 in enumerate(rows):
        for w2 in rows[i:]:
            if not fib.contains(ii_pairing(s, w1, w2)):
                return False
    return True


def fiber_dimension_identity(s: QuadricSystem, point: ScalarPoint) -> bool:
    """dim F_v = dim singloc(Ann(v)) - dim ker II_v (affine dims)."""
    return gauss_fiber(s, point).dim == point.singloc.dim - point.kernel.dim


def quotient_singular_locus_match(s: QuadricSystem, point: ScalarPoint) -> bool:
    """The singular locus of the induced quadric system on
    T / (span{v} + ker II_v) coincides with singloc(Ann(v)) modulo that
    same subspace."""
    k_sub = Subspace.from_vectors(s.n, [point.v, *point.kernel.basis])
    reps = complement_indices(k_sub)
    img = point.image
    # stacked conditions: for x = sum_b x_b e_{reps[b]}, the reduced value of
    # II(x, e_{reps[t]}) must vanish for every t
    cols = []
    for b in reps:
        col: list[Scalar] = []
        for t in reps:
            col.extend(img.reduce(ii_pairing(s, _basis_vec(s.n, b), _basis_vec(s.n, t))))
        cols.append(col)
    if reps:
        stacked = Matrix(len(cols[0]), len(reps), zip(*cols)) if cols[0] else \
            Matrix(0, len(reps), [])
        null = kernel(stacked)
        lifted = []
        for row in null.basis:
            vec = [Scalar(0)] * s.n
            for b, x in zip(reps, row):
                vec[b] = x
            lifted.append(vec)
        lhs = span_sum([k_sub, Subspace.from_vectors(s.n, lifted)])
    else:
        lhs = k_sub
    rhs = span_sum([k_sub, point.singloc])
    return lhs == rhs


def defect_report(s: QuadricSystem, profile: RankProfile, points, sigma_dim: int,
                  stream) -> DefectReport:
    point = scalar_point(s, points[0])
    vert = vertex(s, profile, points, stream)
    clifford = clifford_relation_check(s, profile, point, vert)
    so_ok = None
    if profile.dim_ann == 1 and clifford.applicable:
        try:
            so_ok = so_membership_check(s, point)
        except DefectError:
            so_ok = None
    fiber_dim = gauss_fiber(s, point).dim - 1
    return DefectReport(
        profile=profile,
        vertex_dim=vert.dim,
        fiber_dim=fiber_dim,
        minimal_subsystem=minimal_subsystem(s, vert),
        clifford_verdict=clifford,
        so_membership=so_ok,
        rank_restriction=rank_restriction_check(s, profile, sigma_dim),
        zak_bound=zak_bound_check(s, profile, sigma_dim, fiber_dim),
    )
