"""Defect geometry of a quadric system: the vertex of the tangentially
swept variety, Gauss fibers through a generic tangent direction, and the
Clifford algebra representation forced on the tangent quotient when the
tangential variety is a degenerate hypersurface.

All of it runs on the Gaussian-integer quadrics of the system and on the
integer spans of the generic point.  A matrix is held as Gaussian integers with one
denominator, and an identity between such matrices is checked
cross-multiplied, so nothing divides.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import NamedTuple

from .genericity import CertificationError, nonzero_vector
from .linalg import IntegerSpan, eliminate, integer_combination, integer_mul_vec, solve
from .quadrics import (GenericPoint, QuadricSystem, RankProfile, _square, contract,
                       integer_quadric)


class DefectError(RuntimeError):
    """A structural hypothesis failed at a certified-generic vector; `needs` names it, if set."""

    def __init__(self, message: str, needs: str | None = None):
        super().__init__(message)
        self.needs = needs


def vertex(s: QuadricSystem, profile: RankProfile, points: list, stream) -> IntegerSpan:
    """The vertex V of the tangentially swept variety: the intersection of
    II_v(T) over the open set U of v where rank II_v = a0.

    On U, "w lies in II_v(T)" is a rank condition (rank [II_v | w] = a0),
    closed in v.  So every image at a point of U contains V, any
    intersection V_k of such images is an upper bound for V, and 0 is
    final.  And if V_k is larger than V, the v of U with V_k inside II_v(T)
    form a proper closed subset, which a generic v misses.

    The images of the batch `points` that certified the profile come first:
    each realizes the whole profile, so lies in U.  Then up to 60 fresh v
    are drawn on `stream` at bounds that continue the batch's stagger,
    len(points) + 1, len(points) + 2, ..., capped at 64, and each is kept
    only when dim II_v(T) = a0; one above a0 proves the profile not generic
    and raises CertificationError at once.  The intersection stops at 0, or
    when 3 kept draws in a row leave it unchanged (each intersection lies
    in the last, so equal dimension is equal span).  The bounds keep
    growing because II_v(T) depends only on the line of v, and a small box
    holds few lines: draws that each start again at bound 1 can repeat one
    image 3 times and stop above V."""
    w = points[0].image
    for p in points[1:]:
        if not w.dim:
            break
        w = w.intersect(p.image)
    if not w.dim:
        return w
    stable = 0
    for i in range(1, 61):
        v = nonzero_vector(s.n, min(len(points) + i, 64), stream)
        img = IntegerSpan(s.a, list(zip(*contract(s, v))))
        if img.dim > profile.a0:
            raise CertificationError("rank profile not generic: a fresh draw has dim II_v(T) = "
                                     "%d > a0 = %d" % (img.dim, profile.a0))
        if img.dim < profile.a0:
            continue
        nxt = w.intersect(img)
        if not nxt.dim:
            return nxt
        stable = stable + 1 if nxt.dim == w.dim else 0
        w = nxt
        if stable >= 3:
            return w
    raise CertificationError("vertex intersection did not stabilize")


def _coordinates(fiber: IntegerSpan, treps, pivots, cols) -> list:
    """Entry (i, j): coordinate i of column treps[j] in the image quotient."""
    red = [fiber.reduce(cols[t]) for t in treps]
    return [[r[p] for r in red] for p in pivots]


def clifford_module(s: QuadricSystem, point: GenericPoint, ws) -> tuple[tuple, list, object]:
    """(tangent_reps, [M_w for w in ws], den): phi_w = M_w / den, for each w
    of `ws` on Gaussian integers, is the endomorphism of T / singloc(Ann v)
    that follows II_w and inverts the isomorphism II_v induces onto
    II_v(T) / F_v.  T / singloc is spanned by the unit vectors at
    `tangent_reps`; a vector of the image quotient, reduced modulo F_v, has
    its coordinates at the pivots of the quotient's reduced-row-echelon
    basis.  One `solve` against the isomorphism serves every w, so all
    share den.  Requires II_w(T) inside II_v(T) and II_w(singloc) inside
    F_v; phi_v is the identity by construction."""
    sl, img, fib = point.singloc, point.image, point.fiber
    treps = tuple(sl.free_columns())
    pivots = tuple(eliminate([fib.reduce(row) for row in img.rows])[0])
    if len(treps) != len(pivots):
        raise DefectError(
            "tangent quotient (dim %d) and image quotient (dim %d) disagree"
            % (len(treps), len(pivots)))
    blocks = []
    for w in ws:
        cw = contract(s, w)
        cols = list(zip(*cw))
        if not all(map(img.contains, cols)):
            raise DefectError("II_w(T) escapes II_v(T); w is not admissible")
        if not all(fib.contains(integer_mul_vec(cw, row)) for row in sl.rows):
            raise DefectError("II_w(singloc) escapes the Gauss fiber directions",
                              needs="II(ker II_v, singloc Ann(v)) inside F_v")
        blocks.append(_coordinates(fib, treps, pivots, cols))
    k = len(treps)
    iso = _coordinates(fib, treps, pivots, list(zip(*point.contraction)))
    x, den = solve(iso, [[e for b in blocks for e in b[i]] for i in range(k)])
    return treps, [[r[j * k:j * k + k] for r in x] for j in range(len(ws))], den


def _matmul(a: list, b: list) -> list:
    return [integer_combination(list(zip(row, b))) for row in a]


def _vanishes(terms) -> bool:
    """Whether sum c m over the (c, m) pairs of scalars and matrices is zero."""
    coeffs = [c for c, _ in terms]
    return all(not any(integer_combination(list(zip(coeffs, rows))))
               for rows in zip(*(m for _, m in terms)))


class CliffordVerdict(NamedTuple):
    applicable: bool
    fiber_condition_ok: bool
    proportionality_ok: bool
    phi_v_is_identity: bool
    relation_holds: bool
    sign: int
    kernel_orthogonal_to_v: bool
    module_dim: int
    kernel_dim: int


def _restrict_quadric(n: int, q: list, basis) -> list:
    """The Gram matrix u^T q w over the basis, for q in the format of
    `integer_quadric`."""
    qb = [integer_mul_vec(_square(q, n), w) for w in basis]
    return [integer_mul_vec(qb, u) for u in basis]


def clifford_relation_check(s: QuadricSystem, point: GenericPoint, perp: IntegerSpan,
                            phis: list, den) -> CliffordVerdict:
    """At a certified-generic point v of a degenerate tangential
    hypersurface, with `perp` the perp of the vertex in N* (the coefficients
    of the minimal subsystem II*(V^perp)), verify the anticommutation
    relation

        phi_w1 phi_w2 + phi_w2 phi_w1 + 2 sign Q_v(w1, w2) Id = 0

    on pairs from ker II_v, with one global sign; Q_v is the common
    restriction of the minimal-subsystem quadrics to span{v} + ker II_v,
    normalized so Q_v(v, v) = 1.  phi_v must be the identity, and v must be
    Q_v-orthogonal to the kernel directions.  `phis` and `den` are
    `clifford_module`'s M_w and den for w = v and the kernel rows, in that
    order: the basis Q_v is restricted to."""
    fiber_ok = point.fiber.dim == s.a - perp.dim + 1

    ker = point.kernel
    restrictions = [_restrict_quadric(s.n, integer_quadric(s, row), [point.v, *ker.rows])
                    for row in perp.rows]
    ref = next((m for m in restrictions if any(map(any, m))), None)
    prop_ok = ref is not None
    if prop_ok:
        # m = lambda ref, cross-multiplied at the first nonzero entry of ref
        i0, j0 = next((i, j) for i, r in enumerate(ref) for j, x in enumerate(r)
                      if x)
        prop_ok = all(_vanishes([(ref[i0][j0], m), (-m[i0][j0], ref)])
                      for m in restrictions)
    if not prop_ok or not ref[0][0]:
        return CliffordVerdict(True, fiber_ok, False, False, False, 0, False,
                               s.n - point.singloc.dim, ker.dim)
    q00, dim = ref[0][0], len(phis[0])
    ident = [[int(i == j) for j in range(dim)] for i in range(dim)]
    phi_v_ok = _vanishes([(1, phis[0]), (-den, ident)])

    # with phi_i = m_i / den: q00 (m_i m_j + m_j m_i) + 2 sign ref_ij den^2 Id = 0;
    # the first pair with Q_ij != 0 that fits a sign fixes it
    k, sign, relation, antis = ker.dim, 0, True, []
    for i, j in combinations_with_replacement(range(1, k + 1), 2):
        mi, mj = phis[i], phis[j]
        anti = [(q00, _matmul(mi, mj)), (q00, _matmul(mj, mi))]
        rhs = ref[i][j] * den * den
        antis.append(anti)
        if sign:
            relation = relation and _vanishes(anti + [(2 * sign * rhs, ident)])
        elif rhs:
            sign = next((c for c in (1, -1) if _vanishes(anti + [(2 * c * rhs, ident)])), 0)
    if not sign:
        sign, relation = 1, all(map(_vanishes, antis))
    v_orth = not any(ref[0][1:])
    return CliffordVerdict(True, fiber_ok, True, phi_v_ok, relation, sign, v_orth, dim, k)


def so_membership_check(s: QuadricSystem, point: GenericPoint, tangent_reps: tuple,
                        phis: list) -> bool:
    """Each phi_w for w in ker II_v is skew for the quotient descent of the
    annihilator generator: P(phi_w x, y) + P(x, phi_w y) = 0, with
    `tangent_reps` and `phis` of `clifford_module` as in
    `clifford_relation_check` (phis[0] is phi_v).  Requires dim Ann(v) = 1."""
    ann = point.annihilator
    if ann.dim != 1:
        raise DefectError("so membership needs a one-dimensional annihilator")
    p, t = integer_quadric(s, ann.rows[0]), tangent_reps
    pbar = [[p[i * s.n + j] for j in t] for i in t]
    return all(_vanishes([(1, _matmul([list(c) for c in zip(*m)], pbar)),
                          (1, _matmul(pbar, m))]) for m in phis[1:])


class RankRestriction(NamedTuple):
    applicable: bool
    holds: bool
    r: int
    lower: int

    @property
    def ok(self) -> bool | None:
        return self.holds if self.applicable else None


def rank_restriction_check(s: QuadricSystem, profile: RankProfile,
                           sigma_dim: int) -> RankRestriction:
    """For a degenerate secant variety whose tangential variety is a
    hypersurface, the maximal annihilator rank satisfies r >= n - a + 2."""
    lower = s.n - s.a + 2
    return RankRestriction(_hypersurface_case(s, profile, sigma_dim), profile.r >= lower,
                           profile.r, lower)


def _hypersurface_case(s: QuadricSystem, profile: RankProfile, sigma_dim: int) -> bool:
    """A degenerate secant variety and a hypersurface tangential variety."""
    return sigma_dim < min(2 * s.n + 1, s.n + s.a) and profile.a0 == s.a - 1


class ZakBound(NamedTuple):
    applicable: bool
    holds: bool
    equality: bool

    @property
    def ok(self) -> bool | None:
        return self.holds if self.applicable else None


def zak_bound_check(s: QuadricSystem, profile: RankProfile, sigma_dim: int,
                    fiber_dim: int) -> ZakBound:
    """a >= n/2 + 2 + fiber_dim/2, compared exactly: 2a >= n + 4 + fiber.
    Applies under the same hypotheses as the rank restriction."""
    lhs, rhs = 2 * s.a, s.n + 4 + fiber_dim
    return ZakBound(_hypersurface_case(s, profile, sigma_dim), lhs >= rhs, lhs == rhs)


class DefectReport(NamedTuple):
    profile: RankProfile
    vertex_dim: int
    fiber_dim: int
    minimal_subsystem_dim: int  # dim II*(V^perp), the vertex's perp in N*: a - vertex_dim
    clifford_verdict: CliffordVerdict
    so_membership: bool | None
    rank_restriction: RankRestriction
    zak_bound: ZakBound
    clifford_unmet: str | None = None  # the failed Clifford hypothesis, if one failed


def kernel_in_singular_locus(s: QuadricSystem, point: GenericPoint) -> bool:
    """span{v, ker II_v} lies inside singloc(Ann(v))."""
    sl = point.singloc
    return sl.contains(point.v) and all(map(sl.contains, point.kernel.rows))


def annihilator_matches_image_perp(s: QuadricSystem, point: GenericPoint) -> bool:
    """Ann(v) is all of II_v(T)^perp: the quadric of each of its rows is
    singular at v, so that Ann(v) kills II_v(T), and dim Ann(v) + dim
    II_v(T) = a."""
    return point.annihilator.dim + point.image.dim == s.a and all(
        not any(integer_mul_vec(_square(integer_quadric(s, row), s.n), point.v))
        for row in point.annihilator.rows)


def fiber_contains_singloc_products(s: QuadricSystem, point: GenericPoint) -> bool:
    """II(w1, w2) lies in F_v for all w1, w2 in singloc(Ann(v)); one
    contraction per row."""
    rows = point.singloc.rows
    return all(point.fiber.contains(integer_mul_vec(c, w1))
               for i, c in enumerate(contract(s, w2) for w2 in rows) for w1 in rows[:i + 1])


def fiber_dimension_identity(s: QuadricSystem, point: GenericPoint) -> bool:
    """dim F_v = dim singloc(Ann(v)) - dim ker II_v (affine dims)."""
    return point.fiber.dim == point.singloc.dim - point.kernel.dim


def quotient_singular_locus_match(s: QuadricSystem, point: GenericPoint) -> bool:
    """The singular locus of the induced quadric system on
    T / (span{v} + ker II_v) coincides with singloc(Ann(v)) modulo that
    same subspace."""
    n, quads = s.n, s.quadrics
    k_sub = IntegerSpan(n, [point.v, *point.kernel.rows])
    reps = k_sub.free_columns()
    # stacked conditions, one column per b: for x = sum_b x_b e_{reps[b]}, the
    # reduced value of II(x, e_{reps[t]}) modulo II_v(T) must vanish for every t
    cols = [[x for t in reps for x in point.image.reduce([q[b * n + t] for q in quads])]
            for b in reps]
    null = IntegerSpan(len(reps), list(zip(*cols))).perp()
    lifted = [[dict(zip(reps, row)).get(j, 0) for j in range(n)] for row in null.rows]
    return IntegerSpan(n, k_sub.rows + lifted) == IntegerSpan(n, k_sub.rows + point.singloc.rows)


def defect_report(s: QuadricSystem, profile: RankProfile, points: list, sigma_dim: int,
                  stream) -> DefectReport:
    """The defects read at the first of the batch `points` that certified
    the profile (`rank_profile`), with the vertex of all of them and of the
    fresh draws `vertex` makes on stream."""
    point = points[0]
    vert = vertex(s, profile, points, stream)
    clifford = CliffordVerdict(False, False, False, False, False, 0, False,
                               s.n - profile.dim_singloc, profile.dim_ker)
    so_ok = unmet = None
    if profile.a0 == s.a - 1:
        # the module at v, phi_w for w = v and the kernel rows, built once for
        # both checks; without it neither check has its hypothesis.  The
        # quotients agree, and each II_w(T) lies in Ann(v)^perp = II_v(T),
        # exactly when ker II_v lies in singloc Ann(v); the one raise that
        # needs more names it
        try:
            treps, phis, den = clifford_module(s, point, (point.v, *point.kernel.rows))
        except DefectError as e:
            unmet = "needs %s; %s" % (e.needs or "ker II_v inside singloc Ann(v)", e)
        else:
            clifford = clifford_relation_check(s, point, vert.perp(), phis, den)
            so_ok = so_membership_check(s, point, treps, phis)
    fiber_dim = point.fiber.dim - 1
    return DefectReport(
        profile=profile,
        vertex_dim=vert.dim,
        fiber_dim=fiber_dim,
        minimal_subsystem_dim=s.a - vert.dim,
        clifford_verdict=clifford,
        so_membership=so_ok,
        rank_restriction=rank_restriction_check(s, profile, sigma_dim),
        zak_bound=zak_bound_check(s, profile, sigma_dim, fiber_dim),
        clifford_unmet=unmet,
    )
