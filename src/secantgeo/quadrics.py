"""Systems of quadrics on the tangent space and their pointwise invariants.

A QuadricSystem is the coordinate form of a second fundamental form: a
symmetric matrices of size n, one per normal direction.  All the local
projective invariants (tangential dimension, secant dimension, defects)
are functions of this data evaluated at certified-generic tangent
vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

from .genericity import CertificationError, certified_value, nonzero_vector
from .linalg import Matrix, Subspace, _dot, kernel, rank, span_sum, stack_rows
from .scalars import Scalar, scalar_from_json, scalar_to_json


@dataclass(frozen=True)
class QuadricSystem:
    n: int
    a: int
    quadrics: tuple[Matrix, ...]

    def __post_init__(self):
        if len(self.quadrics) != self.a:
            raise ValueError("quadric count != a")
        for q in self.quadrics:
            if q.rows != self.n or q.cols != self.n:
                raise ValueError("quadric size != n")
            if not q.is_symmetric():
                raise ValueError("quadric matrix not symmetric")

    def independent(self) -> bool:
        """Whether the a quadrics are linearly independent (II* injective)."""
        if self.a == 0:
            return True
        flat = [[q.at(i, j) for i in range(self.n) for j in range(self.n)] for q in self.quadrics]
        return rank(Matrix(self.a, self.n * self.n, flat)) == self.a


def apply_ii(s: QuadricSystem, v) -> list[Scalar]:
    """II(v, v) as a vector in the normal space C^a."""
    return [_eval_quadric(q, v, v) for q in s.quadrics]


def _eval_quadric(q: Matrix, v, w) -> Scalar:
    return _dot(v, q.mul_vec(w))


def contraction(s: QuadricSystem, v) -> Matrix:
    """The linear map II_v = II(v, .) : T -> N as an a x n matrix."""
    return Matrix(s.a, s.n, [q.mul_vec(v) for q in s.quadrics])


def ii_image(s: QuadricSystem, v) -> Subspace:
    """II_v(T) as a subspace of N."""
    return Subspace.from_vectors(s.a, contraction(s, v).transpose().data)


def quadric_from_coefficients(s: QuadricSystem, coeffs) -> Matrix:
    """sum_mu c_mu q^mu, each entry summed once on the rational parts; the
    quadrics are symmetric, so only the lower triangle is summed."""
    terms = [(c.re, c.im, q.data) for c, q in zip(coeffs, s.quadrics) if c]
    real = not any(ci for _, ci, _ in terms)
    data = [[None] * s.n for _ in range(s.n)]
    for i in range(s.n):
        for j in range(i + 1):
            re = im = 0
            for cr, ci, q in terms:
                x = q[i][j]
                if x:
                    if real and not x.im:
                        re += cr * x.re
                    else:
                        re += cr * x.re - ci * x.im
                        im += cr * x.im + ci * x.re
            data[i][j] = data[j][i] = Scalar(re, im)
    return Matrix(s.n, s.n, data)


def singular_locus(s: QuadricSystem, quadrics) -> Subspace:
    """Common kernel of the given quadrics; all of T for an empty list."""
    mats = list(quadrics)
    if not mats:
        return Subspace.full(s.n)
    return kernel(stack_rows(mats))


@dataclass(frozen=True)
class RankProfile:
    """Certified pointwise invariants of the system at a generic v.

    a0: rank of II_v; r: maximal rank of a quadric in the annihilator of v;
    dim_ker: dim ker II_v; dim_ann: dim Ann(v); dim_singloc: dim of the
    common kernel of Ann(v)."""

    a0: int
    r: int
    dim_ker: int
    dim_ann: int
    dim_singloc: int
    certified: bool


@dataclass(frozen=True)
class GenericPoint:
    """A tangent vector v and everything read at it, computed once: the
    contraction II_v (a x n), its image II_v(T) in N and kernel in T, the
    annihilator Ann(v) in N* (the quadrics singular at v, as the kernel of
    c -> sum_mu c_mu q^mu v), the common kernel of Ann(v) and the maximal
    annihilator rank r."""

    v: tuple[Scalar, ...]
    contraction: Matrix
    image: Subspace
    kernel: Subspace
    annihilator: Subspace
    singloc: Subspace
    r: int

    @property
    def profile(self) -> tuple[int, int, int, int, int]:
        """(a0, r, dim_ker, dim_ann, dim_singloc), in RankProfile order."""
        return (self.image.dim, self.r, self.kernel.dim, self.annihilator.dim,
                self.singloc.dim)


def _profile_at(s: QuadricSystem, v, inner_stream, inner_trials: int) -> GenericPoint:
    c = contraction(s, v)
    # Ann(v) is the kernel of the transposed contraction: the annihilator of
    # its row space II_v(T), so one RREF gives both
    image = Subspace.from_vectors(s.a, c.transpose().data)
    ann = image.perp()
    singloc = singular_locus(s, [quadric_from_coefficients(s, row) for row in ann.basis])
    r = _max_rank_in_span(s, ann, inner_stream, inner_trials)
    return GenericPoint(tuple(v), c, image, kernel(c), ann, singloc, r)


def _max_rank_in_span(s: QuadricSystem, ann: Subspace, stream, trials: int) -> int:
    if ann.dim == 0:
        return 0
    best = 0
    combos = []
    if ann.dim <= 2:
        # exhaustive corners: basis members and their sums and differences
        combos.append(ann.basis[0])
        if ann.dim == 2:
            b0, b1 = ann.basis
            combos.append(b1)
            combos.append([x + y for x, y in zip(b0, b1)])
            combos.append([x - y for x, y in zip(b0, b1)])
    for _ in range(trials):
        coeffs = nonzero_vector(ann.dim, 4, stream)
        combos.append([_dot(coeffs, col) for col in zip(*ann.basis)])
    for combo in combos:
        q = quadric_from_coefficients(s, combo)
        best = max(best, rank(q))
    return best


def rank_profile(s: QuadricSystem, stream, trials: int = 5) -> RankProfile:
    """Profile at a certified-generic v: the whole tuple must be identical
    across `trials` independent samples (bound escalation on disagreement)."""

    def sample(bound, strm):
        v = nonzero_vector(s.n, bound, strm)
        return _profile_at(s, v, strm, trials).profile

    tup = certified_value(sample, stream, trials, what="rank profile")
    return RankProfile(*tup, certified=True)


def generic_vector(s: QuadricSystem, profile: RankProfile, stream,
                   trials: int = 5) -> GenericPoint:
    """A point whose vector realizes the certified profile (redrawn until
    it does)."""
    want = (profile.a0, profile.r, profile.dim_ker, profile.dim_ann, profile.dim_singloc)
    bound = 1
    for _ in range(16):
        point = _profile_at(s, nonzero_vector(s.n, bound, stream), stream, trials)
        if point.profile == want:
            return point
        bound = min(bound * 2, 64)
    raise CertificationError("could not rediscover a vector matching the certified profile")


def tangential_dimension(s: QuadricSystem, profile: RankProfile) -> int:
    """dim tau(X) = n + rank II_v at generic v."""
    return s.n + profile.a0


def is_tangentially_degenerate(s: QuadricSystem, profile: RankProfile) -> bool:
    """dim ker II_v exceeding max(0, n - a) drops tau below the expected
    dimension."""
    return profile.dim_ker > max(0, s.n - s.a)


@dataclass(frozen=True)
class SecantDimension:
    dimension: int
    third_form_vanishes: bool


def secant_dimension(s: QuadricSystem, jet, profile: RankProfile, stream,
                     trials: int = 5) -> SecantDimension:
    """dim sigma(X) = n + a0, plus 1 exactly when the refined cubic form
    does not vanish at v (checked at a certified-generic v)."""
    from .jets import refined_third_form_cube

    def sample(bound, strm):
        v = nonzero_vector(s.n, bound, strm)
        image = ii_image(s, v)
        _, cube_zero = refined_third_form_cube(jet, v, image)
        return image.dim, cube_zero

    a0, cube_zero = certified_value(sample, stream, trials, what="refined cubic vanishing")
    dim = s.n + a0 + (0 if cube_zero else 1)
    return SecantDimension(dim, cube_zero)


@dataclass(frozen=True)
class HigherSecantDimension:
    k: int
    dimension: int
    bound: int
    within_bound: bool


def higher_secant_dimension(s: QuadricSystem, k: int, profile: RankProfile, stream,
                            trials: int = 5) -> HigherSecantDimension:
    """dim sigma_k(X) = n + dim span(II_{v_1}(T), ..., II_{v_{k-1}}(T)) at
    k-1 certified-generic vectors; valid when the refined cubic form
    vanishes identically.  Also reports the bound n + (k-1) a0."""
    if k < 2:
        raise ValueError("k must be >= 2")

    def sample(bound, strm):
        spans = [ii_image(s, nonzero_vector(s.n, bound, strm)) for _ in range(k - 1)]
        return span_sum(spans).dim

    span_dim = certified_value(sample, stream, trials, what="secant span dimension")
    dim = s.n + span_dim
    bound = s.n + (k - 1) * profile.a0
    return HigherSecantDimension(k, dim, bound, dim <= bound)


def hypersurface_projection(s: QuadricSystem, profile: RankProfile, stream,
                            trials: int = 5) -> tuple[QuadricSystem, RankProfile]:
    """Second fundamental form of a generic projection of the variety to
    P^{n + a0 + 1}, where its tangential variety is a hypersurface, with
    the certified profile of that form.

    When the centre of projection misses the embedded tangent space, the
    projected form is the original one followed by the induced quotient
    map of normal spaces (Griffiths-Harris 1979): a random full-rank
    (a0 + 1) x a combination of the quadrics.  A generic projection keeps
    dim II_v(T), which the certified a0 of the projected form confirms."""
    rows = profile.a0 + 1
    for _ in range(10):
        m = Matrix(rows, s.a, [[Scalar(stream.randint(-5, 5)) for _ in range(s.a)]
                               for _ in range(rows)])
        if rank(m) == rows:
            break
    else:
        raise CertificationError("no full-rank projection of the normal space in 10 draws")
    t = QuadricSystem(s.n, rows, tuple(quadric_from_coefficients(s, row) for row in m.data))
    prof = rank_profile(t, stream, trials)
    if prof.a0 != profile.a0:
        raise CertificationError("projection changed a0 from %d to %d"
                                 % (profile.a0, prof.a0))
    return t, prof


def quadric_system_to_json(s: QuadricSystem) -> dict:
    return {
        "kind": "quadric_system",
        "n": s.n,
        "a": s.a,
        "quadrics": [[[scalar_to_json(q.at(i, j)) for j in range(s.n)] for i in range(s.n)]
                     for q in s.quadrics],
    }


def quadric_system_from_json(obj) -> QuadricSystem:
    required = {"kind", "n", "a", "quadrics"}
    if not isinstance(obj, dict) or set(obj) != required:
        raise ValueError("quadric_system object must have exactly the keys %s" % sorted(required))
    if obj["kind"] != "quadric_system":
        raise ValueError("kind must be 'quadric_system'")
    n, a = obj["n"], obj["a"]
    if type(n) is not int or type(a) is not int or n < 1 or a < 0:  # no JSON booleans
        raise ValueError("bad n or a")
    rows = obj["quadrics"]
    if not isinstance(rows, list) or len(rows) != a:
        raise ValueError("quadrics must be a list of length a")
    mats = []
    for qi, q in enumerate(rows):
        if not isinstance(q, list) or len(q) != n or any(not isinstance(r, list) or len(r) != n for r in q):
            raise ValueError("quadric %d is not an n x n matrix" % qi)
        m = Matrix(n, n, [[scalar_from_json(x) for x in r] for r in q])
        if not m.is_symmetric():
            raise ValueError("quadric %d is not symmetric" % qi)
        mats.append(m)
    return QuadricSystem(n, a, tuple(mats))
