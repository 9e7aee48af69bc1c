"""The pointwise profile `secantgeo.quadrics` computed before it worked on
the integer form of a system: the contraction, the annihilator quadrics and
the randomized annihilator-rank search all built as Scalar matrices, the
point held as Scalar subspaces, and the higher secant spans summed as
Scalar subspaces.  Kept as the reference `_profile_at`, `generic_image`
and `higher_secant_dimension` are checked against, at the same draws.  With
them `contraction`, `apply_ii` and `ii_image`, which left the package once
only the tests used them: II_v taken on the integer form at v cleared of
its denominators and converted to Scalars once, which `scalar_contraction`
(II_v straight from the Scalar quadrics) checks.  Every Scalar quadric of
these routes comes from `scalar_quadrics`, the system's Gaussian integers
divided by its denominator."""

from dataclasses import dataclass

from linalg_reference import (Subspace, _dot, identity, kernel, mul_vec, rank, span_sum,
                              stack_rows, subspace, transpose)
from secantgeo.genericity import CertificationError, certified_value, nonzero_vector
from secantgeo.linalg import Matrix, integer_values, scalar_values
from secantgeo.quadrics import (GenericPoint, HigherSecantDimension, QuadricSystem, RankProfile,
                                contract)
from secantgeo.scalars import Scalar, _coerce


@dataclass(frozen=True)
class ScalarPoint:
    """`quadrics.GenericPoint` with every field as a Scalar matrix or subspace."""

    v: tuple[Scalar, ...]
    contraction: Matrix
    image: Subspace
    kernel: Subspace
    annihilator: Subspace
    singloc: Subspace
    r: int

    @property
    def profile(self) -> tuple[int, int, int, int, int]:
        return (self.image.dim, self.r, self.kernel.dim, self.annihilator.dim,
                self.singloc.dim)


def scalar_point(s: QuadricSystem, point: GenericPoint) -> ScalarPoint:
    """The integer point of s converted field by field: v as Scalars, the
    contraction divided by the system's den as a Scalar matrix, each span
    as its canonical Scalar subspace."""
    c, den = point.contraction, s.den
    return ScalarPoint(tuple(scalar_values(point.v, 1)),
                       Matrix(len(c), len(point.v), [scalar_values(r, den) for r in c]),
                       subspace(point.image), subspace(point.kernel),
                       subspace(point.annihilator), subspace(point.singloc), point.r)


def scalar_quadrics(s: QuadricSystem) -> tuple[Matrix, ...]:
    """The quadrics of s as Scalar matrices: each divided by s.den."""
    return tuple(Matrix(s.n, s.n, [scalar_values(q[i:i + s.n], s.den)
                                   for i in range(0, s.n * s.n, s.n)]) for q in s.quadrics)


def scalar_contraction(s: QuadricSystem, v) -> Matrix:
    """II_v straight from the Scalar quadrics."""
    return Matrix(s.a, s.n, [mul_vec(q, v) for q in scalar_quadrics(s)])


def contraction(s: QuadricSystem, v) -> Matrix:
    """The linear map II_v = II(v, .) : T -> N as an a x n matrix, from
    the integer form at v cleared of its denominators."""
    vi, lam = integer_values([_coerce(x) for x in v])
    return Matrix(s.a, s.n, [scalar_values(r, s.den * lam) for r in contract(s, vi)])


def apply_ii(s: QuadricSystem, v) -> list[Scalar]:
    """II(v, v) as a vector in the normal space C^a."""
    return mul_vec(contraction(s, v), v)


def ii_image(s: QuadricSystem, v) -> Subspace:
    """II_v(T) as a subspace of N."""
    return Subspace.from_vectors(s.a, transpose(contraction(s, v)).data)


def quadric_from_coefficients(s: QuadricSystem, coeffs) -> Matrix:
    """sum_mu c_mu q^mu, each entry summed once on the rational parts; the
    quadrics are symmetric, so only the lower triangle is summed."""
    terms = [(c.re, c.im, q.data) for c, q in zip(coeffs, scalar_quadrics(s)) if c]
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
        return Subspace.from_vectors(s.n, identity(s.n).data)
    return kernel(stack_rows(mats))


def profile_at(s: QuadricSystem, v, inner_stream, inner_trials: int) -> ScalarPoint:
    c = scalar_contraction(s, v)
    image = Subspace.from_vectors(s.a, transpose(c).data)
    ann = image.perp()
    singloc = singular_locus(s, [quadric_from_coefficients(s, row) for row in ann.basis])
    r = max_rank_in_span(s, ann, inner_stream, inner_trials)
    return ScalarPoint(tuple(v), c, image, kernel(c), ann, singloc, r)


def generic_image(s: QuadricSystem, profile: RankProfile, stream,
                  trials: int = 5) -> tuple[tuple, Subspace]:
    """(v, II_v(T)) from the Scalar contraction, accepted on dim II_v(T) =
    a0 alone, with the draws of `quadrics.generic_image`: up to 16 vectors
    at bounds 1, 2, 4, ..., 64, each followed by the r search's `trials`
    coefficient vectors for Ann(v), drawn and left unused."""
    bound = 1
    for _ in range(16):
        v = nonzero_vector(s.n, bound, stream)
        image = Subspace.from_vectors(s.a, transpose(scalar_contraction(s, v)).data)
        for _ in range(trials if image.dim < s.a else 0):
            nonzero_vector(s.a - image.dim, 4, stream)
        if image.dim == profile.a0:
            return tuple(v), image
        bound = min(bound * 2, 64)
    raise CertificationError("could not rediscover a vector matching the certified profile")


def max_rank_in_span(s: QuadricSystem, ann: Subspace, stream, trials: int) -> int:
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


def higher_secant_dimension(s: QuadricSystem, k_max: int, profile: RankProfile, stream,
                            trials: int = 5) -> tuple[HigherSecantDimension, ...]:
    if k_max < 2:
        raise ValueError("k must be >= 2")

    def sample(bound, strm):
        spans = [ii_image(s, nonzero_vector(s.n, bound, strm)) for _ in range(k_max - 1)]
        return tuple(span_sum(spans[:k - 1]).dim for k in range(3, k_max + 1))

    dims = (profile.a0,) + (certified_value(sample, stream, trials, what="secant span dimensions")
                            if k_max > 2 else ())
    return tuple(HigherSecantDimension(k, s.n + d, s.n + (k - 1) * profile.a0)
                 for k, d in enumerate(dims, 2))
