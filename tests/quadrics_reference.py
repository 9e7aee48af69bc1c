"""The pointwise profile `secantgeo.quadrics` computed before it worked on
the integer form of a system: the contraction, the annihilator quadrics and
the randomized annihilator-rank search all built as Scalar matrices.  Kept
as the reference `_profile_at` is checked against, at the same draws."""

from linalg_reference import stack_rows
from secantgeo.genericity import nonzero_vector
from secantgeo.linalg import Matrix, Subspace, _dot, kernel, rank
from secantgeo.quadrics import GenericPoint, QuadricSystem
from secantgeo.scalars import Scalar


def contraction(s: QuadricSystem, v) -> Matrix:
    return Matrix(s.a, s.n, [q.mul_vec(v) for q in s.quadrics])


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
        return Subspace.from_vectors(s.n, Matrix.identity(s.n).data)
    return kernel(stack_rows(mats))


def profile_at(s: QuadricSystem, v, inner_stream, inner_trials: int) -> GenericPoint:
    c = contraction(s, v)
    image = Subspace.from_vectors(s.a, c.transpose().data)
    ann = image.perp()
    singloc = singular_locus(s, [quadric_from_coefficients(s, row) for row in ann.basis])
    r = max_rank_in_span(s, ann, inner_stream, inner_trials)
    return GenericPoint(tuple(v), c, image, kernel(c), ann, singloc, r)


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
