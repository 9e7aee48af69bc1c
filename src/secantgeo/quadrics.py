"""Systems of quadrics on the tangent space and their pointwise invariants.

A QuadricSystem is the coordinate form of a second fundamental form: a
symmetric n x n matrices, one per normal direction, held as Gaussian
integers over one common denominator.  `quadric_system` clears Scalar
matrices into that form once (`jets.second_fundamental_form` builds it
from the chart's cleared c2 directly), and `quadric_system_to_json`
divides back once; nothing in between converts.  All the local projective
invariants (tangential dimension, secant spans, defects) are functions
of this data evaluated at certified-generic tangent vectors; for wide
systems (a >> n) every perp is taken on the smaller side.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

from .genericity import CertificationError, certified_value, nonzero_vector
from .linalg import (IntegerSpan, eliminate, integer_combination, integer_mul_vec,
                     integer_values, prefix_ranks, scalar_values)
from .scalars import scalar_from_json, scalar_to_json


class QuadricSystem:
    """The a quadrics on C^n, each flattened row by row into n * n Gaussian
    integers: quadric mu is quadrics[mu] / den.
    One scaling of the whole system moves no rank, image, kernel,
    annihilator, singular locus or r."""

    __slots__ = ("n", "a", "quadrics", "den", "_rows")

    def __init__(self, n: int, a: int, quadrics: tuple[list, ...], den: int):
        if len(quadrics) != a:
            raise ValueError("quadric count != a")
        for qi, q in enumerate(quadrics):
            if len(q) != n * n:
                raise ValueError("quadric size != n")
            if any(q[i * n + j] != q[j * n + i] for i in range(n) for j in range(i)):
                raise ValueError("quadric %d is not symmetric" % qi)
        self.n, self.a, self.quadrics, self.den = n, a, quadrics, den
        self._rows = None

    @property
    def integer_rows(self) -> tuple[list, ...]:
        """The n rows of each quadric, built on first use."""
        if self._rows is None:
            self._rows = tuple(_square(q, self.n) for q in self.quadrics)
        return self._rows

    def independent(self) -> bool:
        """Whether the a quadrics are linearly independent (II* injective)."""
        return len(eliminate(list(self.quadrics))[0]) == self.a


def quadric_system(n: int, mats) -> QuadricSystem:
    """The system of the n x n Scalar matrices `mats` (rows of Scalars),
    cleared by the lcm of all their denominators."""
    flat, den = integer_values([x for m in mats for r in m for x in r])
    size = n * n
    return QuadricSystem(n, len(mats), tuple(flat[i:i + size] for i in range(0, len(flat), size)),
                         den)


def _square(q, n: int) -> list:
    """The n rows of a quadric."""
    return [q[i:i + n] for i in range(0, n * n, n)]


def contract(s: QuadricSystem, w) -> list:
    """den II_w as a x n Gaussian integers, for w itself on Gaussian
    integers."""
    return [integer_mul_vec(rows, w) for rows in s.integer_rows]


def integer_quadric(s: QuadricSystem, coeffs) -> list:
    """sum_mu c_mu q^mu times den, for Gaussian-integer coefficients."""
    return integer_combination(list(zip(coeffs, s.quadrics)))


def singular_locus(s: QuadricSystem, quads) -> IntegerSpan:
    """Common kernel of quadrics in the format of `integer_quadric`: the
    kernel of their stacked rows; all of T for none."""
    return IntegerSpan(s.n, [r for q in quads for r in _square(q, s.n)]).perp()


class RankProfile(NamedTuple):
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


class GenericPoint:
    """A tangent vector v on Gaussian integers and everything read at it,
    computed once on Gaussian integers: the contraction den II_v (a x n
    Gaussian integers, den the system's denominator), the spans
    of its image II_v(T) in N, of the annihilator Ann(v) in N* (the
    quadrics singular at v, as the kernel of c -> sum_mu c_mu q^mu v), and
    of the common kernel of Ann(v); the maximal annihilator rank r; and, on
    first use, ker II_v in T and the Gauss fiber directions F_v."""

    __slots__ = ("v", "contraction", "image", "annihilator", "singloc", "r", "_kernel",
                 "_fiber")

    def __init__(self, v: tuple, contraction: list, image: IntegerSpan,
                 annihilator: IntegerSpan, singloc: IntegerSpan, r: int):
        self.v, self.contraction, self.image = v, contraction, image
        self.annihilator, self.singloc, self.r = annihilator, singloc, r
        self._kernel = self._fiber = None

    @property
    def profile(self) -> tuple[int, int, int, int, int]:
        """(a0, r, dim_ker, dim_ann, dim_singloc), in RankProfile order;
        dim ker II_v = n - a0."""
        return (self.image.dim, self.r, len(self.v) - self.image.dim, self.annihilator.dim,
                self.singloc.dim)

    @property
    def kernel(self) -> IntegerSpan:
        """ker II_v inside T."""
        if self._kernel is None:
            self._kernel = IntegerSpan(len(self.v), self.contraction).perp()
        return self._kernel

    @property
    def fiber(self) -> IntegerSpan:
        """F_v = II_v(singloc Ann(v)) inside N: the affine direction space of
        the Gauss fiber of the tangentially swept variety through [II(v,v)]."""
        if self._fiber is None:
            c = self.contraction
            self._fiber = IntegerSpan(len(c), [integer_mul_vec(c, w) for w in self.singloc.rows])
        return self._fiber


def _profile_at(s: QuadricSystem, v, inner_stream, inner_trials: int) -> GenericPoint:
    c = contract(s, v)
    # Ann(v) is the kernel of the transposed contraction: the annihilator of
    # its row space II_v(T), so one elimination gives both
    image = IntegerSpan(s.a, list(zip(*c)))
    ann = image.perp()
    # Ann(v)'s quadrics from its fraction-free basis: the canonical one
    # times a common factor, which moves no rank or kernel
    quads = [integer_quadric(s, row) for row in ann.rows]
    singloc = singular_locus(s, quads)
    r = _max_rank_in_span(s.n, quads, inner_stream, inner_trials, s.n - singloc.dim)
    return GenericPoint(tuple(v), c, image, ann, singloc, r)


def _max_rank_in_span(n: int, quads: list, stream, trials: int, ceiling: int) -> int:
    """The largest rank of the members of quads, their sum and difference
    (for up to two), and `trials` random combinations.  Every combination
    is drawn, but they are eliminated in turn only until one reaches
    `ceiling`, a rank bound for the whole span (n minus the dimension of
    the common kernel of quads)."""
    corners = list(quads) if len(quads) <= 2 else []
    if len(quads) == 2:
        corners += [integer_combination([(1, quads[0]), (c, quads[1])]) for c in (1, -1)]
    drawn = [nonzero_vector(len(quads), 4, stream) for _ in range(trials if quads else 0)]
    best = 0
    for q in chain(corners, (integer_combination(list(zip(c, quads))) for c in drawn)):
        if best >= ceiling:
            break
        best = max(best, len(eliminate(_square(q, n))[0]))
    return best


def rank_profile(s: QuadricSystem, stream, trials: int = 5) -> tuple[RankProfile, list]:
    """The profile at a certified-generic v, identical across `trials`
    samples (bound escalation on disagreement), and the points of that
    unanimous batch: each realizes the whole profile, so they are the
    generic points every later question about the system reads."""
    points = []

    def sample(bound, strm):
        points.append(_profile_at(s, nonzero_vector(s.n, bound, strm), strm, trials))
        return points[-1].profile

    tup = certified_value(sample, stream, trials, what="rank profile")
    return RankProfile(*tup, certified=True), points[-trials:]


def tangential_dimension(s: QuadricSystem, profile: RankProfile) -> int:
    """dim tau(X) = n + rank II_v at generic v."""
    return s.n + profile.a0


def is_tangentially_degenerate(s: QuadricSystem, profile: RankProfile) -> bool:
    """dim ker II_v exceeding max(0, n - a) drops tau below the expected
    dimension."""
    return profile.dim_ker > max(0, s.n - s.a)


class HigherSecantDimension(NamedTuple):
    k: int
    dimension: int
    bound: int


def higher_secant_dimension(s: QuadricSystem, k_max: int, profile: RankProfile, stream,
                            trials: int = 5) -> tuple[HigherSecantDimension, ...]:
    """dim sigma_k(X) = n + dim span(II_{v_1}(T), ..., II_{v_{k-1}}(T)) and its
    bound n + (k-1) a0, k = 2..k_max, valid when the refined cubic form
    vanishes identically: a0 at k = 2 (certified already, so a v special for
    II_v alone blocks nothing), then the ranks of the leading (k-1)n columns
    of k_max - 1 generic contractions side by side, certified together."""
    if k_max < 2:
        raise ValueError("k must be >= 2")

    def sample(bound, strm):
        cs = [contract(s, nonzero_vector(s.n, bound, strm)) for _ in range(k_max - 1)]
        return prefix_ranks([list(chain(*r)) for r in zip(*cs)], s.n, k_max - 1)[1:]

    spans = (profile.a0,) + (certified_value(sample, stream, trials, what="secant span dimensions")
                             if k_max > 2 else ())
    return tuple(HigherSecantDimension(k, s.n + d, s.n + (k - 1) * profile.a0)
                 for k, d in enumerate(spans, 2))


def hypersurface_projection(s: QuadricSystem, profile: RankProfile, stream,
                            trials: int = 5) -> tuple[QuadricSystem, RankProfile, list]:
    """Second fundamental form of a generic projection of the variety to
    P^{n + a0 + 1}, where its tangential variety is a hypersurface, with
    the certified profile of that form and the points of its batch.

    When the centre of projection misses the embedded tangent space, the
    projected form is the original one followed by the induced quotient
    map of normal spaces (Griffiths-Harris 1979): a random full-rank
    (a0 + 1) x a combination of the quadrics, over the same den.  A
    generic projection keeps dim II_v(T), which the certified a0 of the
    projected form confirms."""
    rows = profile.a0 + 1
    for _ in range(10):
        m = [[stream.randint(-5, 5) for _ in range(s.a)] for _ in range(rows)]
        if len(eliminate(m)[0]) == rows:
            break
    else:
        raise CertificationError("no full-rank projection of the normal space in 10 draws")
    t = QuadricSystem(s.n, rows, tuple(integer_quadric(s, row) for row in m), s.den)
    prof, points = rank_profile(t, stream, trials)
    if prof.a0 != profile.a0:
        raise CertificationError("projection changed a0 from %d to %d"
                                 % (profile.a0, prof.a0))
    return t, prof, points


def quadric_system_to_json(s: QuadricSystem) -> dict:
    return {
        "kind": "quadric_system",
        "n": s.n,
        "a": s.a,
        "quadrics": [[[scalar_to_json(x) for x in r]
                      for r in _square(scalar_values(q, s.den), s.n)] for q in s.quadrics],
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
    for qi, q in enumerate(rows):
        if not isinstance(q, list) or len(q) != n or any(not isinstance(r, list) or len(r) != n for r in q):
            raise ValueError("quadric %d is not an n x n matrix" % qi)
    return quadric_system(n, [[[scalar_from_json(x) for x in r] for r in q] for q in rows])
