"""Independent dimension oracles by exact ranks at random points.

These never look at fundamental forms.  By Terracini's lemma the Jacobian
rank of a join or tangent map at a point is the dimension of a span of lift
values and derivatives, so each oracle reads a low-order jet of the lift
(`polymaps.lift_jet`) at certified-generic integer points and eliminates
on its integer values; no join or tangent map is built.  One k-point join
sample gives every dim sigma_j, j <= k, by its jets' prefix ranks (dim X at
j = 1).  Formula-based dimensions are always cross-checked against these.
"""

from __future__ import annotations

from .genericity import certified_value, fully_nonzero_vector
from .linalg import IntegerSpan, _rank, eliminate, integer_combination, prefix_ranks
from .polymaps import PolyMap, lift_jet


def _blocks_collide(blocks, projective: bool) -> bool:
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            if blocks[i] == blocks[j]:
                return True
            if projective:
                # for a homogeneous map, proportional parameters hit the
                # same projective point; coordinates are all nonzero here
                w1, w2 = blocks[i], blocks[j]
                if all(w1[t] * w2[0] == w2[t] * w1[0] for t in range(len(w1))):
                    return True
    return False


def _join_point(f: PolyMap, k: int, bound: int, stream):
    """Sample parameters for the join (u_1, ..., u_k, s_1, ..., s_k) ->
    sum s_i lift(u_i): k source points plus k scalings.  Source blocks that
    name the same point of the variety never see the generic join rank, so
    exact duplicates are redrawn."""
    p = f.domain_dim
    blocks = [fully_nonzero_vector(p, bound, stream) for _ in range(k)]
    for _ in range(16):
        if not _blocks_collide(blocks, f.projective):
            break
        blocks = [fully_nonzero_vector(p, bound, stream) for _ in range(k)]
    pt = [x for b in blocks for x in b]
    pt.extend(fully_nonzero_vector(k, bound, stream))
    return pt


def _join_ranks(f: PolyMap, k: int, pt) -> tuple[int, ...]:
    """Join Jacobian ranks at the first j blocks of pt, j = 1..k: as every
    scaling is nonzero, those of lift(u_i) and its first partials, i <= j."""
    p = f.domain_dim
    cols = [vec for i in range(k) for vec in lift_jet(f, pt[i * p:(i + 1) * p], 1).values()]
    return prefix_ranks(list(zip(*cols)), len(cols) // k, k)


def join_dimension(f: PolyMap, k_max: int, stream, trials: int = 5) -> tuple[int, ...]:
    """Projective (dim X, dim sigma_2, ..., dim sigma_k_max), certified as one tuple."""
    if k_max < 1:
        raise ValueError("k must be >= 1")
    ranks = certified_value(lambda b, s: _join_ranks(f, k_max, _join_point(f, k_max, b, s)),
                            stream, trials, what="join ranks (k <= %d)" % k_max)
    return tuple(r - 1 for r in ranks)


def _tangent_cone(f: PolyMap, pt, order: int):
    """d(*idx): a derivative of order < `order` at pt = (s, u, t) of g = s (lift(u)
    + t^alpha d_alpha lift(u)), the cone over the tangential variety, in the
    variables idx (s is 0, u_beta is 1 + beta, t_alpha is 1 + p + alpha)."""
    p = f.domain_dim
    s, t = pt[0], pt[1 + p:]
    jet = lift_jet(f, pt[1:1 + p], order)
    zero = [0] * len(jet[()])

    def d(*idx):
        us = [i - 1 for i in idx if 0 < i <= p]
        ts = [i - 1 - p for i in idx if i > p]
        if idx.count(0) > 1 or len(ts) > 1:  # g is linear in s and in t
            return zero
        if ts:
            terms = [(1, jet.get(tuple(sorted(us + ts))))]
        else:
            terms = [(1, jet.get(tuple(sorted(us))))] + [(t[a], jet.get(tuple(sorted(us + [a]))))
                                                          for a in range(p)]
        c = 1 if 0 in idx else s
        terms = [(c * x, vec) for x, vec in terms if vec is not None]
        return integer_combination(terms) if terms else zero

    return d


def tangent_join_dimension(f: PolyMap, stream, trials: int = 5) -> int:
    """Projective dimension of the tangential variety of the smooth locus."""
    nv = 1 + 2 * f.domain_dim

    def sample(bound, strm):
        d = _tangent_cone(f, fully_nonzero_vector(nv, bound, strm), 2)
        return _rank([d(k) for k in range(nv)])

    return certified_value(sample, stream, trials, what="tangential rank") - 1


def _gauss_sample(d, nv: int) -> tuple[int, int]:
    """(dim of the affine tangent space, rank of the Gauss differential) of a
    cone parametrized by nv variables with derivatives d(*idx) at a point."""
    gens = [d(*idx) for idx in [()] + [(k,) for k in range(nv)]]
    # the generators that give a pointwise basis of the tangent space T,
    # greedily in order: the pivot columns of the m x (1 + nv) frame
    basis = eliminate(list(zip(*gens)))[0]
    # the Gauss differential, in Hom(T, C^m / T): each basis generator's
    # derivatives modulo T.  The value's derivatives lie in T: its block is 0.
    span = IntegerSpan(len(gens[0]), gens)
    reduced = {key: span.reduce(d(*key))
               for key in {tuple(sorted((c - 1, k))) for c in basis if c for k in range(nv)}}
    diff_rows = [[x for c in basis if c for x in reduced[tuple(sorted((c - 1, k)))]]
                 for k in range(nv)]
    return span.dim, _rank(diff_rows)


def gauss_fiber_dimension(f: PolyMap, stream, trials: int = 5) -> int:
    """General fiber dimension of the Gauss map of the tangential variety of
    the image of f: dim(tau) - rank of the differential of the tangent-space
    assignment, from the 2-jet of the cone g over tau, read off the 3-jet of
    the lift of f."""
    nv = 1 + 2 * f.domain_dim

    def sample(bound, strm):
        return _gauss_sample(_tangent_cone(f, fully_nonzero_vector(nv, bound, strm), 3), nv)

    d_hat, gauss_rank = certified_value(sample, stream, trials, what="Gauss map rank")
    return (d_hat - 1) - gauss_rank
