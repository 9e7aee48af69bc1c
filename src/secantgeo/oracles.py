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
from .linalg import _rank, eliminate, integer_combination, integer_mul_vec, prefix_ranks
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


def _cone_derivatives(jet: dict, pt, p: int):
    """d(*idx): a derivative of order < the jet's at pt = (s, u, t) of g = s (lift(u)
    + t^alpha d_alpha lift(u)), the cone over the tangential variety, from the
    lift's jet at u or a linear image of it, in the variables idx (s is 0,
    u_beta is 1 + beta, t_alpha is 1 + p + alpha)."""
    s, t = pt[0], pt[1 + p:]
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
    p = f.domain_dim
    nv = 1 + 2 * p

    def sample(bound, strm):
        pt = fully_nonzero_vector(nv, bound, strm)
        d = _cone_derivatives(lift_jet(f, pt[1:1 + p], 2), pt, p)
        return _rank([d(k) for k in range(nv)])

    return certified_value(sample, stream, trials, what="tangential rank") - 1


def _frame(gens) -> tuple[list, list]:
    """(basis, ann) from one elimination of [F | Id], F the m x g frame of the
    generators: its pivots below g are F's, a basis of their span T greedily
    in order, and its other rows' identity parts span T's annihilator."""
    g, m = len(gens), len(gens[0])
    pivots, rows, _ = eliminate([[*r, *(int(i == j) for j in range(m))]
                                 for i, r in enumerate(zip(*gens))])
    return [c for c in pivots if c < g], [r[g:] for c, r in zip(pivots, rows) if c >= g]


def _gauss_sample(f: PolyMap, pt) -> tuple[int, int]:
    """(dim T, rank of the Gauss differential in Hom(T, C^m / T)) at pt: each
    basis generator's derivatives, on the jet paired with ann.  The value's
    derivatives lie in T: its block is 0."""
    p = f.domain_dim
    nv = 1 + 2 * p
    jet = lift_jet(f, pt[1:1 + p], 3)
    d = _cone_derivatives(jet, pt, p)
    basis, ann = _frame([d(), *map(d, range(nv))])
    paired = _cone_derivatives({k: integer_mul_vec(ann, vec) for k, vec in jet.items()}, pt, p)
    return len(basis), _rank([[x for c in basis if c for x in paired(c - 1, k)]
                              for k in range(nv)])


def gauss_fiber_dimension(f: PolyMap, stream, trials: int = 5) -> int:
    """General fiber dimension of the Gauss map of the tangential variety of
    the image of f: dim(tau) - rank of the differential of the tangent-space
    assignment, from the 2-jet of the cone g over tau, read off the 3-jet of
    the lift of f paired with the annihilator of the tangent space T, which
    keeps every rank modulo T, at special points too."""
    nv = 1 + 2 * f.domain_dim
    d_hat, gauss_rank = certified_value(
        lambda b, strm: _gauss_sample(f, fully_nonzero_vector(nv, b, strm)), stream, trials,
        what="Gauss map rank")
    return (d_hat - 1) - gauss_rank
