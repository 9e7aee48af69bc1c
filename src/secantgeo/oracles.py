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


def _join_point(f: PolyMap, k: int, bound: int, stream):
    """Sample parameters for the join (u_1, ..., u_k, s_1, ..., s_k) ->
    sum s_i lift(u_i).  A source block naming the point of an earlier one
    (equal, or proportional for a homogeneous map) never sees the generic
    rank: it alone is redrawn, at most 16 times, its box doubled each time.
    The scalings stay at the bound."""
    blocks = []
    for _ in range(k):
        box = bound
        w = fully_nonzero_vector(f.domain_dim, box, stream)
        for _ in range(16):
            if not any(all(x * b[0] == y * w[0] for x, y in zip(w, b)) if f.projective
                       else w == b for b in blocks):
                break
            box *= 2
            w = fully_nonzero_vector(f.domain_dim, box, stream)
        blocks.append(w)
    return [x for b in blocks for x in b] + fully_nonzero_vector(k, bound, stream)


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


def _along_t(jet: dict, t, r: int) -> dict:
    """{key: jet[key] + sum_a t_a jet[key + a]} over the keys of length r - 1,
    sorted index tuples as in the jet, where a missing key is zero."""
    terms = {key: [(1, vec)] for key, vec in jet.items() if len(key) == r - 1}
    for key, vec in jet.items():
        if len(key) == r:
            for a in set(key):
                i = key.index(a)
                terms.setdefault(key[:i] + key[i + 1:], []).append((t[a], vec))
    return {key: integer_combination(ts) for key, ts in terms.items()}


def _tangent_rank(f: PolyMap, pt) -> int:
    """The rank of the cone g = s (L + t_a L_a) over the tangential variety at
    pt = (s, u, t), L the lift at u: that of the rows L, L_a and L_b + t_a
    L_ab, which span g's differential when s != 0."""
    p = f.domain_dim
    jet = lift_jet(f, pt[1:1 + p], 2)
    rows = [vec for key, vec in jet.items() if len(key) < 2]
    return _rank(rows + list(_along_t(jet, pt[1 + p:], 2).values()))


def tangent_join_dimension(f: PolyMap, stream, trials: int = 5) -> int:
    """Projective dimension of the tangential variety of the smooth locus."""
    nv = 1 + 2 * f.domain_dim
    return certified_value(lambda b, strm: _tangent_rank(f, fully_nonzero_vector(nv, b, strm)),
                           stream, trials, what="tangential rank") - 1


def _frame(gens) -> tuple[list, list]:
    """(basis, ann) from one elimination of [F | Id], F the m x g frame of the
    generators: its pivots below g are F's, a basis of their span T greedily
    in order, and its other rows' identity parts span T's annihilator."""
    g, m = len(gens), len(gens[0])
    pivots, rows, _ = eliminate([[*r, *(int(i == j) for j in range(m))]
                                 for i, r in enumerate(zip(*gens))])
    return [c for c in pivots if c < g], [r[g:] for c, r in zip(pivots, rows) if c >= g]


def _gauss_sample(f: PolyMap, pt) -> tuple[int, int]:
    """(dim T, rank of the Gauss differential in Hom(T, C^m / T)) at pt, g as
    in `_tangent_rank`.  Over s, T is spanned by v = L + t_a L_a (g, d_s g),
    L_b + t_a L_ab (d_u_b) and L_a (d_t_a).  Paired with T's annihilator (P
    of the jet), d_u_b's derivatives are P_bc + t_a P_abc along u_c and P_ab
    along t_a, d_t_a's P_ab along u_b; the others lie in T."""
    p = f.domain_dim
    t = pt[1 + p:]
    jet = lift_jet(f, pt[1:1 + p], 3)
    zero = [0] * len(jet[()])
    v, turned = _along_t(jet, t, 1)[()], _along_t(jet, t, 2)
    basis, ann = _frame([v, v, *[turned.get((b,), zero) for b in range(p)],
                         *[jet.get((a,), zero) for a in range(p)]])
    zero = [0] * len(ann)
    paired = {key: integer_mul_vec(ann, vec) for key, vec in jet.items() if len(key) > 1}
    hess = _along_t(paired, t, 3)

    def h(x, y):  # x stands for u_x if x < p, else for t_(x - p)
        table = hess if x < p and y < p else paired if x < p or y < p else {}
        return table.get(tuple(sorted((x % p, y % p))), zero)

    gens = [c - 2 for c in basis if c > 1]
    return len(basis), _rank([[e for x in gens for e in h(x, y)] for y in range(2 * p)])


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
