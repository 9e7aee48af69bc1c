"""Independent dimension oracles by exact Jacobian ranks at random points.

These never look at fundamental forms: a secant or tangent variety is
parametrized directly and its dimension read off the rank of an exact
Jacobian at certified-generic parameters.  Formula-based dimensions are
always cross-checked against these.
"""

from __future__ import annotations

from .genericity import certified_value, fully_nonzero_vector
from .linalg import Matrix, Subspace, rank, span_sum
from .polymaps import Poly, PolyMap, poly_sum
from .scalars import Scalar


def build_join_map(f: PolyMap, k: int) -> PolyMap:
    """(u_1, ..., u_k, s_1, ..., s_k) -> sum s_i lift(u_i); its image is the
    cone over the k-th secant variety (k = 1: over the variety itself)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    p = f.domain_dim
    nv = k * p + k
    lift = f.lift()
    comps = []
    for comp in lift:
        parts = []
        for i in range(k):
            s_var = Poly.variable(nv, k * p + i)
            parts.append(s_var * comp.embed(nv, i * p))
        comps.append(poly_sum(nv, parts))
    return PolyMap(nv, len(lift), False, tuple(comps), conical=True)


def build_tangent_map(f: PolyMap) -> PolyMap:
    """(s, u, t) -> s (lift(u) + t^alpha d_alpha lift(u)); its image is the
    cone over the tangential variety of the smooth locus."""
    p = f.domain_dim
    nv = 1 + 2 * p
    lift = f.lift()
    comps = []
    s_var = Poly.variable(nv, 0)
    for comp in lift:
        base = comp.embed(nv, 1)
        parts = [base]
        for alpha in range(p):
            d = comp.diff(alpha)
            if d.is_zero():
                continue
            parts.append(Poly.variable(nv, 1 + p + alpha) * d.embed(nv, 1))
        comps.append(s_var * poly_sum(nv, parts))
    return PolyMap(nv, len(lift), False, tuple(comps), conical=True)


def _jacobian_rank_sample(g: PolyMap, bound: int, stream) -> int:
    pt = fully_nonzero_vector(g.domain_dim, bound, stream)
    return rank(g.jacobian_at(pt))


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
    """Sample parameters for a join map: k source points plus k scalings.
    Source blocks that name the same point of the variety never see the
    generic join rank, so exact duplicates are redrawn."""
    p = f.domain_dim
    blocks = [fully_nonzero_vector(p, bound, stream) for _ in range(k)]
    for _ in range(16):
        if not _blocks_collide(blocks, f.projective):
            break
        blocks = [fully_nonzero_vector(p, bound, stream) for _ in range(k)]
    pt = [x for b in blocks for x in b]
    pt.extend(fully_nonzero_vector(k, bound, stream))
    return pt


def join_dimension(f: PolyMap, k: int, stream, trials: int = 5) -> int:
    """Projective dimension of the k-th secant variety (k = 1: of the
    variety itself), certified across trials."""
    g = build_join_map(f, k)
    val = certified_value(lambda b, s: rank(g.jacobian_at(_join_point(f, k, b, s))),
                          stream, trials, what="join rank (k=%d)" % k)
    return val - 1

def terracini_consistency_check(f: PolyMap, stream, samples: int = 5,
                                bound: int = 3) -> bool:
    """The rank of the k = 2 join Jacobian at (x, y, s, t) must equal the
    dimension of the span of the two affine tangent spaces; checked exactly
    at `samples` random parameter pairs."""
    g = build_join_map(f, 2)
    lift = f.lift()
    m = len(lift)
    p = f.domain_dim

    def tangent_at(u) -> Subspace:
        gens = [[q.evaluate(u) for q in lift]]
        for j in range(p):
            gens.append([q.diff(j).evaluate(u) for q in lift])
        return Subspace.from_vectors(m, gens)

    for _ in range(samples):
        pt = _join_point(f, 2, bound, stream)
        jr = rank(g.jacobian_at(pt))
        spanned = span_sum([tangent_at(pt[:p]), tangent_at(pt[p:2 * p])])
        if jr != spanned.dim:
            return False
    return True


def tangent_join_dimension(f: PolyMap, stream, trials: int = 5) -> int:
    """Projective dimension of the tangential variety of the smooth locus."""
    g = build_tangent_map(f)
    val = certified_value(lambda b, s: _jacobian_rank_sample(g, b, s), stream, trials,
                          what="tangential rank")
    return val - 1


def _gauss_sample(f: PolyMap, bound: int, stream) -> tuple[int, int]:
    """(dim of the affine tangent space, rank of the Gauss differential)."""
    pt = fully_nonzero_vector(f.domain_dim, bound, stream)
    p = f.domain_dim
    lift = f.lift()
    m = len(lift)
    value = [q.evaluate(pt) for q in lift]
    jac_cols = [[q.diff(j).evaluate(pt) for q in lift] for j in range(p)]
    gens = [value] + jac_cols  # frame generating the affine tangent space
    gen_mat = Matrix(m, 1 + p, zip(*gens))
    tangent = Subspace.from_vectors(m, gens)
    d_hat = tangent.dim

    # columns of gen_mat that give a pointwise basis of the tangent space
    basis_idx = []
    chosen: list[list[Scalar]] = []
    for cidx in range(1 + p):
        col = list(gen_mat.col(cidx))
        cand = Subspace.from_vectors(m, chosen + [col])
        if cand.dim > len(chosen):
            basis_idx.append(cidx)
            chosen.append(col)
        if len(chosen) == d_hat:
            break

    # derivative of each basis generator in each parameter direction,
    # reduced modulo the tangent space: the Gauss differential lands in
    # Hom(T, C^m / T)
    rows = []
    for k in range(p):
        row: list[Scalar] = []
        for cidx in basis_idx:
            if cidx == 0:
                dvec = [jac_cols[k][i] for i in range(m)]
            else:
                j = cidx - 1
                dvec = [lift[i].diff(j).diff(k).evaluate(pt) for i in range(m)]
            row.extend(tangent.reduce(dvec))
        rows.append(row)
    gauss_rank = rank(Matrix(p, len(rows[0]), rows)) if rows and rows[0] else 0
    return d_hat, gauss_rank


def gauss_fiber_dimension(f: PolyMap, stream, trials: int = 5) -> int:
    """General fiber dimension of the Gauss map of the image of f:
    dim(image) - rank of the differential of the tangent-space assignment."""
    d_hat, gauss_rank = certified_value(
        lambda b, s: _gauss_sample(f, b, s), stream, trials, what="Gauss map rank")
    return (d_hat - 1) - gauss_rank

