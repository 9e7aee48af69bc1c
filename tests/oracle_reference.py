"""The symbolic route the dimension oracles took before they read point jets:
the join and tangent maps built as PolyMaps, their Jacobians differentiated
at each sample, and the Gauss differential taken from symbolic second
derivatives.  Kept as the reference the jet-based oracles of
`secantgeo.oracles` are checked against, at the same sample points.  With
them `embed`, which left `Poly` once only these maps used it."""

from secantgeo.genericity import certified_value, fully_nonzero_vector
from linalg_reference import Subspace, col, rank
from secantgeo.linalg import Matrix
from secantgeo.oracles import _join_point, _join_ranks
from secantgeo.polymaps import Poly, PolyMap, poly_sum
from secantgeo.scalars import Scalar


def embed(p: Poly, nvars: int, offset: int) -> Poly:
    """The same polynomial in a larger variable space, its variables
    shifted by offset."""
    pad = (0,) * offset, (0,) * (nvars - offset - p.nvars)
    return Poly(nvars, {pad[0] + e + pad[1]: c for e, c in p.terms.items()})


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
            parts.append(s_var * embed(comp, nv, i * p))
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
        base = embed(comp, nv, 1)
        parts = [base]
        for alpha in range(p):
            d = comp.diff(alpha)
            if d.is_zero():
                continue
            parts.append(Poly.variable(nv, 1 + p + alpha) * embed(d, nv, 1))
        comps.append(s_var * poly_sum(nv, parts))
    return PolyMap(nv, len(lift), False, tuple(comps), conical=True)


def _scalars(pt):
    return [Scalar(x) for x in pt]


def _gauss_sample(f: PolyMap, bound: int, stream) -> tuple[int, int]:
    """(dim of the affine tangent space, rank of the Gauss differential)."""
    pt = _scalars(fully_nonzero_vector(f.domain_dim, bound, stream))
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
        column = list(col(gen_mat, cidx))
        cand = Subspace.from_vectors(m, chosen + [column])
        if cand.dim > len(chosen):
            basis_idx.append(cidx)
            chosen.append(column)
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


def _prefix_join_ranks(maps: list, p: int, pt) -> tuple[int, ...]:
    """The rank of the j-point join Jacobian maps[j - 1] at the first j
    source blocks and the first j scalings of the k-point sample pt, for
    each j = 1..k, k = len(maps) and p the source dimension."""
    k = len(maps)
    return tuple(rank(g.jacobian_at(_scalars(pt[:j * p] + pt[k * p:k * p + j])))
                 for j, g in enumerate(maps, 1))


def join_dimension(f: PolyMap, k_max: int, stream, trials: int = 5) -> tuple[int, ...]:
    maps = [build_join_map(f, j) for j in range(1, k_max + 1)]
    val = certified_value(
        lambda b, s: _prefix_join_ranks(maps, f.domain_dim, _join_point(f, k_max, b, s)),
        stream, trials, what="join ranks (k <= %d)" % k_max)
    return tuple(r - 1 for r in val)


def tangent_join_dimension(f: PolyMap, stream, trials: int = 5) -> int:
    g = build_tangent_map(f)
    val = certified_value(
        lambda b, s: rank(g.jacobian_at(_scalars(fully_nonzero_vector(g.domain_dim, b, s)))),
        stream, trials, what="tangential rank")
    return val - 1


def gauss_fiber_dimension(f: PolyMap, stream, trials: int = 5) -> int:
    """General fiber dimension of the Gauss map of the image of f.  The
    package's `gauss_fiber_dimension(f, ...)`, of the tangential variety,
    is this one applied to `build_tangent_map(f)`."""
    d_hat, gauss_rank = certified_value(
        lambda b, s: _gauss_sample(f, b, s), stream, trials, what="Gauss map rank")
    return (d_hat - 1) - gauss_rank


def terracini_consistency_check(f: PolyMap, stream, samples: int = 5,
                                bound: int = 3) -> bool:
    """At `samples` random join points (x, y, s, t), the ranks of the
    symbolic join Jacobians of x and of (x, y) must equal the package's
    prefix ranks from point jets: the dimensions of the affine tangent
    space at x and of the span of the two (Terracini's lemma)."""
    maps = [build_join_map(f, 1), build_join_map(f, 2)]
    for _ in range(samples):
        pt = _join_point(f, 2, bound, stream)
        if _prefix_join_ranks(maps, f.domain_dim, pt) != _join_ranks(f, 2, pt):
            return False
    return True
