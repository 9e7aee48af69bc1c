"""The symbolic route the dimension oracles took before they read point jets:
the join and tangent maps built as PolyMaps, their Jacobians differentiated
at each sample, and the Gauss differential taken from symbolic second
derivatives.  Kept as the reference the jet-based oracles of
`secantgeo.oracles` are checked against, at the same sample points.  With
them `embed`, which left `Poly` once only these maps used it.  Also kept:
the closure kernels the tangent and Gauss oracles used on point jets before
they read their frames off the jet's keys, `closure_tangent_rank` and
`closure_gauss_sample`, at the same points as `oracles._tangent_rank` and
`oracles._gauss_sample`."""

from secantgeo.genericity import certified_value, fully_nonzero_vector
from linalg_reference import Subspace, col, rank
from secantgeo.linalg import Matrix, _rank, integer_combination, integer_mul_vec
from secantgeo.oracles import _frame, _join_point, _join_ranks
from secantgeo.polymaps import Poly, PolyMap, lift_jet, poly_sum
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


def closure_tangent_rank(f: PolyMap, pt) -> int:
    """The rank of the cone's differential at pt = (s, u, t): its first
    partials in every variable, each from the closure."""
    p = f.domain_dim
    d = _cone_derivatives(lift_jet(f, pt[1:1 + p], 2), pt, p)
    return _rank([d(k) for k in range(1 + 2 * p)])


def closure_gauss_sample(f: PolyMap, pt) -> tuple[int, int]:
    """(dim T, rank of the Gauss differential) at pt: the cone's value and
    first partials as the frame, and every second partial of each basis
    generator, all from the closure, on the jet paired with ann."""
    p = f.domain_dim
    nv = 1 + 2 * p
    jet = lift_jet(f, pt[1:1 + p], 3)
    d = _cone_derivatives(jet, pt, p)
    basis, ann = _frame([d(), *map(d, range(nv))])
    paired = _cone_derivatives({k: integer_mul_vec(ann, vec) for k, vec in jet.items()}, pt, p)
    return len(basis), _rank([[x for c in basis if c for x in paired(c - 1, k)]
                              for k in range(nv)])
