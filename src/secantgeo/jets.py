"""Adapted jet charts: the quadratic and cubic graph of a variety over its
tangent space at a point.

chart_at picks an affine chart of the target, recenters the image at the
origin, moves the tangent space onto the first n coordinates by an exact
linear change, inverts the tangent projection as a truncated series and
reads off the graph coefficients.  Everything is exact; the truncation
order (3 or 4) only limits which coefficients exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .genericity import nonzero_vector
from .linalg import Matrix, Subspace, _basis_vec, _unit, rref, solve_left
from .polymaps import Poly, PolyMap
from .quadrics import QuadricSystem
from .scalars import ZERO, Scalar, _coerce
from .series import compose_each, compose_trunc, invert_map_series, mul_trunc, reciprocal_trunc, shift_poly


class ChartError(ValueError):
    pass


class NotImmersiveError(ChartError):
    pass


@dataclass(frozen=True)
class JetChart:
    base_point: tuple[Scalar, ...]
    tangent_frame: Subspace
    normal_frame: Subspace
    q: tuple[Matrix, ...]
    c3: tuple[Poly, ...]
    c4: tuple[Poly, ...] | None
    order: int
    # chart bookkeeping, needed to replay the coordinate changes
    pivot_index: int
    chart_center: tuple[Scalar, ...]
    tangent_rows: tuple[int, ...]
    normal_rows: tuple[int, ...]
    normal_correction: Matrix

    @property
    def n(self) -> int:
        return len(self.tangent_rows)

    @property
    def a(self) -> int:
        return len(self.normal_rows)

    def c3_entry(self, mu: int, alpha: int, beta: int, gamma: int) -> Scalar:
        return _sym_entry(self.c3[mu], (alpha, beta, gamma))

    def c4_entry(self, mu: int, i: int, j: int, k: int, l: int) -> Scalar:
        if self.c4 is None:
            raise ValueError("order-4 coefficients were not requested")
        return _sym_entry(self.c4[mu], (i, j, k, l))


def _sym_entry(p: Poly, idx) -> Scalar:
    e = [0] * p.nvars
    for i in idx:
        e[i] += 1
    coeff = p.terms.get(tuple(e))
    if coeff is None:
        return ZERO
    mult = factorial(len(idx))
    for k in e:
        mult //= factorial(k)
    return coeff / Scalar(mult)


def _pivot_score(z: Scalar):
    n = z.norm_sq()
    return int(n.numerator) * int(n.denominator)


def chart_at(f: PolyMap, u0, order: int = 3) -> JetChart:
    """Adapted chart of the image of f at f(u0).

    The affine target chart divides by the nonvanishing lift coordinate of
    maximal |numerator * denominator|; ties pick the lowest index.  Raises
    NotImmersiveError when the differential drops rank at u0 and ChartError
    when every lift coordinate vanishes there.
    """
    if order not in (3, 4):
        raise ValueError("order must be 3 or 4")
    u0 = tuple(_coerce(x) for x in u0)
    if len(u0) != f.domain_dim:
        raise ValueError("base point length != domain_dim")
    lift = f.lift()
    values = [p.evaluate(u0) for p in lift]
    if not any(values):
        raise ChartError("every lift coordinate vanishes at the base point")
    pivot = max((i for i, v in enumerate(values) if v),
                key=lambda i: (_pivot_score(values[i]), -i))

    shifted = [shift_poly(p, u0).truncated(order) for p in lift]
    inv_piv = reciprocal_trunc(shifted[pivot], order)
    body = [i for i in range(len(lift)) if i != pivot]
    coords = [mul_trunc(shifted[b], inv_piv, order) for b in body]
    center = [p.terms.get((0,) * f.domain_dim, ZERO) for p in coords]
    centered = [p - Poly.constant(f.domain_dim, c) for p, c in zip(coords, center)]

    m = len(body)
    n = f.domain_dim
    diff_rows = [[p.graded_part(1).terms.get(_unit(n, j), ZERO) for j in range(n)] for p in centered]
    diff = Matrix(m, n, diff_rows)
    tangent_pivots, _ = rref(diff.transpose())
    if len(tangent_pivots) < n:
        raise NotImmersiveError("differential has rank %d < %d at the base point"
                                % (len(tangent_pivots), n))
    trows = tuple(tangent_pivots)
    nrows = tuple(i for i in range(m) if i not in set(trows))
    a = len(nrows)

    mr = Matrix(n, n, [diff_rows[i] for i in trows])
    if a:
        ms = Matrix(a, n, [diff_rows[i] for i in nrows])
        corr = solve_left(mr, ms)
    else:
        corr = Matrix(0, n, [])

    y_tan = [centered[i] for i in trows]
    y_nor = []
    for s, i in enumerate(nrows):
        p = centered[i]
        for alpha in range(n):
            c = corr.at(s, alpha)
            if c:
                p = p - y_tan[alpha].scale(c)
        if not p.graded_part(1).is_zero():
            raise AssertionError("normal coordinate kept a linear part")
        y_nor.append(p)

    phi = invert_map_series(y_tan, order)
    graphs = compose_each(y_nor, phi, order)
    for g in graphs:
        if not g.truncated(1).is_zero():
            raise AssertionError("graph coordinate kept terms below order 2")

    qmats = []
    for g in graphs:
        g2 = g.graded_part(2)
        rows = [[_q_entry(g2, i, j, n) for j in range(n)] for i in range(n)]
        qmats.append(Matrix(n, n, rows))
    c3 = tuple(g.graded_part(3) for g in graphs)
    c4 = tuple(g.graded_part(4) for g in graphs) if order >= 4 else None

    tangent_frame = Subspace.from_vectors(m, [diff.col(j) for j in range(n)])
    normal_frame = Subspace.from_vectors(m, [_basis_vec(m, i) for i in nrows])
    return JetChart(
        base_point=u0,
        tangent_frame=tangent_frame,
        normal_frame=normal_frame,
        q=tuple(qmats),
        c3=c3,
        c4=c4,
        order=order,
        pivot_index=pivot,
        chart_center=tuple(center),
        tangent_rows=trows,
        normal_rows=nrows,
        normal_correction=corr,
    )


def _q_entry(g2: Poly, i: int, j: int, n: int) -> Scalar:
    e = [0] * n
    e[i] += 1
    e[j] += 1
    c = g2.terms.get(tuple(e))
    if c is None:
        return ZERO
    return c if i == j else c / Scalar(2)


def second_fundamental_form(j: JetChart) -> QuadricSystem:
    return QuadricSystem(j.n, j.a, j.q)


def refined_third_form_cube(j: JetChart, v, image: Subspace) -> tuple[list[Scalar], bool]:
    """The cubic form contracted three times with v, reduced modulo
    image = II_v(T); returns (canonical residue representative, is zero)."""
    residue = image.reduce([p.evaluate(v) for p in j.c3])
    return residue, not any(residue)


def chart_roundtrip_check(f: PolyMap, j: JetChart, stream, samples: int = 10,
                          bound: int = 3) -> bool:
    """Replay the recorded chart along random lines u0 + t h and compare the
    one-variable Taylor expansions of the normal coordinates against the
    graph, exactly modulo degree > order."""
    order = j.order
    n = f.domain_dim
    lift = f.lift()
    for _ in range(samples):
        h = nonzero_vector(n, bound, stream)
        gs = [Poly.constant(1, j.base_point[i]) + Poly.variable(1, 0, h[i]) for i in range(n)]
        line = compose_each(lift, gs, order)
        inv_piv = reciprocal_trunc(line[j.pivot_index], order)
        body = [i for i in range(len(lift)) if i != j.pivot_index]
        coords = [mul_trunc(line[b], inv_piv, order) for b in body]
        centered = [p - Poly.constant(1, c) for p, c in zip(coords, j.chart_center)]
        y_tan = [centered[i] for i in j.tangent_rows]
        for s, i in enumerate(j.normal_rows):
            y = centered[i]
            for alpha in range(n):
                c = j.normal_correction.at(s, alpha)
                if c:
                    y = y - y_tan[alpha].scale(c)
            g = _graph_poly(j, s)
            expect = compose_trunc(g, y_tan, order)
            if not (y - expect).truncated(order).is_zero():
                return False
    return True


def _graph_poly(j: JetChart, s: int) -> Poly:
    g2 = Poly(j.n, {})
    for i in range(j.n):
        for k in range(i, j.n):
            c = j.q[s].at(i, k)
            if c:
                e = [0] * j.n
                e[i] += 1
                e[k] += 1
                g2 = g2 + Poly.monomial(j.n, e, c if i == k else c * Scalar(2))
    g = g2 + j.c3[s]
    if j.c4 is not None:
        g = g + j.c4[s]
    return g
