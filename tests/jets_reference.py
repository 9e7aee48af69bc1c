"""The chart round trip `secantgeo.jets.chart_roundtrip_check` made before
it cleared the chart to Gaussian integers: replay the chart along each line
with Scalar `Poly` series, dividing by the pivot series, and compose the
graph with the tangent coordinates.  Kept as the reference the integer
identity is checked against; same draws, same exact answer.

With it, the chart's linear algebra and the refined cubic form as they were
before they went to Gaussian integers: `chart_fields` takes the tangent
rows from a Scalar RREF, the normal correction from `solve_left` and the
tangent inverse from `inverse` (`invert_map_series`), and
`refined_third_form_cube` reduces c3(v) modulo a Scalar `Subspace`.
`c3_entry` and `c4_entry` read single symmetric coefficients of a chart.
"""

from math import factorial

from linalg_reference import Subspace, inverse, rref, solve_left, transpose
from secantgeo.genericity import nonzero_vector
from secantgeo.jets import JetChart, _pivot_score
from secantgeo.linalg import Matrix, _unit
from secantgeo.polymaps import Poly, PolyMap
from secantgeo.scalars import ZERO, Scalar, _coerce
from secantgeo.series import (compose_each, compose_trunc, mul_trunc, reciprocal_trunc,
                              shift_poly)


def chart_roundtrip_check(f: PolyMap, j: JetChart, stream, samples: int = 10,
                          bound: int = 3) -> bool:
    """Replay the recorded chart along random lines u0 + t h and compare the
    one-variable Taylor expansions of the normal coordinates against the
    graph, exactly modulo degree > order.  Raises ZeroDivisionError when the
    pivot series vanishes at t = 0."""
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
    g = j.c2[s] + j.c3[s]
    if j.c4 is not None:
        g = g + j.c4[s]
    return g


def refined_third_form_cube(j: JetChart, v, image: Subspace) -> tuple[list[Scalar], bool]:
    """The cubic form contracted three times with v, reduced modulo
    image = II_v(T); returns (canonical residue representative, is zero)."""
    residue = image.reduce([p.evaluate(v) for p in j.c3])
    return residue, not any(residue)


def chart_fields(f: PolyMap, u0, order: int) -> tuple:
    """(normal_correction, c2, c3, c4) of `secantgeo.jets.chart_at` at u0,
    by the Scalar solver route."""
    u0 = tuple(_coerce(x) for x in u0)
    n, lift = f.domain_dim, f.lift()
    values = [p.evaluate(u0) for p in lift]
    pivot = max((i for i, v in enumerate(values) if v),
                key=lambda i: (_pivot_score(values[i]), -i))
    shifted = [shift_poly(p, u0).truncated(order) for p in lift]
    inv_piv = reciprocal_trunc(shifted[pivot], order)
    coords = [mul_trunc(shifted[b], inv_piv, order) for b in range(len(lift)) if b != pivot]
    centered = [p - Poly.constant(n, p.terms.get((0,) * n, ZERO)) for p in coords]
    diff = Matrix(len(centered), n, [[p.graded_part(1).terms.get(_unit(n, j), ZERO)
                                      for j in range(n)] for p in centered])
    trows = rref(transpose(diff))[0]
    nrows = [i for i in range(len(centered)) if i not in trows]
    corr = solve_left(Matrix(n, n, [diff.data[i] for i in trows]),
                      Matrix(len(nrows), n, [diff.data[i] for i in nrows]))
    y_tan = [centered[i] for i in trows]
    y_nor = []
    for s, i in enumerate(nrows):
        p = centered[i]
        for alpha in range(n):
            c = corr.at(s, alpha)
            if c:
                p = p - y_tan[alpha].scale(c)
        y_nor.append(p)
    graphs = compose_each(y_nor, invert_map_series(y_tan, order), order)
    c2 = tuple(g.graded_part(2) for g in graphs)
    c3 = tuple(g.graded_part(3) for g in graphs)
    c4 = tuple(g.graded_part(4) for g in graphs) if order >= 4 else None
    return corr, c2, c3, c4


def invert_map_series(ys, order: int) -> list[Poly]:
    """`secantgeo.series.invert_map_series` with the linear part inverted
    by the Scalar `inverse`."""
    n = len(ys)
    lin_inv = inverse(Matrix(n, n, [[y.graded_part(1).terms.get(_unit(n, j), ZERO)
                                     for j in range(n)] for y in ys]))
    higher = [Poly(n, {e: c for e, c in y.terms.items() if sum(e) >= 2}) for y in ys]
    ident = [Poly.variable(n, i) for i in range(n)]

    def apply_inv(vec):
        out = []
        for row in lin_inv.data:
            acc = Poly(n)
            for c, p in zip(row, vec):
                if c:
                    acc = acc + p.scale(c)
            out.append(acc)
        return out

    phi = apply_inv(ident)
    for _ in range(order - 1):
        hx = compose_each(higher, phi, order)
        phi = apply_inv([ident[i] - hx[i] for i in range(n)])
    return [p.truncated(order) for p in phi]


def c3_entry(j: JetChart, mu: int, alpha: int, beta: int, gamma: int) -> Scalar:
    """The symmetric coefficient c3[mu]_(alpha, beta, gamma)."""
    return _sym_entry(j.c3[mu], (alpha, beta, gamma))


def c4_entry(j: JetChart, mu: int, i: int, k: int, l: int, m: int) -> Scalar:
    """The symmetric coefficient c4[mu]_(i, k, l, m) of an order-4 chart."""
    if j.c4 is None:
        raise ValueError("order-4 coefficients were not requested")
    return _sym_entry(j.c4[mu], (i, k, l, m))


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
