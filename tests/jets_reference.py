"""The chart round trip `secantgeo.jets.chart_roundtrip_check` made before
it cleared the chart to Gaussian integers: replay the chart along each line
with Scalar `Poly` series, dividing by the pivot series, and compose the
graph with the tangent coordinates.  Kept as the reference the integer
identity is checked against; same draws, same exact answer."""

from secantgeo.genericity import nonzero_vector
from secantgeo.jets import JetChart
from secantgeo.polymaps import Poly, PolyMap
from secantgeo.scalars import Scalar
from secantgeo.series import compose_each, compose_trunc, mul_trunc, reciprocal_trunc


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
