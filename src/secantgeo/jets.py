"""Adapted jet charts: the quadratic and cubic graph of a variety over its
tangent space at a point.

chart_at picks an affine chart of the target, recenters the image at the
origin, moves the tangent space onto the first n coordinates by an exact
linear change, inverts the tangent projection as a truncated series and
reads off the graph coefficients: its graded parts c2, c3 (and c4) as
`Poly`s.  Everything is exact; the truncation order (3 or 4) only limits
which coefficients exist.  `second_fundamental_form` reads the quadrics
off c2, halving each off-diagonal entry once.

chart_roundtrip_check certifies a chart on Gaussian integers: the lift,
base point, center, normal correction and graph are cleared of their
denominators once, and along each random line the graph identity is
checked multiplied through by the units it would divide by, as one
identity between univariate series over Z[i] per normal row.  The Scalar
`Poly` route it replaced is the reference in `tests/jets_reference.py`.
"""

from __future__ import annotations

from typing import NamedTuple

from .genericity import nonzero_vector
from .linalg import (IntegerSpan, Matrix, _integer_rows, _unit, eliminate, integer_combination,
                     integer_values, scalar_values, solve)
from .polymaps import Poly, PolyMap
from .quadrics import QuadricSystem, quadric_system
from .scalars import ZERO, Scalar, _coerce
from .series import compose_each, invert_map_series, mul_trunc, reciprocal_trunc, shift_poly


class ChartError(ValueError):
    pass


class NotImmersiveError(ChartError):
    pass


class JetChart(NamedTuple):
    base_point: tuple[Scalar, ...]
    c2: tuple[Poly, ...]
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
    # the rows of diff^T, each cleared once: the pivot columns of its row
    # space are the tangent rows, and the normal correction corr = ms mr^-1
    # (ms, mr the normal and tangent rows of diff) is read off its columns
    # as corr^T = solve(mr^T, ms^T)
    diff_t = _integer_rows([[p.graded_part(1).terms.get(_unit(n, j), ZERO) for p in centered]
                            for j in range(n)])
    tangent_pivots = eliminate(diff_t)[0]
    if len(tangent_pivots) < n:
        raise NotImmersiveError("differential has rank %d < %d at the base point"
                                % (len(tangent_pivots), n))
    trows = tuple(tangent_pivots)
    nrows = tuple(i for i in range(m) if i not in set(trows))
    a = len(nrows)
    x, last = solve([[r[i] for i in trows] for r in diff_t],
                    [[r[i] for i in nrows] for r in diff_t])
    corr = Matrix(a, n, [scalar_values(col, last) for col in zip(*x)])

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

    return JetChart(
        base_point=u0,
        c2=tuple(g.graded_part(2) for g in graphs),
        c3=tuple(g.graded_part(3) for g in graphs),
        c4=tuple(g.graded_part(4) for g in graphs) if order >= 4 else None,
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
    """The quadrics of c2: its square terms on the diagonal, half of each
    cross term off it."""
    n = j.n
    return quadric_system(n, [[[_q_entry(g2, i, k, n) for k in range(n)] for i in range(n)]
                              for g2 in j.c2])


def refined_third_form_cube(j: JetChart, v, image: IntegerSpan) -> bool:
    """Whether the cubic form contracted three times with v, cleared to
    Gaussian integers, lies in image = II_v(T): the refined cubic form
    vanishes at v."""
    return image.contains(integer_values([p.evaluate(v) for p in j.c3])[0])


def chart_roundtrip_check(f: PolyMap, j: JetChart, stream, samples: int = 10,
                          bound: int = 3) -> bool:
    """Replay the recorded chart along random lines u0 + t h and compare the
    one-variable Taylor expansions of the normal coordinates against the
    graph, exactly modulo t^(k+1), k the chart order.

    Everything is cleared to Gaussian integers first: the lift (one common
    denominator, which cancels in the chart), the base point u0 = U / d (the
    lift scaled by d^deg), the center C / delta, each correction row K /
    kappa and each graph row G_2 + ... + G_k over omega.  Along a line the
    lift gives integer series, P the pivot's, and with Y = delta L - C P and
    Z_s = kappa Y_s - K Y_tan the test y_s = g_s(y_tan) reads, times the
    unit kappa omega (delta P)^k,

        omega (delta P)^(k-1) Z_s = kappa sum_m (delta P)^(k-m) G_m(Y_tan),

    so nothing divides.  A pivot vanishing at t = 0 is no unit and fails."""
    k, n = j.order, f.domain_dim
    lift = f.lift()
    graphs = [_graph_terms(j, s) for s in range(j.a)]
    zero, one = [0] * (k + 1), [1] + [0] * k

    u, d = integer_values(j.base_point)
    deg = max(q.degree() for q in lift)
    coeffs = iter(integer_values([c for q in lift for c in q.terms.values()])[0])
    lift_terms = [[(next(coeffs) * d ** (deg - sum(e)), e) for e in q.terms] for q in lift]
    center, delta = integer_values(j.chart_center)
    # per normal row: Z_s times omega as terms (coefficient, index into Y),
    # and kappa G_m as terms (coefficient, exponent) for m = 2, ..., k
    rows = []
    for s, i in enumerate(j.normal_rows):
        kk, kappa = integer_values(j.normal_correction.data[s])
        gg, omega = integer_values([c for _, c in graphs[s]])
        z = [(omega * kappa, i)] + [(-c * omega, t) for c, t in zip(kk, j.tangent_rows)]
        g = [[(c * kappa, e) for c, (e, _) in zip(gg, graphs[s]) if sum(e) == m]
             for m in range(2, k + 1)]
        rows.append((z, g))

    for _ in range(samples):
        h = nonzero_vector(n, bound, stream)
        # U_i + d h_i t, the line times d
        line = [[x, d * y] + zero[2:] for x, y in zip(u, h)]
        lmono = _monomials(line, one)
        big = [integer_combination([(c, lmono(e)) for c, e in terms]) if terms else zero
               for terms in lift_terms]
        p = big[j.pivot_index]
        if not p[0]:
            return False
        body = big[:j.pivot_index] + big[j.pivot_index + 1:]
        y = [integer_combination([(delta, b), (-c, p)]) for b, c in zip(body, center)]
        ymono = _monomials([y[i] for i in j.tangent_rows], one)
        dp = [delta * x for x in p]
        dp_top = dp  # (delta P)^(k-1)
        for _ in range(k - 2):
            dp_top = _mul_series(dp_top, dp)
        for z, g in rows:
            rhs = zero  # sum_m (delta P)^(k-m) G_m by Horner's rule
            for gm in g:
                rhs = _mul_series(rhs, dp)
                if gm:
                    rhs = integer_combination([(1, rhs)] + [(c, ymono(e)) for c, e in gm])
            if _mul_series(integer_combination([(c, y[t]) for c, t in z]), dp_top) != rhs:
                return False
    return True


def _graph_terms(j: JetChart, s: int) -> list:
    """The graph of normal row s as (exponent, coefficient) pairs: c2, c3,
    then c4."""
    parts = (j.c2, j.c3) if j.c4 is None else (j.c2, j.c3, j.c4)
    return [t for c in parts for t in c[s].terms.items()]


def _monomials(xs: list, one: list):
    """e -> prod_i xs[i]^e_i, truncated, memoized: each monomial of degree
    two or more is one product with a monomial of one degree lower."""
    cache = {(0,) * len(xs): one}
    cache.update((_unit(len(xs), i), x) for i, x in enumerate(xs))

    def mono(e):
        m = cache.get(e)
        if m is None:
            i = next(i for i, x in enumerate(e) if x)
            m = cache[e] = _mul_series(xs[i], mono(e[:i] + (e[i] - 1,) + e[i + 1:]))
        return m

    return mono


def _mul_series(a: list, b: list) -> list:
    """a b over Z[i], truncated to the length of a."""
    k = len(a)
    out = [0] * k
    for i, x in enumerate(a):
        if x:
            for l in range(k - i):
                out[i + l] += x * b[l]
    return out
