"""The chart and its round trip as `secantgeo.jets` computed them before
they went to Gaussian integers, on Scalar `Poly` series, kept as the
references the integer routes are checked against.

`chart_roundtrip_check` replays the chart along random lines with Scalar
series, dividing by the pivot series, and composes the graph with the
tangent coordinates.  The integer identity, checked once in all n
variables, holds exactly where this holds along every line.  `chart_fields` computes the chart's normal correction, c2, c3
and c4 by shifting the lift (`shift_poly`), dividing by the pivot series
(`reciprocal_trunc`), taking the tangent rows from a Scalar RREF, the
correction from `solve_left` and the tangent inverse from `inverse`
(`invert_map_series`).  `refined_third_form_cube` reduces c3(v) modulo a
Scalar `Subspace`.  `scalar_chart` reads a chart's cleared values as
Scalars for these routines, and `c3_entry` and `c4_entry` read single
symmetric coefficients of it.

The Scalar series routines (`mul_trunc`, `compose_each`, `compose_trunc`,
`shift_poly`, `reciprocal_trunc`, `invert_map_series`) are the reference
for the integer ones of `secantgeo.series`; with them `graded_part` and
`truncated`, which left `Poly` since only they use them.
"""

from math import factorial
from typing import Sequence

from linalg_reference import Subspace, inverse, rref, solve_left, transpose
from secantgeo.genericity import nonzero_vector
from secantgeo.jets import JetChart
from secantgeo.linalg import Matrix, _unit, integer_values, scalar_values
from secantgeo.polymaps import Poly, PolyMap
from secantgeo.scalars import ONE, ZERO, Scalar, _coerce


def graded_part(p: Poly, d: int) -> Poly:
    return Poly(p.nvars, {e: c for e, c in p.terms.items() if sum(e) == d})


def truncated(p: Poly, order: int) -> Poly:
    return Poly(p.nvars, {e: c for e, c in p.terms.items() if sum(e) <= order})


def _degree_buckets(p: Poly, order: int) -> list[list[tuple[tuple[int, ...], Scalar]]]:
    buckets: list[list] = [[] for _ in range(order + 1)]
    for e, c in p.terms.items():
        d = sum(e)
        if d <= order:
            buckets[d].append((e, c))
    return buckets


def mul_trunc(p: Poly, q: Poly, order: int) -> Poly:
    # bucket q by degree so only pairs below the cutoff are ever touched
    qb = _degree_buckets(q, order)
    out: dict = {}
    for e1, c1 in p.terms.items():
        d1 = sum(e1)
        if d1 > order:
            continue
        for d2 in range(order - d1 + 1):
            for e2, c2 in qb[d2]:
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                s = out.get(e)
                if s is None:
                    out[e] = c
                else:
                    s = s + c
                    if s:
                        out[e] = s
                    else:
                        del out[e]
    return Poly(p.nvars, out)


def compose_trunc(f: Poly, gs: Sequence[Poly], order: int) -> Poly:
    """f(g_1, ..., g_k) truncated; each g in a common variable space."""
    return compose_each((f,), gs, order)[0]


def compose_each(fs: Sequence[Poly], gs: Sequence[Poly], order: int) -> list[Poly]:
    """Substitute one tuple gs into several polynomials, sharing the caches
    of truncated powers and monomial products of the g_i across all of them."""
    nvars = gs[0].nvars if gs else 0
    powers: list[list[Poly]] = [[Poly.constant(nvars, 1)] for _ in gs]
    mono: dict[tuple[int, ...], Poly] = {}

    def power(i: int, k: int) -> Poly:
        p = powers[i]
        while len(p) <= k:
            p.append(mul_trunc(p[-1], gs[i], order))
        return p[k]

    def monomial(e: tuple[int, ...]) -> Poly:
        term = mono.get(e)
        if term is None:
            for i, k in enumerate(e):
                if not k:
                    continue
                term = power(i, k) if term is None else mul_trunc(term, power(i, k), order)
            mono[e] = term
        return term

    outs = []
    for f in fs:
        if len(gs) != f.nvars:
            raise ValueError("substitution arity mismatch")
        acc: dict = {}
        for e, c in f.terms.items():
            if any(e):
                pieces = [(e2, c * c2) for e2, c2 in monomial(e).terms.items()]
            else:
                pieces = [((0,) * nvars, c)]
            for e2, c2 in pieces:
                s = acc.get(e2)
                if s is None:
                    acc[e2] = c2
                else:
                    s = s + c2
                    if s:
                        acc[e2] = s
                    else:
                        del acc[e2]
        outs.append(Poly(nvars, acc))
    return outs


def shift_poly(p: Poly, point: Sequence[Scalar]) -> Poly:
    """p(point + h) as an exact polynomial in h."""
    gs = [Poly.constant(p.nvars, point[i]) + Poly.variable(p.nvars, i) for i in range(p.nvars)]
    return compose_trunc(p, gs, p.degree())


def reciprocal_trunc(p: Poly, order: int) -> Poly:
    """1/p as a series; requires a nonzero constant term."""
    c0 = p.terms.get((0,) * p.nvars)
    if not c0:
        raise ZeroDivisionError("series has no constant term")
    inv0 = ONE / c0
    w = (p - Poly.constant(p.nvars, c0)).scale(inv0)  # p = c0 (1 + w)
    acc = Poly.constant(p.nvars, 1)
    pw = Poly.constant(p.nvars, 1)
    sign = False
    for _ in range(order):
        pw = mul_trunc(pw, w, order)
        if pw.is_zero():
            break
        sign = not sign
        acc = acc - pw if sign else acc + pw
    return acc.scale(inv0)


def pivot_index(f: PolyMap, u0) -> int:
    """The lift coordinate the chart at u0 divides by: the nonvanishing value
    z of maximal numerator * denominator of |z|^2, the lowest index among
    ties."""
    values = [p.evaluate([_coerce(x) for x in u0]) for p in f.lift()]
    return max((i for i, v in enumerate(values) if v),
               key=lambda i: (_pivot_score(values[i]), -i))


def _pivot_score(z: Scalar):
    n = z.norm_sq()
    return int(n.numerator) * int(n.denominator)


def _scalars(pair) -> list[Scalar]:
    """The Scalars numerators / den of a chart's cleared value."""
    values, den = pair
    return scalar_values(list(values), den)


def _flat(part) -> tuple[list, int]:
    """A cleared graded part with its series' coefficients in one list."""
    forms, den = part
    return [c for p in forms for c in p.values()], den


def _flat_correction(j: JetChart) -> tuple[list, int]:
    """The normal correction with its rows in one list."""
    corr, kappa = j.normal_correction
    return [x for r in corr for x in r], kappa


def _polys(n: int, part) -> tuple[Poly, ...]:
    values = iter(_scalars(_flat(part)))
    return tuple(Poly(n, {e: next(values) for e in p}) for p in part[0])


def scalar_fields(j: JetChart) -> tuple:
    """(normal_correction, c2, c3, c4) of a chart as a Scalar `Matrix` and
    tuples of Scalar `Poly`s, the form of `chart_fields`.  Checks that each
    cleared value is in lowest terms, as `integer_values` clears it."""
    parts = (j.c2, j.c3) if j.c4 is None else (j.c2, j.c3, j.c4)
    for values, den in [_flat_correction(j), j.base_point, j.chart_center, *map(_flat, parts)]:
        assert integer_values(scalar_values(list(values), den)) == (list(values), den), \
            "cleared value not in lowest terms"
    sj = scalar_chart(j)
    return sj.normal_correction, sj.c2, sj.c3, sj.c4


def scalar_chart(j: JetChart) -> JetChart:
    """The chart with its cleared values read as Scalars, the form the
    routines here read: the base point, the center, the normal correction
    as a `Matrix` and c2, c3, c4 as tuples of `Poly`s."""
    flat = _scalars(_flat_correction(j))
    return j._replace(base_point=tuple(_scalars(j.base_point)),
                      chart_center=tuple(_scalars(j.chart_center)),
                      normal_correction=Matrix(j.a, j.n, [flat[s * j.n:(s + 1) * j.n]
                                                          for s in range(j.a)]),
                      c2=_polys(j.n, j.c2), c3=_polys(j.n, j.c3),
                      c4=None if j.c4 is None else _polys(j.n, j.c4))


def chart_roundtrip_check(f: PolyMap, j: JetChart, stream, samples: int = 10,
                          bound: int = 3) -> bool:
    """Replay the recorded chart along random lines u0 + t h and compare the
    one-variable Taylor expansions of the normal coordinates against the
    graph, exactly modulo degree > order.  Raises ZeroDivisionError when the
    pivot series vanishes at t = 0."""
    j = scalar_chart(j)
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
            if not truncated(y - expect, order).is_zero():
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
    residue = image.reduce([p.evaluate(v) for p in scalar_chart(j).c3])
    return residue, not any(residue)


def chart_fields(f: PolyMap, u0, order: int) -> tuple:
    """(normal_correction, c2, c3, c4) of `secantgeo.jets.chart_at` at u0,
    by the Scalar solver route."""
    u0 = tuple(_coerce(x) for x in u0)
    n, lift = f.domain_dim, f.lift()
    pivot = pivot_index(f, u0)
    shifted = [truncated(shift_poly(p, u0), order) for p in lift]
    inv_piv = reciprocal_trunc(shifted[pivot], order)
    coords = [mul_trunc(shifted[b], inv_piv, order) for b in range(len(lift)) if b != pivot]
    centered = [p - Poly.constant(n, p.terms.get((0,) * n, ZERO)) for p in coords]
    diff = Matrix(len(centered), n, [[graded_part(p, 1).terms.get(_unit(n, j), ZERO)
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
    c2 = tuple(graded_part(g, 2) for g in graphs)
    c3 = tuple(graded_part(g, 3) for g in graphs)
    c4 = tuple(graded_part(g, 4) for g in graphs) if order >= 4 else None
    return corr, c2, c3, c4


def invert_map_series(ys, order: int) -> list[Poly]:
    """`secantgeo.series.invert_map_series` with the linear part inverted
    by the Scalar `inverse`."""
    n = len(ys)
    lin_inv = inverse(Matrix(n, n, [[graded_part(y, 1).terms.get(_unit(n, j), ZERO)
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
    return [truncated(p, order) for p in phi]


def c3_entry(j: JetChart, mu: int, alpha: int, beta: int, gamma: int) -> Scalar:
    """The symmetric coefficient c3[mu]_(alpha, beta, gamma)."""
    return _sym_entry(scalar_chart(j).c3[mu], (alpha, beta, gamma))


def c4_entry(j: JetChart, mu: int, i: int, k: int, l: int, m: int) -> Scalar:
    """The symmetric coefficient c4[mu]_(i, k, l, m) of an order-4 chart."""
    if j.c4 is None:
        raise ValueError("order-4 coefficients were not requested")
    return _sym_entry(scalar_chart(j).c4[mu], (i, k, l, m))


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
