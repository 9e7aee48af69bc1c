"""Adapted jet charts: the quadratic and cubic graph of a variety over its
tangent space at a point, on Gaussian integers.

chart_at clears the lift once, over one common denominator (which cancels
in the chart), and the base point u0 = U / d, and expands the lift at u0
in t = d h as integer series (`series`).  It divides by the lift
coordinate chosen as pivot, whose series is c0 + w, through
sum_k (-w)^k c0^(order-k) over c0^(order+1), and recenters the others at
the origin.  One `solve` on the linear part gives the tangent rows, the
normal correction, and M and L with A M = L Id, A the linear part of the
tangent rows.  Substituting t = L M s and writing the tangent coordinates
as L^2 z (over the pivot's denominator) makes the tangent map unipotent
with integer coefficients: the part of degree k carries L^(k-2).  So its
inverse is integral too, and the normal coordinates composed with it give
each graded part c_k of the graph as integer forms over one denominator.
Everything is exact; the truncation order (3 or 4) only limits which
coefficients exist.

A chart holds every value cleared: Gaussian integers over one positive
integer denominator, reduced as `integer_values` would reduce them.
`second_fundamental_form` reads the quadrics off c2, halving each
off-diagonal entry once, and `refined_third_form_cube` evaluates c3.

chart_roundtrip_check certifies a chart on Gaussian integers: the graph
identity, multiplied through by the units it would divide by, is checked
once per normal row as an identity between series in all n variables,
expanded like the chart's own lift.  It holds along every line exactly
when it holds in n variables, so no line is sampled.  The Scalar `Poly`
routes of the chart and of a round trip along random lines are the
reference in `tests/jets_reference.py`.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import index
from typing import NamedTuple

from .linalg import IntegerSpan, _reduced, _unit, eliminate, gauss, integer_values, solve
from .polymaps import PolyMap
from .quadrics import QuadricSystem
from .scalars import Scalar
from .series import (_combination, _evaluate, _reduced_series, compose_each, invert_map_series,
                     mul_trunc)


class ChartError(ValueError):
    pass


class NotImmersiveError(ChartError):
    pass


class JetChart(NamedTuple):
    """An adapted chart.  Each cleared value is a pair (numerators, den): den
    a positive int with no factor common to every numerator, which are
    Gaussian integers.  They are the base point (U, d), the center of the
    chart's other coordinates, the normal correction (a row of n per normal
    row) and the graded parts c2, c3 (c4 at order 4) of the graph, whose
    numerators are one series per normal row (exponent -> coefficient, in
    the n tangent coordinates)."""

    base_point: tuple
    c2: tuple
    c3: tuple
    c4: tuple | None
    order: int
    # chart bookkeeping, needed to replay the coordinate changes
    pivot_index: int
    chart_center: tuple
    tangent_rows: tuple[int, ...]
    normal_rows: tuple[int, ...]
    normal_correction: tuple

    @property
    def n(self) -> int:
        return len(self.tangent_rows)

    @property
    def a(self) -> int:
        return len(self.normal_rows)


def _cleared_point(u0) -> tuple[list, int]:
    """(U, d) with u0 = U / d: U Gaussian integers and d the lcm of the
    denominators of the parts of u0's entries, which are ints or Scalars."""
    parts = [(x.re, x.im) if isinstance(x, Scalar) else (index(x), 0) for x in u0]
    d = lcm(*[p.denominator for xy in parts for p in xy])
    return [gauss(re.numerator * (d // re.denominator), im.numerator * (d // im.denominator))
            for re, im in parts], d


def _lift_at(f: PolyMap, u, d: int, order: int) -> tuple[list, int, int]:
    """The lift at u0 = U / d in t = d h, as series over Z[i] truncated to
    order: d^deg lift(u0 + t / d), times one common denominator (which
    cancels in the chart).  Returns them with that denominator and deg, the
    lift's degree."""
    n, lift = f.domain_dim, f.lift()
    coeffs, den = integer_values([c for q in lift for c in q.terms.values()])
    deg = max(q.degree() for q in lift)
    it = iter(coeffs)
    # d^deg lift(x / d) has each term of degree j times d^(deg - j); take it at x = U + t
    cleared = [{e: next(it) * d ** (deg - sum(e)) for e in q.terms} for q in lift]
    shift = [{(0,) * n: x, _unit(n, i): 1} if x else {_unit(n, i): 1} for i, x in enumerate(u)]
    return compose_each(cleared, shift, n, order), den, deg


def _pivot_score(p, m2: int) -> int:
    """numerator * denominator of |p|^2 / m2 in lowest terms: the score of
    the lift value p / m of the pivot rule, m2 = m^2."""
    norm = p.real ** 2 + p.imag ** 2
    g = gcd(norm, m2)
    return (norm // g) * (m2 // g)


def chart_at(f: PolyMap, u0, order: int = 3) -> JetChart:
    """Adapted chart of the image of f at f(u0), u0 of ints or Scalars.

    The affine target chart divides by the nonvanishing lift coordinate of
    maximal numerator * denominator of its |value|^2; ties pick the lowest
    index.  Raises NotImmersiveError when the differential drops rank at u0
    and ChartError when every lift coordinate vanishes there.
    """
    if order not in (3, 4):
        raise ValueError("order must be 3 or 4")
    if len(u0) != f.domain_dim:
        raise ValueError("base point length != domain_dim")
    n, k = f.domain_dim, order
    u, d = _cleared_point(u0)
    lift, den, deg = _lift_at(f, u, d, k)
    zero = (0,) * n
    units = [_unit(n, j) for j in range(n)]
    values = [q.get(zero, 0) for q in lift]
    if not any(values):
        raise ChartError("every lift coordinate vanishes at the base point")
    m2 = (den * d ** deg) ** 2
    pivot = max((i for i, v in enumerate(values) if v),
                key=lambda i: (_pivot_score(values[i], m2), -i))

    # 1 / (c0 + w) = sum_j (-w)^j c0^(k-j) / c0^(k+1), so each other
    # coordinate, recentered, is its series times that sum over E = c0^(k+1)
    c0 = values[pivot]
    neg_w = {e: -c for e, c in lift[pivot].items() if e != zero}
    inv, power = {zero: c0 ** k}, {zero: 1}
    for j in range(1, k + 1):
        power = mul_trunc(power, neg_w, k)
        if not power:
            break
        inv = _combination([(1, inv), (c0 ** (k - j), power)])
    body = [i for i in range(len(lift)) if i != pivot]
    coords = []
    for b in body:
        x = mul_trunc(lift[b], inv, k)
        x.pop(zero, None)
        coords.append(x)

    m = len(body)
    # the rows of the linear part's transpose: the pivot columns of its row
    # space are the tangent rows, and one solve gives the normal correction
    # corr = ms mr^-1 (ms, mr the normal and tangent rows) as corr^T =
    # solve(mr^T, ms^T) next to M = L mr^-1 as M^T = solve(mr^T, L Id)
    diff_t = [[x.get(e, 0) for x in coords] for e in units]
    tangent_pivots = eliminate(diff_t)[0]
    if len(tangent_pivots) < n:
        raise NotImmersiveError("differential has rank %d < %d at the base point"
                                % (len(tangent_pivots), n))
    trows = tuple(tangent_pivots)
    nrows = tuple(i for i in range(m) if i not in set(trows))
    a = len(nrows)
    x, big_l = solve([[r[i] for i in trows] for r in diff_t],
                     [[r[i] for i in nrows] + list(e) for e, r in zip(units, diff_t)])
    flat, kappa = _reduced([x[alpha][s] for s in range(a) for alpha in range(n)], big_l)
    corr = tuple(flat[s * n:(s + 1) * n] for s in range(a))
    mmat = [[x[l][a + j] for l in range(n)] for j in range(n)]
    subst = [{e: c for e, c in zip(units, row) if c} for row in mmat]

    # the normal coordinates times kappa E
    y_tan = [coords[i] for i in trows]
    y_nor = []
    for s, i in enumerate(nrows):
        z = _combination([(kappa, coords[i])] + [(-c, y) for c, y in zip(corr[s], y_tan)])
        if any(sum(e) == 1 for e in z):
            raise AssertionError("normal coordinate kept a linear part")
        y_nor.append(z)

    # E y_tan(L M s) / L^2 is s plus terms of degree j >= 2 carrying L^(j-2)
    powers = [big_l ** j for j in range(k + 1)]
    unipotent = []
    for alpha, w in enumerate(compose_each(y_tan, subst, n, k)):
        if {e: c for e, c in w.items() if sum(e) == 1} != {units[alpha]: big_l}:
            raise AssertionError("tangent coordinate kept a linear part off L Id")
        unipotent.append({e: c * powers[sum(e) - 2] if sum(e) > 1 else 1 for e, c in w.items()})
    phi = invert_map_series(unipotent, k)
    t = [_combination(list(zip(row, phi))) for row in mmat]
    graphs = compose_each([{e: c * powers[sum(e)] for e, c in z.items()} for z in y_nor], t, n, k)
    for g in graphs:
        if any(sum(e) < 2 for e in g):
            raise AssertionError("graph coordinate kept terms below order 2")

    # graded part j in z = E y / L^2 over kappa E is E^(j-1) / (kappa L^(2j))
    # times the same part in y
    e_pow = c0 ** (k + 1)
    parts = [_reduced_series([{e: c * e_pow ** (j - 1) for e, c in g.items() if sum(e) == j}
                              for g in graphs], kappa * powers[j] ** 2)
             for j in range(2, k + 1)]
    return JetChart(
        base_point=(tuple(u), d),
        c2=parts[0],
        c3=parts[1],
        c4=parts[2] if k >= 4 else None,
        order=k,
        pivot_index=pivot,
        chart_center=_reduced([values[b] for b in body], c0),
        tangent_rows=trows,
        normal_rows=nrows,
        normal_correction=(corr, kappa),
    )


def second_fundamental_form(j: JetChart) -> QuadricSystem:
    """The quadrics of c2: its square terms on the diagonal, half of each
    cross term off it, over the least common denominator."""
    n = j.n
    forms, den = j.c2
    quads = []
    for form in forms:
        q = [0] * (n * n)
        for e, c in form.items():
            r, t = (i for i, x in enumerate(e) for _ in range(x))  # its two variables
            if r == t:
                q[r * n + r] = 2 * c
            else:
                q[r * n + t] = q[t * n + r] = c
        quads.append(q)
    flat, den = _reduced([x for q in quads for x in q], 2 * den)
    return QuadricSystem(n, len(forms), tuple(list(flat[i:i + n * n])
                                              for i in range(0, len(flat), n * n)), den)


def refined_third_form_cube(j: JetChart, v, image: IntegerSpan) -> bool:
    """Whether the cubic form contracted three times with v, the cleared c3
    at v, lies in image = II_v(T): the refined cubic form vanishes at v."""
    return image.contains([_evaluate(p, v) for p in j.c3[0]])


def chart_roundtrip_check(f: PolyMap, j: JetChart) -> bool:
    """Replay the recorded chart at its base point and compare the Taylor
    expansions of the normal coordinates against the graph, exactly modulo
    degree k + 1, k the chart order, as series in the n variables t.

    The chart holds its values cleared: the base point u0 = U / d, at which
    the lift, cleared once, is expanded in t = d h (`_lift_at`), the center
    C / delta, the correction rows K / kappa, and the graph rows G_2 + ...
    + G_k over omega, the lcm of the graded parts' denominators.  The lift
    gives integer series, P the pivot's, and with Y = delta L - C P and
    Z_s = kappa Y_s - K Y_tan the test y_s = g_s(y_tan) reads, times the
    unit kappa omega (delta P)^k,

        omega (delta P)^(k-1) Z_s = kappa sum_m (delta P)^(k-m) G_m(Y_tan),

    so nothing divides.  A pivot vanishing at t = 0 is no unit and fails.

    One identity is enough.  Restricting to a line t = s w is a ring map
    modulo degree k + 1, so the identity in n variables gives the identity
    along every line, which is what a sample of random lines would check;
    and a series of degree at most k that vanishes on every line is zero.
    So the check is exact, not probabilistic."""
    k, n = j.order, f.domain_dim
    (u, d), (center, delta), (corr, kappa) = j.base_point, j.chart_center, j.normal_correction
    lift = _lift_at(f, u, d, k)[0]
    p = lift[j.pivot_index]
    if not p.get((0,) * n):
        return False
    parts = (j.c2, j.c3) if j.c4 is None else (j.c2, j.c3, j.c4)
    omega = lcm(*[den for _, den in parts])
    body = lift[:j.pivot_index] + lift[j.pivot_index + 1:]
    y = [_combination([(delta, b), (-c, p)]) for b, c in zip(body, center)]
    y_tan = [y[t] for t in j.tangent_rows]
    # every row of every graded part at Y_tan, sharing its monomials
    a = len(j.normal_rows)
    graphs = compose_each([g for forms, _ in parts for g in forms], y_tan, n, k)
    dp = {e: delta * c for e, c in p.items()}
    dp_top = dp  # (delta P)^(k-1)
    for _ in range(k - 2):
        dp_top = mul_trunc(dp_top, dp, k)
    for s, i in enumerate(j.normal_rows):
        rhs: dict = {}  # sum_m (delta P)^(k-m) G_m by Horner's rule
        for m, (_, den) in enumerate(parts):
            rhs = _combination([(1, mul_trunc(rhs, dp, k)),
                                (kappa * (omega // den), graphs[m * a + s])])
        z = _combination([(omega * kappa, y[i])]
                         + [(-c * omega, yt) for c, yt in zip(corr[s], y_tan)])
        if mul_trunc(z, dp_top, k) != rhs:
            return False
    return True
