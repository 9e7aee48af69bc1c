"""Truncated power series over the Gaussian integers.

A series is a dict from exponent tuples to nonzero Gaussian integers (ints,
and `linalg.Gaussian` where the imaginary part is nonzero).  A series of
order k has no term of total degree above k; products and compositions
drop everything beyond the order.  Nothing here divides, except
`_reduced_series` by a common factor: `jets.chart_at` carries one
denominator beside each series it builds, and the chart round trip checks
its identity on these same series in all n variables.  The Scalar `Poly`
routines these replaced are the reference in `tests/jets_reference.py`.
"""

from __future__ import annotations

from operator import add
from typing import Sequence

from .linalg import _reduced, _unit


def _graded(p: dict, order: int) -> list[list]:
    """The terms of p as (exponent, coefficient) pairs, bucketed by degree
    up to order."""
    buckets: list[list] = [[] for _ in range(order + 1)]
    for e, c in p.items():
        d = sum(e)
        if d <= order:
            buckets[d].append((e, c))
    return buckets


def mul_trunc(p: dict, q: dict, order: int) -> dict:
    """p q truncated to order."""
    qb = _graded(q, order)
    out: dict = {}
    get = out.get
    for d1, part in enumerate(_graded(p, order)):
        for e1, c1 in part:
            for d2 in range(order - d1 + 1):
                for e2, c2 in qb[d2]:
                    e = tuple(map(add, e1, e2))
                    out[e] = get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def compose_each(fs: Sequence[dict], gs: Sequence[dict], nvars: int, order: int) -> list[dict]:
    """f(g_1, ..., g_k) truncated to order for each f of fs, the g_i series
    in nvars variables.  The monomials in the g_i are memoized across all
    of fs: each one of degree two or more is one product with a monomial of
    one degree lower."""
    k = len(gs)
    mono = {(0,) * k: {(0,) * nvars: 1}}
    mono.update((_unit(k, i), {e: c for e, c in g.items() if sum(e) <= order})
                for i, g in enumerate(gs))

    def monomial(e):
        m = mono.get(e)
        if m is None:
            i = next(i for i, x in enumerate(e) if x)
            m = mono[e] = mul_trunc(mono[_unit(k, i)], monomial(e[:i] + (e[i] - 1,) + e[i + 1:]),
                                    order)
        return m

    outs = []
    for f in fs:
        acc: dict = {}
        get = acc.get
        for e, c in f.items():
            for e2, c2 in monomial(e).items():
                acc[e2] = get(e2, 0) + c * c2
        outs.append({e: c for e, c in acc.items() if c})
    return outs


def invert_map_series(ys: Sequence[dict], order: int) -> list[dict]:
    """Inverse of the unipotent map x -> (y_1(x), ..., y_n(x)), y_i = x_i +
    terms of degree two or more, truncated to order; its coefficients are
    integers too.  Successive substitution phi = x - h(phi), h the terms of
    degree two or more: each pass gains one degree, so pass p is truncated
    at degree p + 1.  Raises ValueError when the map is not unipotent."""
    n = len(ys)
    ident = [{_unit(n, i): 1} for i in range(n)]
    higher = []
    for i, y in enumerate(ys):
        low = {e: c for e, c in y.items() if sum(e) < 2}
        if low != ident[i]:
            raise ValueError("map is not unipotent")
        higher.append({e: c for e, c in y.items() if sum(e) >= 2})
    phi = ident
    for p in range(1, order):
        phi = [{**x, **{e: -c for e, c in h.items()}}
               for x, h in zip(ident, compose_each(higher, phi, n, p + 1))]
    return phi


def _combination(terms) -> dict:
    """sum c p over the (c, p) pairs of Gaussian integers and series."""
    out: dict = {}
    get = out.get
    for c, p in terms:
        if c:
            for e, x in p.items():
                out[e] = get(e, 0) + c * x
    return {e: x for e, x in out.items() if x}


def _evaluate(p: dict, v):
    """The series p at the Gaussian-integer point v."""
    acc = 0
    for e, c in p.items():
        for x, k in zip(v, e):
            if k:
                c = c * x ** k
        acc += c
    return acc


def _reduced_series(series, den) -> tuple[tuple, int]:
    """`_reduced` over all coefficients of the series at once."""
    flat, den = _reduced([c for p in series for c in p.values()], den)
    it = iter(flat)
    return tuple({e: next(it) for e in p} for p in series), den

