"""Truncated power series utilities on top of Poly.

A series of order k is a Poly with all terms of total degree <= k;
products and compositions drop everything beyond the order.
"""

from __future__ import annotations

from typing import Sequence

from .linalg import _integer_rows, _unit, scalar_values, solve
from .polymaps import Poly
from .scalars import ONE, ZERO, Scalar


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


def invert_map_series(ys: Sequence[Poly], order: int) -> list[Poly]:
    """Inverse of h -> (y_1(h), ..., y_n(h)) with zero constant terms and
    invertible linear part, following successive substitution: each pass
    gains one order of accuracy."""
    n = len(ys)
    # lin^-1 = solve(lin, Id), each row of [lin | Id] cleared once
    aug = _integer_rows([[y.graded_part(1).terms.get(_unit(n, j), ZERO) for j in range(n)]
                         + [ONE if j == i else ZERO for j in range(n)] for i, y in enumerate(ys)])
    x, last = solve([r[:n] for r in aug], [r[n:] for r in aug])
    lin_inv = [scalar_values(r, last) for r in x]
    higher = [Poly(n, {e: c for e, c in y.terms.items() if sum(e) >= 2}) for y in ys]
    ident = [Poly.variable(n, i) for i in range(n)]

    def apply_inv(vec: list[Poly]) -> list[Poly]:
        out = []
        for i in range(n):
            acc = Poly(n)
            for j in range(n):
                c = lin_inv[i][j]
                if c:
                    acc = acc + vec[j].scale(c)
            out.append(acc)
        return out

    phi = apply_inv(ident)
    for _ in range(order - 1):
        hx = compose_each(higher, phi, order)
        phi = apply_inv([ident[i] - hx[i] for i in range(n)])
    return [p.truncated(order) for p in phi]
