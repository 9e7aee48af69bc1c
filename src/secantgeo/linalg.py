"""Exact linear algebra over Q(i), on Gaussian integers.

Elimination runs on Gaussian integers: plain Python ints when every entry
is real (every catalog chart and sample point is), (re, im) int pairs
otherwise.  `eliminate` is Bareiss's fraction-free elimination, or its
Gauss-Jordan form; the division by the previous pivot is exact in Z[i] by
Sylvester's identity, and is checked.  On ints one comparison checks a
whole row: the floor-division remainders all have the sign of the divisor
or are zero, so the row's sum equals the divisor times the sum of its
quotients only when every remainder is zero.  `IntegerSpan` is the one
span type: it keeps the canonical basis of a span times one integer
factor, and reduces, intersects and compares spans without dividing.  `solve` is the
one solver.  The quadric systems, the generic point, the defect checks,
the oracles, the chart's normal correction and the series inverse all work
on these integers, and the random draws are ints.  Scalars stay at the
edge (`Matrix` for the chart's normal correction and the Jacobian, `Poly`,
chart coefficients, JSON): `integer_values` clears a Scalar row by the lcm
of its denominators, which moves no rank or row space, and `scalar_values`
divides on the way back.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul
from typing import Sequence

from .scalars import ZERO, Rational, Scalar


class Matrix:
    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", tuple(tuple(r) for r in data))
        if len(self.data) != rows or any(len(r) != cols for r in self.data):
            raise ValueError("matrix shape mismatch")

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def at(self, i: int, j: int) -> Scalar:
        return self.data[i][j]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols, self.data) == (other.rows, other.cols, other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        return "Matrix(%d x %d)" % (self.rows, self.cols)


def _unit(n: int, j: int) -> tuple[int, ...]:
    """Exponent tuple of the j-th variable among n."""
    e = [0] * n
    e[j] = 1
    return tuple(e)


def integer_values(values: Sequence[Scalar], real: bool | None = None) -> tuple[list, int]:
    """(values times den, den), den the lcm of their denominators, as Gaussian
    integers in the elimination format: ints when real (by default, when no
    value is complex), else (re, im) int pairs.  No rank or RREF moves."""
    if real is None:
        real = not any(x.im for x in values)
    if real:
        parts = [x.re for x in values]
        den = lcm(*[p.denominator for p in parts])
        if den == 1:
            return [p.numerator for p in parts], 1
        return [p.numerator * (den // p.denominator) for p in parts], den
    den = lcm(*[p.denominator for x in values for p in (x.re, x.im)])
    return [(x.re.numerator * (den // x.re.denominator),
             x.im.numerator * (den // x.im.denominator)) for x in values], den


def scalar_values(values, den) -> list[Scalar]:
    """Gaussian integers of either format divided by den (an int, or an
    (re, im) pair), as Scalars: the way back from the elimination format."""
    if type(den) is int and _is_real([values]):
        return [Scalar(Rational(x, den)) if x else ZERO for x in values]
    pr, pi = (den, 0) if type(den) is int else den
    norm = pr * pr + pi * pi
    return [Scalar(Rational(xr * pr + xi * pi, norm), Rational(xi * pr - xr * pi, norm))
            if xr or xi else ZERO for xr, xi in values]


def _integer_rows(rows) -> list[list]:
    """Scalar rows, each cleared by `integer_values`, all in one format."""
    real = not any(x.im for r in rows for x in r)
    return [integer_values(r, real)[0] for r in rows]


def _is_real(rows) -> bool:
    """Whether Gaussian-integer rows hold ints rather than (re, im) pairs,
    read off the first entry; True when there is none."""
    return not (rows and len(rows[0]) and type(rows[0][0]) is tuple)


def _same_format(rows) -> list:
    """Gaussian-integer rows in one format: int rows lifted to pairs when
    some other row holds pairs."""
    if len({type(r[0]) for r in rows if len(r)}) < 2:
        return rows
    return [_pairs(r) for r in rows]


def _pairs(vec) -> list:
    return [(x, 0) for x in vec] if _is_real([vec]) else vec


def _is_zero(vec) -> bool:
    """Whether a Gaussian-integer vector of either format vanishes."""
    return not any(x[0] or x[1] if type(x) is tuple else x for x in vec)


def _negate(x):
    """-x for a Gaussian integer of either format."""
    return -x if type(x) is int else (-x[0], -x[1])


def _combine_int(lead, row, head, piv_row, prev):
    """(lead * row - head * piv_row) / prev, entrywise on ints."""
    if head:
        out = [lead * x - head * y for x, y in zip(row, piv_row)]
    else:
        out = [lead * x for x in row]
    if prev == 1:
        return out
    quo = [x // prev for x in out]
    # every remainder x - q * prev has the sign of prev or is 0, so they
    # sum to 0 only when each of them is 0
    if sum(out) != prev * sum(quo):
        x = next(x for x in out if x % prev)
        raise ArithmeticError("inexact Bareiss division %r / %r" % (x, prev))
    return quo


def _combine_gauss(lead, row, head, piv_row, prev):
    """(lead * row - head * piv_row) / prev, entrywise on Gaussian integers
    held as (re, im) pairs."""
    lr, li = lead
    hr, hi = head
    out = [(lr * xr - li * xi - hr * yr + hi * yi, lr * xi + li * xr - hr * yi - hi * yr)
           for (xr, xi), (yr, yi) in zip(row, piv_row)]
    pr, pi = prev
    if (pr, pi) == (1, 0):
        return out
    norm = pr * pr + pi * pi
    quo = []
    for x in out:
        # x * conj(prev) / |prev|^2
        nr, ni = x[0] * pr + x[1] * pi, x[1] * pr - x[0] * pi
        qr, rr = divmod(nr, norm)
        qi, ri = divmod(ni, norm)
        if rr or ri:
            raise ArithmeticError("inexact Bareiss division %r / %r" % (x, prev))
        quo.append((qr, qi))
    return quo


# (nonzero test, combine, one) for int rows and for (re, im) pair rows
_ARITH = {True: (bool, _combine_int, 1), False: (any, _combine_gauss, (1, 0))}


def eliminate(rows, reduce: bool = False):
    """Fraction-free elimination of Gaussian-integer rows: lists of ints, or
    of (re, im) int pairs (`integer_values`).  The rows themselves are left
    as they are.

    Each step takes the first row at or below the next pivot position with a
    nonzero entry in the column as pivot row, and replaces every other row
    below it (every other row at all when reduce is set, which gives
    Gauss-Jordan) by (lead * row - head * pivot row) / prev, where lead is
    the new pivot and prev the one before.  By Sylvester's identity the
    entries are then minors of the cleared input, so the division is exact
    (Bareiss 1968); _combine_* raise if it is not.  Zero rows are dropped
    first.  Returns (pivot columns, pivot rows, last pivot); the number of
    pivots is the rank."""
    ncols = len(rows[0]) if rows else 0
    nonzero, combine, prev = _ARITH[_is_real(rows)]
    rows = [r for r in rows if any(map(nonzero, r))]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        for i in range(r, len(rows)):
            if nonzero(rows[i][c]):
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        piv_row = rows[r]
        lead = piv_row[c]
        for k in range(0 if reduce else r + 1, len(rows)):
            if k != r:
                row = rows[k]
                rows[k] = combine(lead, row, row[c], piv_row, prev)
        prev = lead
        pivots.append(c)
        r += 1
    return pivots, rows[:r], prev


def integer_combination(terms) -> list:
    """sum c * vec over the (c, vec) pairs, on Gaussian integers: vectors of
    one format, coefficients of either, the sum in pairs when any of them
    is.  Terms with a zero coefficient add nothing and are skipped."""
    (c, vec), *rest = terms
    real = _is_real([vec])
    if real and all(type(c) is int for c, _ in terms):
        acc = [c * x for x in vec]
        for c, vec in rest:
            if c:
                acc = [a + c * x for a, x in zip(acc, vec)]
        return acc
    acc = [(0, 0)] * len(vec)
    for c, vec in terms:
        cr, ci = (c, 0) if type(c) is int else c
        if cr or ci:
            acc = ([(a + cr * x, b + ci * x) for (a, b), x in zip(acc, vec)] if real else
                   [(a + cr * x - ci * y, b + cr * y + ci * x) for (a, b), (x, y) in zip(acc, vec)])
    return acc


def integer_mul_vec(rows, vec) -> list:
    """The matrix with these Gaussian-integer rows times vec, which may be
    in either format: one dot product per row when both hold ints, else
    the combination of the columns."""
    if not rows:
        return []
    if _is_real(rows) and _is_real([vec]):
        return [sum(map(mul, r, vec)) for r in rows]
    return integer_combination(list(zip(vec, zip(*rows))))


class IntegerSpan:
    """The span of Gaussian-integer rows after one fraction-free Gauss-Jordan
    elimination: `rows` carry `last` at every pivot column, so they are the
    canonical (RREF) basis times one common factor.  That factor is then made
    the least integer, up to sign, that clears the canonical basis: rows are
    multiplied by conj(last), so that last is real, and divided by the gcd
    of all their integer parts.  A span carried from one elimination into
    the next so keeps small entries, over Z[i] as over Z."""

    __slots__ = ("ambient_dim", "pivots", "rows", "last", "_free", "_free_rows")

    def __init__(self, ambient_dim: int, rows):
        self.ambient_dim = ambient_dim
        self.pivots, rows, last = eliminate(_same_format(rows), reduce=True)
        if type(last) is int:
            g = gcd(*[x for r in rows for x in r])
            if g > 1:
                rows, last = [[x // g for x in r] for r in rows], last // g
        else:
            if last[1]:
                lr, li = last
                rows = [[(x * lr + y * li, y * lr - x * li) for x, y in r] for r in rows]
                last = (lr * lr + li * li, 0)
            g = gcd(*[p for r in rows for x in r for p in x])
            if g > 1:
                rows = [[(x // g, y // g) for x, y in r] for r in rows]
                last = (last[0] // g, 0)
        self.rows, self.last = rows, last
        self._free = None

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def free_columns(self) -> list[int]:
        """The non-pivot columns: their unit vectors represent a basis of the
        quotient by the span."""
        if self._free is None:
            pivots = set(self.pivots)
            self._free = [j for j in range(self.ambient_dim) if j not in pivots]
            self._free_rows = [[row[j] for j in self._free] for row in self.rows]
        return self._free

    def reduce(self, vec) -> list:
        """last vec - sum vec[p] row_p on the free columns: vec modulo the
        span times `last`, zero exactly when vec lies in the span."""
        free = self.free_columns()
        rows, last = self._free_rows, self.last
        if _is_real([vec]) != (type(last) is int):
            if type(last) is int:
                rows, last = [_pairs(r) for r in rows], (last, 0)
            else:
                vec = _pairs(vec)
        nonzero, combine, one = _ARITH[type(last) is int]
        out = [vec[j] for j in free]
        for i, (p, row) in enumerate(zip(self.pivots, rows)):
            if not i or nonzero(vec[p]):
                out = combine(one if i else last, out, vec[p], row, one)
        return out

    def contains(self, vec) -> bool:
        return _is_zero(self.reduce(vec))

    def intersect(self, other: "IntegerSpan") -> "IntegerSpan":
        """The intersection, by Zassenhaus: in an echelon form of the rows
        (u, u) for u in this span and (w, 0) for w in the other, the rows
        that vanish on the first half span it with their second half."""
        n, k = self.ambient_dim, self.dim
        rows = [list(r) for r in _same_format(self.rows + other.rows)]
        zero = [0 if _is_real(rows) else (0, 0)] * n
        pivots, red, _ = eliminate([r + r for r in rows[:k]] + [r + zero for r in rows[k:]])
        return IntegerSpan(n, [r[n:] for p, r in zip(pivots, red) if p >= n])

    def perp(self) -> "IntegerSpan":
        """The annihilator under sum x_i y_i, spanned by one vector per free
        column j: -last at j and row_i[j] at the pivot of row_i."""
        n, at = self.ambient_dim, dict(zip(self.pivots, self.rows))
        neg, zero = _negate(self.last), 0 if type(self.last) is int else (0, 0)
        return IntegerSpan(n, [[at[k][j] if k in at else neg if k == j else zero
                                for k in range(n)] for j in range(n) if j not in at])

    def __eq__(self, other):
        """Equal spans: equal pivots, and rows equal after cross-multiplying
        by the other span's `last`."""
        if not isinstance(other, IntegerSpan):
            return NotImplemented
        if (self.ambient_dim, self.pivots) != (other.ambient_dim, other.pivots):
            return False
        neg = _negate(self.last)
        return all(_is_zero(integer_combination([(other.last, r), (neg, t)]))
                   for r, t in (_same_format([r, t]) for r, t in zip(self.rows, other.rows)))


def solve(a, b) -> tuple[list, object]:
    """(x, last) with x / last = a^-1 b, for the square Gaussian-integer
    rows a and as many rows b, of either format: fraction-free
    Gauss-Jordan on [a | b] leaves last [Id | a^-1 b].  Raises ValueError
    when a is singular."""
    k = len(a)
    rows = _same_format(list(a) + list(b))
    pivots, red, last = eliminate([[*x, *y] for x, y in zip(rows[:k], rows[k:])], reduce=True)
    if pivots != list(range(k)):
        raise ValueError("matrix is singular")
    return [r[k:] for r in red], last


def random_vector(dim: int, bound: int, stream) -> list[int]:
    """Entries uniform on the integers in [-bound, bound]."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    return [stream.randint(-bound, bound) for _ in range(dim)]
