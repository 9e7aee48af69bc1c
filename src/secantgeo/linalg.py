"""Exact linear algebra over Q(i), on Gaussian integers.

A Gaussian integer is a plain Python int when it is real (every catalog
chart and sample point is) and a `Gaussian` otherwise; the two mix under
the arithmetic operators, so every routine below is written once over Z[i].
`eliminate` is Bareiss's fraction-free elimination, or its Gauss-Jordan
form; the division by the previous pivot is exact in Z[i] by Sylvester's
identity, and is checked.  One comparison checks a whole row: a `Gaussian`
quotient is exact or raises, and the floor-division remainders of ints all
have the sign of the divisor or are zero, so the row's sum equals the
divisor times the sum of its quotients only when every remainder is zero.
`IntegerSpan` is the one span type: it keeps the canonical basis of a span
times one integer factor, and reduces, compares, takes annihilators (from
the smaller side) and intersects (by `reduce`) without dividing.  `solve`
is the one solver.  The quadric systems, the generic point, the defect
checks, the oracles, the chart and its series all work on these integers,
and the random draws are ints.  Scalars stay at the edge (JSON, the zoo's
`Poly` coefficients, and `Matrix` only for `PolyMap.jacobian_at`):
`integer_values` clears Scalars by the lcm of their denominators, which
moves no rank or row space, and `scalar_values` divides on the way back.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul
from typing import Sequence

from .scalars import ZERO, Rational, Scalar


class Gaussian:
    """A Gaussian integer real + imag i with imag != 0.  A Gaussian integer
    with imag == 0 is a plain int (`gauss`), so each value has one form and
    real data keeps int arithmetic.  Like an int it has `.real`, `.imag` and
    `.conjugate()`, and it mixes with ints under + - * and ==; `**` takes a
    nonnegative int exponent, and `//` is exact division, which raises
    ArithmeticError when it does not divide."""

    __slots__ = ("real", "imag")

    def __init__(self, real: int, imag: int):
        self.real, self.imag = real, imag

    def __repr__(self):
        return "Gaussian(%d, %d)" % (self.real, self.imag)

    def __eq__(self, other):
        if type(other) is Gaussian:
            return self.real == other.real and self.imag == other.imag
        return False if isinstance(other, int) else NotImplemented

    def __hash__(self):
        return hash((self.real, self.imag))

    def __neg__(self):
        return Gaussian(-self.real, -self.imag)

    def __add__(self, other):
        if isinstance(other, int):
            return Gaussian(self.real + other, self.imag)
        if type(other) is Gaussian:
            return gauss(self.real + other.real, self.imag + other.imag)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            return Gaussian(self.real - other, self.imag)
        if type(other) is Gaussian:
            return gauss(self.real - other.real, self.imag - other.imag)
        return NotImplemented

    def __rsub__(self, other):
        return Gaussian(other - self.real, -self.imag) if isinstance(other, int) else NotImplemented

    def __mul__(self, other):
        if isinstance(other, int):
            return Gaussian(self.real * other, self.imag * other) if other else 0
        if type(other) is Gaussian:
            a, b, c, d = self.real, self.imag, other.real, other.imag
            return gauss(a * c - b * d, a * d + b * c)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int):
        out = 1
        for _ in range(k):
            out = self * out
        return out

    def __floordiv__(self, other):
        return _exact_quotient(self, other) if isinstance(other, (int, Gaussian)) \
            else NotImplemented

    def __rfloordiv__(self, other):
        return _exact_quotient(other, self) if isinstance(other, int) else NotImplemented

    def conjugate(self) -> "Gaussian":
        return Gaussian(self.real, -self.imag)


def gauss(real: int, imag: int):
    """The Gaussian integer real + imag i: an int when imag is 0."""
    return Gaussian(real, imag) if imag else real


def _exact_quotient(x, y):
    """x / y for Gaussian integers, when y divides x; raises ArithmeticError
    otherwise."""
    yr, yi = y.real, y.imag
    norm = yr * yr + yi * yi
    qr, rr = divmod(x.real * yr + x.imag * yi, norm)
    qi, ri = divmod(x.imag * yr - x.real * yi, norm)
    if rr or ri:
        raise ArithmeticError("inexact division %r / %r" % (x, y))
    return gauss(qr, qi)


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


def integer_values(values: Sequence[Scalar]) -> tuple[list, int]:
    """(values times den, den) as Gaussian integers, den the lcm of the
    denominators of their parts.  No rank or RREF moves."""
    den = lcm(*[p.denominator for x in values for p in (x.re, x.im)])
    return [gauss(x.re.numerator * (den // x.re.denominator),
                  x.im.numerator * (den // x.im.denominator)) for x in values], den


def _reduced(values, den) -> tuple[tuple, int]:
    """values / den as (numerators, den), den a positive int with no factor
    common to every numerator: `integer_values` of those quotients."""
    if type(den) is not int:
        c = den.conjugate()
        values, den = [x * c for x in values], den.real ** 2 + den.imag ** 2
    elif den < 0:
        values, den = [-x for x in values], -den
    g = gcd(den, *[p for x in values for p in (x.real, x.imag)])
    return (tuple(x // g for x in values), den // g) if g > 1 else (tuple(values), den)


def scalar_values(values, den) -> list[Scalar]:
    """Gaussian integers divided by the Gaussian integer den, as Scalars: the
    way back from `integer_values`."""
    if type(den) is int and Gaussian not in map(type, values):
        return [Scalar(Rational(x, den)) if x else ZERO for x in values]
    pr, pi = den.real, den.imag
    norm = pr * pr + pi * pi
    return [Scalar(Rational(x.real * pr + x.imag * pi, norm),
                   Rational(x.imag * pr - x.real * pi, norm)) if x else ZERO for x in values]


def _combine(lead, row, head, piv_row, prev):
    """(lead * row - head * piv_row) / prev, entrywise."""
    if head:
        out = [lead * x - head * y for x, y in zip(row, piv_row)]
    else:
        out = [lead * x for x in row]
    if prev == 1:
        return out
    quo = [x // prev for x in out]
    # a Gaussian quotient is exact or raises; every int remainder x - q * prev
    # has the sign of prev or is 0, so they sum to 0 only when each is 0
    if sum(out) != prev * sum(quo):
        x = next(x for x, q in zip(out, quo) if x != q * prev)
        raise ArithmeticError("inexact Bareiss division %r / %r" % (x, prev))
    return quo


def eliminate(rows, reduce: bool = False):
    """Fraction-free elimination of Gaussian-integer rows (lists of ints and
    `Gaussian`s, `integer_values`).  The rows themselves are left as they
    are.

    Each step takes the first row at or below the next pivot position with a
    nonzero entry in the column as pivot row, and replaces every other row
    below it (every other row at all when reduce is set, which gives
    Gauss-Jordan) by (lead * row - head * pivot row) / prev, where lead is
    the new pivot and prev the one before.  By Sylvester's identity the
    entries are then minors of the cleared input, so the division is exact
    (Bareiss 1968); `_combine` raises if it is not.  Zero rows are dropped
    first.  Returns (pivot columns, pivot rows, last pivot); the number of
    pivots is the rank."""
    ncols = len(rows[0]) if rows else 0
    rows = [r for r in rows if any(r)]
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        for i in range(r, len(rows)):
            if rows[i][c]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        piv_row = rows[r]
        lead = piv_row[c]
        for k in range(0 if reduce else r + 1, len(rows)):
            if k != r:
                row = rows[k]
                rows[k] = _combine(lead, row, row[c], piv_row, prev)
        prev = lead
        pivots.append(c)
        r += 1
    return pivots, rows[:r], prev


def prefix_ranks(rows, width: int, blocks: int) -> tuple[int, ...]:
    """The ranks of the first 1, 2, ..., `blocks` blocks of `width` columns:
    pivot columns are taken in column order, so each is a count of pivots."""
    pivots = eliminate(rows)[0]
    return tuple(sum(c < j * width for c in pivots) for j in range(1, blocks + 1))


def integer_combination(terms) -> list:
    """sum c * vec over the (c, vec) pairs, on Gaussian integers.  Terms
    after the first with a zero coefficient add nothing and are skipped."""
    (c, vec), *rest = terms
    acc = [c * x for x in vec]
    for c, vec in rest:
        if c:
            acc = [a + c * x for a, x in zip(acc, vec)]
    return acc


def integer_mul_vec(rows, vec) -> list:
    """The matrix with these Gaussian-integer rows times vec: one dot product
    per row."""
    return [sum(map(mul, r, vec)) for r in rows]


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
        self._set(*eliminate(rows, reduce=True))

    def _set(self, pivots, rows, last):
        """Keeps canonical rows times last, times conj(last) when last is
        not real and over the gcd of their integer parts."""
        if type(last) is not int:
            c = last.conjugate()
            rows, last = [[x * c for x in r] for r in rows], last.real ** 2 + last.imag ** 2
        g = gcd(*[x if type(x) is int else gcd(x.real, x.imag) for r in rows for x in r])
        if g > 1:
            rows, last = [[x // g for x in r] for r in rows], last // g
        self.pivots, self.rows, self.last = pivots, rows, last
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
        out = [vec[j] for j in self.free_columns()]
        for i, (p, row) in enumerate(zip(self.pivots, self._free_rows)):
            if not i or vec[p]:
                out = _combine(1 if i else self.last, out, vec[p], row, 1)
        return out

    def contains(self, vec) -> bool:
        return not any(self.reduce(vec))

    def intersect(self, other: "IntegerSpan") -> "IntegerSpan":
        """The combinations of the rows that the linear `other.reduce` kills,
        read off the left kernel of the images: dim(this) x codim(other),
        one column for a hyperplane.  This span when every image is 0."""
        red = [other.reduce(r) for r in self.rows]
        if not any(map(any, red)):
            return self
        ker = IntegerSpan(len(red), list(zip(*red))).perp().rows
        return IntegerSpan(self.ambient_dim, [integer_combination(zip(c, self.rows)) for c in ker])

    def perp(self) -> "IntegerSpan":
        """The annihilator under sum x_i y_i: one vector per free column j,
        -last at j and R_i[j] at each pivot p_i of the rows R.  One
        elimination makes these canonical when d > a - d.  Otherwise R is
        taken with its columns reversed, eliminated once (d x a), and the
        vectors are read back in the standard order, where R vanishes right
        of each pivot: so they are already the canonical basis times -last."""
        n, pivots, rows, last = self.ambient_dim, self.pivots, self.rows, self.last
        small = 2 * len(rows) <= n
        if small:
            pivots, rows, last = eliminate([r[::-1] for r in rows], reduce=True)
        at = dict(zip(pivots, rows))
        vecs = [[at[k][j] if k in at else -last if k == j else 0 for k in range(n)]
                for j in range(n) if j not in at]
        if not small:
            return IntegerSpan(n, vecs)
        span = IntegerSpan.__new__(IntegerSpan)
        span.ambient_dim = n
        span._set([n - 1 - j for j in reversed(range(n)) if j not in at],
                  [v[::-1] for v in reversed(vecs)], -last)
        return span

    def __eq__(self, other):
        """Equal spans: equal pivots, and rows equal after cross-multiplying
        by the other span's `last`."""
        if not isinstance(other, IntegerSpan):
            return NotImplemented
        if (self.ambient_dim, self.pivots) != (other.ambient_dim, other.pivots):
            return False
        a, b = other.last, self.last
        return all(a * x == b * y for r, t in zip(self.rows, other.rows) for x, y in zip(r, t))


def solve(a, b) -> tuple[list, object]:
    """(x, last) with x / last = a^-1 b, for the square Gaussian-integer
    rows a and as many rows b: fraction-free Gauss-Jordan on [a | b] leaves
    last [Id | a^-1 b].  Raises ValueError when a is singular."""
    k = len(a)
    pivots, red, last = eliminate([[*x, *y] for x, y in zip(a, b)], reduce=True)
    if pivots != list(range(k)):
        raise ValueError("matrix is singular")
    return [r[k:] for r in red], last


def _rank(rows) -> int:
    """The rank of Gaussian-integer rows, eliminated on the shorter side: a
    matrix with more rows than columns is transposed first."""
    if rows and len(rows) > len(rows[0]):
        rows = list(zip(*rows))
    return len(eliminate(rows)[0])
