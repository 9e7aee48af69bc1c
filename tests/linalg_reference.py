"""Two references for `secantgeo.linalg`.

The elimination it used before its integer kernel: rank, RREF and kernel
computed directly on Scalars (`scalar_rank`, `scalar_rref`,
`scalar_kernel`), `intersect_through_perps`, the intersection as it was
before it ran on integer spans, `intersect_by_zassenhaus`, the integer
intersection as it was before it reduced one span modulo the other, and
`perp_by_free_columns`, the annihilator as it was before it eliminated on
the smaller side.  The integer kernel is checked against these.

The Scalar span API it kept until `IntegerSpan` and `solve` became its one
span type and one solver: `Subspace`, `rank`, `rref`, `kernel`,
`span_sum`, `intersect`, `subspace`, `solve_left` and `inverse`.  They run
on the integer kernel and convert to Scalars once per call, so the
references and tests that read Scalar matrices and subspaces keep its
speed; `solve` is checked against `solve_left` and `inverse`.  With them
the Scalar matrix helpers only the references and the tests use
(`transpose`, `col`, `mul_vec`, `is_zero`, `identity`, `zero`, `stack_rows`, `matmul`, `add`,
`scale`, `contains_subspace`, `complement_indices`), and `is_real`, which
left `Scalar` for the same reason, as did `_integer_rows`, which left
`secantgeo.linalg` once the chart stopped clearing Scalar rows."""

import functools
from math import lcm
from typing import Iterable, Sequence

from secantgeo.linalg import IntegerSpan, Matrix, eliminate, integer_values, scalar_values
from secantgeo.scalars import ONE, ZERO, Scalar, _coerce


def _integer_rows(rows) -> list[list]:
    """Scalar rows, each cleared by `integer_values`."""
    return [integer_values(r)[0] for r in rows]


def _cleared_rows(m: Matrix) -> list[list[Scalar]]:
    # scale each row to Gaussian-integer entries; rank and kernels unchanged
    out = []
    for r in m.data:
        den = lcm(*(part.denominator for x in r for part in (x.re, x.im)))
        out.append([Scalar(den) * x for x in r] if den != 1 else list(r))
    return out


def scalar_rank(m: Matrix) -> int:
    """Rank by Bareiss fraction-free elimination on Scalars."""
    rows = [r for r in _cleared_rows(m) if any(r)]
    if not rows:
        return 0
    ncols = m.cols
    rk = 0
    prev = ONE
    for c in range(ncols):
        piv = None
        for i in range(rk, len(rows)):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        lead = rows[rk][c]
        for i in range(rk + 1, len(rows)):
            head = rows[i][c]
            ri, rr = rows[i], rows[rk]
            if head:
                for j in range(c + 1, ncols):
                    ri[j] = (lead * ri[j] - head * rr[j]) / prev
            else:
                for j in range(c + 1, ncols):
                    ri[j] = (lead * ri[j]) / prev
            ri[c] = ZERO
        prev = lead
        rk += 1
        if rk == len(rows):
            break
    return rk


def scalar_rref(m: Matrix) -> tuple[list[int], list[list[Scalar]]]:
    """Reduced row echelon form on Scalars; (pivot columns, nonzero rows)."""
    rows = [list(r) for r in m.data]
    pivots: list[int] = []
    r = 0
    for c in range(m.cols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [inv * x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return pivots, rows[:r]


def scalar_kernel(m: Matrix) -> list[list[Scalar]]:
    """Canonical basis of the right kernel: one vector per free column of
    the RREF, row-reduced once more."""
    pivots, rows = scalar_rref(m)
    vecs = []
    for j in range(m.cols):
        if j not in pivots:
            v = [ZERO] * m.cols
            v[j] = ONE
            for r, p in enumerate(pivots):
                v[p] = -rows[r][j]
            vecs.append(v)
    return scalar_rref(Matrix(len(vecs), m.cols, vecs))[1] if vecs else []


def stack_rows(mats) -> Matrix:
    cols = mats[0].cols
    data = []
    for m in mats:
        if m.cols != cols:
            raise ValueError("stack_rows column mismatch")
        data.extend(m.data)
    return Matrix(len(data), cols, data)


def is_real(x: Scalar) -> bool:
    return not x.im


def _dot(u, v) -> Scalar:
    acc = ZERO
    for a, b in zip(u, v):
        if a and b:
            acc = acc + a * b
    return acc


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.rows:
        raise ValueError("matmul shape mismatch")
    cols = transpose(b).data
    data = [[_dot(r, c) for c in cols] for r in a.data]
    return Matrix(a.rows, b.cols, data)


def scale(m: Matrix, c: Scalar) -> Matrix:
    return Matrix(m.rows, m.cols, [[c * x for x in r] for r in m.data])


def add(a: Matrix, b: Matrix) -> Matrix:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("add shape mismatch")
    return Matrix(a.rows, a.cols,
                  [[x + y for x, y in zip(r, s)] for r, s in zip(a.data, b.data)])


def identity(n: int) -> Matrix:
    return Matrix(n, n, [[ONE if i == j else ZERO for j in range(n)] for i in range(n)])


def zero(rows: int, cols: int) -> Matrix:
    return Matrix(rows, cols, [[ZERO] * cols for _ in range(rows)])


def transpose(m: Matrix) -> Matrix:
    return Matrix(m.cols, m.rows, zip(*m.data)) if m.data else Matrix(0, 0, [])


def col(m: Matrix, j: int) -> tuple[Scalar, ...]:
    return tuple(r[j] for r in m.data)


def mul_vec(m: Matrix, vec: Sequence) -> list[Scalar]:
    if len(vec) != m.cols:
        raise ValueError("vector length mismatch")
    return [_dot(r, vec) for r in m.data]


def is_zero(m: Matrix) -> bool:
    return not any(any(r) for r in m.data)


def contains_subspace(u: "Subspace", w: "Subspace") -> bool:
    return all(u.contains(row) for row in w.basis)


def complement_indices(u: "Subspace") -> list[int]:
    """Standard coordinates whose basis vectors represent cosets of a
    complement to u."""
    return [j for j in range(u.ambient_dim) if j not in set(u.pivots)]


def intersect_through_perps(spaces) -> "Subspace":
    amb = spaces[0].ambient_dim
    ann = [row for u in spaces for row in scalar_kernel(Matrix(u.dim, amb, u.basis))]
    return Subspace.from_vectors(amb, scalar_kernel(Matrix(len(ann), amb, ann)))


def intersect_by_zassenhaus(span: IntegerSpan, other: IntegerSpan) -> IntegerSpan:
    """`IntegerSpan.intersect` as it was before it reduced this span modulo
    the other: in an echelon form of the rows (u, u) for u in this span and
    (w, 0) for w in the other, the rows that vanish on the first half span
    the intersection with their second half.  Rows of width 2a."""
    n, k = span.ambient_dim, span.dim
    rows = [list(r) for r in span.rows + other.rows]
    zero = [0] * n
    pivots, red, _ = eliminate([r + r for r in rows[:k]] + [r + zero for r in rows[k:]])
    return IntegerSpan(n, [r[n:] for p, r in zip(pivots, red) if p >= n])


def perp_by_free_columns(span: IntegerSpan) -> IntegerSpan:
    """`IntegerSpan.perp` as it was before it worked from the smaller side:
    one vector per free column j (-last at j and row_i[j] at the pivot of
    row_i), made canonical by one elimination of all a - d of them."""
    n, at, neg = span.ambient_dim, dict(zip(span.pivots, span.rows)), -span.last
    return IntegerSpan(n, [[at[k][j] if k in at else neg if k == j else 0
                            for k in range(n)] for j in range(n) if j not in at])


# -- the Scalar span API, on the integer kernel ------------------------------

def rank(m: Matrix) -> int:
    """Rank by Bareiss fraction-free elimination on Gaussian integers."""
    return len(eliminate(_integer_rows(m.data))[0])


def rref(m: Matrix) -> tuple[list[int], list[list[Scalar]]]:
    """Reduced row echelon form; returns (pivot columns, nonzero rows)."""
    span = IntegerSpan(m.cols, _integer_rows(m.data))
    return span.pivots, [scalar_values(r, span.last) for r in span.rows]


def subspace(span: IntegerSpan) -> "Subspace":
    """The span with its canonical basis as Scalars."""
    return Subspace(span.ambient_dim, tuple(span.pivots),
                    tuple(tuple(scalar_values(r, span.last)) for r in span.rows))


def _as_scalar_row(row) -> list[Scalar]:
    return [_coerce(x) for x in row]


class Subspace:
    """A linear subspace of C^ambient_dim with canonical RREF basis rows."""

    __slots__ = ("ambient_dim", "pivots", "basis")

    def __init__(self, ambient_dim: int, pivots: tuple[int, ...], basis: tuple[tuple[Scalar, ...], ...]):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "pivots", pivots)
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @staticmethod
    def from_vectors(ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        rows = [_as_scalar_row(v) for v in vectors]
        for r in rows:
            if len(r) != ambient_dim:
                raise ValueError("vector length != ambient_dim")
        return subspace(IntegerSpan(ambient_dim, _integer_rows(rows)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, vec: Sequence) -> list[Scalar]:
        """Canonical coset representative of vec modulo this subspace
        (entries at pivot columns are zeroed)."""
        v = _as_scalar_row(vec)
        if len(v) != self.ambient_dim:
            raise ValueError("vector length != ambient_dim")
        for p, row in zip(self.pivots, self.basis):
            c = v[p]
            if c:
                v = [x - c * y for x, y in zip(v, row)]
        return v

    def contains(self, vec: Sequence) -> bool:
        return not any(self.reduce(vec))

    def perp(self) -> "Subspace":
        """Annihilator under the standard bilinear pairing sum(x_i y_i)."""
        return subspace(IntegerSpan(self.ambient_dim, _integer_rows(self.basis)).perp())

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.ambient_dim, self.basis) == (other.ambient_dim, other.basis)

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return "Subspace(dim %d in C^%d)" % (self.dim, self.ambient_dim)


def kernel(m: Matrix) -> Subspace:
    """Right kernel {x : m x = 0} with canonical basis: the annihilator of
    the row space."""
    return subspace(IntegerSpan(m.cols, _integer_rows(m.data)).perp())


def span_sum(spaces: Sequence[Subspace]) -> Subspace:
    if not spaces:
        raise ValueError("span_sum of nothing")
    if len({s.ambient_dim for s in spaces}) > 1:
        raise ValueError("ambient mismatch")
    return Subspace.from_vectors(spaces[0].ambient_dim, [v for s in spaces for v in s.basis])


def intersect(spaces: Sequence[Subspace]) -> Subspace:
    """Intersection on the integer rows, by `IntegerSpan.intersect`."""
    if not spaces:
        raise ValueError("intersect of nothing")
    if len({s.ambient_dim for s in spaces}) > 1:
        raise ValueError("ambient mismatch")
    spans = [IntegerSpan(s.ambient_dim, _integer_rows(s.basis)) for s in spaces]
    return subspace(functools.reduce(IntegerSpan.intersect, spans))


def solve_left(rows_a: Matrix, rows_b: Matrix) -> Matrix:
    """C with C @ rows_a == rows_b, for rows_a of full row rank.

    Raises ValueError when some row of rows_b is outside the row space."""
    n = rows_a.rows
    aug = [list(rows_a.data[i]) + [ONE if j == i else ZERO for j in range(n)] for i in range(n)]
    pivots, red = rref(Matrix(n, rows_a.cols + n, aug))
    if len(pivots) != n or any(p >= rows_a.cols for p in pivots):
        raise ValueError("solve_left needs full row rank")
    out = []
    for brow in rows_b.data:
        v = list(brow)
        coeffs = [ZERO] * n
        for r, p in enumerate(pivots):
            c = v[p]
            if c:
                v = [x - c * y for x, y in zip(v, red[r][: rows_a.cols])]
                coeffs = [x + c * y for x, y in zip(coeffs, red[r][rows_a.cols:])]
        if any(v):
            raise ValueError("row not in span")
        out.append(coeffs)
    return Matrix(rows_b.rows, n, out)


def inverse(m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise ValueError("inverse of non-square matrix")
    n = m.rows
    aug = [list(m.data[i]) + [ONE if j == i else ZERO for j in range(n)] for i in range(n)]
    pivots, red = rref(Matrix(n, 2 * n, aug))
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return Matrix(n, n, [r[n:] for r in red])
