"""The elimination `secantgeo.linalg` used before its integer kernel: rank
and RREF computed directly on Scalars.  Kept as the reference the integer
kernel is checked against, with the Scalar matrix products and sums
and the subspace helpers (`identity`, `zero`, `stack_rows`, `matmul`, `add`,
`scale`, `contains_subspace`, `complement_indices`) that only the references
and the tests use, and `intersect` as it was before it ran by Zassenhaus on
integer spans: through the kernel of the stacked annihilators."""

from math import lcm

from secantgeo.linalg import Matrix, Subspace
from secantgeo.scalars import ONE, ZERO, Scalar


def _cleared_rows(m: Matrix) -> list[list[Scalar]]:
    # scale each row to Gaussian-integer entries; rank and kernels unchanged
    out = []
    for r in m.data:
        den = lcm(*(part.denominator for x in r for part in (x.re, x.im)))
        out.append([Scalar(den) * x for x in r] if den != 1 else list(r))
    return out


def rank(m: Matrix) -> int:
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


def rref(m: Matrix) -> tuple[list[int], list[list[Scalar]]]:
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


def kernel(m: Matrix) -> list[list[Scalar]]:
    """Canonical basis of the right kernel: one vector per free column of
    the RREF, row-reduced once more."""
    pivots, rows = rref(m)
    vecs = []
    for j in range(m.cols):
        if j not in pivots:
            v = [ZERO] * m.cols
            v[j] = ONE
            for r, p in enumerate(pivots):
                v[p] = -rows[r][j]
            vecs.append(v)
    return rref(Matrix(len(vecs), m.cols, vecs))[1] if vecs else []


def stack_rows(mats) -> Matrix:
    cols = mats[0].cols
    data = []
    for m in mats:
        if m.cols != cols:
            raise ValueError("stack_rows column mismatch")
        data.extend(m.data)
    return Matrix(len(data), cols, data)


def _dot(u, v) -> Scalar:
    acc = ZERO
    for a, b in zip(u, v):
        if a and b:
            acc = acc + a * b
    return acc


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.rows:
        raise ValueError("matmul shape mismatch")
    cols = b.transpose().data
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


def contains_subspace(u: Subspace, w: Subspace) -> bool:
    return all(u.contains(row) for row in w.basis)


def complement_indices(u: Subspace) -> list[int]:
    """Standard coordinates whose basis vectors represent cosets of a
    complement to u."""
    return [j for j in range(u.ambient_dim) if j not in set(u.pivots)]


def intersect(spaces) -> Subspace:
    amb = spaces[0].ambient_dim
    ann = [row for u in spaces for row in kernel(Matrix(u.dim, amb, u.basis))]
    return Subspace.from_vectors(amb, kernel(Matrix(len(ann), amb, ann)))
