"""Complexified composition algebras, for the Severi charts: the
multiplication table of their basis units.

The four algebras have real dimensions 1, 2, 4, 8 and are used here over
the complex numbers (the imaginary basis units are formal).  Octonion
multiplication is encoded by seven oriented lines on the points 1..7.
Three orientations are pinned by the products J1 J2 = J3, J1 J7 = J4 and
J4 J2 = -J6; the remaining four lines {1,5,6}, {2,5,7}, {3,4,5},
{3,6,7} take the lexicographically first orientation assignment under
which the algebra is alternative and the norm is multiplicative, checked
exhaustively on basis elements.  Elements and their arithmetic live in
`tests/algebras_reference.py`, since only the tests compute with them.
"""

from __future__ import annotations

import itertools
from enum import Enum
from functools import lru_cache


class AlgebraTag(Enum):
    R = 1
    C = 2
    H = 4
    O = 8

    @property
    def dim(self) -> int:
        return self.value


_PINNED_LINES = ((1, 2, 3), (1, 7, 4), (2, 4, 6))
_FREE_LINES = ((1, 5, 6), (2, 5, 7), (3, 4, 5), (3, 6, 7))


def _table_from_lines(dim, lines):
    # table[i][j] = (k, sign) with J_i J_j = sign * J_k, index 0 the unit
    table = [[None] * dim for _ in range(dim)]
    for j in range(dim):
        table[0][j] = (j, 1)
        table[j][0] = (j, 1)
    for i in range(1, dim):
        table[i][i] = (0, -1)
    for a, b, c in lines:
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            table[x][y] = (z, 1)
            table[y][x] = (z, -1)
    return table


def _associator_coords(table, i, j, k):
    # (J_i J_j) J_k - J_i (J_j J_k), as (index, coefficient) pairs
    p, s1 = table[i][j]
    q, s2 = table[p][k]
    u, t1 = table[j][k]
    v, t2 = table[i][u]
    out = {}
    out[q] = out.get(q, 0) + s1 * s2
    out[v] = out.get(v, 0) - t1 * t2
    return {idx: c for idx, c in out.items() if c}


def _is_alternative(table, dim) -> bool:
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                a = _associator_coords(table, i, j, k)
                b = _associator_coords(table, j, i, k)
                c = _associator_coords(table, i, k, j)
                neg_a = {idx: -v for idx, v in a.items()}
                if b != neg_a or c != neg_a:
                    return False
    return True


def _norm_multiplicative(table, dim) -> bool:
    # N(x y) = N(x) N(y) for x, y running over sums of two basis units;
    # by polarization this pins the quadratic identity on the basis span
    units = list(range(dim))
    pairs = [(i, j) for i in units for j in units if i <= j]
    for (i, j) in pairs:
        for (k, l) in pairs:
            prod = {}
            for a, b in ((i, k), (i, l), (j, k), (j, l)):
                idx, s = table[a][b]
                prod[idx] = prod.get(idx, 0) + s
            n = sum(c * c for c in prod.values())
            nx = 2 if i != j else 4
            ny = 2 if k != l else 4
            if n != nx * ny:
                return False
    return True


@lru_cache(maxsize=None)
def _structure_table(tag: AlgebraTag):
    dim = tag.dim
    if tag is AlgebraTag.R:
        return _table_from_lines(1, ())
    if tag is AlgebraTag.C:
        return _table_from_lines(2, ())
    if tag is AlgebraTag.H:
        return _table_from_lines(4, ((1, 2, 3),))
    for bits in itertools.product((0, 1), repeat=len(_FREE_LINES)):
        lines = list(_PINNED_LINES)
        for line, bit in zip(_FREE_LINES, bits):
            lines.append(tuple(reversed(line)) if bit else line)
        table = _table_from_lines(8, lines)
        if _is_alternative(table, 8) and _norm_multiplicative(table, 8):
            return table
    raise RuntimeError("no alternative orientation of the octonion lines found")
