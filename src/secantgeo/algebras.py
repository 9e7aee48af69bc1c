"""Complexified composition algebras, for the Severi charts: the
multiplication table of their basis units.

The four algebras have real dimensions 1, 2, 4, 8 and are used here over
the complex numbers (the imaginary basis units are formal).  Octonion
multiplication is encoded by seven oriented lines on the points 1..7.
Three orientations are pinned by the products J1 J2 = J3, J1 J7 = J4 and
J4 J2 = -J6; the remaining four lines {1,5,6}, {2,5,7}, {3,4,5},
{3,6,7} carry the lexicographically first orientation assignment under
which the algebra is alternative and the norm is multiplicative.  The
lines are written out as data; the exhaustive search on basis elements
that picks them, the elements and their arithmetic live in
`tests/algebras_reference.py`, since only the tests use them.
"""

from __future__ import annotations

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


# the oriented lines of each algebra's imaginary units, J_a J_b = J_c for
# each (a, b, c); the octonions' three pinned lines come first
_LINES = {
    AlgebraTag.R: (),
    AlgebraTag.C: (),
    AlgebraTag.H: ((1, 2, 3),),
    AlgebraTag.O: ((1, 2, 3), (1, 7, 4), (2, 4, 6),
                   (1, 5, 6), (2, 5, 7), (3, 4, 5), (7, 6, 3)),
}


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


@lru_cache(maxsize=None)
def _structure_table(tag: AlgebraTag):
    return _table_from_lines(tag.dim, _LINES[tag])
