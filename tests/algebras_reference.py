"""Elements of the complexified composition algebras (`AlgebraElement`,
on the structure table of `secantgeo.algebras`) and 3x3 Hermitian
matrices over them: the determinant, the rank and the rank-one chart of
the Severi varieties, with the orientation of the octonion lines, the
algebra's zero and unit, and the element constructors and readings
(`from_coeffs`, `from_scalar`, `scalar_part`, `is_scalar`,
`element_is_zero`, `norm`).  They left `secantgeo.algebras` because only
the tests use them.  So did the exhaustive search that picks the octonion
lines `secantgeo.algebras` writes out (`searched_octonion_table`), with
its two checks on basis elements, `is_alternative` and
`norm_multiplicative`."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from secantgeo.algebras import AlgebraTag, _structure_table, _table_from_lines
from secantgeo.scalars import ONE, ZERO, Rational, Scalar, _coerce


class AlgebraElement:
    """An element of the algebra `tag`: its Scalar coefficients on the basis
    units, index 0 the unit.  Two elements are equal when their tags and
    coefficients are."""

    __slots__ = ("tag", "coeffs")

    def __init__(self, tag: AlgebraTag, coeffs: tuple[Scalar, ...]):
        if len(coeffs) != tag.dim:
            raise ValueError("coefficient count != algebra dimension")
        self.tag, self.coeffs = tag, coeffs

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.tag is other.tag and self.coeffs == other.coeffs

    @staticmethod
    def unit(tag: AlgebraTag, k: int) -> "AlgebraElement":
        c = [ZERO] * tag.dim
        c[k] = ONE
        return AlgebraElement(tag, tuple(c))

    def __add__(self, other):
        self._check(other)
        return AlgebraElement(self.tag, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        return AlgebraElement(self.tag, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return AlgebraElement(self.tag, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (Scalar, int)):
            c = _coerce(other)
            return AlgebraElement(self.tag, tuple(c * a for a in self.coeffs))
        self._check(other)
        table = _structure_table(self.tag)
        out = [ZERO] * self.tag.dim
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if not b:
                    continue
                k, s = table[i][j]
                term = a * b
                out[k] = out[k] + term if s == 1 else out[k] - term
        return AlgebraElement(self.tag, tuple(out))

    __rmul__ = __mul__

    def conj(self) -> "AlgebraElement":
        return AlgebraElement(self.tag, (self.coeffs[0],) + tuple(-c for c in self.coeffs[1:]))

    def _check(self, other):
        if not isinstance(other, AlgebraElement) or other.tag is not self.tag:
            raise TypeError("algebra mismatch")


_PINNED_LINES = ((1, 2, 3), (1, 7, 4), (2, 4, 6))
_FREE_LINES = ((1, 5, 6), (2, 5, 7), (3, 4, 5), (3, 6, 7))


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


def is_alternative(table, dim) -> bool:
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


def norm_multiplicative(table, dim) -> bool:
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


def searched_octonion_table():
    """The octonion table of the first orientation of the four free lines,
    in lexicographic order of the reversal bits, under which the algebra
    is alternative and the norm is multiplicative."""
    for bits in itertools.product((0, 1), repeat=len(_FREE_LINES)):
        lines = list(_PINNED_LINES)
        for line, bit in zip(_FREE_LINES, bits):
            lines.append(tuple(reversed(line)) if bit else line)
        table = _table_from_lines(8, lines)
        if is_alternative(table, 8) and norm_multiplicative(table, 8):
            return table
    raise RuntimeError("no alternative orientation of the octonion lines found")


def octonion_orientations() -> tuple[tuple[int, int, int], ...]:
    """The seven oriented lines actually in use."""
    table = _structure_table(AlgebraTag.O)
    out = [_PINNED_LINES[0], _PINNED_LINES[1], _PINNED_LINES[2]]
    for a, b, c in _FREE_LINES:
        idx, s = table[a][b]
        assert idx == c
        out.append((a, b, c) if s == 1 else (a, c, b))
    return tuple(out)


def from_coeffs(tag: AlgebraTag, coeffs) -> AlgebraElement:
    return AlgebraElement(tag, tuple(_coerce(c) for c in coeffs))


def from_scalar(tag: AlgebraTag, value) -> AlgebraElement:
    return AlgebraElement(tag, (_coerce(value),) + (ZERO,) * (tag.dim - 1))


def scalar_part(x: AlgebraElement) -> Scalar:
    return x.coeffs[0]


def is_scalar(x: AlgebraElement) -> bool:
    return not any(x.coeffs[1:])


def element_is_zero(x: AlgebraElement) -> bool:
    return not any(x.coeffs)


def norm(x: AlgebraElement) -> Scalar:
    """x conj(x) as a scalar; over the complexification this is the sum of
    squared coefficients and may vanish for nonzero x."""
    acc = ZERO
    for c in x.coeffs:
        acc = acc + c * c
    return acc


def algebra_zero(tag: AlgebraTag) -> AlgebraElement:
    return from_scalar(tag, 0)


def algebra_one(tag: AlgebraTag) -> AlgebraElement:
    return from_scalar(tag, 1)


@dataclass(frozen=True)
class HermMatrix:
    """3x3 Hermitian matrix over a composition algebra.

    Layout: [[r1, conj(u1), conj(u2)],
             [u1, r2,       conj(u3)],
             [u2, u3,       r3      ]]
    """

    tag: AlgebraTag
    r1: Scalar
    r2: Scalar
    r3: Scalar
    u1: AlgebraElement
    u2: AlgebraElement
    u3: AlgebraElement

    def entries(self) -> list[list[AlgebraElement]]:
        s = lambda x: from_scalar(self.tag, x)
        return [
            [s(self.r1), self.u1.conj(), self.u2.conj()],
            [self.u1, s(self.r2), self.u3.conj()],
            [self.u2, self.u3, s(self.r3)],
        ]

    def coords(self) -> list[Scalar]:
        """Flat coordinates (r1, r2, r3, u1.., u2.., u3..), length 3 + 3 dim."""
        out = [self.r1, self.r2, self.r3]
        for u in (self.u1, self.u2, self.u3):
            out.extend(u.coeffs)
        return out

    def is_zero(self) -> bool:
        return not (self.r1 or self.r2 or self.r3) and \
            element_is_zero(self.u1) and element_is_zero(self.u2) and element_is_zero(self.u3)


def herm_from_coords(tag: AlgebraTag, coords) -> HermMatrix:
    d = tag.dim
    if len(coords) != 3 + 3 * d:
        raise ValueError("coordinate count mismatch")
    c = [_coerce(x) for x in coords]
    us = [AlgebraElement(tag, tuple(c[3 + i * d: 3 + (i + 1) * d])) for i in range(3)]
    return HermMatrix(tag, c[0], c[1], c[2], us[0], us[1], us[2])


def _mat_mul(a, b, tag):
    z = algebra_zero(tag)
    out = [[z] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            acc = z
            for k in range(3):
                acc = acc + a[i][k] * b[k][j]
            out[i][j] = acc
    return out


def _trace(m) -> Scalar:
    acc = m[0][0] + m[1][1] + m[2][2]
    if not is_scalar(acc):
        raise ArithmeticError("trace has a non-scalar part")
    return scalar_part(acc)


def herm_det(x: HermMatrix) -> Scalar:
    """det x = (tr(x)^3 + 2 tr(x^3) - 3 tr(x) tr(x^2)) / 6 with Jordan
    powers: x^2 = x x is Hermitian as is, the cube needs symmetrizing,
    x^3 = (x x^2 + x^2 x) / 2."""
    m = x.entries()
    m2 = _mat_mul(m, m, x.tag)
    left = _mat_mul(m, m2, x.tag)
    right = _mat_mul(m2, m, x.tag)
    half = Scalar(Rational(1, 2))
    m3 = [[(left[i][j] + right[i][j]) * half for j in range(3)] for i in range(3)]
    t1 = _trace(m)
    t2 = _trace(m2)
    t3 = _trace(m3)
    six = Scalar(6)
    return (t1 * t1 * t1 + Scalar(2) * t3 - Scalar(3) * t1 * t2) / six


def _rank_one_conditions(x: HermMatrix) -> list:
    """The six Hermitian 2x2 minor conditions; all zero iff rank <= 1."""
    tag = x.tag
    s = lambda v: from_scalar(tag, v)
    diffs = [
        s(x.r1 * x.r2 - scalar_part(x.u1 * x.u1.conj())),
        s(x.r1 * x.r3 - scalar_part(x.u2 * x.u2.conj())),
        s(x.r2 * x.r3 - scalar_part(x.u3 * x.u3.conj())),
        x.u3 * x.r1 - x.u2 * x.u1.conj(),
        x.u2 * x.r2 - x.u3 * x.u1,
        x.u1 * x.r3 - x.u3.conj() * x.u2,
    ]
    return diffs


def herm_rank(x: HermMatrix) -> int:
    """0, 1, 2 or 3: zero matrix, all 2x2 minor conditions vanish, det zero,
    det nonzero."""
    if x.is_zero():
        return 0
    if all(map(element_is_zero, _rank_one_conditions(x))):
        return 1
    if herm_det(x):
        return 3
    return 2


def severi_chart(u1: AlgebraElement, u2: AlgebraElement) -> HermMatrix:
    """Rank-one matrix w conj(w)^T for w = (1, u1, u2): the affine chart of
    the rank-one locus over the r1 = 1 slice.  All entries are quadratic in
    the coefficients of (u1, u2)."""
    if u1.tag is not u2.tag:
        raise TypeError("algebra mismatch")
    return HermMatrix(
        u1.tag,
        ONE,
        norm(u1),
        norm(u2),
        u1,
        u2,
        u2 * u1.conj(),
    )
