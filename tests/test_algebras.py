import random

from algebras_reference import (AlgebraElement, algebra_one, from_coeffs, herm_det, herm_from_coords,
                                herm_rank, is_alternative, is_scalar, norm, norm_multiplicative,
                                octonion_orientations, searched_octonion_table, severi_chart)
from secantgeo.algebras import AlgebraTag, _structure_table
from secantgeo.scalars import ONE, ZERO, Scalar


def rand_element(tag, rng, bound=4):
    return from_coeffs(tag, [rng.randint(-bound, bound) for _ in range(tag.dim)])


def test_dims_and_units():
    assert [t.dim for t in (AlgebraTag.R, AlgebraTag.C, AlgebraTag.H, AlgebraTag.O)] == [1, 2, 4, 8]
    for tag in AlgebraTag:
        one = algebra_one(tag)
        x = AlgebraElement.unit(tag, tag.dim - 1)
        assert one * x == x
        assert x * one == x


def test_imaginary_units_square_to_minus_one():
    for tag in (AlgebraTag.C, AlgebraTag.H, AlgebraTag.O):
        for k in range(1, tag.dim):
            e = AlgebraElement.unit(tag, k)
            sq = e * e
            assert sq.coeffs[0] == Scalar(-1)
            assert all(c == ZERO for c in sq.coeffs[1:])


def test_quaternion_table():
    i = AlgebraElement.unit(AlgebraTag.H, 1)
    j = AlgebraElement.unit(AlgebraTag.H, 2)
    k = AlgebraElement.unit(AlgebraTag.H, 3)
    assert i * j == k
    assert j * i == -k
    assert j * k == i
    assert k * i == j


def test_norm_multiplicative():
    rng = random.Random(21)
    for tag in AlgebraTag:
        for _ in range(40):
            x = rand_element(tag, rng)
            y = rand_element(tag, rng)
            assert norm(x * y) == norm(x) * norm(y)
            assert norm(x.conj()) == norm(x)
            assert is_scalar(x * x.conj())


def test_associativity_up_to_quaternions_fails_for_octonions():
    rng = random.Random(22)
    for tag in (AlgebraTag.R, AlgebraTag.C, AlgebraTag.H):
        for _ in range(30):
            x = rand_element(tag, rng)
            y = rand_element(tag, rng)
            z = rand_element(tag, rng)
            assert (x * y) * z == x * (y * z)
    e1 = AlgebraElement.unit(AlgebraTag.O, 1)
    e2 = AlgebraElement.unit(AlgebraTag.O, 2)
    e5 = AlgebraElement.unit(AlgebraTag.O, 5)
    assert (e1 * e2) * e5 != e1 * (e2 * e5)


def test_octonions_alternative():
    rng = random.Random(23)
    for _ in range(40):
        x = rand_element(AlgebraTag.O, rng)
        y = rand_element(AlgebraTag.O, rng)
        assert (x * x) * y == x * (x * y)
        assert (y * x) * x == y * (x * x)
        assert (x * y) * x == x * (y * x)


def test_literal_tables_pass_both_checks_and_match_the_search():
    """The octonion lines written out as data give the table the exhaustive
    orientation search picks; every table is alternative with a
    multiplicative norm."""
    assert _structure_table(AlgebraTag.O) == searched_octonion_table()
    for tag in AlgebraTag:
        table = _structure_table(tag)
        assert is_alternative(table, tag.dim) and norm_multiplicative(table, tag.dim)


def test_octonion_orientations_span_all_units():
    lines = octonion_orientations()
    assert len(lines) == 7
    touched = set()
    for a, b, c in lines:
        e_a = AlgebraElement.unit(AlgebraTag.O, a)
        e_b = AlgebraElement.unit(AlgebraTag.O, b)
        assert e_a * e_b == AlgebraElement.unit(AlgebraTag.O, c)
        touched.update((a, b, c))
    assert touched == set(range(1, 8))


def test_herm_coords_roundtrip():
    rng = random.Random(24)
    for tag in AlgebraTag:
        coords = [rng.randint(-5, 5) for _ in range(3 + 3 * tag.dim)]
        m = herm_from_coords(tag, coords)
        assert [c == Scalar(v) for c, v in zip(m.coords(), coords)]


def test_herm_det_diagonal():
    for tag in AlgebraTag:
        d = tag.dim
        coords = [2, 3, 5] + [0] * (3 * d)
        m = herm_from_coords(tag, coords)
        assert herm_det(m) == Scalar(30)
        assert herm_rank(m) == 3


def test_severi_chart_is_rank_one():
    rng = random.Random(25)
    for tag in AlgebraTag:
        for _ in range(15):
            u1 = rand_element(tag, rng)
            u2 = rand_element(tag, rng)
            m = severi_chart(u1, u2)
            assert m.r1 == ONE
            assert herm_rank(m) == 1
            assert herm_det(m) == ZERO


def test_rank_two_detected():
    for tag in AlgebraTag:
        d = tag.dim
        coords = [1, 1, 0] + [0] * (3 * d)
        m = herm_from_coords(tag, coords)
        assert herm_rank(m) == 2
