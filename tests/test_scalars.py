import random

import pytest

from linalg_reference import is_real
from secantgeo.scalars import I, ONE, ZERO, Rational, Scalar, scalar_from_json, scalar_to_json


def rand_scalar(rng, bound=30):
    return Scalar(rng.randint(-bound, bound), rng.randint(-bound, bound)) / Scalar(rng.randint(1, bound))


def test_construction_and_equality():
    assert Scalar(3) == 3
    assert Scalar(3, 0) == Scalar(3)
    assert Scalar(0) == ZERO
    assert not ZERO
    assert ONE
    assert I * I == Scalar(-1)
    assert Scalar("2/3") == Scalar(2) / Scalar(3)
    assert hash(Scalar(5)) == hash(Scalar(5, 0))


def test_field_axioms_random():
    rng = random.Random(7)
    for _ in range(200):
        x = rand_scalar(rng)
        y = rand_scalar(rng)
        z = rand_scalar(rng)
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + ZERO == x
        assert x * ONE == x
        assert x - x == ZERO
        if x:
            assert x / x == ONE
            assert x * (ONE / x) == ONE


def test_conjugation_and_norm():
    rng = random.Random(8)
    for _ in range(100):
        x = rand_scalar(rng)
        y = rand_scalar(rng)
        assert (x * y).conj() == x.conj() * y.conj()
        assert (x + y).conj() == x.conj() + y.conj()
        assert x.norm_sq() == (x * x.conj()).re
        assert (x * x.conj()).im == 0
    assert I.conj() == Scalar(0, -1)
    assert Scalar(3, 4).norm_sq() == Scalar(25).re


def test_division():
    assert Scalar(1) / Scalar(0, 1) == Scalar(0, -1)
    assert (Scalar(4, 2) / Scalar(2)) == Scalar(2, 1)
    try:
        _ = ONE / ZERO
        assert False
    except ZeroDivisionError:
        pass


def test_mixed_int_arithmetic():
    x = Scalar(5, -2)
    assert x + 1 == Scalar(6, -2)
    assert 1 + x == Scalar(6, -2)
    assert 2 * x == Scalar(10, -4)
    assert x - 5 == Scalar(0, -2)
    assert 10 / Scalar(2) == Scalar(5)


def test_json_roundtrip():
    rng = random.Random(9)
    for _ in range(50):
        x = rand_scalar(rng)
        assert scalar_from_json(scalar_to_json(x)) == x
    obj = scalar_to_json(Scalar("1/3", "-2/7"))
    assert isinstance(obj, dict)
    assert scalar_from_json(obj) == Scalar("1/3", "-2/7")


def test_json_rationals_are_decimal_strings():
    """An optional minus, decimal digits, and an optional nonzero
    denominator; anything else raises ValueError.  "\u00b2" passes
    str.isdigit but is no decimal digit."""
    for text, want in (("0", 0), ("-7", -7), ("007", 7), ("3/6", Rational(1, 2)),
                       ("-10/4", Rational(-5, 2)), ("-0/5", 0)):
        assert scalar_from_json({"re": text, "im": "0"}) == Scalar(want)
        assert scalar_from_json({"re": "0", "im": text}) == Scalar(0, want)
    for bad in ("\u00b2", "1/\u00b2", "", "-", "1/", "/2", "1/0", "-1/0", "--1", "+1", " 1",
                "1 ", "1.5", "1e3", "1_0", "1/-2", "1/2/3", 3, None):
        with pytest.raises(ValueError):
            scalar_from_json({"re": bad, "im": "0"})
        with pytest.raises(ValueError):
            scalar_from_json({"re": "1", "im": bad})


def test_is_real():
    assert is_real(Scalar(2))
    assert not is_real(Scalar(2, 1))
    assert is_real(ZERO)


def test_floats_are_rejected():
    for bad in (0.1, 1.0, float("nan")):
        with pytest.raises(TypeError):
            Scalar(bad)
        with pytest.raises(TypeError):
            Scalar(1, bad)
        with pytest.raises(TypeError):
            Scalar(1) + bad
    assert Scalar(Rational(1, 10)) == Scalar("1/10")
