import random
from fractions import Fraction

import pytest

from helpers import is_exact, substitute
from spwebs.rings import (Poly, exact_div_scalar, format_scalar,
                          parse_monomial, parse_scalar)

A, B, C = Poly.var("a"), Poly.var("b"), Poly.var("c")


def test_ring_axioms_random():
    rnd = random.Random(1)

    def rand_poly():
        p = Poly.const(0)
        for _ in range(rnd.randint(0, 4)):
            t = Poly.const(Fraction(rnd.randint(-4, 4), rnd.randint(1, 3)))
            for v in (A, B, C):
                t = t * v ** rnd.randint(0, 2)
            p = p + t
        return p

    for _ in range(40):
        p, q, r = rand_poly(), rand_poly(), rand_poly()
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) * r == p * r + q * r
        assert p - p == Poly.const(0)
        assert (p * q) * r == p * (q * r)


def test_binomial_square():
    assert (A + B) ** 2 == A ** 2 + 2 * A * B + B ** 2


def test_scalar_coercion():
    assert 1 + A == A + Poly.const(1)
    assert Fraction(1, 2) * A + Fraction(1, 2) * A == A
    assert (A - A).is_zero()


def test_coefficient():
    p = (A * B + 2 * C) ** 3
    assert p.coefficient("a^2*b^2*c") == 6
    assert p.coefficient((("c", 3),)) == 8
    assert p.coefficient("a^3") == 0


def test_exact_div():
    p = (A + B) * (A - C)
    assert p.exact_div(A - C) == A + B
    with pytest.raises(Exception):
        p.exact_div(A + C)
    # a one-term divisor divides term by term
    assert (3 * A ** 2 * B + 6 * A * B ** 2).exact_div(3 * A * B) == A + 2 * B
    with pytest.raises(ValueError):
        (A ** 2 + B).exact_div(A)
    # the quotient's coefficients need not be integers
    q = (3 * A + B).exact_div(Poly.const(3))
    assert q == A + Fraction(1, 3) * B
    assert str(q) == "a + 1/3*b"
    # a divisor variable that the dividend lacks
    with pytest.raises(ValueError):
        (A ** 2 + B).exact_div(A + C)
    with pytest.raises(ValueError):
        A.exact_div(C)
    assert Poly.const(0).exact_div(A + C) == 0
    # seeded products: (p * q) / q == p
    rnd = random.Random(7)

    def rand_poly():
        p = Poly.const(0)
        for _ in range(rnd.randint(1, 4)):
            t = Poly.const(Fraction(rnd.randint(-4, 4) or 1, rnd.randint(1, 3)))
            for v in (A, B, C):
                t = t * v ** rnd.randint(0, 4)
            p = p + t
        return p

    for _ in range(60):
        p, q = rand_poly(), rand_poly()
        if q.is_zero():
            continue
        assert (p * q).exact_div(q) == p
        if q.degree():
            # q divides p * q + 1 only if q divides 1
            with pytest.raises(ValueError):
                (p * q + 1).exact_div(q)


def test_substitute():
    p = A ** 2 * B - 3
    assert substitute(p, {"a": Fraction(2), "b": Fraction(1, 4)}) == -2


def test_degree_leading():
    p = A * B ** 2 + A
    assert p.degree() == 3


def test_parse_monomial():
    assert parse_monomial("a^2*b") == (("a", 2), ("b", 1))


def test_format_parse_round_trip():
    for x in (Fraction(-3, 7), Fraction(5), 0, 12):
        assert parse_scalar(format_scalar(x)) == x
    assert parse_scalar(format_scalar(A)) == A


def test_format_poly_canonical():
    p = A ** 2 * B - Fraction(3, 2) * C + 1
    assert format_scalar(p) == "a^2*b - 3/2*c + 1"


def test_parse_unknown_strictness():
    assert parse_scalar("q", symbols_as_vars=True) == Poly.var("q")
    with pytest.raises(ValueError):
        parse_scalar("q", symbols_as_vars=False)


@pytest.mark.parametrize("text", [
    "+3", " 3 ", "-0", "07", "\u0663", "1.5", "1e3", "1_0", "1_000/3",
    "-2/4", "3/-4", "3/ 4", " -7 / 2", "1/0",
    "\u00b2", "0x10", "+-3", "", "+", "/", "3/", "/4"])
def test_parse_scalar_agrees_with_fraction(text):
    # the int() fast path takes only [+-]digits[/digits]; every other
    # string must parse, or fail, exactly as Fraction(str) does
    try:
        want = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValueError):
            parse_scalar(text, False)
    else:
        got = parse_scalar(text, False)
        assert type(got) is Fraction and got == want


def test_is_exact():
    assert is_exact(Fraction(1, 3)) and is_exact(2) and is_exact(A)
    assert not is_exact(0.5)


def test_exact_div_scalar():
    assert exact_div_scalar(Fraction(3, 4), Fraction(1, 2)) == Fraction(3, 2)
    assert exact_div_scalar(A * B, B) == A
    assert (exact_div_scalar(3 * A + B, Fraction(3, 2))
            == 2 * A + Fraction(2, 3) * B)
    assert exact_div_scalar(A, 2) == (3 * A).exact_div(Poly.const(6))
    assert exact_div_scalar(6, 4) == Fraction(3, 2)
    assert isinstance(exact_div_scalar(6, 3), Fraction)
