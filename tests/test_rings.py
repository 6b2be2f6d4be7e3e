import math
import random
from fractions import Fraction

import pytest

from helpers import is_exact, reference_grlex, substitute
from spwebs.errors import MalformedInput, MixedRing
from spwebs.rings import (Poly, _pair, _Packing, exact_div_scalar,
                          format_scalar, parse_monomial, parse_scalar)

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


def test_print_order_is_the_tuple_grlex_order():
    # the packed key orders monomials as the (degree, exponents) tuple
    # did, and each coefficient, printed from its numerator and
    # denominator, reads as str(abs(c)) and c > 0 of the Fraction did
    rnd = random.Random(23)
    names = ["a", "b", "c", "e1", "e10", "e2", "x_1"]

    def reference_str(p):
        out = []
        for m in reference_grlex(p):
            c = p.terms[m]
            mono = "*".join(v if e == 1 else "%s^%d" % (v, e) for v, e in m)
            body = (str(abs(c)) if not m else mono if abs(c) == 1
                    else "%s*%s" % (abs(c), mono))
            out.append((body if c > 0 else "-" + body) if not out
                       else ("+ " if c > 0 else "- ") + body)
        return " ".join(out) or "0"

    seen = set()
    for _ in range(20000):
        terms = {}
        for _ in range(rnd.randint(0, 6)):
            mono = tuple(sorted((v, rnd.randint(1, 4)) for v in
                                rnd.sample(names, rnd.randint(0, 3))))
            num = rnd.choice([rnd.randint(-5, 5), 2 ** 64 + 13, -3 ** 50])
            terms[mono] = Fraction(num, rnd.choice([1, 2, 3, 2 ** 65 + 1]))
        p = Poly(terms)
        assert str(p) == reference_str(p)
        order = reference_grlex(p)
        cs = [p.terms[m] for m in order]
        seen.update(name for name, hit in [
            ("negative lead", cs and cs[0] < 0),
            ("unit monomial", any(abs(p.terms[m]) == 1 for m in order if m)),
            ("positive fraction", any(c > 0 and c.denominator > 1 for c in cs)),
            ("negative fraction", any(c < 0 and c.denominator > 1 for c in cs)),
            ("constant alone", order == [()]),
            ("constant last", len(order) > 1 and order[-1] == ()),
            ("past 2^64", any(abs(c.numerator) > 2 ** 64 or
                              c.denominator > 2 ** 64 for c in cs))] if hit)
    assert len(seen) == 7, seen
    assert str(Poly({(): 0})) == "0"
    assert str(Poly({(("a", 1),): -1, (): Fraction(-2 ** 70, 3)})) \
        == "-a - %d/3" % 2 ** 70


def test_coefficients_are_fractions_in_lowest_terms():
    # every operation leaves each coefficient a nonzero Fraction in
    # lowest terms, normalised once, whatever it was built from
    def normal(p):
        return all(type(c) is Fraction and c and c.denominator > 0 and
                   math.gcd(c.numerator, c.denominator) == 1
                   for c in p.terms.values())

    p = Fraction(3, 2) * A ** 2 * B - Fraction(1, 3) * B + 2
    q = A - 2 * B + Fraction(5, 6)
    pk = _Packing(["a", "b"], 4)
    results = [p + q, p + 1, 1 + p, p - q, q - p, 3 - p, p * q, 2 * p,
               p * Fraction(2, 3), p ** 0, p ** 1, p ** 2, q ** 3,
               (p * q).exact_div(q), (p * q).exact_div(p),
               exact_div_scalar(p, 3), pk.unpack(pk.pack(p, 6)),
               pk.unpack(pk.pack(p, 6), 6), pk.unpack(pk.pack(p, 6), 4),
               Poly({(("a", 1),): 2, (): Fraction(4, 2), (("b", 1),): 0}),
               Poly({(): 0.5}), p + (-p)]
    assert all(normal(r) for r in results)
    assert results[-1] == 0 and not results[-1].terms
    assert (p * q).exact_div(q) == p and pk.unpack(pk.pack(p, 6), 6) == p
    assert p ** 0 == 1 and p ** 2 == p * p and q ** 3 == q * q * q
    # p ** 1 is p, and nothing done with it afterwards changes p
    before = dict(p.terms)
    r = p ** 1
    assert r == p
    _ = [r + A, r * r, r - 1, r ** 3, -r]
    assert p.terms == before


def test_ne_is_the_negation_of_eq():
    p = A + 1
    assert p != 2 and not (Poly.const(2) != 2)
    assert p != Fraction(1, 2) and not (Poly.const(Fraction(1, 2))
                                        != Fraction(1, 2))
    assert p != A and not (p != A + 1)
    assert 2 != p and not (2 != Poly.const(2))
    assert p != "a + 1"
    with pytest.raises(MixedRing):
        p != 1.5
    with pytest.raises(MixedRing):
        1.5 != p


def test_binomial_square():
    assert (A + B) ** 2 == A ** 2 + 2 * A * B + B ** 2


def test_scalar_coercion():
    assert 1 + A == A + Poly.const(1)
    assert Fraction(1, 2) * A + Fraction(1, 2) * A == A
    assert not A - A


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
    # the primitive integer parts are divided and the contents rescale:
    # A + 1 = (2A + 1) / 2 + 1/2, so the int leading coefficient 2 must
    # not divide 1, and (2A + 2) / (3A + 3) is the constant 2/3
    with pytest.raises(ValueError):
        (A + 1).exact_div(2 * A + 1)
    with pytest.raises(ValueError):
        (Fraction(1, 2) * A + 1).exact_div(A + Fraction(1, 3))
    assert (2 * A + 2).exact_div(3 * A + 3) == Fraction(2, 3)
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
        if not q:
            continue
        assert (p * q).exact_div(q) == p
        if p:
            assert (p * q).exact_div(p) == q
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


def test_format_scalar_is_str():
    # every kind of scalar the CLI prints, with its pinned text
    for x, text in [
            (7, "7"), (-12, "-12"), (Fraction(3, 4), "3/4"),
            (Fraction(-5, 2), "-5/2"), (Fraction(6, 3), "2"), (0.1, "0.1"),
            (-0.0, "-0.0"), (1e16, "1e+16"), (1e-300, "1e-300"),
            (float("inf"), "inf"), (float("nan"), "nan"), (2.5e-7, "2.5e-07"),
            (Fraction(3, 2) * A ** 2 * B - Fraction(1, 3) * B + 2,
             "3/2*a^2*b - 1/3*b + 2"),
            (A - A, "0")]:
        assert format_scalar(x) == str(x) == text


def test_hash_agrees_with_eq_across_int_fraction_and_poly():
    half = Fraction(1, 2)
    assert len({2, Poly.const(2)}) == 1
    assert len({0, A - A, Poly.const(0), Fraction(0)}) == 1
    assert len({half, Poly.const(half), Poly({(): Fraction(2, 4)})}) == 1
    assert len({2, Fraction(6, 3), Poly.const(Fraction(4, 2))}) == 1
    assert len({A + 1, 1 + A, A, A - 1, 2}) == 4
    table = {2: "two", half: "half", 0: "zero", A + 1: "a + 1"}
    assert table[Poly.const(2)] == "two"
    assert table[Poly.const(half)] == "half"
    assert table[A - A] == "zero"
    assert table[1 + A] == "a + 1"
    table = {Poly.const(3): "three", Poly.const(Fraction(1, 3)): "third"}
    assert table[3] == "three" and table[Fraction(3)] == "three"
    assert table[Fraction(1, 3)] == "third"


def test_parse_unknown_strictness():
    assert parse_scalar("q", symbols_as_vars=True) == Poly.var("q")
    with pytest.raises(ValueError):
        parse_scalar("q", symbols_as_vars=False)


@pytest.mark.parametrize("text", [
    "+3", " 3 ", "-0", "07", "\u0663", "1.5", "1e3", "1_0", "1_000/3",
    "-2/4", "3/-4", "3/ 4", " -7 / 2", "1/0",
    "\u00b2", "0x10", "+-3", "", "+", "/", "3/", "/4",
    "+3/6", " 7 ", "1_000", "0.5", "\u0663/\u0664", "-0/5", "0/0", "6/-4"])
def test_parse_scalar_agrees_with_fraction(text):
    # the int() fast path takes only [+-]digits[/digits]; every other
    # string must parse, or fail, exactly as Fraction(str) does, and the
    # (p, q) path that the loaders clear from agrees, in lowest terms
    try:
        want = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValueError):
            parse_scalar(text, False)
        assert _pair(text) is None
    else:
        got = parse_scalar(text, False)
        assert type(got) is Fraction and got == want
        pq = _pair(text)
        assert pq == (want.numerator, want.denominator)
        assert all(type(x) is int for x in pq)


def test_pair_of_json_values():
    # JSON numbers and the library's own scalars; a finite float has no
    # pair, and any other value is malformed input
    assert _pair(-6) == (-6, 1) and _pair(Fraction(-6, 4)) == (-3, 2)
    assert _pair(0.5) is None and _pair("x") is None
    for bad in (True, None, [1], {"a": 1}, float("inf"), float("nan")):
        with pytest.raises(MalformedInput):
            _pair(bad)
        with pytest.raises(MalformedInput):
            parse_scalar(bad)


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
