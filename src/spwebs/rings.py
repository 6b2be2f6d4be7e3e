"""Scalar backends: exact rationals, sparse multivariate polynomials, floats.

Rationals are fractions.Fraction.  Polynomials are stored sparsely as a dict
mapping monomials to Fraction coefficients; a monomial is a tuple of
(variable name, exponent) pairs sorted by name with positive exponents.
Printing and the leading-term logic use graded lexicographic order
(total degree first, then exponents of the alphabetically sorted variables).
Floats are plain Python floats, used only for the numeric experiments.
"""

import math
from fractions import Fraction

from .errors import MalformedInput, UnknownVariable


def _mono_mul(m1, m2):
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted((v, e) for v, e in d.items() if e))


def _mono_deg(m):
    return sum(e for _, e in m)


def _grlex_key(mono, varlist):
    exps = dict(mono)
    return (_mono_deg(mono), tuple(exps.get(v, 0) for v in varlist))


def _mono_divides(m1, m2):
    """True when monomial m1 divides m2."""
    e2 = dict(m2)
    return all(e2.get(v, 0) >= e for v, e in m1)


def _mono_div(m2, m1):
    d = dict(m2)
    for v, e in m1:
        d[v] -= e
    return tuple(sorted((v, e) for v, e in d.items() if e))


def _mono_str(mono):
    if not mono:
        return "1"
    parts = []
    for v, e in mono:
        parts.append(v if e == 1 else "%s^%d" % (v, e))
    return "*".join(parts)


def parse_monomial(text):
    """Parse "a^2*b" into a monomial tuple. "1" or "" is the constant."""
    text = text.strip()
    if text in ("", "1"):
        return ()
    d = {}
    for factor in text.split("*"):
        factor = factor.strip()
        if "^" in factor:
            v, e = factor.split("^")
            d[v.strip()] = d.get(v.strip(), 0) + int(e)
        else:
            d[factor] = d.get(factor, 0) + 1
    return tuple(sorted(d.items()))


class Poly:
    """Sparse multivariate polynomial with Fraction coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for m, c in terms.items():
                c = Fraction(c)
                if c:
                    self.terms[m] = c

    @staticmethod
    def var(name):
        return Poly({((name, 1),): Fraction(1)})

    @staticmethod
    def const(c):
        c = Fraction(c)
        return Poly({(): c} if c else {})

    def variables(self):
        out = set()
        for m in self.terms:
            for v, _ in m:
                out.add(v)
        return out

    def is_zero(self):
        return not self.terms

    def degree(self):
        return max((_mono_deg(m) for m in self.terms), default=0)

    def _sorted_monos(self):
        varlist = sorted(self.variables())
        return sorted(self.terms, key=lambda m: _grlex_key(m, varlist), reverse=True)

    def leading(self):
        """(monomial, coefficient) of the graded-lex leading term."""
        if not self.terms:
            return (), Fraction(0)
        m = self._sorted_monos()[0]
        return m, self.terms[m]

    def coefficient(self, mono):
        """Coefficient of the given monomial; raises UnknownVariable for
        variables absent from the polynomial."""
        if not isinstance(mono, tuple):
            mono = parse_monomial(mono)
        known = self.variables()
        for v, _ in mono:
            if v not in known:
                raise UnknownVariable("variable %r not present" % v)
        return self.terms.get(mono, Fraction(0))

    def substitute(self, values):
        """Evaluate with values for every variable (Fraction or float)."""
        total = None
        for m, c in self.terms.items():
            term = c
            for v, e in m:
                if v not in values:
                    raise UnknownVariable("no value for %r" % v)
                term = term * values[v] ** e
            total = term if total is None else total + term
        if total is None:
            return Fraction(0)
        return total

    @staticmethod
    def _coerce(other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(other)
        return None

    def __add__(self, other):
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, Fraction(0)) + c
        return Poly(terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                c = terms.get(m)
                terms[m] = c1 * c2 if c is None else c + c1 * c2
        return Poly(terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def exact_div(self, other):
        """Exact polynomial quotient; raises ValueError if not divisible."""
        other = Poly._coerce(other)
        if other is None or other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        lm, lc = other.leading()
        rem = Poly(dict(self.terms))
        quot = {}
        while rem.terms:
            rm, rc = rem.leading()
            if not _mono_divides(lm, rm):
                raise ValueError("polynomial division is not exact")
            qm = _mono_div(rm, lm)
            qc = rc / lc
            quot[qm] = quot.get(qm, Fraction(0)) + qc
            rem = rem - Poly({qm: qc}) * other
        return Poly(quot)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in self._sorted_monos():
            c = self.terms[m]
            mono = _mono_str(m)
            if mono == "1":
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = "%s*%s" % (abs(c), mono)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return "Poly(%s)" % self


def parse_scalar(text, symbols_as_vars=True):
    """Parse "p/q", integer strings, or a bare symbol name."""
    if isinstance(text, bool) or not isinstance(text, (int, Fraction, float, str)):
        raise MalformedInput("cannot parse scalar %r" % (text,))
    if isinstance(text, (int, Fraction)):
        return Fraction(text)
    if isinstance(text, float):
        if not math.isfinite(text):
            raise MalformedInput("cannot parse scalar %r" % (text,))
        return text
    text = text.strip()
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        pass
    if symbols_as_vars and text.replace("_", "").isalnum() and not text[0].isdigit():
        return Poly.var(text)
    raise ValueError("cannot parse scalar %r" % text)


def format_scalar(x):
    if isinstance(x, Poly):
        return str(x)
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return "%d/%d" % (x.numerator, x.denominator)
    if isinstance(x, int):
        return str(x)
    return repr(x)


def is_exact(x):
    return isinstance(x, (int, Fraction, Poly))


def exact_div_scalar(a, b):
    """Division known to be exact in the entry ring."""
    if isinstance(a, Poly) and not isinstance(b, Poly):
        return a * (Fraction(1) / Fraction(b))
    if isinstance(a, Poly) or isinstance(b, Poly):
        a = a if isinstance(a, Poly) else Poly.const(a)
        return a.exact_div(b)
    if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
        return Fraction(a) / Fraction(b)
    return a / b

