"""Scalar backends: exact rationals, sparse multivariate polynomials, floats.

Rationals are fractions.Fraction.  Polynomials are stored sparsely as a dict
mapping monomials to Fraction coefficients; a monomial is a tuple of
(variable name, exponent) pairs sorted by name with positive exponents.
Printing uses graded lexicographic order (total degree first, then
exponents of the alphabetically sorted variables).  Floats are plain
Python floats, used only for the numeric experiments; Poly arithmetic
with a float raises MixedRing, since no ring here holds both.

Division and the Poly Pfaffian of linalg work on a private packed
form: a dict from packed monomial to coefficient, where a
monomial over a fixed variable list is one int of w-bit fields, the total
degree in the top field and then one field per variable in alphabetical
order.  Int order is then graded lexicographic order, and a monomial
product is one int addition.  The caller proves a bound on every total
degree that can arise and w is its bit length plus one guard bit, so a
field never carries into the next; m1 divides m2 exactly when m2 - m1 is
nonnegative with no guard bit set, and a dividend of total degree past
the bound raises.  Exact division pops the remainder's leading monomial
from a heapq heap (Johnson, ACM SIGSAM Bull. 8(3), 1974; packed
monomials after Monagan & Pearce, CASC 2007).
"""

import heapq
import math
from fractions import Fraction

from .errors import MalformedInput, MixedRing, SelfCheckFailed, UnknownVariable


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

    @staticmethod
    def _coerce(other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(other)
        if isinstance(other, float):
            raise MixedRing("Poly arithmetic with a float")
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
            n >>= 1
            if n:
                base = base * base
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
        # every monomial that arises (the divisor's, the remainder's and
        # the quotient's) has total degree at most that of one operand
        pk = _Packing(self.variables() | other.variables(),
                      max(self.degree(), other.degree()))
        f, div = pk.terms(self), pk.divisor(pk.terms(other))
        try:
            q = _pk_div(f, div)
        except SelfCheckFailed:
            raise ValueError("polynomial division is not exact") from None
        return pk.unpack(q)

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


class _Packing:
    """Packed monomials over a fixed variable list, for total degrees up
    to bound (see the module docstring)."""

    __slots__ = ("shift", "top", "mask", "guard")

    def __init__(self, names, bound):
        names = sorted(names)
        w = max(bound, 1).bit_length() + 1
        k = len(names)
        self.shift = {v: (k - 1 - i) * w for i, v in enumerate(names)}
        self.top = k * w
        self.mask = (1 << w) - 1
        self.guard = sum(1 << (i * w + w - 1) for i in range(k + 1))

    @classmethod
    def of(cls, entries, factor):
        """The packing over the variables of the given entries, for total
        degrees up to factor times the largest entry degree."""
        polys = [x for x in entries if isinstance(x, Poly)]
        names = set().union(*(p.variables() for p in polys))
        return cls(names, factor * max((p.degree() for p in polys), default=0))

    def key(self, mono):
        deg = 0
        key = 0
        for v, e in mono:
            key += e << self.shift[v]
            deg += e
        return key + (deg << self.top)

    def mono(self, key):
        out = []
        for v, s in self.shift.items():
            e = (key >> s) & self.mask
            if e:
                out.append((v, e))
        return tuple(out)

    def terms(self, p):
        """A Poly's terms, packed, with its Fraction coefficients."""
        return {self.key(m): c for m, c in p.terms.items()}

    def pack(self, x, scale):
        """x (Poly, int or Fraction) times scale, whose coefficients must
        then be integers, packed with int coefficients."""
        if isinstance(x, Poly):
            return {self.key(m): c.numerator * (scale // c.denominator)
                    for m, c in x.terms.items()}
        return {0: x.numerator * (scale // x.denominator)} if x else {}

    def unpack(self, f, den=1):
        """The Poly of packed f divided by den."""
        return Poly({self.mono(key): Fraction(c, den) for key, c in f.items()})

    def divisor(self, g):
        """Nonzero packed g prepared for _pk_div: its leading term, its
        other terms and the guard mask."""
        lm = max(g)
        return lm, g[lm], [(m, c) for m, c in g.items() if m != lm], self.guard


def _denominator(x):
    """The lcm of the coefficient denominators of x (Poly, int, Fraction)."""
    if isinstance(x, Poly):
        return math.lcm(*[c.denominator for c in x.terms.values()])
    return x.denominator


def _pk_neg(f):
    return {m: -c for m, c in f.items()}


def _pk_quot(plus, minus, div):
    """(sum of f*g over the pairs in plus, minus the same over minus),
    packed, accumulated in one dict and divided exactly by the prepared
    divisor div (None for 1)."""
    acc = {}
    get = acc.get
    for pairs, neg in ((plus, False), (minus, True)):
        for f, g in pairs:
            for m1, c1 in f.items():
                if neg:
                    c1 = -c1
                for m2, c2 in g.items():
                    m = m1 + m2
                    acc[m] = get(m, 0) + c1 * c2
    num = {m: c for m, c in acc.items() if c}
    return num if div is None else _pk_div(num, div)


def _pk_div(f, div):
    """Exact quotient of packed f by a divisor prepared by
    _Packing.divisor; raises SelfCheckFailed when f has a total degree
    that reaches the guard bit (no exponent is larger), a monomial does
    not divide or an int coefficient leaves a remainder."""
    lm, lc, rest, guard = div
    if f and max(f) >> (guard.bit_length() - 1):
        raise SelfCheckFailed("packed degree overflows its field")
    ints = type(lc) is int

    def quotient_term(m, c):
        d = m - lm
        if d < 0 or d & guard:
            raise SelfCheckFailed("monomial division is not exact")
        if not ints:
            return d, c / lc
        qc, r = divmod(c, lc)
        if r:
            raise SelfCheckFailed("coefficient division is not exact")
        return d, qc

    if not rest:
        return dict(quotient_term(m, c) for m, c in f.items())
    q = {}
    rem = dict(f)
    heap = [-m for m in rem]
    heapq.heapify(heap)
    while rem:
        m = -heapq.heappop(heap)
        c = rem.pop(m, None)
        if c is None:
            # cancelled, or pushed again after a cancellation
            continue
        d, qc = quotient_term(m, c)
        q[d] = qc
        # every d + gm is below m, so a popped monomial never comes back
        for gm, gc in rest:
            t = d + gm
            old = rem.get(t)
            if old is None:
                rem[t] = -qc * gc
                heapq.heappush(heap, -t)
            else:
                v = old - qc * gc
                if v:
                    rem[t] = v
                else:
                    del rem[t]
    return q


def parse_scalar(text, symbols_as_vars=True):
    """Parse "p/q", integer strings, or a bare symbol name.  "[+-]d" and
    "[+-]d/d", d decimal digits, take int() of each side, and any other
    string Fraction(str), so every string parses or fails as there."""
    if isinstance(text, bool) or not isinstance(text, (int, Fraction, float, str)):
        raise MalformedInput("cannot parse scalar %r" % (text,))
    if isinstance(text, (int, Fraction)):
        return Fraction(text)
    if isinstance(text, float):
        if not math.isfinite(text):
            raise MalformedInput("cannot parse scalar %r" % (text,))
        return text
    text = text.strip()
    num, sep, den = text.partition("/")
    try:
        if (num[1:] if num[:1] in "+-" else num).isdecimal() and \
                (not sep or den.isdecimal()):
            return Fraction(int(num), int(den)) if sep else Fraction(int(num))
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

