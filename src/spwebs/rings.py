"""Scalar backends: exact rationals, sparse multivariate polynomials, floats.

Rationals are fractions.Fraction.  Polynomials are stored sparsely as a dict
mapping monomials to Fraction coefficients, each normalised once, when its
Poly is built (a Fraction is kept, anything else goes through Fraction());
a monomial is a tuple of (variable name, exponent) pairs sorted by name with
positive exponents.  A Poly prints each coefficient from its numerator and
denominator, in graded lexicographic order (total degree first, then
exponents of the alphabetically sorted variables).  Floats are plain
Python floats, used only for the numeric experiments; Poly arithmetic
with a float raises MixedRing, since no ring here holds both.  Every
scalar prints through its own str, which format_scalar is.

Division and the Poly Pfaffian of linalg work on a private packed
form: a dict from packed monomial to int coefficient, where a
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
    """Sparse polynomial; nonzero Fraction coefficients, normalised once."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for m, c in terms.items():
                if type(c) is not Fraction:
                    c = Fraction(c)
                if c:
                    self.terms[m] = c

    @staticmethod
    def var(name):
        return Poly({((name, 1),): Fraction(1)})

    @staticmethod
    def const(c):
        return Poly({(): c})

    def variables(self):
        out = set()
        for m in self.terms:
            for v, _ in m:
                out.add(v)
        return out

    def degree(self):
        return max((_mono_deg(m) for m in self.terms), default=0)

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
            terms[m] = terms[m] + c if m in terms else c
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
        if not n:
            return Poly.const(1)
        result = self
        for bit in bin(n)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __eq__(self, other):
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a constant equals its number, so it hashes as that number
        if not self.terms.keys() - {()}:
            return hash(self.terms.get((), 0))
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def exact_div(self, other):
        """Exact polynomial quotient; raises ValueError if not divisible."""
        other = Poly._coerce(other)
        if other is None or not other:
            raise ZeroDivisionError("division by zero polynomial")
        # every monomial that arises (the divisor's, the remainder's and
        # the quotient's) has total degree at most that of one operand;
        # by Gauss's lemma other's primitive integer part divides self's
        # over the integers whenever other divides self
        pk = _Packing(self.variables() | other.variables(),
                      max(self.degree(), other.degree()))
        (cf, f), (cg, g) = pk.primitive(self), pk.primitive(other)
        try:
            q = _pk_div(f, pk.divisor(g))
        except SelfCheckFailed:
            raise ValueError("polynomial division is not exact") from None
        return pk.unpack(q) * (cf / cg)

    def __str__(self):
        if not self.terms:
            return "0"
        names, top = set(), 0
        for m in self.terms:
            deg = 0
            for v, e in m:
                names.add(v)
                deg += e
            if deg > top:
                top = deg
        key = _Packing(names, top).key
        parts = []
        for m in sorted(self.terms, key=key, reverse=True):
            c = self.terms[m]
            p, q = c.numerator, c.denominator
            text = "%d" % abs(p) if q == 1 else "%d/%d" % (abs(p), q)
            mono = _mono_str(m)
            if mono == "1":
                body = text
            elif text == "1":
                body = mono
            else:
                body = "%s*%s" % (text, mono)
            if not parts:
                parts.append(body if p > 0 else "-" + body)
            else:
                parts.append(("+ " if p > 0 else "- ") + body)
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

    def pack(self, x, scale):
        """x (Poly, int or Fraction) times scale, whose coefficients must
        then be integers, packed with int coefficients."""
        if isinstance(x, Poly):
            return {self.key(m): c.numerator * (scale // c.denominator)
                    for m, c in x.terms.items()}
        return {0: x.numerator * (scale // x.denominator)} if x else {}

    def primitive(self, x):
        """x (Poly, int or Fraction) as its content c, a Fraction, and x / c
        packed, an integer polynomial with coprime coefficients; 0 gives
        c = 0 and {}."""
        den = _denominator(x)
        f = self.pack(x, den)
        g = math.gcd(*f.values())
        return Fraction(g, den), {m: c // g for m, c in f.items()}

    def unpack(self, f, den=1):
        """The Poly of packed f divided by den."""
        return Poly({self.mono(k): Fraction(c) if den == 1 else Fraction(c, den)
                     for k, c in f.items()})

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
    not divide or a coefficient leaves a remainder."""
    lm, lc, rest, guard = div
    if f and max(f) >> (guard.bit_length() - 1):
        raise SelfCheckFailed("packed degree overflows its field")

    def quotient_term(m, c):
        d = m - lm
        if d < 0 or d & guard:
            raise SelfCheckFailed("monomial division is not exact")
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


def _pair(x):
    """(p, q) in lowest terms, q > 0, of an int, a Fraction or a string,
    or None for a finite float or a string that Fraction(str) rejects.
    "[+-]d" and "[+-]d/d", d decimal digits, take int() of each side and
    any other string Fraction(str), so each parses or fails as there."""
    if type(x) is str:
        num, sep, den = x.partition("/")
        try:
            if num.isdecimal() or num[:1] in "+-" and num[1:].isdecimal():
                if not sep:
                    return int(num), 1
                if den.isdecimal():
                    p, q = int(num), int(den)
                    g = math.gcd(p, q)
                    return (p // g, q // g) if q else None
            x = Fraction(x)
        except (ValueError, ZeroDivisionError):
            return None
    elif isinstance(x, float) and math.isfinite(x):
        return None
    elif isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise MalformedInput("cannot parse scalar %r" % (x,))
    return x.numerator, x.denominator


def parse_scalar(text, symbols_as_vars=True):
    """Parse "p/q", integer strings, or a bare symbol name: a Fraction for
    what _pair takes (Fraction(p), with no gcd, for q = 1), a finite float
    as it is, else a Poly variable."""
    pq = _pair(text)
    if pq is not None:
        return Fraction(pq[0]) if pq[1] == 1 else Fraction(*pq)
    if isinstance(text, float):
        return text
    text = text.strip()
    if symbols_as_vars and text.replace("_", "").isalnum() and not text[0].isdigit():
        return Poly.var(text)
    raise ValueError("cannot parse scalar %r" % text)


def format_scalar(x):
    """A scalar's text is its str: an int as itself, a Fraction as p/q (p
    when q = 1), a Poly in grlex order and a float as its repr."""
    return str(x)


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

