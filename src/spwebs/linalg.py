"""Matrices over exact rings, the symplectic form, and Pfaffians.

A matrix is a list of row lists and a vector a plain list; the entries
may be int, Fraction, Poly or float.  mat takes outside input, numpy
arrays included, to that form, and matmul multiplies two matrices.  A
SkewMatrix, the input of the Pfaffian, holds only its rows of nonzero
entries, as dicts from column index to entry; its skewness is checked
once per unordered pair of stored entries, and .a gives the dense rows.
Exact rows are checked on the rows of B = DAD below (skew exactly when A
is, all d_i > 0), ints for int and Fraction entries and packed integer
polynomials for Poly ones, which the elimination takes; a caller that
builds B itself (H, from cleared connections) hands it over.

Pfaffians are taken by elimination; a sum over perfect pairings is kept
in the tests as an oracle.  For exact entries the elimination is
fraction-free: the working entries are Pfaffian minors of the input, and
the Dress-Wenzel identity

    Pf(Sab)Pf(Scd) - Pf(Sac)Pf(Sbd) + Pf(Sad)Pf(Sbc) = Pf(S)Pf(Sabcd)

makes each division exact, so polynomial matrices never leave the
polynomial ring.  Float matrices use skew elimination with magnitude
pivoting in natural order (Bunch, Math. Comp. 38, 1982), where step k
updates the rows and columns past k + 1 only at the nonzero columns of
row k + 1 and rows of column k + 1: on an exactly skew input the rest
is never read again or would lose c * 0, so the result is the dense
loop's, bit for bit.  The set of entry types, zeros included, picks the
ring: float if any entry is a float, else Poly if any is a Poly, else int
and Fraction; float and Poly entries together raise MixedRing.

Exact matrices run one sparse fraction-free elimination, on Python ints
for int and Fraction entries and on the packed polynomials of rings
(dicts from packed monomial to int coefficient) for Poly entries.  With
d_i the lcm of the (coefficient) denominators in row i and D =
diag(d_i), B = DAD has integer coefficients and Pf(B) = Pf(A) *
prod(d_i), divided out once at the end.  A packed Pfaffian is unpacked
to a Poly once (the zero Poly for 0).

* Pivot order.  An entry's size is 1 for an int and its number of terms
  for a packed polynomial, and a row's size is the sum over its entries:
  the number of nonzeros of an int row (minimum degree: George, SIAM J.
  Numer. Anal. 10, 1973; Lipton, Rose & Tarjan, SIAM J. Numer. Anal. 16,
  1979), the number of terms of a packed row, which prices a polynomial
  step (Markowitz, Management Sci. 3, 1957).  Each step takes the
  remaining row p of least size and the column q of p whose entry has the
  fewest terms, ties going to the q of least row size.  With ip the
  position of p among the remaining indices and iq that of q once p is
  gone, ip + iq adjacent transpositions move the pair to the front, so
  the sign flips when ip + iq is odd.  Pf(B) is the sign times the last
  pivot.
* Working entries.  With S the pivot rows p1 q1 ... ps qs of the first
  s steps, the entry (i, j) of stage s is w_s(i, j) = Pf(B[S, i, j]),
  and the pivot of step s is P_s = Pf(B[S]), P_0 = 1.  The identity
  above gives w_s(i, j) = (P_s w(i, j) - w(p, i) w(q, j) + w(p, j) w(q, i))
  / P_{s-1}, the w on the right of stage s - 1.
* Lazy stages.  The cross term vanishes unless i and j both meet p or q,
  and it vanishes too when both meet p only or both meet q only.  Every
  other entry just becomes w_{s-1}(i, j) P_s / P_{s-1}, so a step cuts
  columns p and q out of the rows they meet and writes only the hot
  entries, both mirrors, at stage s; a zero deletes the entry.  An entry
  keeps the stage t it was written at and stands for w_t(i, j) P_s / P_t
  at stage s.  Only when a step reads it, in a pivot row or as a hot
  entry's old value, is it brought forward by P_{s-1} / P_t, and no row
  is rebuilt.  That division is exact, because its quotient is again a
  Pfaffian minor of B.  So is the update's, by the identity.
* Two arithmetics.  The loop is handed the ring's lift, v * now / then,
  cross update, (P o - x y' + x' y) / prev, and negation.  Each division
  is a divmod on ints and the heap division of rings, by a pivot
  prepared once, on packed polynomials; an inexact one raises.
* Field width.  With e the largest entry degree, an entry of stage t
  has total degree at most (t + 1) e and P_s at most s e.  At step s a
  lift multiplies an entry of stage t < s - 1 by the last pivot P_{s-1},
  never by the new P_s, and the update multiplies two of stage s - 1: at
  most 2 s e.  Rows are left to update only while s <= dim/2 - 1, and
  the last step only lifts the pivot to P_{dim/2-1}, so no product
  passes (dim - 2) e.  The packing is sized for max(dim - 2, 1) e, which
  also holds the entries and the Pfaffian; a dividend past it raises
  SelfCheckFailed.
* A remaining row with no nonzeros makes the working matrix singular,
  and with it B, so the Pfaffian is 0.  An odd dimension always ends
  so: the last remaining row can only meet itself.

There is no separate determinant elimination.  det A is the Pfaffian of
the 2n x 2n skew matrix M with the rows of A at even indices and its
columns at odd ones, M[2i][2j+1] = a_ij = -M[2j+1][2i] and every other
entry 0: the perfect matchings of M with nonzero weight are the
permutations of A, each with its sign, so Pf(M) = det A.  det builds
the rows of M itself, skew by construction, clears them once in the
ring their entries pick, and runs the elimination of that ring, without
SkewMatrix's check.
"""

import functools
import itertools
import math
import operator
from bisect import bisect_left
from fractions import Fraction

from .errors import (DimensionMismatch, MixedRing, NotSkew, OutOfRange,
                     SelfCheckFailed)
from .rings import Poly, _denominator, _Packing, _pk_neg, _pk_quot


def mat(rows):
    """Rows, a numpy array's included, as a list of row lists.  A numpy
    scalar entry becomes the Python int or float it holds: int64 products
    would wrap where Python ints stay exact."""
    rows = [[x.item() if hasattr(x, "item") else x for x in r] for r in rows]
    if len({len(r) for r in rows}) > 1:
        raise DimensionMismatch("ragged rows")
    return rows


def eye(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def matmul(a, b):
    """The product of two matrices.  Each entry is summed from its first
    product, as numpy's object @ sums it, so that -0.0 * 1.0 stays -0.0."""
    if any(len(row) != len(b) for row in a):
        raise DimensionMismatch("matrix product of mismatched shapes")
    cols = list(zip(*b))
    return [[functools.reduce(operator.add, map(operator.mul, row, col))
             for col in cols] for row in a]


def mat_equal(a, b, tol=0.0):
    a, b = mat(a), mat(b)
    if list(map(len, a)) != list(map(len, b)):
        return False
    for x, y in zip(itertools.chain(*a), itertools.chain(*b)):
        if isinstance(x, float) or isinstance(y, float):
            if abs(x - y) > tol:
                return False
        elif x != y:
            return False
    return True


def symplectic_J(n):
    """The 2n x 2n form [[0, I], [-I, 0]]."""
    return j_times(eye(2 * n))


def j_times(rows):
    """Rows of J M for M given as a list of 2n rows: rows n.. of M, then
    minus rows ..n."""
    n = len(rows) // 2
    return rows[n:] + [[-x for x in row] for row in rows[:n]]


def is_symplectic(m, tol=1e-12):
    """M^T J M = J, checked as D^2 J on cleared ints for exact entries."""
    m = mat(m)
    if len(m) % 2 or any(len(r) != len(m) for r in m):
        return False
    return symplectic_rows(*clear_denominators(m), tol=tol)


def symplectic_rows(rows, d, tol=1e-12):
    """Whether the 2n rows of D M, for d = D, have M^T J M = J, checked
    as (DM)^T J (DM) = D^2 J, exactly on ints and to tol on floats, above
    the diagonal only: M^T J M is skew for every M."""
    n = len(rows) // 2
    jcols = list(zip(*j_times(rows)))
    for i, col in enumerate(zip(*rows)):
        for j in range(i + 1, 2 * n):
            x = sum(map(operator.mul, col, jcols[j])) - d * d * (j == i + n)
            if x and not (isinstance(x, float) and abs(x) <= tol):
                return False
    return True


def block_transpose(rows):
    """Rows of -J M^T J for M given as 2n rows: for M = [[A, B], [C, D]]
    the signed block transpose [[D^T, -B^T], [-C^T, A^T]], whose row i
    is column n + i of M with its halves swapped and the lower negated."""
    n = len(rows) // 2
    cols = list(zip(*rows))
    return ([list(c[n:]) + [-x for x in c[:n]] for c in cols[n:]]
            + [[-x for x in c[n:]] + list(c[:n]) for c in cols[:n]])


def all_pairings(items):
    """Yield all perfect pairings of a list as tuples of index pairs."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for i, second in enumerate(rest):
        remaining = rest[:i] + rest[i + 1:]
        for sub in all_pairings(remaining):
            yield ((first, second),) + sub


def inversions(seq):
    """The number of pairs i < j with seq[i] > seq[j]."""
    return sum(x > y for i, x in enumerate(seq) for y in seq[i + 1:])


def perm_sign(seq):
    """Sign of a permutation given as a sequence of distinct comparables."""
    return -1 if inversions(seq) % 2 else 1


class SkewMatrix:
    """A square matrix checked to satisfy A^T = -A at construction, held
    as its rows of nonzero entries.

    a is a square matrix, or its rows as dicts from column index to entry;
    such a row may also hold zero entries (H of a zero weight), which the
    Pfaffian drops.  The ring is picked once, here, from the set of entry
    types, zeros included; float and Poly entries together raise
    MixedRing.  Exact matrices are held as cleared = (B,
    d, pk), the rows of B = DAD, the d_i and the packing of B's entries:
    ints when pk is None, else integer polynomials packed by pk; float
    ones have cleared None, and pf_eliminate follows cleared.  A
    caller may pass B, d and pk itself, and then rows is built only when
    asked for.  Skewness is checked once per unordered pair of stored
    entries, on B when there is one: an int addition, a comparison of
    packed coefficients, or a float addition that may miss by 1e-12.
    """

    def __init__(self, a, d=None, pk=None):
        if d is not None:
            rows, self.cleared = a, (a, d, pk)
        elif isinstance(a, list) and all(isinstance(row, dict) for row in a):
            rows, kinds = a, set()
            for row in rows:
                kinds.update(map(type, row.values()))
        else:
            dense = mat(a)
            if any(len(r) != len(dense) for r in dense):
                raise DimensionMismatch("skew matrix must be square")
            rows = [{j: x for j, x in enumerate(row) if x} for row in dense]
            kinds = {type(x) for row in dense for x in row}
        self.dim = len(rows)
        if d is None:
            self.rows = rows
            self.cleared = _cleared(rows, kinds)
        check, _, pk = self.cleared or (rows, None, None)
        for i, row in enumerate(check):
            for j, x in row.items():
                y = check[j].get(i)
                if y is None:
                    s = x
                elif j >= i:
                    s = x + y if pk is None else y != _pk_neg(x)
                else:
                    continue
                if s and (not (isinstance(x, float) or isinstance(y, float))
                          or abs(s) > 1e-12):
                    raise NotSkew("matrix is not antisymmetric")

    @functools.cached_property
    def rows(self):
        """The entries B_ij / (d_i d_j) of a matrix given as (B, d, pk)."""
        b, d, pk = self.cleared
        entry = Fraction if pk is None else pk.unpack
        return [{j: entry(v, di * d[j]) for j, v in row.items()}
                for row, di in zip(b, d)]

    @property
    def a(self):
        """The dense rows, with int 0 at the entries not stored."""
        return _dense(self.rows)

    def __array__(self, dtype=None, copy=None):
        """The dense object array; a caller that converts has numpy loaded
        already, so it is imported here and not with the module."""
        import numpy as np
        a = np.array(self.a, dtype=object).reshape(self.dim, self.dim)
        return np.asarray(a, dtype=dtype)

    def pfaffian(self):
        return pf_eliminate(self)


def _dense(rows):
    """Rows of entries as lists, with int 0 at the entries not stored."""
    out = [[0] * len(rows) for _ in rows]
    for dense, row in zip(out, rows):
        for j, x in row.items():
            dense[j] = x
    return out


def pf_eliminate(a):
    """Pfaffian of a SkewMatrix, or of a matrix that SkewMatrix accepts,
    by elimination; exact entries stay exact."""
    if not isinstance(a, SkewMatrix):
        a = SkewMatrix(a)
    if a.cleared is not None:
        return _pf_cleared(*a.cleared)
    return 0.0 if a.dim % 2 else _pf_float(a.rows)


def _ring(kinds):
    """float, Poly or Fraction (int and Fraction) for a set of types."""
    is_float = any(issubclass(t, float) for t in kinds)
    if is_float and Poly in kinds:
        raise MixedRing("float and Poly entries in one matrix")
    return float if is_float else Poly if Poly in kinds else Fraction


def _clear(rows):
    """B = DAD of int and Fraction rows, as rows of nonzero ints, d, and
    None for the packing."""
    d = [math.lcm(*[x.denominator for x in row.values()]) for row in rows]
    return [{j: v for j, x in row.items()
             if (v := x.numerator * (di // x.denominator) * d[j])}
            for row, di in zip(rows, d)], d, None


def _cleared(rows, kinds):
    """(B, d, pk) of exact rows in the ring that kinds picks, B's entries
    packed by pk when it is Poly; None for float rows."""
    ring = _ring(kinds)
    if ring is not Poly:
        return None if ring is float else _clear(rows)
    pk = _Packing.of([x for row in rows for x in row.values()],
                     max(len(rows) - 2, 1))
    d = [math.lcm(*map(_denominator, row.values())) for row in rows]
    return [{j: v for j, x in row.items() if (v := pk.pack(x, di * d[j]))}
            for row, di in zip(rows, d)], d, pk


def _pf_cleared(b, d, pk):
    """Pfaffian of A from the rows of B = DAD, the d_i and the packing pk
    of B's entries (None for ints)."""
    if pk is None:
        pf = _pf_sparse(b, 0, 1, int, _lift, _cross, operator.neg, bool)
        return Fraction(pf, math.prod(d))
    one = {0: 1}
    pf = _pf_sparse(
        b, {}, one, lambda g: None if g == one else pk.divisor(g),
        _pk_lift, _pk_cross, _pk_neg, len)
    return pk.unpack(pf, math.prod(d))


def _pf_float(rows):
    n = len(rows)
    m = [[0.0] * n for _ in rows]
    for mi, row in zip(m, rows):
        for j, x in row.items():
            mi[j] = float(x)
    sign = result = 1.0
    for k in range(0, n, 2):
        mk = m[k]
        a = list(map(abs, mk[k + 1:]))
        j = k + 1 + a.index(max(a))
        if mk[j] == 0.0:
            return 0.0
        if j != k + 1:
            m[j], m[k + 1] = m[k + 1], m[j]
            for row in m[k:]:
                row[j], row[k + 1] = row[k + 1], row[j]
            sign = -sign
        p, r, below, live = mk[k + 1], m[k + 1], m[k + 2:], range(k + 2, n)
        rs = [(t, r[t]) for t in itertools.compress(live, r[k + 2:])]
        cs = [(row, row[k + 1]) for row in below if row[k + 1]]
        for i, mi in itertools.compress(zip(live, below), mk[k + 2:]):
            if c := mk[i] / p:
                for t, y in rs:
                    mi[t] -= c * y
                for row, y in cs:
                    row[i] -= c * y
        result *= p
    if not math.isfinite(result):
        raise OutOfRange("float Pfaffian %r: out of the double range" % result)
    return sign * result


def clear_denominators(rows):
    """Int and Fraction rows times D, the lcm of their denominators, as
    ints, and D; rows with a Poly or float entry are returned with D = 1."""
    if not all(isinstance(x, (int, Fraction)) for row in rows for x in row):
        return rows, 1
    d = math.lcm(*[x.denominator for row in rows for x in row])
    return [[x.numerator * (d // x.denominator) for x in row]
            for row in rows], d


def minors(rows, k):
    """All k x k minors of a list of rows over any ring, as row mask ->
    column mask -> minor, zeros left out and every row mask kept.  Each
    row set S of size j comes once, from S - s for s its lowest row, by
    Laplace expansion along s: det A[S, T] is the sum over c in T of
    (-1)^#{t in T: t < c} A[s, c] det A[S - s, T - c]."""
    table = {0: {0: 1}}
    for _ in range(k):
        level = {}
        for rs, sub in table.items():
            low = ((rs & -rs) or 1 << len(rows)).bit_length() - 1
            for s, row in enumerate(rows[:low]):
                out = {}
                for cs, v in sub.items():
                    sign = 1
                    for c, x in enumerate(row):
                        b = 1 << c
                        if cs & b:
                            sign = -sign
                        elif x:
                            out[cs | b] = out.get(cs | b, 0) + sign * x * v
                level[rs | 1 << s] = {t: v for t, v in out.items() if v}
        table = level
    return table


def _lift(v, now, then):
    """v * now / then on ints; the division must be exact."""
    q, r = divmod(v * now, then)
    if r:
        raise SelfCheckFailed("inexact Pfaffian minor division")
    return q


def _cross(pv, o, x, y2, x2, y, prev):
    """(pv o - x y2 + x2 y) / prev on ints; the division must be exact."""
    q, r = divmod(pv * o - x * y2 + x2 * y, prev)
    if r:
        raise SelfCheckFailed("inexact Pfaffian minor division")
    return q


def _pk_lift(v, now, then):
    """v * now / then on packed polynomials, then prepared (None for 1)."""
    return _pk_quot(((v, now),), (), then)


def _pk_cross(pv, o, x, y2, x2, y, prev):
    """(pv o - x y2 + x2 y) / prev on packed polynomials, prev prepared."""
    return _pk_quot(((pv, o), (x2, y)), ((x, y2),), prev)


def _pf_sparse(b, zero, one, prepare, lift, cross, neg, size):
    """Pfaffian of skew rows b of nonzero entries, by the elimination of
    the module docstring on ints or packed polynomials: zero and one are
    the ring's, prepare(P) readies a pivot as a divisor, lift(v, now,
    then) = v now / then, cross(P, o, x, y2, x2, y, prev) = (P o - x y2
    + x2 y) / prev, divisors prepared, neg negates and size(v) prices an
    entry as a pivot, 0 for zero.  b itself is not written."""
    deg = [sum(map(size, row.values())) for row in b]
    b = [{j: (v, 0) for j, v in row.items()} for row in b]
    piv, divs = [one], [prepare(one)]
    alive = list(range(len(b)))
    sign = 1

    while alive:
        p = min(alive, key=deg.__getitem__)
        bp = b[p]
        if not bp:
            # a zero row of the working matrix: its Pfaffian vanishes,
            # and with it that of b
            return zero
        q = min(bp, key=lambda j: (size(bp[j][0]), deg[j]))
        # ip + iq adjacent transpositions move p, q to the front
        ip = bisect_left(alive, p)
        del alive[ip]
        iq = bisect_left(alive, q)
        del alive[iq]
        if (ip + iq) & 1:
            sign = -sign
        # rows p and q at the last pivot, prev (on the last step row p
        # holds only pv), then columns p and q cut out of the rows they meet
        s, prev, dprev = len(piv), piv[-1], divs[-1]
        x = {i: v if t == s - 1 else lift(v, prev, divs[t])
             for i, (v, t) in bp.items()}
        pv = x.pop(q)
        if not alive:
            return pv if sign > 0 else neg(pv)
        y = {i: v if t == s - 1 else lift(v, prev, divs[t])
             for i, (v, t) in b[q].items() if i != p}
        for r, c in ((x, p), (y, q)):
            for i in r:
                deg[i] -= size(b[i].pop(c)[0])
        # touched rows in three groups: A meets p only, C both, B q only.
        # The cross term of (i, j) vanishes within A and within B, so only
        # the other pairs are written, at stage s; the rest wait at theirs
        touched = [i for i in x if i not in y]
        na = len(touched)
        touched += [i for i in x if i in y]
        nac = len(touched)
        touched += [i for i in y if i not in x]
        xs = [x.get(i, zero) for i in touched]
        ys = [y.get(i, zero) for i in touched]
        for a in range(nac):
            i, xi, yi, bi = touched[a], xs[a], ys[a], b[touched[a]]
            for c in range(max(a + 1, na), len(touched)):
                j = touched[c]
                o, t = bi.get(j, (zero, s - 1))
                k = size(o)  # a row counts its entries as written
                if t != s - 1:
                    o = lift(o, prev, divs[t])
                v = cross(pv, o, xi, ys[c], xs[c], yi, dprev)
                if v:
                    bi[j] = v, s
                    b[j][i] = neg(v), s
                elif k:
                    del bi[j], b[j][i]
                k = size(v) - k
                deg[i] += k
                deg[j] += k
        piv.append(pv)
        divs.append(prepare(pv))
    return one


def det(a):
    """Determinant as the Pfaffian of the interleaved skew matrix (see
    the module docstring), whose rows are skew by construction."""
    dense = mat(a)
    if any(len(r) != len(dense) for r in dense):
        raise DimensionMismatch("determinant of a non-square matrix")
    rows = [{} for _ in range(2 * len(dense))]
    for i, row in enumerate(dense):
        for j, x in enumerate(row):
            rows[2 * i][2 * j + 1] = x
            rows[2 * j + 1][2 * i] = -x
    cleared = _cleared(rows, {type(x) for row in dense for x in row})
    return _pf_float(rows) if cleared is None else _pf_cleared(*cleared)
