"""Matrices over exact rings, the symplectic form, and Pfaffians.

Matrices are numpy arrays with dtype=object so the entries can be
Fraction, Poly, or float; @ and elementwise ops work on all three.  A
SkewMatrix, the input of the Pfaffian, holds only its rows of nonzero
entries, as dicts from column index to entry; its skewness is checked
once per unordered pair of stored entries, and .a gives the dense array.
Int and Fraction rows are checked once on ints, as the rows of B = DAD
below (skew exactly when A is, all d_i > 0), which the elimination takes;
a caller that builds B itself (H, from cleared connections) hands it over.

Pfaffians are taken by elimination; a sum over perfect pairings is kept
in the tests as an oracle.  For exact entries the elimination is
fraction-free: the working entries are Pfaffian minors of the input, and
the Dress-Wenzel identity

    Pf(Sab)Pf(Scd) - Pf(Sac)Pf(Sbd) + Pf(Sad)Pf(Sbc) = Pf(S)Pf(Sabcd)

makes each division exact, so polynomial matrices never leave the
polynomial ring.  Float matrices use ordinary skew elimination with
magnitude pivoting.  The set of entry types, zeros included, picks the
ring: float if any entry is a float, else Poly if any is a Poly, else int
and Fraction; float and Poly entries together raise MixedRing.

Exact matrices run one sparse fraction-free elimination, on Python ints
for int and Fraction entries and on the packed polynomials of rings
(dicts from packed monomial to int coefficient) for Poly entries.  With
d_i the lcm of the (coefficient) denominators in row i, above the
diagonal for Poly, and D = diag(d_i), B = DAD has integer coefficients
and Pf(B) = Pf(A) * prod(d_i), divided out once at the end.  A packed B
is the upper triangle mirrored by negation, and its Pfaffian is
unpacked to a Poly once (the zero Poly for 0).

* Pivot order.  Each step takes the remaining row p with the fewest
  nonzeros and, among its columns, the row q with the fewest (minimum
  degree: George, SIAM J. Numer. Anal. 10, 1973; Lipton, Rose & Tarjan,
  SIAM J. Numer. Anal. 16, 1979).  With ip the position of p among the
  remaining indices and iq that of q once p is gone, ip + iq adjacent
  transpositions move the pair to the front, so the sign flips when
  ip + iq is odd.  Pf(B) is the sign times the last pivot.
* Working entries.  With S the pivot rows p1 q1 ... ps qs of the first
  s steps, the entry (i, j) of stage s is w_s(i, j) = Pf(B[S, i, j]),
  and the pivot of step s is P_s = Pf(B[S]), P_0 = 1.  The identity
  above gives w_s(i, j) = (P_s w(i, j) - w(p, i) w(q, j) + w(p, j) w(q, i))
  / P_{s-1}, the w on the right of stage s - 1.
* Lazy stages.  The cross term vanishes unless i and j both meet p or q,
  and it vanishes too when both meet p only or both meet q only.  Every
  other entry just becomes w_{s-1}(i, j) P_s / P_{s-1}, so a step
  rewrites only the hot entries of the rows its pivot pair touches.  A
  row keeps the stage t of its last rewrite, and an entry of it stands
  for w_t(i, j) P_s / P_t at stage s.  When a pivot pair next touches
  the row, its entries are brought forward by P_now / P_then.  That
  division is exact, because its quotient is again a Pfaffian minor of
  B.  So is the update's, by the identity.
* Two arithmetics.  The loop is handed the ring's lift, v * now / then,
  cross update, (P o - x y' + x' y) / prev, and negation.  Each division
  is a divmod on ints and the heap division of rings, by a pivot
  prepared once, on packed polynomials; an inexact one raises.
* Field width.  With e the largest entry degree, an entry of stage t
  has total degree at most (t + 1) e and P_s at most s e.  At step s a
  lift multiplies an entry of stage t < s by P_s, or of t < s - 1 by
  P_{s-1}, and the update multiplies two of stage s - 1: at most 2 s e.
  Rows are left to update only while s <= dim/2 - 1, and the last step
  only lifts the pivot to P_{dim/2-1}, so no product passes (dim - 2) e.
  The packing is sized for max(dim - 2, 1) e, which also holds the
  entries and the Pfaffian; a dividend past it raises SelfCheckFailed.
* A remaining row with no nonzeros makes the working matrix singular,
  and with it B, so the Pfaffian is 0.

There is no separate determinant elimination.  det A is the Pfaffian of
the 2n x 2n skew matrix M with the rows of A at even indices and its
columns at odd ones, M[2i][2j+1] = a_ij = -M[2j+1][2i] and every other
entry 0: the perfect matchings of M with nonzero weight are the
permutations of A, each with its sign, so Pf(M) = det A.  det builds
the rows of M itself, skew by construction, and hands them to the ring
dispatch without SkewMatrix's check.
"""

import functools
import itertools
import math
import operator
from bisect import bisect_left
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatch, MixedRing, NotSkew, SelfCheckFailed
from .rings import Poly, _denominator, _Packing, _pk_neg, _pk_quot


def mat(rows):
    a = np.empty((len(rows), len(rows[0]) if rows else 0), dtype=object)
    for i, row in enumerate(rows):
        if len(row) != a.shape[1]:
            raise DimensionMismatch("ragged rows")
        for j, x in enumerate(row):
            a[i, j] = x
    return a


def eye(n, one=None):
    if one is None:
        one = Fraction(1)
    zero = one - one
    a = np.empty((n, n), dtype=object)
    a[:, :] = zero
    for i in range(n):
        a[i, i] = one
    return a


def zeros(n, m=None):
    a = np.empty((n, n if m is None else m), dtype=object)
    a[:, :] = Fraction(0)
    return a


def scalar_is_zero(x):
    if isinstance(x, Poly):
        return x.is_zero()
    return x == 0


def mat_equal(a, b, tol=0.0):
    a = np.asarray(a, dtype=object)
    b = np.asarray(b, dtype=object)
    if a.shape != b.shape:
        return False
    for x, y in zip(a.flat, b.flat):
        if isinstance(x, float) or isinstance(y, float):
            if abs(x - y) > tol:
                return False
        else:
            d = x - y
            if not scalar_is_zero(d):
                return False
    return True


def symplectic_J(n):
    """The 2n x 2n form [[0, I], [-I, 0]]."""
    a = zeros(2 * n)
    for i in range(n):
        a[i, n + i] = Fraction(1)
        a[n + i, i] = Fraction(-1)
    return a


def j_times(rows):
    """Rows of J M for M given as a list of 2n rows: rows n.. of M, then
    minus rows ..n."""
    n = len(rows) // 2
    return rows[n:] + [[-x for x in row] for row in rows[:n]]


def is_symplectic(m, tol=1e-12):
    """M^T J M = J, checked as D^2 J on cleared ints for exact entries."""
    m = np.asarray(m, dtype=object)
    if m.shape[0] != m.shape[1] or m.shape[0] % 2:
        return False
    return symplectic_rows(*clear_denominators(m.tolist()), tol=tol)


def symplectic_rows(rows, d, tol=1e-12):
    """Whether the 2n rows of D M, for d = D, have M^T J M = J, checked
    as (DM)^T J (DM) = D^2 J: exactly on ints, to tol on floats."""
    jcols = list(zip(*j_times(rows)))
    mtjm = [[sum(a * b for a, b in zip(col, jcol)) for jcol in jcols]
            for col in zip(*rows)]
    want = j_times(eye(len(rows), d * d).tolist())
    return mtjm == want or mat_equal(mtjm, want, tol=tol)


def block_transpose(rows):
    """Rows of -J M^T J for M given as 2n rows: for M = [[A, B], [C, D]]
    the signed block transpose [[D^T, -B^T], [-C^T, A^T]], whose row i
    is column n + i of M with its halves swapped and the lower negated."""
    n = len(rows) // 2
    cols = list(zip(*rows))
    return ([list(c[n:]) + [-x for x in c[:n]] for c in cols[n:]]
            + [[-x for x in c[n:]] + list(c[:n]) for c in cols[:n]])


def symplectic_inverse(m):
    """Inverse of a symplectic matrix: -J M^T J, its block_transpose."""
    return mat(block_transpose(np.asarray(m, dtype=object).tolist()))


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


def perm_sign(seq):
    """Sign of a permutation given as a sequence of distinct comparables."""
    inv = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inv += 1
    return -1 if inv % 2 else 1


class SkewMatrix:
    """A square matrix checked to satisfy A^T = -A at construction, held
    as its rows of nonzero entries.

    a is a square matrix, or its rows as dicts from column index to entry;
    such a row may also hold zero entries (H of a zero weight), which the
    Pfaffian drops.  kinds is the set of entry types, zeros included,
    from which pf_eliminate picks the ring; float and Poly entries
    together raise MixedRing.  Skewness is checked once per unordered
    pair of stored entries, so each pair costs one addition; a float pair
    may miss by 1e-12.  Int and Fraction pairs are checked on cleared =
    (B, d), the int rows of B = DAD and the d_i, kept for the Pfaffian;
    a caller may pass B and d, and then rows is built only when asked for.
    """

    def __init__(self, a, d=None):
        if d is not None:
            rows, kinds, self.cleared = a, {Fraction}, (a, d)
        elif isinstance(a, list) and all(isinstance(row, dict) for row in a):
            rows, kinds = a, set()
            for row in rows:
                kinds.update(map(type, row.values()))
        else:
            a = np.asarray(a, dtype=object)
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise DimensionMismatch("skew matrix must be square")
            dense = a.tolist()
            rows = [{j: x for j, x in enumerate(row) if x} for row in dense]
            kinds = {type(x) for row in dense for x in row}
        self.kinds, self.dim = kinds, len(rows)
        if d is None:
            self.rows = rows
            self.cleared = _clear(rows) if _ring(kinds) is Fraction else None
        check = rows if self.cleared is None else self.cleared[0]
        for i, row in enumerate(check):
            for j, x in row.items():
                y = check[j].get(i)
                if y is None:
                    s = x
                elif j >= i:
                    s = x + y
                else:
                    continue
                if s and (not (isinstance(x, float) or isinstance(y, float))
                          or abs(s) > 1e-12):
                    raise NotSkew("matrix is not antisymmetric")

    @functools.cached_property
    def rows(self):
        """The entries B_ij / (d_i d_j) of a matrix given as (B, d)."""
        b, d = self.cleared
        return [{j: Fraction(v, di * d[j]) for j, v in row.items()}
                for row, di in zip(b, d)]

    @property
    def a(self):
        """The dense matrix, with int 0 at the entries not stored."""
        n = self.dim
        return np.array(_dense(self.rows), dtype=object).reshape(n, n)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.a, dtype=dtype)

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
    return _pf_rows(a.rows, a.kinds)


def _ring(kinds):
    """float, Poly or Fraction (int and Fraction) for a set of types."""
    is_float = any(issubclass(t, float) for t in kinds)
    if is_float and Poly in kinds:
        raise MixedRing("float and Poly entries in one matrix")
    return float if is_float else Poly if Poly in kinds else Fraction


def _clear(rows):
    """B = DAD of int and Fraction rows, as rows of nonzero ints, and d."""
    d = [math.lcm(*[x.denominator for x in row.values()]) for row in rows]
    return [{j: v for j, x in row.items()
             if (v := x.numerator * (di // x.denominator) * d[j])}
            for row, di in zip(rows, d)], d


def _pf_rows(rows, kinds):
    """Pfaffian of skew rows of entries (dicts, zeros allowed) in the ring
    that kinds picks."""
    ring = _ring(kinds)
    n = len(rows)
    if n % 2:
        return ring()
    if ring is float:
        return _pf_float(_dense(rows))
    if ring is Poly:
        upper = [{j: x for j, x in row.items() if j > i and x}
                 for i, row in enumerate(rows)]
        pk = _Packing.of([x for row in upper for x in row.values()],
                         max(n - 2, 1))
        d = [math.lcm(*map(_denominator, row.values())) for row in upper]
        b = [{} for _ in rows]
        for i, row in enumerate(upper):
            for j, x in row.items():
                b[i][j] = pk.pack(x, d[i] * d[j])
                b[j][i] = _pk_neg(b[i][j])
        one = {0: 1}
        pf = _pf_sparse(b, {}, one,
                        lambda g: None if g == one else pk.divisor(g),
                        _pk_lift, _pk_cross, _pk_neg)
        return pk.unpack(pf, math.prod(d))
    return _pf_cleared(*_clear(rows))


def _pf_cleared(b, d):
    """Pfaffian of A from the int rows of B = DAD and the d_i."""
    if len(b) % 2:
        return Fraction(0)
    return Fraction(_pf_sparse(list(b), 0, 1, int, _lift, _cross,
                               operator.neg), math.prod(d))


def _pf_float(rows):
    n = len(rows)
    m = [[float(x) for x in row] for row in rows]
    sign = 1.0
    result = 1.0
    for k in range(0, n, 2):
        j = max(range(k + 1, n), key=lambda t: abs(m[k][t]))
        if m[k][j] == 0.0:
            return 0.0
        if j != k + 1:
            m[j], m[k + 1] = m[k + 1], m[j]
            for row in m:
                row[j], row[k + 1] = row[k + 1], row[j]
            sign = -sign
        p = m[k][k + 1]
        for i in range(k + 2, n):
            c = m[k][i] / p
            if c:
                for t in range(n):
                    m[i][t] -= c * m[k + 1][t]
                for t in range(n):
                    m[t][i] -= c * m[t][k + 1]
        result *= p
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
    column mask -> minor, zeros left out.  Size j comes from size j - 1 by
    Laplace expansion along the lowest row s of S: det A[S, T] is the sum
    over c in T of (-1)^#{t in T: t < c} A[s, c] det A[S - s, T - c]."""
    table = {0: {0: 1}}
    for size in range(1, k + 1):
        level = {}
        for rs in itertools.combinations(range(len(rows)), size):
            row = rows[rs[0]]
            out = {}
            for sub, val in table[sum(1 << r for r in rs[1:])].items():
                sign = 1
                for c, x in enumerate(row):
                    bit = 1 << c
                    if sub & bit:
                        sign = -sign
                    elif x:
                        out[sub | bit] = out.get(sub | bit, 0) + sign * x * val
            level[sum(1 << r for r in rs)] = {t: v for t, v in out.items() if v}
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


def _pf_sparse(b, zero, one, prepare, lift, cross, neg):
    """Pfaffian of a skew matrix given as rows of nonzero entries, by the
    sparse elimination of the module docstring, on ints or packed
    polynomials: zero and one are the ring's, prepare(P) readies a pivot
    as a divisor, lift(v, now, then) = v now / then and cross(P, o, x,
    y2, x2, y, prev) = (P o - x y2 + x2 y) / prev, divisors prepared,
    and neg negates.  The rows of b are replaced as it runs."""
    deg = [len(row) for row in b]
    stage = [0] * len(b)
    piv, divs = [one], [prepare(one)]
    alive = list(range(len(b)))
    sign = 1

    while alive:
        p = min(alive, key=deg.__getitem__)
        if not deg[p]:
            # a zero row of the working matrix: its Pfaffian vanishes,
            # and with it that of b
            return zero
        q = min(b[p], key=deg.__getitem__)
        # ip + iq adjacent transpositions move p, q to the front
        ip = bisect_left(alive, p)
        del alive[ip]
        iq = bisect_left(alive, q)
        del alive[iq]
        if (ip + iq) & 1:
            sign = -sign
        s, prev, dprev = len(piv), piv[-1], divs[-1]
        # p and q brought forward to prev; the last step needs only pv
        bp, then = b[p], divs[stage[p]]
        if piv[stage[p]] != prev:
            bp = {j: lift(v, prev, then) for j, v in bp.items()}
        pv = bp[q]
        if not alive:
            return pv if sign > 0 else neg(pv)
        bq, then = b[q], divs[stage[q]]
        if piv[stage[q]] != prev:
            bq = {j: lift(v, prev, then) for j, v in bq.items()}
        piv.append(pv)
        divs.append(prepare(pv))
        # touched rows in three groups: A meets p only, C both, B q only.
        # The cross term of (i, j) vanishes within A and within B, so a row
        # updates only its hot columns and rescales the rest.
        touched = [i for i in bp if i != q and i not in bq]
        na = len(touched)
        touched += [i for i in bp if i in bq]
        nac = len(touched)
        touched += [i for i in bq if i != p and i not in bp]
        hot = (set(touched[na:]), set(touched), set(touched[:nac]))
        skip = [h | {p, q} for h in hot]
        new, old = [], []
        for a, i in enumerate(touched):
            g = (a >= na) + (a >= nac)
            row, then = b[i], divs[stage[i]]
            new.append({j: lift(v, pv, then) for j, v in row.items()
                        if j not in skip[g]})
            if g < 2:
                old.append(row if piv[stage[i]] == prev else
                           {j: lift(v, prev, then) for j, v in row.items()
                            if j in hot[g]})
        xs = [bp.get(i, zero) for i in touched]
        ys = [bq.get(i, zero) for i in touched]
        for a in range(nac):
            i, oi, ni, x, y = touched[a], old[a], new[a], xs[a], ys[a]
            for c in range(max(a + 1, na), len(touched)):
                j = touched[c]
                v = cross(pv, oi.get(j, zero), x, ys[c], xs[c], y, dprev)
                if v:
                    ni[j] = v
                    new[c][i] = neg(v)
        for i, row in zip(touched, new):
            b[i], deg[i], stage[i] = row, len(row), s
    return one


def det(a):
    """Determinant as the Pfaffian of the interleaved skew matrix (see
    the module docstring), whose rows are skew by construction."""
    a = np.asarray(a, dtype=object)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch("determinant of a non-square matrix")
    dense = a.tolist()
    rows = [{} for _ in range(2 * len(dense))]
    for i, row in enumerate(dense):
        for j, x in enumerate(row):
            rows[2 * i][2 * j + 1] = x
            rows[2 * j + 1][2 * i] = -x
    return _pf_rows(rows, {type(x) for row in dense for x in row})
