import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from helpers import (exterior_power_trace, pf_combinatorial, random_skew,
                     substitute)
from spwebs import linalg
from spwebs.errors import MixedRing, NotSkew, SelfCheckFailed
from spwebs.linalg import (SkewMatrix, all_pairings, clear_denominators, det,
                           eye, is_symplectic, mat, mat_equal, minors,
                           perm_sign, pf_eliminate, scalar_is_zero,
                           symplectic_J, symplectic_inverse, zeros)
from spwebs.rand import random_fraction, random_sp2, random_sp4
from spwebs.rings import Poly
from spwebs.traces import det_vertex, wedge_norm


def test_symplectic_j():
    for n in (1, 2, 3):
        j = symplectic_J(n)
        assert mat_equal(j @ j, -eye(2 * n))
        assert is_symplectic(j)


def test_perm_sign():
    assert perm_sign([0, 1, 2]) == 1
    assert perm_sign([1, 0, 2]) == -1
    assert perm_sign([2, 0, 1]) == 1


def test_all_pairings_count():
    assert len(list(all_pairings([0, 1, 2, 3]))) == 3
    assert len(list(all_pairings(list(range(6))))) == 15


def test_det_known():
    a = mat([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]])
    assert det(a) == -2


def test_det_multiplicative():
    rnd = random.Random(2)
    for _ in range(10):
        a = np.array([[Fraction(rnd.randint(-3, 3)) for _ in range(3)]
                      for _ in range(3)], dtype=object)
        b = np.array([[Fraction(rnd.randint(-3, 3)) for _ in range(3)]
                      for _ in range(3)], dtype=object)
        assert det(a @ b) == det(a) * det(b)


def test_pfaffian_agrees_and_squares_to_det():
    rnd = random.Random(3)
    for dim in (2, 4, 6):
        for _ in range(5):
            a = random_skew(rnd, dim)
            p1 = pf_eliminate(a)
            p2 = pf_combinatorial(a)
            assert p1 == p2
            assert p1 * p1 == det(a)


def test_pfaffian_symbolic():
    a, b, c = Poly.var("a"), Poly.var("b"), Poly.var("c")
    z = Poly.const(0)
    m = np.array([[z, a, b, c],
                  [-a, z, c, b],
                  [-b, -c, z, a],
                  [-c, -b, -a, z]], dtype=object)
    assert pf_eliminate(m) == pf_combinatorial(m)
    assert pf_eliminate(m) == a * a - b * b + c * c


def test_skew_matrix_rejects_non_skew():
    with pytest.raises(NotSkew):
        SkewMatrix(mat([[Fraction(0), Fraction(1)],
                        [Fraction(1), Fraction(0)]]))


def test_skew_matrix_pfaffian():
    assert SkewMatrix(np.array(symplectic_J(1).tolist(),
                               dtype=object)).pfaffian() == 1
    assert SkewMatrix(np.array(symplectic_J(2).tolist(),
                               dtype=object)).pfaffian() == -1


def test_exterior_power_trace():
    rnd = random.Random(4)
    for _ in range(10):
        a = np.array([[Fraction(rnd.randint(-3, 3)) for _ in range(4)]
                      for _ in range(4)], dtype=object)
        t1 = np.trace(a)
        t2 = np.trace(a @ a)
        assert exterior_power_trace(a, 1) == t1
        assert exterior_power_trace(a, 2) == (t1 * t1 - t2) / 2
        assert exterior_power_trace(a, 4) == det(a)


def _check_minors(a, tol=0.0):
    """Every k-minor of the Laplace table, divided by its scale D^k,
    equals det of the submatrix."""
    rows, d = clear_denominators(a.tolist())
    size = a.shape[0]
    for k in range(1, size + 1):
        table = minors(rows, k)
        for rs in combinations(range(size), k):
            row = table[sum(1 << r for r in rs)]
            for cs in combinations(range(size), k):
                got = row.get(sum(1 << c for c in cs), 0) * Fraction(1, d ** k)
                assert mat_equal([[got]], [[det(a[np.ix_(rs, cs)])]], tol=tol)
    return rows, d


def test_laplace_minors_match_det():
    rnd = random.Random(41)
    for size in (2, 4, 6):
        for _ in range(3):
            a = np.array([[0 if rnd.random() < 0.2 else
                           Fraction(rnd.randint(-9, 9), rnd.randint(1, 6))
                           for _ in range(size)] for _ in range(size)],
                         dtype=object)
            rows, d = _check_minors(a)
            assert all(type(x) is int for row in rows for x in row)
            assert d == np.lcm.reduce([x.denominator for x in a.flat])
    x, y = Poly.var("x"), Poly.var("y")
    poly = mat([[x, Fraction(1, 2) * y, 0], [y * y - 1, x, Fraction(2, 3)],
                [1, x * y, y]])
    assert _check_minors(poly)[1] == 1
    floats = np.array([[rnd.uniform(-1.0, 1.0) for _ in range(4)]
                       for _ in range(4)], dtype=object)
    assert _check_minors(floats, tol=1e-12)[1] == 1


def _shear_product(rnd, n, words=4):
    """A product of symplectic shears, alternately [[I, S], [0, I]] and
    [[I, 0], [S, I]] with S symmetric and rational."""
    m = eye(2 * n)
    for w in range(words):
        s = zeros(n)
        for i in range(n):
            for j in range(i, n):
                s[i, j] = s[j, i] = random_fraction(rnd, 3, 4)
        blk = eye(2 * n)
        if w % 2:
            blk[:n, n:] = s
        else:
            blk[n:, :n] = s
        m = m @ blk
    return m


def test_exact_is_symplectic_matches_matmul_oracle():
    rnd = random.Random(43)
    for n in (1, 2, 3):
        j = symplectic_J(n)
        for _ in range(3):
            m = _shear_product(rnd, n)
            assert mat_equal(m.T @ j @ m, j)
            assert is_symplectic(m)
            # changing entry (i, c) keeps M symplectic only when row i of
            # J M is a multiple of e_c, which none of these products has
            for i in range(2 * n):
                for c in range(2 * n):
                    p = m.copy()
                    p[i, c] += 1
                    assert not mat_equal(p.T @ j @ p, j)
                    assert not is_symplectic(p)
    x = Poly.var("x")
    assert is_symplectic(mat([[1, x], [0, 1]]))
    assert not is_symplectic(mat([[1, x], [x, 1]]))


def test_symplectic_inverse():
    rnd = random.Random(5)
    for _ in range(5):
        m = random_sp2(rnd)
        assert mat_equal(m @ symplectic_inverse(m), eye(2))
        m4 = random_sp4(rnd)
        assert is_symplectic(m4)
        assert mat_equal(m4 @ symplectic_inverse(m4), eye(4))
    # the signed block transpose is -J M^T J for any 2n x 2n matrix
    a = Poly.var("a")
    entries = (lambda: Fraction(rnd.randint(-5, 5), rnd.randint(1, 4)),
               lambda: a * rnd.randint(-3, 3) + rnd.randint(-3, 3),
               lambda: rnd.uniform(-2.0, 2.0))
    for n in (1, 2, 3):
        j = symplectic_J(n)
        for entry in entries:
            m = np.array([[entry() for _ in range(2 * n)]
                          for _ in range(2 * n)], dtype=object)
            assert mat_equal(symplectic_inverse(m), -(j @ m.T @ j), tol=1e-12)


def test_zeros_and_scalar_is_zero():
    z = zeros(2, 3)
    assert z.shape == (2, 3)
    assert all(scalar_is_zero(x) for x in z.flat)
    assert scalar_is_zero(Poly.const(0))
    assert not scalar_is_zero(Fraction(1, 9))


def _skew_suite(seed=11):
    """Seeded skew matrices of dimension 0, 2, ..., 12: integer, rational
    with a different denominator in each row, and sparse (about 80%
    zeros), which drives the zero-pivot search and the rank-exhausted 0."""
    rnd = random.Random(seed)

    def skew(dim, entry):
        a = np.full((dim, dim), 0, dtype=object)
        for i in range(dim):
            for j in range(i + 1, dim):
                a[i, j] = entry(i)
                a[j, i] = -a[i, j]
        return a

    for dim in range(0, 13, 2):
        dens = [rnd.randint(1, 7) for _ in range(dim)]
        for _ in range(3):
            yield skew(dim, lambda i: rnd.randint(-9, 9))
            yield skew(dim, lambda i: Fraction(rnd.randint(-9, 9), dens[i]))
            yield skew(dim, lambda i: 0 if rnd.random() < 0.8 else
                       Fraction(rnd.randint(-4, 4), rnd.randint(1, 3)))


def test_integer_pfaffian_matches_oracles():
    zeros_seen = 0
    for a in _skew_suite():
        pf = pf_eliminate(a)
        assert isinstance(pf, Fraction)
        if a.shape[0] <= 8:
            assert pf == pf_combinatorial(a)
        # the same elimination on packed polynomials, run on constant Polys
        wrapped = np.vectorize(Poly.const, otypes=[object])(a) \
            if a.size else a
        assert pf_eliminate(wrapped) == pf
        assert det(a) == pf * pf
        if a.shape[0] >= 4 and pf == 0:
            zeros_seen += 1
    assert zeros_seen


def test_pfaffian_pivot_search_and_rank_exhaustion():
    # (0, 1) vanishes, so the first step searches for a pivot
    a = mat([[0, 0, 2, 0], [0, 0, 0, 3], [-2, 0, 0, 0], [0, -3, 0, 0]])
    assert pf_eliminate(a) == pf_combinatorial(a) == -6
    # rows 2..5 are zero after the first step: the rank is exhausted
    b = np.full((6, 6), 0, dtype=object)
    b[0, 1], b[1, 0] = Fraction(1, 2), Fraction(-1, 2)
    assert pf_eliminate(b) == 0
    assert det(b) == 0


def _poly_skew_suite(seed=13):
    """Seeded skew matrices of dimension 0..8 with Poly entries: 1-4
    variables, Fraction coefficients, exponents up to 6, about 30% zeros
    (int 0 or the zero Poly)."""
    rnd = random.Random(seed)

    def entry(names):
        if rnd.random() < 0.3:
            return rnd.choice([0, Poly.const(0)])
        p = Poly.const(0)
        for _ in range(rnd.randint(1, 2)):
            t = Poly.const(Fraction(rnd.choice([-3, -2, -1, 1, 2, 3]),
                                    rnd.randint(1, 4)))
            for v in names:
                t = t * Poly.var(v) ** rnd.randint(0, 6)
            p = p + t
        return p

    for dim in range(0, 9):
        for _ in range(3 if dim < 8 else 2):
            names = "abcd"[:rnd.randint(1, 4)]
            a = np.full((dim, dim), 0, dtype=object)
            for i in range(dim):
                for j in range(i + 1, dim):
                    a[i, j] = entry(names)
                    a[j, i] = -a[i, j]
            yield a


def test_poly_pfaffian_matches_oracles():
    for a in _poly_skew_suite():
        pf = pf_eliminate(a)
        assert str(pf) == str(pf_combinatorial(a))
        assert det(a) == pf * pf


def test_poly_pfaffian_pivot_and_rank_exhaustion():
    x, y, z = Poly.var("x"), Poly.var("y"), Poly.var("z")
    # (0, 1) vanishes, so the first step searches for a pivot
    a = mat([[0, 0, x, y], [0, 0, z, x * y], [-x, -z, 0, 0],
             [-y, -x * y, 0, 0]])
    assert str(pf_eliminate(a)) == str(pf_combinatorial(a))
    assert pf_eliminate(a) == y * z - x * x * y
    assert det(a) == pf_eliminate(a) ** 2
    # rows 2..5 are zero after the first step: the rank is exhausted
    b = np.full((6, 6), 0, dtype=object)
    b[0, 1], b[1, 0] = Fraction(1, 2) * x, -Fraction(1, 2) * x
    pf = pf_eliminate(b)
    assert isinstance(pf, Poly) and pf.is_zero()
    assert det(b) == 0


def _singular_poly_squares(seed=29):
    """Seeded square Poly matrices of size 2..5 whose last row is a Poly
    multiple of another row, so every determinant is 0."""
    rnd = random.Random(seed)
    x, y = Poly.var("x"), Poly.var("y")
    for size in range(2, 6):
        for _ in range(4):
            a = np.array([[rnd.randint(-2, 2) + rnd.randint(-2, 2) * x
                           + rnd.randint(0, 1) * x * y for _ in range(size)]
                          for _ in range(size)], dtype=object)
            a[-1] = a[rnd.randrange(size - 1)] * (1 + rnd.randint(-1, 1) * y)
            yield a


def test_zero_poly_pfaffian_is_a_poly():
    # a Poly matrix has a Poly Pfaffian whichever way it reaches 0: odd
    # dimension, rank exhaustion in the pivot search (above), or a last
    # entry that comes out 0, as here with Pf = x*y - x*y + 0
    x, y = Poly.var("x"), Poly.var("y")
    a = mat([[0, x, x, 0], [-x, 0, y, y], [-x, -y, 0, y], [0, -y, -y, 0]])
    for m in (a, a[:3, :3]):
        pf = pf_eliminate(m)
        assert isinstance(pf, Poly) and pf.is_zero()
    values = [pf_eliminate(m) for m in _poly_skew_suite()
              if any(isinstance(v, Poly) for v in m.flat)]
    values += [det(m) for m in _singular_poly_squares()]
    assert all(isinstance(v, Poly) for v in values)
    assert sum(v.is_zero() for v in values) >= 20


def test_poly_pfaffian_field_width(monkeypatch):
    rnd = random.Random(17)
    # 30 variables, two in each entry above the diagonal
    a = np.full((6, 6), 0, dtype=object)
    for k, (i, j) in enumerate((i, j) for i in range(6) for j in range(i + 1, 6)):
        a[i, j] = Poly.var("v%d" % k) - 3 * Poly.var("v%d" % (k + 15))
        a[j, i] = -a[i, j]
    pf = pf_eliminate(a)
    assert len(pf.variables()) == 30
    assert str(pf) == str(pf_combinatorial(a))
    assert det(a) == pf * pf
    # entries of degree 9: exponents up to 54 in the determinant
    u, v, w = Poly.var("u"), Poly.var("v"), Poly.var("w")
    monos = [u ** 9, v ** 9, w ** 9, u ** 4 * v ** 5, v ** 2 * w ** 7,
             u * v * w ** 7]
    b = np.full((6, 6), 0, dtype=object)
    for i in range(6):
        for j in range(i + 1, 6):
            b[i, j] = (rnd.choice(monos) * rnd.choice([-2, 1, 3])
                       + rnd.choice(monos) * Fraction(1, rnd.randint(1, 5)))
            b[j, i] = -b[i, j]
    pf = pf_eliminate(b)
    assert pf.degree() == 27
    assert str(pf) == str(pf_combinatorial(b))
    assert det(b) == pf * pf
    # dimension 10, sparse, entries homogeneous of degree D = 8 in three
    # variables: the products of the elimination reach (10 - 2) * D = 64,
    # a power of two, so a factor one smaller narrows every field by a
    # bit and degree 64 reaches the guard bit
    c = np.full((10, 10), 0, dtype=object)
    monos = [u ** 8, v ** 8, w ** 8, u ** 3 * v ** 5, v ** 2 * w ** 6,
             u * v * w ** 6]
    for i in range(10):
        for j in range(i + 1, 10):
            if j == i + 1 or rnd.random() < 0.2:
                c[i, j] = rnd.choice(monos) * rnd.choice([-2, 1, 3])
                c[i, j] += rnd.choice(monos) * Fraction(1, rnd.randint(1, 5))
                c[j, i] = -c[i, j]
    gaps = []
    monkeypatch.setattr(linalg, "_pf_sparse",
                        _stage_spy(linalg._pf_sparse, gaps))
    pf = pf_eliminate(c)
    assert pf.degree() == 40
    # minimum-degree order leaves some row at its stage over 3 pivots
    assert max(gaps) >= 3
    for point in ({"u": 2, "v": -1, "w": 3}, {"u": 1, "v": 5, "w": -2}):
        at = np.vectorize(lambda x: substitute(x, point)
                          if isinstance(x, Poly) else x, otypes=[object])(c)
        assert substitute(pf, point) == pf_eliminate(at)
    # at the last point also against an oracle that shares no code with it
    assert substitute(pf, point) ** 2 == _laplace_det(at)
    of = linalg._Packing.of.__func__
    monkeypatch.setattr(linalg._Packing, "of", classmethod(
        lambda cls, entries, factor: of(cls, entries, factor - 1)))
    with pytest.raises(SelfCheckFailed):
        pf_eliminate(c)


def _stage_spy(sparse, gaps):
    """linalg._pf_sparse, wrapped to append to gaps, for every lift, the
    number of pivots over which it brings a row forward."""

    def spy(b, zero, one, prepare, lift, cross, neg):
        pivots = []

        def prep(g):
            pivots.append(g)
            return len(pivots) - 1, prepare(g)

        def lf(v, now, then):
            gaps.append(len(pivots) - 1 - then[0])
            return lift(v, now, then[1])

        def cr(*args):
            return cross(*args[:-1], args[-1][1])

        return sparse(b, zero, one, prep, lf, cr, neg)

    return spy


def _laplace_det(a):
    """det A as the one full minor of the Laplace table: an oracle that
    shares no code with the Pfaffian elimination."""
    rows = np.asarray(a, dtype=object).tolist()
    full = (1 << len(rows)) - 1
    return minors(rows, len(rows)).get(full, {}).get(full, 0)


def _square_suite(seed=19):
    """Seeded square matrices of size 1..6 that are not skew: integer,
    rational with a different denominator in each row, sparse (about 70%
    zeros, so leading entries vanish and many are singular), with a
    repeated row (singular), and Poly with 1-4 variables."""
    rnd = random.Random(seed)

    def poly(names):
        if rnd.random() < 0.3:
            return 0
        t = Poly.const(Fraction(rnd.randint(-3, 3), rnd.randint(1, 4)))
        for v in names:
            t = t * Poly.var(v) ** rnd.randint(0, 3)
        return t + rnd.randint(-2, 2)

    for size in range(1, 7):
        dens = [rnd.randint(1, 7) for _ in range(size)]
        for _ in range(3):
            names = "abcd"[:rnd.randint(1, 4)]
            for entry in (lambda i: rnd.randint(-9, 9),
                          lambda i: Fraction(rnd.randint(-9, 9), dens[i]),
                          lambda i: 0 if rnd.random() < 0.7 else
                          rnd.randint(-4, 4),
                          lambda i: poly(names)):
                yield np.array([[entry(i) for _ in range(size)]
                                for i in range(size)], dtype=object)
            a = np.array([[rnd.randint(-5, 5) for _ in range(size)]
                          for _ in range(size)], dtype=object)
            a[-1] = a[0]
            yield a


def test_det_matches_laplace_minor():
    cases = ([a for a in _skew_suite() if a.shape[0] <= 8]
             + [a for a in _poly_skew_suite() if a.shape[0] <= 6]
             + list(_square_suite())
             # zero leading entries, so the elimination searches for
             # pivots; the last has a zero column
             + [mat([[0, 1], [1, 0]]), mat([[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
                mat([[0, 0, 0, 2], [0, 0, 3, 0], [0, 5, 0, 0], [7, 0, 0, 0]]),
                mat([[0, 1, 2], [0, 3, 4], [0, 5, 6]])])
    singular = 0
    for a in cases:
        d = det(a)
        assert d == _laplace_det(a), a
        singular += d == 0
    assert singular > 10
    assert det(np.empty((0, 0), dtype=object)) == 1 == _laplace_det([])
    rnd = random.Random(23)
    for size in range(1, 7):
        for _ in range(5):
            a = np.array([[rnd.uniform(-1.0, 1.0) for _ in range(size)]
                          for _ in range(size)], dtype=object)
            assert isinstance(det(a), float)
            assert abs(det(a) - _laplace_det(a)) < 1e-12
    # np.linalg.det gave 3.0000000000000004 and 5.000000000000001 here;
    # criterion c08 on the same float vectors agrees to the last digit
    for rows, value in (([[3.0]], 3.0), ([[3.0, 0.0], [0.0, 1.0]], 3.0),
                        ([[2.0, 1.0], [1.0, 3.0]], 5.0)):
        assert det(mat(rows)) == _laplace_det(rows) == value
        if len(rows) == 2:
            vs = [np.array(r, dtype=object) for r in rows]
            assert det_vertex(vs) == wedge_norm(vs) == value


def test_float_and_poly_entries_do_not_mix():
    x = Poly.var("x")
    for a in (mat([[1.5, x], [0, 1]]), mat([[0, x], [-x, 0.0]])):
        with pytest.raises(MixedRing):
            det(a)
        with pytest.raises(MixedRing):
            pf_eliminate(a)
    for op in (lambda: x + 1.5, lambda: 1.5 * x, lambda: x - 0.5,
               lambda: 2.0 - x):
        with pytest.raises(MixedRing):
            op()
