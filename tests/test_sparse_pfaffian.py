"""The sparse Pfaffian elimination against a dense loop on ints, on int,
Fraction and Poly matrices, its pivot order on packed rows, the float
elimination against the dense float loop, bit for bit, and the sparse
storage of skew matrices."""

import contextlib
import importlib.util
import io
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from helpers import (grid, inner_face, pf_combinatorial, random_gauges,
                     reference_pf_float, substitute)
from spwebs import cli
from spwebs import linalg
from spwebs import theorems as th
from spwebs.connections import gauge_transform, kasteleyn_connection
from spwebs.errors import MixedRing, NotSkew, SelfCheckFailed
from spwebs.linalg import (SkewMatrix, _cross, _lift, _pk_cross, _pk_lift, det,
                           mat, pf_eliminate)
from spwebs.planar import save_graph
from spwebs.rings import Poly, _Packing
from spwebs.webs import enumerate_dimers


def dense_pf(a):
    """Pfaffian by the dense fraction-free loop: each row and column
    scaled by the lcm of its row's denominators, the pivot at (k, k + 1)
    found by a search when it vanishes, and every remaining entry
    rewritten at every step."""
    rows = [[Fraction(x) for x in row] for row in np.asarray(a).tolist()]
    n = len(rows)
    if n % 2:
        return Fraction(0)
    d = [math.lcm(*[x.denominator for x in row]) for row in rows]
    b = [[int(x * di * dj) for x, dj in zip(row, d)]
         for row, di in zip(rows, d)]
    sign, prev = 1, 1
    for k in range(0, n - 2, 2):
        if not b[k][k + 1]:
            found = next(((i, j) for i in range(k, n)
                          for j in range(i + 1, n) if b[i][j]), None)
            if found is None:
                return Fraction(0)
            for src, dst in zip(found, (k, k + 1)):
                if src != dst:
                    b[src], b[dst] = b[dst], b[src]
                    for row in b:
                        row[src], row[dst] = row[dst], row[src]
                    sign = -sign
        bk, bk1 = b[k], b[k + 1]
        p = bk[k + 1]
        for i in range(k + 2, n):
            bi, x, y = b[i], bk[i], bk1[i]
            for j in range(i + 1, n):
                val, r = divmod(p * bi[j] - x * bk1[j] + bk[j] * y, prev)
                assert r == 0
                bi[j] = val
                b[j][i] = -val
        prev = p
    return Fraction(sign * b[n - 2][n - 1] if n else 1, math.prod(d))


def _skew(dim, entry):
    a = np.full((dim, dim), 0, dtype=object)
    for i in range(dim):
        for j in range(i + 1, dim):
            a[i, j] = entry(i, j)
            a[j, i] = -a[i, j]
    return a


def _random_skews(seed=31):
    """Seeded int and Fraction skew matrices of dimension 0..40: dense,
    sparse at densities 5-30%, with zero rows, rank-deficient (index r a
    copy of index s, so e_r - e_s is in the kernel), and banded circulants
    in which every row has the same number of nonzeros."""
    rnd = random.Random(seed)

    def value(i):
        return rnd.choice((rnd.randint(-9, 9),
                           Fraction(rnd.randint(-9, 9), rnd.randint(1, 6))))

    for dim in (0, 2, 4, 6, 8, 10, 12, 16, 22, 30, 40):
        for _ in range(2):
            yield _skew(dim, lambda i, j: rnd.randint(-9, 9))
            dens = [rnd.randint(1, 7) for _ in range(dim)]
            yield _skew(dim, lambda i, j: Fraction(rnd.randint(-9, 9),
                                                    dens[i]))
            for density in (0.05, 0.15, 0.3):
                yield _skew(dim, lambda i, j: value(i)
                            if rnd.random() < density else 0)
            if dim < 4:
                continue
            a = _skew(dim, lambda i, j: value(i)
                      if rnd.random() < 0.3 else 0)
            for r in rnd.sample(range(dim), rnd.randint(1, 2)):
                a[r, :] = a[:, r] = 0
            yield a
            a = _skew(dim, lambda i, j: value(i)
                      if rnd.random() < 0.4 else 0)
            r, s = rnd.sample(range(dim), 2)
            a[r, :], a[:, r] = a[s, :], a[:, s]
            a[r, s] = a[s, r] = a[r, r] = 0
            yield a
            band = rnd.randint(1, min(3, dim // 2 - 1))
            yield _skew(dim, lambda i, j: value(i)
                        if min(j - i, dim + i - j) <= band else 0)


def _grid_hs(seed=37):
    """Kasteleyn and gauged H on grids from 2x2 to 8x8 at ranks 1 and 2,
    unit weights; odd sides get one more column, so that dimers exist."""
    rnd = random.Random(seed)
    for size in range(2, 9):
        g = grid(size, size + size % 2)
        for n in (1, 2):
            kc = kasteleyn_connection(g, n)
            yield th.HMatrix(g, kc)
            if n == 1 or size <= 6:
                gauged = gauge_transform(g, kc, random_gauges(g, rnd, n))
                yield th.HMatrix(g, gauged)


def test_sparse_pfaffian_matches_dense_loop():
    zeros = ties = 0
    for a in _random_skews():
        pf = pf_eliminate(a)
        assert isinstance(pf, Fraction)
        assert pf == dense_pf(a)
        # twice on one matrix: the elimination leaves its cleared rows
        s = SkewMatrix(a)
        assert s.pfaffian() == pf == s.pfaffian()
        if a.shape[0] <= 8:
            assert pf == pf_combinatorial(a)
        # the same loop on packed polynomials, run on constant Polys
        const = np.vectorize(Poly.const, otypes=[object])(a) \
            if a.size else a
        assert pf_eliminate(const) == pf
        zeros += a.shape[0] >= 4 and pf == 0
        degrees = {sum(1 for x in row if x) for row in a.tolist()}
        ties += a.shape[0] >= 4 and len(degrees) == 1 and pf != 0
    assert zeros >= 20 and ties >= 10


def test_sparse_pfaffian_of_grid_h_matches_dense_loop():
    for h in _grid_hs():
        pf = h.pfaffian()
        assert pf == dense_pf(h.a)
        assert pf != 0
        assert h.pfaffian() == pf


def _float_skews(seed=59):
    """Seeded exactly skew float rows of every even dimension 2..64 at
    densities 5-100%: uniform entries, and integer-valued ones from +-1
    and +-2, whose rows tie in |entry| so that the first largest is the
    pivot; a quarter of them with one zero row and column."""
    rnd = random.Random(seed)
    for dim in range(2, 66, 2):
        for density in (0.05, 0.2, 0.5, 1.0):
            for value in (lambda: rnd.uniform(-1.0, 1.0),
                          lambda: float(rnd.choice((-2, -1, 1, 2)))):
                rows = [{} for _ in range(dim)]
                for i in range(dim):
                    for j in range(i + 1, dim):
                        if rnd.random() < density:
                            rows[i][j] = x = value()
                            rows[j][i] = -x
                if rnd.random() < 0.25:
                    r = rnd.randrange(dim)
                    rows[r] = {}
                    for row in rows:
                        row.pop(r, None)
                yield rows


def _same_float_pfaffian(rows):
    """Pf of float rows by linalg._pf_float, asserted equal to that of the
    dense loop of helpers.reference_pf_float, bit for bit."""
    pf = linalg._pf_float(rows)
    assert pf == reference_pf_float(linalg._dense(rows))
    return pf


def test_float_pfaffian_matches_dense_loop_bit_for_bit(monkeypatch,
                                                       tmp_path):
    zeros = ties = 0
    for rows in _float_skews():
        pf = _same_float_pfaffian(rows)
        assert SkewMatrix(rows).pfaffian() == pf
        zeros += pf == 0.0
        first = [abs(x) for x in rows[0].values()]
        ties += first.count(max(first, default=1.0)) > 1
    assert zeros >= 40 and ties >= 60
    # the held-out float H of annulus-ck on the centre square of the
    # bench's weighted 4x4 grid, and the interleaved matrices of float det
    seen = []
    pf_float = linalg._pf_float
    monkeypatch.setattr(linalg, "_pf_float",
                        lambda rows: seen.append(rows) or pf_float(rows))
    g = grid(4, 4)
    for e in g.edges.values():
        e.weight = 2 if e.id % 3 == 0 else 1
    path = str(tmp_path / "g.json")
    save_graph(g, path)
    f = inner_face(g, [5, 6, 9, 10])
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["annulus-ck", "--graph", path, "--inner", str(f),
                         "--json"]) == 0
    assert [len(rows) for rows in seen] == [64]
    rnd = random.Random(61)
    for size in range(1, 13):
        for density in (0.3, 1.0):
            a = mat([[rnd.choice((rnd.uniform(-1.0, 1.0), 2.0,
                                  Fraction(rnd.randint(-3, 3), 2)))
                      if rnd.random() < density else 0.0
                      for _ in range(size)] for _ in range(size)])
            det(a)
    assert len(seen) == 1 + 24
    monkeypatch.undo()
    for rows in seen:
        _same_float_pfaffian(rows)
    # rows skew only to SkewMatrix's 1e-12, diagonal included, agree to a
    # relative 1e-9
    for dim in (2, 4, 8, 12, 16, 24):
        for _ in range(5):
            rows = [{i: rnd.uniform(-4e-13, 4e-13)} for i in range(dim)]
            for i in range(dim):
                for j in range(i + 1, dim):
                    rows[i][j] = x = rnd.uniform(-1.0, 1.0)
                    rows[j][i] = -x + rnd.uniform(-4e-13, 4e-13)
            assert math.isclose(SkewMatrix(rows).pfaffian(),
                                reference_pf_float(linalg._dense(rows)),
                                rel_tol=1e-9)


def test_symbolic_h_pfaffian_matches_dense_loop_at_integer_points():
    # an oracle for Poly Pfaffians far past pf_combinatorial's dimension
    # 8: Pf(H) with one variable per edge, evaluated at seeded integer
    # points, against dense_pf of H evaluated at the same points, under
    # the Kasteleyn connection and a gauged one (Fraction coefficients)
    rnd = random.Random(43)
    dims = set()
    for rows, cols, ranks in ((2, 2, (1, 2)), (2, 3, (1, 2)), (3, 3, (1,)),
                              (3, 4, (1, 2)), (4, 4, (1,))):
        g = grid(rows, cols)
        weights = th.symbolic_weights(g)
        names = sorted(str(w) for w in weights.values())
        for n in ranks:
            kc = kasteleyn_connection(g, n)
            for conn in (kc, gauge_transform(g, kc,
                                             random_gauges(g, rnd, n))):
                h = th.HMatrix(g, conn, weights)
                pf = h.pfaffian()
                assert isinstance(pf, Poly)
                # 3x3 has an odd number of vertices, so no dimers
                assert (not pf) == (rows * cols % 2 == 1)
                dims.add(h.dim)
                for _ in range(3):
                    point = {v: rnd.randint(-4, 4) for v in names}
                    at = np.vectorize(
                        lambda x: substitute(x, point) if isinstance(x, Poly)
                        else x, otypes=[object])(h.a)
                    assert substitute(pf, point) == dense_pf(at)
    assert max(dims) == 48


def test_packed_pivots_are_ranked_by_term_count(monkeypatch):
    x, y, z = (Poly.var(v) for v in "xyz")
    many = [x + y + z + x * y + y * z + x * z,
            x * x + y * y + z * z + 2 * x + 3 * y + 5]
    assert [len(p.terms) for p in many] == [6, 6]
    cases = [
        # row 0 has the fewest entries, two, but 12 terms; rows 1 to 5 have
        # three or four entries, and those of rows 3 to 5 have one term
        # each.  The first pivot comes from row 3, and not from row 0's
        # 6-term entries, which least degree would pick.
        {(0, 1): many[0], (0, 2): many[1], (1, 2): x, (1, 3): y,
         (1, 5): z, (2, 4): x * y, (3, 4): y * z, (3, 5): 2 * x,
         (4, 5): -z},
        # every row has 7 terms, so row 0 is p, and its neighbours 1 and 2
        # tie on row size: the 1-term entry (0, 2) is the pivot, and not
        # (0, 1), which comes first in the row
        {(0, 1): many[0], (0, 2): x, (1, 3): y, (2, 4): many[1],
         (3, 5): many[0], (4, 5): z},
    ]
    pivots = []
    sparse = linalg._pf_sparse

    def spy(b, zero, one, prepare, *ops):
        def prep(g):
            pivots.append(g)
            return prepare(g)
        return sparse(b, zero, one, prep, *ops)

    monkeypatch.setattr(linalg, "_pf_sparse", spy)
    for entries in cases:
        a = np.full((6, 6), 0, dtype=object)
        for (i, j), v in entries.items():
            a[i, j], a[j, i] = v, -v
        pivots.clear()
        assert pf_eliminate(a) == pf_combinatorial(a)
        # pivots[0] is the ring's one, pivots[1] the first pivot, of 1 term
        assert [len(p) for p in pivots[:2]] == [1, 1]


def test_symbolic_kasteleyn_grids_with_many_terms():
    # Pf(H) = +-Z(w)^(2n) with one variable per edge, Z(w) the sum of the
    # weight monomials of the dimer covers, checked as an exact division by
    # Z^n whose quotient is +-Z^n: expanding Z^4 of the 3x6 grid takes
    # seconds.  Least-degree pivots took about 4 minutes on the symbolic
    # 4x4 grid at rank 2; row-size pivots took 1.2 s on the 3x6 grid here
    for rows, cols, n in ((2, 6, 2), (3, 4, 2), (3, 6, 2), (4, 4, 1)):
        g = grid(rows, cols)
        w = th.symbolic_weights(g)
        z = sum((math.prod(w[e] for e in m) for m in enumerate_dimers(g)),
                Poly.const(0)) ** n
        pf = th.HMatrix(g, kasteleyn_connection(g, n), w).pfaffian()
        assert pf.exact_div(z) in (z, -z)


def test_kasteleyn_pfaffian_size_guard():
    # |Pf(H)| = Z^(2n) at dim 288 (12x12, rank 1) and 400 (10x10, rank 2)
    for size, n, z in ((12, 1, 53060477521960000), (10, 2, 258584046368)):
        g = grid(size, size)
        pf = th.HMatrix(g, kasteleyn_connection(g, n)).pfaffian()
        assert abs(pf) == z ** (2 * n)


def test_division_checks_raise():
    # every division of the elimination is a lift, v * now / then, or a
    # cross update, (P o - x y' + x' y) / prev; on ints each is a divmod
    assert _lift(3, 4, 2) == 6
    assert _cross(2, 5, 1, 2, 3, 4, 4) == 5
    with pytest.raises(SelfCheckFailed):
        _lift(3, 2, 4)
    with pytest.raises(SelfCheckFailed):
        _cross(2, 5, 1, 2, 3, 3, 4)
    # on packed polynomials each is a heap division, which checks every
    # coefficient and every monomial of the quotient
    x, y = Poly.var("x"), Poly.var("y")
    pk = _Packing("xy", 4)

    def packed(p):
        return pk.pack(p, 1)

    def poly(f):
        return pk.unpack(f)

    for div, num in ((3, 2 * x), (x, y), (x + y, x * x + y)):
        # lift: v * now / then, with now = 1
        divisor = pk.divisor(packed(div))
        with pytest.raises(SelfCheckFailed):
            _pk_lift(packed(num), packed(Poly.const(1)), divisor)
        # cross: (P o - x y' + x' y) / prev, with only P o nonzero
        with pytest.raises(SelfCheckFailed):
            _pk_cross(packed(num), packed(Poly.const(1)), {}, {}, {}, {},
                      divisor)
        assert poly(_pk_lift(packed(num), packed(div), divisor)) == num
        assert poly(_pk_cross(packed(num), packed(div), packed(x),
                              packed(y), packed(y), packed(x),
                              divisor)) == num


def test_skew_matrix_storage_checks():
    # int and Fraction pairs are checked on the cleared rows B = DAD:
    # 1/3 against -1/6 reads 6 against -3 there
    for bad in (mat([[1, 0], [0, 0]]), [{0: Fraction(1, 2)}, {}],
                mat([[0, 3], [0, 0]]), [{1: 3}, {}], [{}, {0: 3}],
                mat([[0, 3], [3, 0]]),
                mat([[0, Fraction(1, 3)], [Fraction(-1, 6), 0]]),
                [{1: Fraction(1, 2), 2: 1}, {0: Fraction(-1, 2)}, {0: 1}],
                mat([[0, 0.25], [-0.25 - 2 ** -39, 0]]),
                mat([[0, 2e-12], [0, 0]])):
        with pytest.raises(NotSkew):
            SkewMatrix(bad)
    # float pairs may miss by 1e-12, exact ones by nothing
    for ok in (mat([[0, 0.25], [-0.25 - 2 ** -40, 0]]),
               mat([[0, 1e-12], [0, 0]]), [{1: 1e-12}, {}]):
        assert isinstance(SkewMatrix(ok).pfaffian(), float)
    # stored zeros, as H of a zero weight has, are dropped
    h = SkewMatrix([{1: 2, 2: 0}, {0: -2}, {0: 0, 3: 5}, {2: -5}])
    assert h.pfaffian() == 10 == pf_combinatorial(h.a)
    half = Fraction(1, 2)
    h = SkewMatrix([{1: half, 2: 0}, {0: -half}, {0: 0, 3: Fraction(5, 3)},
                    {2: Fraction(-5, 3)}])
    assert h.pfaffian() == Fraction(5, 6) == pf_combinatorial(h.a)
    # H with one zero edge weight among nonzero rational ones keeps the
    # rational ring
    g = grid(2, 2)
    kc = gauge_transform(g, kasteleyn_connection(g, 1),
                         random_gauges(g, random.Random(53), 1))
    w = {eid: Fraction(eid + 1, 3) for eid in g.edges}
    w[min(w)] = 0
    h = th.HMatrix(g, kc, w)
    assert h.cleared is not None and h.cleared[2] is None
    assert {type(x) for row in h.rows for x in row.values()} == {Fraction}
    assert type(h.pfaffian()) is Fraction
    assert h.pfaffian() == pf_combinatorial(h.a) != 0


def test_ring_comes_from_every_entry_zeros_included():
    x = Poly.var("x")
    only_zero = mat([[0, 0.0], [0.0, 0]])
    mixed = mat([[0, 2, 0.0, 0], [-2, 0, 0, 0], [0.0, 0, 0, 3],
                 [0, 0, -3, 0]])
    for a in (only_zero, mixed):
        for pf in (pf_eliminate(a), SkewMatrix(a).pfaffian()):
            assert isinstance(pf, float)
    assert pf_eliminate(mixed) == 6.0
    assert det(mat([[0.0, 0], [0, 0]])) == 0.0
    # H under zero weights stores zeros of the weights' ring
    g = grid(2, 2)
    kc = kasteleyn_connection(g, 1)
    for zero, ring in ((0, Fraction), (0.0, float), (Poly.const(0), Poly)):
        pf = th.HMatrix(g, kc, dict.fromkeys(g.edges, zero)).pfaffian()
        assert type(pf) is ring and not pf
    for a in (mat([[0, Poly.const(0)], [0.0, 0]]),
              mat([[0, x, 0.0], [-x, 0, 0], [0.0, 0, 0]])):
        with pytest.raises(MixedRing):
            pf_eliminate(a)
        with pytest.raises(MixedRing):
            SkewMatrix(a)
        with pytest.raises(MixedRing):
            det(a)


def test_odd_and_empty_dimensions():
    x = Poly.var("x")
    odd = {Fraction: mat([[0, 1, 2], [-1, 0, 3], [-2, -3, 0]]),
           float: mat([[0, 1.5, 0], [-1.5, 0, 0], [0, 0, 0]]),
           Poly: mat([[0, x, 0], [-x, 0, 0], [0, 0, 0]])}
    for ring, a in odd.items():
        for pf in (pf_eliminate(a), SkewMatrix(a).pfaffian()):
            assert isinstance(pf, ring) and not pf
    for empty in (np.empty((0, 0), dtype=object), []):
        assert pf_eliminate(SkewMatrix(empty)) == 1
    assert pf_eliminate(np.empty((0, 0), dtype=object)) == 1


def _tracer():
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_pfaffian_sees_the_dense_h():
    # the bench tracer classifies each Pfaffian by np.asarray of what
    # pf_eliminate receives, so H must convert to its dense matrix
    tracer = _tracer()
    g = grid(3, 3)
    kc = kasteleyn_connection(g, 1)
    cases = {
        "integral": th.HMatrix(g, kc),
        "rational": th.HMatrix(g, gauge_transform(
            g, kc, random_gauges(g, random.Random(47), 1))),
        "float": th.HMatrix(g, kc, {eid: 1.0 for eid in g.edges}),
        "poly": th.HMatrix(g, kc, th.symbolic_weights(g)),
    }
    tr = tracer.Tracer()
    tr.install()
    try:
        for kind, h in cases.items():
            dense = np.asarray(h, dtype=object)
            assert dense.shape == (18, 18)
            assert tracer.entry_class(dense) == kind
            h.pfaffian()
    finally:
        tr.uninstall()
    assert tr.pf_classes == dict.fromkeys(tr.pf_classes, 1)
    assert tr.pf_dim_max == 18
