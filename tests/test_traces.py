import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from helpers import (c4_ring, grid, k4_2by3, random_vector, shuffled_ids,
                     triangle)
from test_linalg import _shear_product
from spwebs import traces
from spwebs.connections import identity_connection, kasteleyn_connection
from spwebs.errors import NotBipartite, WrongRank
from spwebs.linalg import (block_transpose, clear_denominators, det, eye,
                           is_symplectic, j_times, matmul, minors)
from spwebs.planar import (advance_cilium, flip_edge_orientation, load_graph,
                           standard_structure, vertex_order)
from spwebs.rand import (random_connection, random_fraction,
                         random_planar_graph, random_sp)
from spwebs.rings import Poly
from spwebs.theorems import HMatrix, sum_traces
from spwebs.traces import (bipartite_parts, bipartite_structure,
                           crossing_count, det_vertex, qdet, trace_coloring,
                           trace_contraction, trace_identity_colorings,
                           trace_sl_bipartite, trace_sp2_loops, wedge_norm,
                           _vertex_tensor)
from spwebs.webs import Multiweb, enumerate_multiwebs


def test_crossing_count():
    assert crossing_count([(0, 1), (2, 3)]) == 0
    assert crossing_count([(0, 2), (1, 3)]) == 1
    assert crossing_count([(0, 3), (1, 2)]) == 0


def test_web_and_connection_ranks_must_match():
    g = c4_ring()
    conn = kasteleyn_connection(g, 1)
    m = Multiweb(2, {0: 2, 1: 2, 2: 2, 3: 2})
    with pytest.raises(WrongRank):
        trace_contraction(g, conn, m)
    with pytest.raises(WrongRank):
        trace_sl_bipartite(g, conn, m)
    with pytest.raises(WrongRank):
        trace_coloring(g, conn, m)


def test_trace_engines_agree_rank1():
    rnd = random.Random(31)
    for g in (triangle(), c4_ring(), k4_2by3()):
        conn = random_connection(g, rnd, 1)
        s = standard_structure(g)
        for m in enumerate_multiwebs(g, 1):
            a = trace_coloring(g, conn, m, s)
            assert a == trace_contraction(g, conn, m, s)
            assert a == trace_sp2_loops(g, conn, m, s)


def test_trace_engines_agree_rank2():
    rnd = random.Random(32)
    g = c4_ring()
    conn = random_connection(g, rnd, 2)
    s = standard_structure(g)
    for m in enumerate_multiwebs(g, 2):
        assert trace_coloring(g, conn, m, s) == \
            trace_contraction(g, conn, m, s)
    # vertices with the same leg sizes share one cached, read-only tensor
    t = _vertex_tensor(4, (1, 2))
    assert t is _vertex_tensor(4, (1, 2)) and len(t) == 12
    with pytest.raises(TypeError):
        t[(1, 6)] = 0


def test_sweep_matches_coloring_on_shuffled_ids():
    # the contraction sweeps the vertices in vertex_order; shuffled ids
    # pull that order away from the id order the coloring sum runs in
    rnd = random.Random(34)
    cases = [(grid(2, 3), 1), (grid(3, 3), 1), (c4_ring(), 2), (grid(2, 2), 2)]
    cases += [(random_planar_graph(rnd, rnd.randint(4, 7)), 1)
              for _ in range(6)]
    cases += [(random_planar_graph(rnd, 4), 2) for _ in range(2)]
    moved = 0
    for g, n in cases:
        h = shuffled_ids(g, rnd)
        moved += vertex_order(h) != sorted(h.vertices)
        conn = random_connection(h, rnd, n)
        s = standard_structure(h)
        for m in enumerate_multiwebs(h, n):
            assert trace_contraction(h, conn, m, s) == \
                trace_coloring(h, conn, m, s)
    assert moved >= len(cases) - 2


def test_rank2_trace_sum_on_2by3_is_pinned():
    # the value of the per-minor det bonds, before integer Laplace bonds
    g = load_graph(Path(__file__).parent / "data" / "2by3.json")
    conn = random_connection(g, random.Random(2), 2)
    assert sum_traces(g, conn) == Fraction(-18128777443, 7558272)


def _poly_sp(rnd, n):
    """A symplectic matrix with Poly entries: the shear [[I, S], [0, I]],
    S symmetric with one variable per pair, times a random Sp(2n)."""
    shear = eye(2 * n)
    for i in range(n):
        for j in range(i, n):
            shear[i][n + j] = shear[j][n + i] = Poly.var("x%d%d" % (i, j))
    return matmul(shear, random_sp(rnd, n))


def test_bond_equals_the_laplace_table_for_every_size():
    # above rank n the bond reads its k-minors off the (2n - k)-table by
    # Jacobi's complementary minors; it must be the Laplace table exactly,
    # with every row mask, for J D phi and D phi, in both directions
    rnd = random.Random(38)
    cases = [(n, random_sp(rnd, n)) for n in (1, 2) for _ in range(4)]
    cases += [(3, _shear_product(rnd, 3)) for _ in range(2)]
    cases += [(n, _poly_sp(rnd, n)) for n in (1, 2) for _ in range(2)]
    kinds = set()
    for n, m in cases:
        assert is_symplectic(m)
        rows, d = clear_denominators(m)
        kinds.add((n, type(rows[0][0]) is int, d > 1))
        for r in (rows, block_transpose(rows)):
            for symplectic in (True, False):
                b = j_times(r) if symplectic else r
                for k in range(2 * n + 1):
                    table, scale = traces._bond(r, d, k, symplectic)
                    assert table == minors(b, k), (n, k, symplectic)
                    assert scale == (-1) ** (k * (k - 1) // 2) * d ** k
    assert {(1, True, True), (2, True, True), (3, True, True),
            (1, False, False), (2, False, False)} <= kinds


def test_float_bond_is_the_laplace_table_bit_for_bit():
    # the identity would round differently, so float rows keep Laplace
    rnd = random.Random(39)
    for n in (1, 2):
        m = [[float(x) for x in row] for row in random_sp(rnd, n)]
        for r in (m, block_transpose(m)):
            for symplectic in (True, False):
                b = j_times(r) if symplectic else r
                for k in range(2 * n + 1):
                    table = traces._bond(r, 1, k, symplectic)[0]
                    assert repr(table) == repr(minors(b, k))


def test_rank2_cube_expands_no_int_table_past_rank(monkeypatch):
    # a bond of multiplicity 3 or 4 at rank 2 is read from the 1- or
    # 0-minors, so no Laplace table on int rows grows past size n
    g = load_graph(Path(__file__).parent / "data" / "cube.json")
    conn = random_connection(g, random.Random(2), 2)
    asked, expanded = [], []
    bond, laplace = traces._bond, traces.minors
    monkeypatch.setattr(traces, "_bond", lambda rows, d, k, symplectic:
                        asked.append(k) or bond(rows, d, k, symplectic))
    monkeypatch.setattr(traces, "minors", lambda rows, k: expanded.append(
        (k, all(type(x) is int for row in rows for x in row)))
        or laplace(rows, k))
    ts = sum_traces(g, conn)
    assert max(asked) == 4 and {k for k, _ in expanded} == {0, 1, 2}
    assert all(is_int for _, is_int in expanded)
    pf = HMatrix(g, conn).pfaffian()
    assert ts in (pf, -pf)


def test_identity_colorings_match_identity_connection():
    for g in (triangle(), k4_2by3()):
        for n in (1, 2):
            conn = identity_connection(g, n)
            s = standard_structure(g)
            for m in enumerate_multiwebs(g, n):
                assert trace_contraction(g, conn, m, s) == \
                    trace_identity_colorings(g, m, s)


def test_coloring_oracles_match_contraction_under_moves():
    # every single cilium advance and orientation flip, so the nesting of
    # split copies is checked away from the standard structure
    for g, n in ((triangle(), 2), (k4_2by3(), 1)):
        conn = random_connection(g, random.Random(37), n)
        ident = identity_connection(g, n)
        s0 = standard_structure(g)
        moves = ([advance_cilium(s0, v)[0] for v in sorted(g.vertices)]
                 + [flip_edge_orientation(s0, g, e) for e in sorted(g.edges)])
        for s in moves:
            for m in enumerate_multiwebs(g, n):
                assert trace_coloring(g, conn, m, s) == \
                    trace_contraction(g, conn, m, s)
                assert trace_identity_colorings(g, m, s) == \
                    trace_contraction(g, ident, m, s)


def test_bipartite_parts():
    g = c4_ring()
    black, white = bipartite_parts(g)
    for e in g.edges.values():
        assert (e.u in black) != (e.v in black)
    with pytest.raises(NotBipartite):
        bipartite_parts(triangle())


def test_sl_trace_matches_sp_trace_up_to_global_sign():
    rnd = random.Random(33)
    g = grid(2, 3)
    conn = random_connection(g, rnd, 1)
    s = bipartite_structure(g)
    ratios = set()
    for m in enumerate_multiwebs(g, 1):
        sp = trace_contraction(g, conn, m, s)
        sl = trace_sl_bipartite(g, conn, m, s)
        if sp != 0:
            ratios.add(sl / sp if not isinstance(sp, Poly) else None)
    assert ratios in ({1}, {-1})


def test_det_vertex_equals_wedge_norm():
    rnd = random.Random(34)
    for n in (1, 2, 3):
        for _ in range(10):
            vs = [random_vector(rnd, n) for _ in range(2 * n)]
            assert det_vertex(vs) == wedge_norm(vs)


def test_det_vertex_on_basis():
    for n in (1, 2, 3):
        basis = [np.array([Fraction(int(i == k)) for i in range(2 * n)],
                          dtype=object) for k in range(2 * n)]
        assert det_vertex(basis) == 1


def test_det_vertex_alternates():
    rnd = random.Random(35)
    vs = [random_vector(rnd, 2) for _ in range(4)]
    swapped = [vs[1], vs[0], vs[2], vs[3]]
    assert det_vertex(swapped) == -det_vertex(vs)
    degenerate = [vs[0], vs[0], vs[2], vs[3]]
    assert det_vertex(degenerate) == 0


def test_qdet_at_one_is_det():
    rnd = random.Random(36)
    for _ in range(10):
        a = np.array([[random_fraction(rnd) for _ in range(3)]
                      for _ in range(3)], dtype=object)
        assert qdet(a, Fraction(1)) == det(a)


def test_qdet_two_by_two_closed_form():
    a11, a12, a21, a22 = (Poly.var(v) for v in ("w", "x", "y", "z"))
    q = Poly.var("q")
    m = np.array([[a11, a12], [a21, a22]], dtype=object)
    assert qdet(m, q) == a11 * a22 - q * a12 * a21


def test_qdet_diagonal():
    m = np.array([[Fraction(2), Fraction(0)], [Fraction(0), Fraction(5)]],
                 dtype=object)
    assert qdet(m, Fraction(7)) == 10
