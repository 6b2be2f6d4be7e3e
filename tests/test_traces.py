import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from helpers import c4_ring, grid, k4_2by3, random_vector, triangle
from spwebs.connections import identity_connection, kasteleyn_connection
from spwebs.errors import NotBipartite, WrongRank
from spwebs.linalg import det
from spwebs.planar import (advance_cilium, flip_edge_orientation, load_graph,
                           standard_structure)
from spwebs.rand import random_connection, random_fraction
from spwebs.rings import Poly
from spwebs.theorems import sum_traces
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


def test_rank2_trace_sum_on_2by3_is_pinned():
    # the value of the per-minor det bonds, before integer Laplace bonds
    g = load_graph(Path(__file__).parent / "data" / "2by3.json")
    conn = random_connection(g, random.Random(2), 2)
    assert sum_traces(g, conn) == Fraction(-18128777443, 7558272)


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
