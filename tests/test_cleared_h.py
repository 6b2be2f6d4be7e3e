"""H and the trace bonds built from cleared connections, against the same
objects built entry by entry in Fraction arithmetic."""

import json
import random
from fractions import Fraction

import numpy as np
import pytest

from helpers import (c4_ring, cube_ring, grid, k4_2by3, random_gauges,
                     triangle)
from spwebs import cli, connections, linalg
from spwebs import theorems as th
from spwebs.connections import (Connection, gauge_transform,
                                kasteleyn_connection, load_connection)
from spwebs.errors import NotSymplectic
from spwebs.planar import flip_edge_orientation, save_graph, standard_structure
from spwebs.rand import random_connection, random_planar_graph
from spwebs.rings import Poly
from spwebs.traces import trace_coloring, trace_contraction
from spwebs.webs import enumerate_multiwebs


def reference_rows(g, conn, w=None):
    """The rows of H as products x * w of the edge matrix entries and the
    weights, each entry formed on its own, zeros of a zero weight kept."""
    weights = th.weight_map(g, w)
    pos = {vid: i for i, vid in enumerate(th.vertex_order(g))}
    n = conn.n
    b = 2 * n
    rows = [{} for _ in range(b * len(pos))]
    for e in g.edges.values():
        m = conn.matrices[e.id]
        wt = weights[e.id]
        rl, rh = b * pos[min(e.u, e.v)], b * pos[max(e.u, e.v)]
        for i, row in enumerate(m[n:] + m[:n]):
            for j, x in enumerate(row):
                if x:
                    val = x * wt if i < n else -(x * wt)
                    rows[rh + i][rl + j] = val
                    rows[rl + j][rh + i] = -val
    return rows


def _weight_sets(g, rnd):
    eids = sorted(g.edges)
    rational = {e: Fraction(rnd.randint(-5, 5), rnd.randint(1, 6))
                for e in eids}
    rational[eids[0]] = 0
    return [None,
            {e: rnd.randint(-3, 3) for e in eids},
            rational,
            dict.fromkeys(eids, Fraction(-2, 3)),
            dict.fromkeys(eids, 0)]


def _connections(g, n, rnd):
    kc = kasteleyn_connection(g, n)
    return [kc, gauge_transform(g, kc, random_gauges(g, rnd, n)),
            random_connection(g, rnd, n)]


@pytest.mark.parametrize("n", [1, 2])
def test_cleared_h_matches_fraction_assembly(n):
    rnd = random.Random(60 + n)
    graphs = [triangle(), c4_ring(), k4_2by3(), grid(2, 3),
              random_planar_graph(rnd, 6)]
    if n == 1:
        graphs.append(cube_ring())
    for g in graphs:
        for conn in _connections(g, n, rnd):
            for w in _weight_sets(g, rnd):
                ref = reference_rows(g, conn, w)
                h = th.HMatrix(g, conn, w)
                assert h.cleared == linalg._clear(ref)
                assert np.asarray(h).tolist() == linalg._dense(ref)
                assert h.pfaffian() == linalg.pf_eliminate(
                    linalg.SkewMatrix(ref))


def _poly_weight_sets(g, rnd):
    eids = sorted(g.edges)
    sym = th.symbolic_weights(g)
    # contents other than 1: Fraction coefficients, and a sum whose
    # integer coefficients share a factor
    scaled = {e: Fraction(rnd.choice([-3, 3, 5]), rnd.randint(1, 4)) * x
              for e, x in sym.items()}
    scaled[eids[-1]] = 6 * sym[eids[-1]] * sym[eids[0]] - 4
    zero = dict(sym)
    zero[eids[0]] = Poly.const(0)
    mixed = dict(sym)
    for e, wt in zip(eids[::2], [2, Fraction(-1, 3), 0] * len(eids)):
        mixed[e] = wt
    return [sym, scaled, zero, mixed]


@pytest.mark.parametrize("n", [1, 2])
def test_packed_poly_h_matches_poly_assembly(n):
    # H with Poly weights is packed at assembly; its entries and its
    # Pfaffian match those of the rows formed one Poly entry at a time,
    # whose Pfaffian the dense Poly path takes
    rnd = random.Random(66 + n)
    graphs = [triangle(), c4_ring(), k4_2by3(), grid(2, 3),
              random_planar_graph(rnd, 5)]
    if n == 1:
        graphs.append(cube_ring())
    for g in graphs:
        for conn in _connections(g, n, rnd):
            for w in _poly_weight_sets(g, rnd):
                ref = reference_rows(g, conn, w)
                h = th.HMatrix(g, conn, w)
                assert h.cleared[2] is not None
                assert {type(x) for row in h.rows
                        for x in row.values()} == {Poly}
                assert np.asarray(h).tolist() == linalg._dense(ref)
                pf = h.pfaffian()
                assert isinstance(pf, Poly)
                assert pf == linalg.pf_eliminate(linalg.SkewMatrix(ref))


def test_symbolic_h_pfaffian_builds_no_poly_entry():
    rnd = random.Random(67)
    for g, n in ((grid(3, 4), 1), (grid(2, 3), 2)):
        kc = kasteleyn_connection(g, n)
        conn = gauge_transform(g, kc, random_gauges(g, rnd, n))
        h = th.HMatrix(g, conn, th.symbolic_weights(g))
        assert h.pfaffian()
        assert "rows" not in vars(h)


def test_float_h_keeps_the_bits_of_fraction_weights():
    # a float entry times float(w) is the float product of the entry with
    # the Fraction w, so H under a float connection is bit for bit the same
    g = c4_ring()
    rnd = random.Random(64)
    spec = connections.annulus_spec(g, 0)
    flat = {eid: th.u2_matrix(0.4, 0.3, 0.2, 0.7) for eid, _ in spec.cut}
    kc = kasteleyn_connection(g, 2)
    conn = Connection(g, 2, {e: linalg.matmul(flat[e], kc.matrices[e])
                             if e in flat else kc.matrices[e]
                             for e in g.edges})
    assert all(conn.cleared[e] is None for e in flat)
    for w in _weight_sets(g, rnd)[1:]:
        assert np.asarray(th.HMatrix(g, conn, w)).tolist() == \
            linalg._dense(reference_rows(g, conn, w))


def test_shared_matrices_are_cleared_once(monkeypatch):
    calls = []
    clear = connections.clear_denominators

    def spy(rows):
        calls.append(len(rows))
        return clear(rows)

    monkeypatch.setattr(connections, "clear_denominators", spy)
    g = grid(4, 4)
    kc = kasteleyn_connection(g, 2)
    assert 0 < len(calls) <= 4 < len(g.edges)
    for eid, (rows, d) in kc.cleared.items():
        assert d == 1 and rows == kc.matrices[eid]


def test_symplectic_check_runs_on_cleared_rows(tmp_path, capsys):
    # det [[1/2, 1/2], [0, 1]] = 1/2: its cleared rows [[1, 1], [0, 2]]
    # have determinant d = 2, so only the comparison with d^2 J rejects it
    g = c4_ring()
    graph = str(tmp_path / "g.json")
    save_graph(g, graph)
    for bad, ok in ((["1/2", "1/2"], ["0", "1"]), (["1", "1/2"], ["0", "1"])):
        doc = {"n": 1, "edges": [{"id": eid, "matrix": [bad, ok]}
                                 for eid in sorted(g.edges)]}
        path = tmp_path / "conn.json"
        path.write_text(json.dumps(doc))
        if bad[0] == "1":
            conn = load_connection(g, str(path))
            assert conn.cleared[0] == ([[2, 1], [0, 2]], 2)
            continue
        with pytest.raises(NotSymplectic):
            load_connection(g, str(path))
        code = cli.main(["pfaffian", "--graph", graph, "--conn", str(path)])
        assert code == 2 and capsys.readouterr().out == ""


@pytest.mark.parametrize("g, n", [(triangle(), 2), (c4_ring(), 1),
                                  (k4_2by3(), 1)],
                         ids=["triangle-2", "c4-1", "2by3-1"])
def test_contraction_matches_coloring_in_both_directions(g, n):
    # bonds come from the cleared rows, block transposed when the edge is
    # walked from its high end; the coloring oracle inverts conn.matrices
    rnd = random.Random(65)
    s0 = standard_structure(g)
    s = s0
    for eid in sorted(g.edges)[::2]:
        s = flip_edge_orientation(s, g, eid)
    mixed = 0
    for conn in _connections(g, n, rnd)[1:]:
        for st in (s0, s):
            for m in enumerate_multiwebs(g, n):
                lows = {g.dart_head(st.orient[e]) == min(g.edges[e].u,
                                                         g.edges[e].v)
                        for e in m.mult}
                mixed += lows == {True, False}
                assert trace_contraction(g, conn, m, st) == \
                    trace_coloring(g, conn, m, st)
    assert mixed
