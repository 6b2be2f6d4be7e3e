import random
from pathlib import Path

import pytest

from helpers import (c4_ring, cube_ring, grid, k4_2by3, reference_2web_splits,
                     reference_regular, shuffled_edge_ids, shuffled_ids,
                     triangle)
from spwebs.errors import MalformedWeb
from spwebs.planar import load_graph
from spwebs.rand import random_planar_graph
from spwebs.webs import (Multiweb, check_multiweb, decompose_2multiweb,
                         decompositions_into_2webs, enumerate_dimers,
                         enumerate_multiwebs, load_multiweb,
                         multiweb_from_dict, multiweb_to_dict, save_multiweb,
                         superpose)

GOLDEN = Multiweb(2, {0: 2, 1: 1, 2: 1, 3: 2, 4: 1, 5: 1})


def _search_graphs():
    # the copies with shuffled vertex and edge ids pair the same sweeps
    # with other edge-id orders, which the lists are sorted by
    rnd, shuffle = random.Random(5), random.Random(6)
    cube = load_graph(Path(__file__).parent / "data" / "cube.json")
    fixed = [k4_2by3(), c4_ring(), cube_ring(), grid(3, 3), grid(2, 4), cube]
    return (fixed + [shuffled_edge_ids(shuffled_ids(g, shuffle), shuffle)
                     for g in fixed]
            + [random_planar_graph(rnd, rnd.randint(3, 6))
               for _ in range(30)])


def test_dimers_k4():
    assert sorted(sorted(d) for d in enumerate_dimers(k4_2by3())) == \
        [[0, 3], [1, 4], [2, 5]]


def test_dimers_odd_graph():
    assert enumerate_dimers(triangle()) == []


def test_multiwebs_counts():
    assert len(enumerate_multiwebs(c4_ring(), 1)) == 3
    assert len(enumerate_multiwebs(triangle(), 1)) == 1
    webs = enumerate_multiwebs(k4_2by3(), 2)
    assert any(m.mult == GOLDEN.mult for m in webs)


def test_multiweb_degree_rule():
    g = k4_2by3()
    for m in enumerate_multiwebs(g, 2):
        deg = {v: 0 for v in g.vertices}
        for eid, k in m.mult.items():
            deg[g.edges[eid].u] += k
            deg[g.edges[eid].v] += k
        assert all(d == 4 for d in deg.values())


def test_check_multiweb_rejects_bad_degree():
    g = c4_ring()
    with pytest.raises(MalformedWeb):
        check_multiweb(g, Multiweb(1, {0: 1}))
    # the edge checks run in the web's order before any degree check, and
    # the degrees are compared in g.vertices order
    h = shuffled_ids(g, random.Random(3))
    for graph, mult, message in (
            (g, {9: 1}, "multiplicity on unknown edge 9"),
            (g, {0: 3}, "multiplicity 3 out of range on edge 0"),
            (g, {0: -1, 9: 1}, "multiplicity -1 out of range on edge 0"),
            (g, {9: 1, 0: 3}, "multiplicity on unknown edge 9"),
            (g, {0: 2, 1: 2, 2: 2, 3: 2, 9: 1},
             "multiplicity on unknown edge 9"),
            (g, {0: 1}, "vertex 0 has degree 1, expected 2"),
            (h, {0: 1, 3: 1}, "vertex 2 has degree 1, expected 2")):
        with pytest.raises(MalformedWeb) as err:
            check_multiweb(graph, Multiweb(1, mult))
        assert str(err.value) == message, mult


def test_superposition_is_rank_one():
    g = k4_2by3()
    d1, d2 = enumerate_dimers(g)[:2]
    m = superpose(g, [d1, d2])
    assert m.n == 1
    check_multiweb(g, m)


def test_decompose_2multiweb():
    g = k4_2by3()
    dec = decompose_2multiweb(g, superpose(g, [{0: 1, 3: 1}, {1: 1, 4: 1}]))
    used = set(dec.doubled)
    for loop in dec.loops:
        used |= set(loop.edge_ids())
    assert used == {0, 1, 3, 4}
    assert set(dec.doubled) == set()
    assert len(dec.loops) == 1


def test_decompose_doubled_edges():
    g = c4_ring()
    dec = decompose_2multiweb(g, Multiweb(1, {0: 2, 2: 2}))
    assert sorted(dec.doubled) == [0, 2]
    assert dec.loops == []


def test_golden_web_has_four_decompositions():
    assert len(decompositions_into_2webs(k4_2by3(), GOLDEN)) == 4


def test_per_edge_caps_keep_the_one_cap_lists_and_order():
    # test_c09 draws a multiweb with rnd.choice, so the order matters too
    for g in _search_graphs():
        assert enumerate_dimers(g) == [{e: k for e, k in m.items() if k}
                                       for m in reference_regular(g, 1, 1)]
        for n in (1, 2):
            assert enumerate_multiwebs(g, n) == [
                Multiweb(n, m) for m in reference_regular(g, 2 * n, 2 * n)]


def test_search_does_not_blow_up_on_wide_grids():
    # grid ids number the horizontal edges before the vertical ones, so
    # in id order a vertex closed only at its last vertical edge and the
    # dead branches grew exponentially with the width: these took minutes
    assert len(enumerate_dimers(grid(6, 6))) == 6728
    assert enumerate_multiwebs(grid(5, 5), 1) == []


def test_2web_splits_match_the_vector_search():
    count = 0
    for g in _search_graphs():
        for n in (1, 2):
            for m in enumerate_multiwebs(g, n):
                got = decompositions_into_2webs(g, m)
                assert len(set(got)) == len(got)
                assert set(got) == set(reference_2web_splits(g, m))
                count += len(got)
    assert count > 1000


def test_multiweb_round_trip(tmp_path):
    path = tmp_path / "web.json"
    save_multiweb(GOLDEN, path)
    m = load_multiweb(path)
    assert m.n == 2 and m.mult == GOLDEN.mult
    assert multiweb_from_dict(multiweb_to_dict(GOLDEN)).mult == GOLDEN.mult


def test_multiweb_getitem_default():
    assert GOLDEN[0] == 2 and GOLDEN[1] == 1
    m = Multiweb(1, {0: 1, 2: 1})
    assert m[1] == 0


def test_grid_dimers():
    assert len(enumerate_dimers(grid(2, 3))) == 3
