import random
from fractions import Fraction

import pytest

from helpers import c4_ring, cube_ring, grid, k4_2by3, simple_loops, triangle
from spwebs.errors import DegenerateGeometry, HorizontalStep
from spwebs.planar import (Edge, PlanarGraph, Vertex, advance_cilium,
                           cilia_parity, euler_area_check,
                           flip_edge_orientation, graph_from_dict,
                           graph_to_dict, loop_area, standard_structure,
                           vertices_enclosed)
from spwebs.rand import random_polygon, random_triangulation


def test_face_counts():
    assert len(c4_ring().faces) == 2
    assert len(cube_ring().faces) == 6
    assert len(k4_2by3().faces) == 4


def test_rotation_is_ccw_and_rejects_shared_directions():
    # a star around the origin, darts listed out of order: ccw from due
    # west, one dart per angular class and two in the lower half plane
    ends = [(3, 1), (-2, 0), (1, -4), (2, 0), (-1, -1), (-5, 2)]
    vs = [Vertex(0, 0, 0)] + [Vertex(i + 1, x, y)
                              for i, (x, y) in enumerate(ends)]
    g = PlanarGraph(vs, [Edge(i, 0, i + 1) for i in range(len(ends))])
    assert [d[0] for d in g.rotation[0]] == [1, 4, 2, 3, 0, 5]
    # two incident edges in one direction, within one class and on the
    # horizontal axis
    for far, near in (((4, -6), (2, -3)), ((-3, 0), (-1, 0)),
                      ((5, 0), (1, 0)), ((-2, 6), (-1, 3))):
        vs = [Vertex(0, 0, 0), Vertex(1, *far), Vertex(2, *near)]
        with pytest.raises(DegenerateGeometry):
            PlanarGraph(vs, [Edge(0, 0, 1), Edge(1, 0, 2)])


def test_outer_face_is_not_bounded():
    g = cube_ring()
    assert g.outer_face not in g.bounded_faces()
    assert len(g.bounded_faces()) == 5


def test_dual_path():
    g = grid(2, 3)
    f1, f2 = g.bounded_faces()
    crossed = g.dual_path(f1, f2)
    assert len(crossed) == 1
    assert g.dual_path(f1, f1) == []


def test_graph_round_trip(tmp_path):
    g = cube_ring()
    g.edges[3].weight = Fraction(5, 7)
    g2 = graph_from_dict(graph_to_dict(g))
    assert sorted(g2.vertices) == sorted(g.vertices)
    assert g2.edges[3].weight == Fraction(5, 7)
    assert g2.vertices[5].x == 7 and g2.vertices[5].y == Fraction(7, 2)
    assert [tuple(f) for f in g2.faces] == [tuple(f) for f in g.faces]


def test_cilia_parity_square():
    d, s, n = cilia_parity([(0, 0), (3, 1), (2, 4), (-1, 3)])
    assert (d - s - n - 1) % 2 == 0


def test_cilia_parity_rejects_horizontal():
    with pytest.raises(HorizontalStep):
        cilia_parity([(0, 0), (1, 0), (1, 1), (0, 1)])


def test_cilia_parity_random_polygons():
    rnd = random.Random(11)
    for _ in range(50):
        d, s, n = cilia_parity(random_polygon(rnd))
        assert (d - s - n - 1) % 2 == 0


def test_loop_area_and_euler():
    g = triangle()
    loop = simple_loops(g)[0]
    area, length, inside = euler_area_check(g, loop)
    assert length == 3 and inside == 0
    assert area == length + 2 * inside - 2 == 1
    assert abs(loop_area(g, loop)) == area


def test_euler_on_triangulations():
    rnd = random.Random(12)
    for _ in range(5):
        g = random_triangulation(rnd, rnd.randint(4, 6))
        for loop in simple_loops(g):
            area, length, inside = euler_area_check(g, loop)
            assert area == length + 2 * inside - 2


def test_loop_area_orientation_independent():
    g = c4_ring()
    loop = simple_loops(g)[0]
    assert loop.is_simple()
    assert loop_area(g, loop.reversed(g)) == loop_area(g, loop) == 2
    assert loop_area(g, loop.rotated(g, 2)) == loop_area(g, loop)


def test_vertices_enclosed():
    g = cube_ring()
    outer = [l for l in simple_loops(g)
             if sorted(set(l.vertices)) == [0, 1, 2, 3]]
    assert outer
    assert vertices_enclosed(g, outer[0]) == 4


def test_structure_covers_all_darts():
    g = k4_2by3()
    s = standard_structure(g)
    for v, ring in s.order.items():
        assert len(ring) == len([e for e in g.edges.values()
                                 if v in (e.u, e.v)])


def test_advance_cilium_returns_crossed_edge():
    g = k4_2by3()
    s = standard_structure(g)
    s2, crossed = advance_cilium(s, 0)
    assert crossed in g.edges
    assert s2.order[0] != s.order[0] or s2.orient != s.orient


def test_flip_edge_orientation_round_trip():
    g = c4_ring()
    s = standard_structure(g)
    s2 = flip_edge_orientation(flip_edge_orientation(s, g, 1), g, 1)
    assert s2.orient == s.orient
