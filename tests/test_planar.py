import random
from fractions import Fraction

import pytest

from helpers import (c4_ring, cube_ring, face_signed_area, grid, k4_2by3,
                     pendant_square, random_triangulation, rotated,
                     simple_loops, triangle)
from spwebs import cli
from spwebs.errors import (DegenerateGeometry, HorizontalStep,
                           NonPlanarEmbedding, NotSimpleLoop)
from spwebs.planar import (Edge, Loop, PlanarGraph, Vertex, advance_cilium,
                           cilia_parity, cross, enclosed_faces,
                           euler_area_check, flip_edge_orientation,
                           graph_from_dict, graph_to_dict, loop_area,
                           save_graph, standard_structure, vertices_enclosed)
from spwebs.rand import random_planar_graph, random_polygon


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


def test_straight_edges_meet_only_at_shared_endpoints():
    # the square 0-1-2-3 (edges 0..3) plus edge 4 from vertex u to the
    # last of the new vertices 4, 5, ...
    square = [Vertex(0, 0, 0), Vertex(1, 6, 1), Vertex(2, 5, 7),
              Vertex(3, -1, 6)]
    ring = [Edge(i, i, (i + 1) % 4) for i in range(4)]

    def graph(u, *points):
        vs = [Vertex(4 + i, x, y) for i, (x, y) in enumerate(points)]
        return PlanarGraph(square + vs, ring + [Edge(4, u, 3 + len(points))])

    for u, points in ((3, [(9, 3)]),                      # crosses edge 1
                      (0, [(Fraction(11, 2), 4)]),        # ends on edge 1
                      # on the line of edge 0, overlapping it
                      (4, [(2, Fraction(1, 3)), (9, Fraction(3, 2))])):
        with pytest.raises(NonPlanarEmbedding, match="edges [0-3] and 4 cross"):
            graph(u, *points)
    # a pendant edge inside the square, and one outside whose bounding
    # box overlaps that of edge 2
    assert len(graph(3, (3, 3)).faces) == 2
    assert len(graph(0, (-3, 7)).faces) == 2


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
    assert loop_area(g, rotated(loop, g, 2)) == loop_area(g, loop)


def test_vertices_enclosed():
    g = cube_ring()
    outer = [l for l in simple_loops(g)
             if sorted(set(l.vertices)) == [0, 1, 2, 3]]
    assert outer
    assert vertices_enclosed(g, outer[0]) == 4


def test_enclosed_faces_fill_the_loop_polygon():
    # an independent geometric oracle: the enclosed faces tile the loop's
    # polygon, so their doubled areas add up to its shoelace sum
    rnd = random.Random(13)
    graphs = [cube_ring()]
    for _ in range(8):
        graphs.append(random_planar_graph(rnd, rnd.randint(5, 8)))
        graphs.append(random_triangulation(rnd, rnd.randint(4, 7)))
    count = 0
    for g in graphs:
        for loop in simple_loops(g):
            for l in (loop, loop.reversed(g)):
                pts = [g.ipos[v] for v in l.vertices]
                shoelace = sum(cross(p, q)
                               for p, q in zip(pts, pts[1:] + pts[:1]))
                assert sum(face_signed_area(g, f)
                           for f in enclosed_faces(g, l)) == abs(shoelace)
                count += 1
    assert count > 300


def test_enclosure_needs_a_simple_loop():
    # a two-dart loop u -> v -> u has no inside
    g = triangle()
    for fn in (loop_area, vertices_enclosed):
        with pytest.raises(NotSimpleLoop):
            fn(g, Loop(g, [(0, 0), (0, 1)]))
    # the square of pendant_square with a spur out to vertex 4 and back
    g = pendant_square()
    square = simple_loops(g)[0]
    assert square.vertices[0] == 0 and vertices_enclosed(g, square) == 0
    with pytest.raises(NotSimpleLoop):
        vertices_enclosed(g, Loop(g, [(4, 0), (4, 1)] + square.darts))
    # a vertex with no edges lies on no face, so the loop around it
    # encloses none and area = L + 2V - 2 still holds
    g = PlanarGraph([Vertex(0, 0, 0), Vertex(1, 7, 2), Vertex(2, 3, 9),
                     Vertex(3, 3, 4)],
                    [Edge(i, i, (i + 1) % 3) for i in range(3)])
    assert euler_area_check(g, Loop(g, [(0, 0), (1, 0), (2, 0)])) == (1, 3, 0)


def test_edges_must_form_one_connected_graph():
    # a triangle inside a square is two components until an edge joins
    # them; a vertex with no edges (test_enclosure_needs_a_simple_loop)
    # is allowed
    vs = [Vertex(i, x, y) for i, (x, y) in enumerate(
        [(0, 0), (12, 1), (11, 13), (-1, 12), (3, 3), (8, 4), (5, 9)])]
    es = ([Edge(i, i, (i + 1) % 4) for i in range(4)]
          + [Edge(4 + i, 4 + i, 4 + (i + 1) % 3) for i in range(3)])
    with pytest.raises(NonPlanarEmbedding,
                       match=r"more than one connected graph: "
                             r"V-E\+F = 7-7\+4 != 2"):
        PlanarGraph(vs, es)
    g = PlanarGraph(vs, es + [Edge(7, 0, 4)])
    assert len(g.faces) == 3 and len(g.bounded_faces()) == 2


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


def test_results_do_not_change_under_scaling(capsys, tmp_path):
    # every coordinate c maps to (p/q)*c + r: the int coordinates get
    # another denominator and scale, and no predicate may notice
    rnd = random.Random(41)
    for _ in range(6):
        g = random_planar_graph(rnd, rnd.randint(5, 8))
        q = rnd.choice([2, 3, 5, 7, 9])
        s = Fraction(rnd.choice([p for p in range(1, 41) if p % q]), q)
        r = [Fraction(rnd.randint(-30, 30), rnd.randint(1, 6))
             for _ in range(2)]
        h = PlanarGraph([Vertex(v.id, s * v.x + r[0], s * v.y + r[1])
                         for v in g.vertices.values()],
                        [Edge(e.id, e.u, e.v) for e in g.edges.values()])
        assert (h.rotation, h.faces, h.outer_face) == \
            (g.rotation, g.faces, g.outer_face)
        for loop in simple_loops(g):
            image = Loop(h, loop.darts)
            assert loop_area(h, image) == loop_area(g, loop)
            assert vertices_enclosed(h, image) == vertices_enclosed(g, loop)
        stdout = []
        for graph, name in ((g, "g.json"), (h, "h.json")):
            save_graph(graph, str(tmp_path / name))
            runs = [["verify-main"]] + [[verb, "--inner", str(f)]
                                        for f in g.bounded_faces()
                                        for verb in ("annulus-parity",
                                                     "annulus-ck")]
            stdout.append([(cli.main(argv + ["--graph", str(tmp_path / name),
                                             "--json"]),
                            capsys.readouterr().out) for argv in runs])
        assert stdout[0] == stdout[1]


def _segments_meet(p, q, r, s):
    """Whether closed segments pq and rs share a point, solved with
    Fractions: an oracle independent of the orientation tests."""
    d = (q[0] - p[0], q[1] - p[1])
    e = (s[0] - r[0], s[1] - r[1])
    f = (r[0] - p[0], r[1] - p[1])
    den = d[0] * e[1] - d[1] * e[0]
    if den:
        t = Fraction(f[0] * e[1] - f[1] * e[0], den)
        u = Fraction(f[0] * d[1] - f[1] * d[0], den)
        return 0 <= t <= 1 and 0 <= u <= 1
    if f[0] * d[1] - f[1] * d[0]:
        return False  # parallel lines
    # one line: compare the parameters of r and s along pq
    dd = d[0] * d[0] + d[1] * d[1]
    ts = [Fraction(x[0] * d[0] + x[1] * d[1], dd)
          for x in (f, (s[0] - p[0], s[1] - p[1]))]
    return min(ts) <= 1 and max(ts) >= 0


def test_crossing_check_matches_pairwise_oracle():
    rnd = random.Random(43)
    seen = {True: 0, False: 0}
    for _ in range(400):
        pts = rnd.sample([(x, y) for x in range(-4, 5) for y in range(-4, 5)],
                         7)
        pairs = rnd.sample([(u, v) for u in range(7) for v in range(u + 1, 7)],
                           rnd.randint(3, 9))
        try:
            PlanarGraph([Vertex(i, x, y) for i, (x, y) in enumerate(pts)],
                        [Edge(i, u, v) for i, (u, v) in enumerate(pairs)])
            crossed = False
        except NonPlanarEmbedding as exc:
            crossed = "cross" in str(exc)
        except DegenerateGeometry:
            continue  # incident edges share a direction
        want = any(_segments_meet(pts[a], pts[b], pts[c], pts[d])
                   for i, (a, b) in enumerate(pairs)
                   for c, d in pairs[i + 1:] if not {a, b} & {c, d})
        assert crossed == want, (pts, pairs)
        seen[want] += 1
    assert min(seen.values()) >= 50, seen
