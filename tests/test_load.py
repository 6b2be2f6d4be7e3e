"""The integer load paths against the paths they replaced, kept as oracles
in helpers.py: graph files on tests/data, seeded random planar graphs and
weighted grids with rational coordinates; connection files of gauged
Kasteleyn and random Sp(2n) matrices at ranks 1 and 2, with int,
Fraction, JSON-number, float and symbolic entries."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import (grid, random_gauges, random_triangulation,
                     reference_connection, reference_faces, reference_ipos,
                     reference_rotation)
from spwebs import cli
from spwebs import theorems as th
from spwebs.connections import (Connection, connection_from_dict,
                                connection_to_dict, gauge_transform,
                                kasteleyn_connection, load_connection)
from spwebs.errors import SpwebsError
from spwebs.planar import graph_from_dict, graph_to_dict, save_graph
from spwebs.rand import random_connection, random_fraction, random_planar_graph
from spwebs.rings import format_scalar

DATA = Path(__file__).parent / "data"


def _spell(x, rnd):
    """One of the ways a file can write the rational x: its canonical
    string, an unreduced or padded string, a JSON int or float when that
    is exact, or the Fraction itself."""
    x = Fraction(x)
    k = rnd.randint(2, 5)
    forms = [format_scalar(x), "%d/%d" % (k * x.numerator, k * x.denominator),
             " %+d/%d " % (x.numerator, x.denominator), x]
    if x.denominator == 1:
        forms.append(x.numerator)
    if x.denominator in (1, 2, 4, 8):
        forms.append(float(x))
    return rnd.choice(forms)


def _rational_grid(rows, cols, rnd):
    """The file of a weighted grid with rational coordinates: helpers.grid
    under a seeded positive scale and a shift of each axis, which keep
    every rotation and face."""
    data = graph_to_dict(grid(rows, cols))
    scale = [Fraction(rnd.randint(1, 9), rnd.randint(2, 9)) for _ in "xy"]
    shift = [random_fraction(rnd, 5, 7) for _ in "xy"]
    for v in data["vertices"]:
        for i, key in enumerate("xy"):
            v[key] = _spell(Fraction(v[key]) * scale[i] + shift[i], rnd)
    for e in data["edges"]:
        e["weight"] = _spell(random_fraction(rnd, 4, 5), rnd)
    return data


def _file(points, pairs):
    """The file of the graph with vertex i at points[i] and edge i joining
    the vertices pairs[i]."""
    return {"vertices": [{"id": i, "x": str(x), "y": str(y)}
                         for i, (x, y) in enumerate(points)],
            "edges": [{"id": i, "u": u, "v": v}
                      for i, (u, v) in enumerate(pairs)]}


# a house with a middle wall 0-5 whose floor 1-0-2 holds the three lowest vertices, with a
# triangle 1-4-6 up and to the left of vertex 1; a triangle with isolated
# vertices below and left of it; a tree; and a graph with no edges
HOUSE = _file([(4, 0), (0, 0), (8, 0), (8, 5), (0, 5), (4, 9), (-3, 7)],
              [(1, 0), (0, 2), (2, 3), (3, 5), (5, 4), (4, 1), (0, 5),
               (1, 6), (4, 6)])
ISOLATED = _file([(0, 0), (6, 1), (2, 5), (3, -4), (-5, 0)],
                 [(0, 1), (1, 2), (2, 0)])
TREE = _file([(3, 0), (0, 0), (5, 2), (1, 4), (7, 0)],
             [(1, 0), (0, 2), (2, 3), (2, 4)])
NO_EDGES = _file([(0, 0), (2, -1), (-1, 3)], [])


def _mirrored(data):
    """The file of the graph reflected in the x axis."""
    out = json.loads(json.dumps(data))
    for v in out["vertices"]:
        v["y"] = format_scalar(-Fraction(v["y"]))
    return out


def _graph_files():
    rnd = random.Random(2201)
    files = [json.loads(p.read_text()) for p in sorted(DATA.glob("*.json"))
             if p.stem not in ("golden_stdout", "golden_web")]
    files += [graph_to_dict(random_planar_graph(random.Random(seed), nv))
              for seed in range(12) for nv in (3, 5, 8)]
    files += [_rational_grid(r, c, rnd) for r in (4, 5, 6)
              for c in range(r, 7)]
    # outer faces found at the lowest vertex, on parabolas opening up and
    # down, and on graphs that share or lack the lowest vertex's y
    more = [graph_to_dict(make(random.Random(seed), nv))
            for make in (random_planar_graph, random_triangulation)
            for seed in range(100, 125) for nv in (4, 7)]
    files += more + [_mirrored(data) for data in more]
    files += [HOUSE, ISOLATED, TREE, NO_EDGES, _mirrored(HOUSE)]
    return files


def test_graph_load_matches_the_walk_it_replaced():
    files = _graph_files()
    assert any(isinstance(v["x"], (float, Fraction)) for data in files
               for v in data["vertices"])
    for data in files:
        g = graph_from_dict(data)
        faces, face_of_dart, outer = reference_faces(g)
        assert g.rotation == reference_rotation(g)
        assert g.faces == faces and g.face_of_dart == face_of_dart
        assert g.outer_face == outer
        assert g.ipos == reference_ipos(data)
        for e in data["edges"]:
            if "weight" in e:
                w, want = g.edges[e["id"]].weight, e["weight"]
                if not isinstance(want, float):
                    want = Fraction(want)
                assert type(w) is type(want) and w == want


def test_outer_face_is_found_at_the_lowest_vertex_with_an_edge():
    house, isolated, tree, no_edges = map(graph_from_dict, (HOUSE, ISOLATED,
                                                           TREE, NO_EDGES))
    # the floor 1-0-2 runs along the outer face, below the house
    assert {(1, 1), (0, 1)} <= set(house.faces[house.outer_face])
    assert len(house.bounded_faces()) == 3
    assert isolated.faces[isolated.outer_face] == [(0, 1), (2, 1), (1, 1)]
    assert tree.outer_face == 0 and len(tree.faces) == 1
    assert no_edges.outer_face is None and no_edges.faces == []


@pytest.mark.parametrize("name, message", [
    ("coinciding_vertices", "vertices 0 and 2 coincide"),
    # edges 1 and 2 share a direction at vertex 1, edges 5 and 7 and then
    # 8 and 9 at vertex 0: the first vertex in file order names its first
    # pair ccw from due west
    ("shared_directions", "incident edges 8 and 9 share a direction"),
    # the crossing with the leftmost left end is named
    ("crossing_edges", "edges 7 and 8 cross"),
])
def test_graph_load_rejections_name_the_same_pair(name, message, capsys):
    path = DATA / "malformed" / (name + ".json")
    with pytest.raises(SpwebsError) as exc:
        graph_from_dict(json.loads(path.read_text()))
    assert str(exc.value) == message
    assert cli.main(["dimers", "--graph", str(path)]) == 2
    assert capsys.readouterr().err == "error: %s\n" % message


def _inexact(n):
    """Symplectic [[I, S], [0, I]] of rank n with S symmetric: one with
    float and Fraction entries, and one with symbols."""
    s = ([[2.5]], [["a"]]) if n == 1 else \
        ([[0.5, "1/4"], [0.25, 2.0]], [["a", "b"], ["b", "0"]])
    out = []
    for sym in s:
        top = [[1 if i == j else 0 for j in range(n)] + list(sym[i])
               for i in range(n)]
        bot = [[0] * n + [1 if i == j else 0 for j in range(n)]
               for i in range(n)]
        out.append(top + bot)
    return out


def _connection_files(g, n, rnd):
    gauged = gauge_transform(g, kasteleyn_connection(g, n),
                             random_gauges(g, rnd, n))
    docs = [connection_to_dict(g, c)
            for c in (gauged, random_connection(g, rnd, n))]
    for doc in docs:
        for entry in doc["edges"]:
            entry["matrix"] = [[_spell(x, rnd) for x in row]
                               for row in entry["matrix"]]
    # one float and one symbolic matrix in the second file
    for entry, m in zip(docs[1]["edges"], _inexact(n)):
        entry["matrix"] = m
    return docs


@pytest.mark.parametrize("n", [1, 2])
def test_connection_load_matches_the_fraction_parse(n):
    rnd = random.Random(2202 + n)
    graphs = [graph_from_dict(json.loads((DATA / name).read_text()))
              for name in ("c4.json", "2by3.json", "cube.json")]
    graphs.append(graph_from_dict(_rational_grid(4, 4, rnd)))
    kinds = set()
    for g in graphs:
        for doc in _connection_files(g, n, rnd):
            conn = connection_from_dict(g, doc)
            ref = reference_connection(doc)
            for eid in g.edges:
                m, cleared = ref[eid]
                assert conn.cleared[eid] == cleared
                got = conn.matrices[eid]
                assert [[(type(x), x) for x in r] for r in got] == \
                    [[(type(x), x) for x in r] for r in m]
                kinds |= {type(x).__name__ for r in m for x in r}
            kinds |= {type(x).__name__ for entry in doc["edges"]
                      for row in entry["matrix"] for x in row}
    assert kinds >= {"int", "str", "float", "Fraction", "Poly"}


def test_loaded_connection_builds_no_fraction_matrix(tmp_path, monkeypatch):
    # H and the trace bonds read Connection.cleared, so a rational file is
    # never turned into Fraction matrices on the way to the identity
    rnd = random.Random(2204)
    data = _rational_grid(2, 2, rnd)
    g = graph_from_dict(data)
    gp, cp = str(tmp_path / "g.json"), str(tmp_path / "c.json")
    save_graph(g, gp)
    for n in (1, 2):
        doc = connection_to_dict(g, gauge_transform(
            g, kasteleyn_connection(g, n), random_gauges(g, rnd, n)))
        with open(cp, "w") as fh:
            json.dump(doc, fh)
        conn = load_connection(g, cp)
        assert th.HMatrix(g, conn).pfaffian() != 0
        assert th.sum_traces(g, conn) != 0
        assert "matrices" not in vars(conn)
        ref = reference_connection(doc)
        assert all(conn.matrices[eid] == ref[eid][0] for eid in g.edges)
        built = []
        lazy = Connection.matrices

        def spy(self):
            built.append(self)
            return lazy.func(self)

        monkeypatch.setattr(Connection, "matrices", property(spy))
        code = cli.main(["verify-main", "--graph", gp, "--conn", cp,
                         "--n", str(n)])
        monkeypatch.undo()
        assert code == 0 and built == []
