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

from helpers import (grid, random_gauges, reference_connection,
                     reference_faces, reference_ipos, reference_rotation)
from spwebs import cli
from spwebs import theorems as th
from spwebs.connections import (Connection, connection_from_dict,
                                connection_to_dict, gauge_transform,
                                kasteleyn_connection, load_connection)
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


def _graph_files():
    rnd = random.Random(2201)
    files = [json.loads(p.read_text()) for p in sorted(DATA.glob("*.json"))
             if p.stem not in ("golden_stdout", "golden_web")]
    files += [graph_to_dict(random_planar_graph(random.Random(seed), nv))
              for seed in range(12) for nv in (3, 5, 8)]
    files += [_rational_grid(r, c, rnd) for r in (4, 5, 6)
              for c in range(r, 7)]
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
