"""Shared graph builders, generators and oracles for the test suite.

Coordinates are in generic position: no horizontal edges, no three
collinear vertices along a face boundary.  The functions below the
graph builders are used only by tests, so they live here and not in
the package.
"""

from fractions import Fraction

import numpy as np

from spwebs import Edge, Loop, PlanarGraph, Vertex
from spwebs.errors import SpwebsError, UnknownVariable
from spwebs.linalg import (all_pairings, clear_denominators, mat, minors,
                           perm_sign)
from spwebs.rand import (_convex_vertices, _fan_diagonals, random_fraction,
                         random_sp)
from spwebs.rings import Poly


def k4_2by3():
    return PlanarGraph(
        [Vertex(0, 0, 0), Vertex(1, 4, 1), Vertex(2, 2, 5), Vertex(3, 2, 2)],
        [Edge(0, 0, 1), Edge(1, 1, 2), Edge(2, 0, 2),
         Edge(3, 2, 3), Edge(4, 0, 3), Edge(5, 1, 3)])


def c4_ring():
    return PlanarGraph(
        [Vertex(0, 0, 0), Vertex(1, 10, 1), Vertex(2, 9, 11),
         Vertex(3, -1, 10)],
        [Edge(0, 0, 1), Edge(1, 1, 2), Edge(2, 2, 3), Edge(3, 3, 0)])


def cube_ring():
    return PlanarGraph(
        [Vertex(0, 0, 0), Vertex(1, 10, 1), Vertex(2, 9, 11),
         Vertex(3, -1, 10), Vertex(4, 3, 3), Vertex(5, 7, Fraction(7, 2)),
         Vertex(6, Fraction(13, 2), 8),
         Vertex(7, Fraction(5, 2), Fraction(15, 2))],
        [Edge(0, 0, 1), Edge(1, 1, 2), Edge(2, 2, 3), Edge(3, 3, 0),
         Edge(4, 4, 5), Edge(5, 5, 6), Edge(6, 6, 7), Edge(7, 7, 4),
         Edge(8, 0, 4), Edge(9, 1, 5), Edge(10, 2, 6), Edge(11, 3, 7)])


def pendant_square():
    return PlanarGraph(
        [Vertex(0, 0, 0), Vertex(1, 10, 1), Vertex(2, 9, 11),
         Vertex(3, -1, 10), Vertex(4, -3, -2), Vertex(5, 14, -1),
         Vertex(6, 13, 14), Vertex(7, -4, 13)],
        [Edge(0, 0, 1), Edge(1, 1, 2), Edge(2, 2, 3), Edge(3, 3, 0),
         Edge(4, 0, 4), Edge(5, 1, 5), Edge(6, 2, 6), Edge(7, 3, 7)])


def grid(rows, cols):
    vs = [Vertex(j * cols + i, 3 * i + j, 3 * j + i)
          for j in range(rows) for i in range(cols)]
    es, eid = [], 0
    for j in range(rows):
        for i in range(cols - 1):
            es.append(Edge(eid, j * cols + i, j * cols + i + 1))
            eid += 1
    for j in range(rows - 1):
        for i in range(cols):
            es.append(Edge(eid, j * cols + i, (j + 1) * cols + i))
            eid += 1
    return PlanarGraph(vs, es)


def cycle_graph(points):
    n = len(points)
    return PlanarGraph(
        [Vertex(i, x, y) for i, (x, y) in enumerate(points)],
        [Edge(i, i, (i + 1) % n) for i in range(n)])


def triangle():
    return cycle_graph([(0, 0), (7, 2), (3, 9)])


def inner_face(g, vids):
    for f in g.bounded_faces():
        if sorted(g.face_vertices(f)) == sorted(vids):
            return f
    raise LookupError(vids)


def simple_loops(g):
    adj = {}
    for e in g.edges.values():
        adj.setdefault(e.u, []).append((e.v, e.id))
        adj.setdefault(e.v, []).append((e.u, e.id))
    found = []

    def extend(path, eids):
        start, cur = path[0], path[-1]
        for nxt, eid in sorted(adj[cur]):
            if nxt == start and len(path) >= 3:
                if path[1] < path[-1]:
                    found.append((path[:], eids + [eid]))
            elif nxt > start and nxt not in path:
                extend(path + [nxt], eids + [eid])

    for v in sorted(g.vertices):
        extend([v], [])
    loops = []
    for vs, eids in found:
        darts = []
        for i, eid in enumerate(eids):
            e = g.edges[eid]
            darts.append((eid, 0) if e.u == vs[i] else (eid, 1))
        loops.append(Loop(g, darts))
    return loops


class NotOnCircle(SpwebsError):
    pass


class TooLarge(SpwebsError):
    pass


class BadK(SpwebsError):
    pass


def rotated(loop, g, k):
    """The loop started k darts later."""
    return Loop(g, loop.darts[k:] + loop.darts[:k])


def random_triangulation(rnd, nv):
    verts = _convex_vertices(rnd, nv)
    pairs = [(i, (i + 1) % nv) for i in range(nv)]
    diags = []
    _fan_diagonals(rnd, 0, nv - 1, diags)
    pairs += diags
    return PlanarGraph(verts, [Edge(i, u, v) for i, (u, v) in enumerate(pairs)])


def random_gauges(g, rnd, n=1):
    return {vid: random_sp(rnd, n) for vid in g.vertices}


def random_vector(rnd, n):
    return np.array([random_fraction(rnd, 3, 4) for _ in range(2 * n)],
                    dtype=object)


def random_skew(rnd, dim):
    a = np.full((dim, dim), Fraction(0), dtype=object)
    for i in range(dim):
        for j in range(i + 1, dim):
            x = random_fraction(rnd, 3, 3)
            a[i, j] = x
            a[j, i] = -x
    return a


def substitute(p, values):
    """Evaluate a Poly with values for every variable (Fraction or float)."""
    total = None
    for m, c in p.terms.items():
        term = c
        for v, e in m:
            if v not in values:
                raise UnknownVariable("no value for %r" % v)
            term = term * values[v] ** e
        total = term if total is None else total + term
    if total is None:
        return Fraction(0)
    return total


def is_exact(x):
    return isinstance(x, (int, Fraction, Poly))


def rotation_matrix(c, s):
    """2x2 rotation [[c, s], [-s, c]] for an exact point on the circle."""
    if isinstance(c, float) or isinstance(s, float):
        if abs(c * c + s * s - 1.0) > 1e-12:
            raise NotOnCircle("c^2 + s^2 != 1")
    elif Fraction(c) ** 2 + Fraction(s) ** 2 != 1:
        raise NotOnCircle("c^2 + s^2 != 1")
    return mat([[c, s], [-s, c]])


def pf_combinatorial(a):
    """Pfaffian as the signed sum over perfect pairings; dim <= 8."""
    a = np.asarray(a, dtype=object)
    n = a.shape[0]
    if n > 8:
        raise TooLarge("combinatorial Pfaffian limited to dimension 8")
    if n % 2:
        return Fraction(0)
    if n == 0:
        return Fraction(1)
    total = None
    for pairing in all_pairings(list(range(n))):
        word = [x for pair in pairing for x in pair]
        term = perm_sign(word)
        for i, j in pairing:
            term = term * a[i, j]
        total = term if total is None else total + term
    return total


def exterior_power_trace(a, k):
    """Trace of the k-th exterior power: sum of principal k-minors."""
    a = np.asarray(a, dtype=object)
    if k < 0 or k > a.shape[0]:
        raise BadK("exterior power out of range")
    rows, d = clear_denominators(a.tolist())
    total = sum(t.get(s, 0) for s, t in minors(rows, k).items())
    return total * Fraction(1, d ** k)
