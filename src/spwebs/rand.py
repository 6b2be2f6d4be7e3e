"""Seeded generators for the randomized verification suites.

Graphs are produced in generic position: vertices sit on the strictly
convex curve y = x^2 + x/7 at distinct integer x, so no two vertices
share a y coordinate and no dart points due west.
"""

import math
from fractions import Fraction

from .connections import Connection
from .errors import DegenerateGeometry
from .linalg import eye, matmul
from .planar import Edge, PlanarGraph, Vertex


def _convex_vertices(rnd, nv):
    xs = sorted(rnd.sample(range(-3 * nv, 3 * nv + 1), nv))
    return [Vertex(i, x, Fraction(x) ** 2 + Fraction(x, 7))
            for i, x in enumerate(xs)]


def _fan_diagonals(rnd, lo, hi, out):
    """Random triangulation of the convex arc lo..hi closed by chord lo-hi."""
    if hi - lo < 2:
        return
    k = rnd.randint(lo + 1, hi - 1)
    if k - lo > 1:
        out.append((lo, k))
    if hi - k > 1:
        out.append((k, hi))
    _fan_diagonals(rnd, lo, k, out)
    _fan_diagonals(rnd, k, hi, out)


def random_planar_graph(rnd, nv):
    """Convex polygon plus random triangulation diagonals, each kept at 0.6."""
    verts = _convex_vertices(rnd, nv)
    pairs = [(i, (i + 1) % nv) for i in range(nv)]
    diags = []
    _fan_diagonals(rnd, 0, nv - 1, diags)
    pairs += [d for d in diags if rnd.random() < 0.6]
    return PlanarGraph(verts, [Edge(i, u, v) for i, (u, v) in enumerate(pairs)])


def random_fraction(rnd, num=2, den=3):
    return Fraction(rnd.randint(-num, num), rnd.randint(1, den))


def random_sp2(rnd, words=4):
    m = eye(2)
    for _ in range(words):
        a = random_fraction(rnd)
        if rnd.random() < 0.5:
            m = matmul(m, [[1, a], [0, 1]])
        else:
            m = matmul(m, [[1, 0], [a, 1]])
    return m


def random_sp4(rnd, words=3):
    m = eye(4)
    for _ in range(words):
        kind = rnd.randrange(3)
        if kind < 2:
            p, q, r = (random_fraction(rnd) for _ in range(3))
            # [[I, S], [0, I]] or [[I, 0], [S, I]], S = [[p, q], [q, r]]
            blk, i, j = eye(4), 2 * kind, 2 - 2 * kind
            blk[i][j:j + 2], blk[i + 1][j:j + 2] = [p, q], [q, r]
        else:
            (a, b), (c, d) = random_sp2(rnd, 2)
            blk = [[a, b, 0, 0], [c, d, 0, 0], [0, 0, d, -c], [0, 0, -b, a]]
        m = matmul(m, blk)
    return m


def random_sp(rnd, n):
    """A product of 4 random symplectic generators of rank n."""
    if n == 1:
        return random_sp2(rnd, 4)
    if n == 2:
        return random_sp4(rnd, 4)
    raise ValueError("no generator for rank %d" % n)


def random_connection(g, rnd, n=1):
    return Connection(g, n, {eid: random_sp(rnd, n) for eid in g.edges})


def random_polygon(rnd):
    """Simple lattice polygon with no horizontal steps, as int points:
    8 random points of [-9, 9]^2 sorted by angle around their centroid,
    one point per direction."""
    for _ in range(500):
        pts = {(rnd.randint(-9, 9), rnd.randint(-9, 9)) for _ in range(8)}
        if len(pts) < 3:
            continue
        cx = sum(p[0] for p in pts) / len(pts)
        cy = sum(p[1] for p in pts) / len(pts)
        by_angle = {}
        for p in sorted(pts):
            by_angle.setdefault(math.atan2(p[1] - cy, p[0] - cx), p)
        poly = [by_angle[a] for a in sorted(by_angle)]
        if len(poly) < 3:
            continue
        if any(poly[i][1] == poly[(i + 1) % len(poly)][1]
               for i in range(len(poly))):
            continue
        return poly
    raise DegenerateGeometry("could not sample a polygon")
