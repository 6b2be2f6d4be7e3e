"""Shared graph builders, generators and oracles for the test suite.

Coordinates are in generic position: no horizontal edges, no three
collinear vertices along a face boundary.  The functions below the
graph builders are used only by tests, so they live here and not in
the package.
"""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from spwebs import Edge, Loop, PlanarGraph, Vertex
from spwebs.errors import (DimensionMismatch, OutOfRange, SpwebsError,
                           UnknownVariable)
from spwebs.linalg import (all_pairings, clear_denominators, mat, minors,
                           perm_sign)
from spwebs.planar import _angular_class, _ccw, cross
from spwebs.rand import (_convex_vertices, _fan_diagonals, random_fraction,
                         random_sp)
from spwebs.rings import Poly
from spwebs.theorems import annulus_partition
from spwebs.webs import Multiweb


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


def shuffled_ids(g, rnd):
    """g with its vertex ids permuted at random; the positions and edge
    ids stay, so only the order of the ids changes."""
    ids = sorted(g.vertices)
    new = dict(zip(ids, rnd.sample(ids, len(ids))))
    return PlanarGraph(
        [Vertex(new[v.id], v.x, v.y) for v in g.vertices.values()],
        [Edge(e.id, new[e.u], new[e.v], e.weight) for e in g.edges.values()])


def shuffled_edge_ids(g, rnd):
    """g with its edge ids permuted at random."""
    ids = sorted(g.edges)
    new = dict(zip(ids, rnd.sample(ids, len(ids))))
    return PlanarGraph(
        list(g.vertices.values()),
        [Edge(new[e.id], e.u, e.v, e.weight) for e in g.edges.values()])


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


class IllConditioned(SpwebsError):
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


def extract_Ck(g, spec, eps_samples, alpha=0.0, beta=0.0):
    """Float oracle for the annulus C_k: the coefficients C_0..C_K, K =
    2 |cut|, of the annulus partition function in the monomial basis x^k,
    x = 2 + 4 cos(eps), fitted by least squares to annulus_partition at
    the samples.  A Vandermonde condition number past 1e8 raises
    IllConditioned rather than returning noise."""
    k_max = 2 * len(spec.cut)
    if len(eps_samples) < k_max + 1:
        raise DimensionMismatch(
            "need at least %d samples for K = %d" % (k_max + 1, k_max))
    xs = [2.0 + 4.0 * math.cos(e) for e in eps_samples]
    v = np.array([[x ** k for k in range(k_max + 1)] for x in xs], dtype=float)
    cond = np.linalg.cond(v)
    if cond > 1e8:
        raise IllConditioned("Vandermonde condition number %.3g" % cond)
    z = np.array([annulus_partition(g, spec, e, alpha=alpha, beta=beta)
                  for e in eps_samples], dtype=float)
    coeffs, _, _, _ = np.linalg.lstsq(v, z, rcond=None)
    return [float(c) for c in coeffs]


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


def reference_pf_float(rows):
    """Pfaffian of dense float rows by the dense skew elimination that
    linalg._pf_float restricts to the entries a later pivot reads: in
    natural order, the first largest |m[k][t]| as pivot, and every row
    and column updated at every step."""
    n = len(rows)
    m = [[float(x) for x in row] for row in rows]
    sign = 1.0
    result = 1.0
    for k in range(0, n, 2):
        j = max(range(k + 1, n), key=lambda t: abs(m[k][t]))
        if m[k][j] == 0.0:
            return 0.0
        if j != k + 1:
            m[j], m[k + 1] = m[k + 1], m[j]
            for row in m:
                row[j], row[k + 1] = row[k + 1], row[j]
            sign = -sign
        p = m[k][k + 1]
        for i in range(k + 2, n):
            c = m[k][i] / p
            if c:
                for t in range(n):
                    m[i][t] -= c * m[k + 1][t]
                for t in range(n):
                    m[t][i] -= c * m[t][k + 1]
        result *= p
    if not math.isfinite(result):
        raise OutOfRange("float Pfaffian %r: out of the double range" % result)
    return sign * result


def exterior_power_trace(a, k):
    """Trace of the k-th exterior power: sum of principal k-minors."""
    a = np.asarray(a, dtype=object)
    if k < 0 or k > a.shape[0]:
        raise BadK("exterior power out of range")
    rows, d = clear_denominators(a.tolist())
    total = sum(t.get(s, 0) for s, t in minors(rows, k).items())
    return total * Fraction(1, d ** k)


# -- the load paths that the integer ones replaced, kept as oracles ----------


def reference_rotation(g):
    """The ccw dart lists of g as the rotation was built before: each
    dart's vector from dart_vector, darts in id order, then a ccw sort."""
    out = {v: [] for v in g.vertices}
    for e in g.edges.values():
        out[e.u].append((e.id, 0))
        out[e.v].append((e.id, 1))
    for v, darts in out.items():
        keyed = [(_angular_class(g.dart_vector(d)), g.dart_vector(d), d)
                 for d in sorted(darts)]
        keyed.sort(key=functools.cmp_to_key(_ccw))
        out[v] = [k[2] for k in keyed]
    return out


def face_signed_area(g, idx):
    """Twice the signed area of face idx in the int coordinates ipos, so
    D² times twice the true area: positive for a ccw boundary."""
    pts = [g.ipos[v] for v in g.face_vertices(idx)]
    return sum(map(cross, pts, pts[1:] + pts[:1]))


def reference_faces(g):
    """(faces, face_of_dart, outer face) of g by the walk that the face
    tracing replaced: the dart before each one found with list.index in
    its tail's rotation, each face started at min(unused), rotated to
    start at its least dart and sorted, and every face area summed over
    the darts' tails and heads."""
    def rotation_prev(d):
        lst = g.rotation[g.dart_tail(d)]
        return lst[(lst.index(d) - 1) % len(lst)]

    unused = {d for lst in g.rotation.values() for d in lst}
    faces = []
    while unused:
        start = d = min(unused)
        cyc = []
        while True:
            cyc.append(d)
            unused.discard(d)
            d = rotation_prev(g.dart_reverse(d))
            if d == start:
                break
        i = cyc.index(min(cyc))
        faces.append(cyc[i:] + cyc[:i])
    faces.sort()
    areas = [sum(cross(g.ipos[g.dart_tail(d)], g.ipos[g.dart_head(d)])
                 for d in cyc) for cyc in faces]
    neg = [i for i, a in enumerate(areas) if a < 0]
    outer = 0 if len(faces) == 1 else neg[0] if len(neg) == 1 else None
    return faces, {d: i for i, cyc in enumerate(faces) for d in cyc}, outer


def reference_ipos(data):
    """PlanarGraph.ipos of a graph file, from a Fraction per coordinate."""
    pos = {v["id"]: (Fraction(v["x"]), Fraction(v["y"]))
           for v in data["vertices"]}
    scale = math.lcm(*[c.denominator for p in pos.values() for c in p])
    return {vid: (int(x * scale), int(y * scale))
            for vid, (x, y) in pos.items()}


def _fraction_scalar(x):
    """A connection file entry as the Fraction parse read it: a float as
    it is, a bare name as a Poly variable, anything else Fraction(x)."""
    if isinstance(x, float):
        return x
    try:
        return Fraction(x)
    except ValueError:
        return Poly.var(x.strip())


def reference_connection(data):
    """Edge id -> (matrix, cleared) of a connection file by the Fraction
    parse that the integer one replaced: an object array of one scalar
    per entry, cleared with clear_denominators (None unless exact)."""
    out = {}
    for entry in data["edges"]:
        m = mat([[_fraction_scalar(x) for x in row]
                 for row in entry["matrix"]])
        rows, d = clear_denominators(m)
        exact = all(type(x) is int for row in rows for x in row)
        out[entry["id"]] = m, (rows, d) if exact else None
    return out


# -- the searches and the print order that the package replaced, as oracles --


def reference_regular(g, target, cap):
    """All maps edge -> 0..cap with every vertex degree equal to target,
    by the search that took one cap for all edges and bounded each
    vertex's need by cap times its unassigned edges."""
    eids = sorted(g.edges)
    need = {v: target for v in g.vertices}
    remaining = {v: len(g.incident_edges(v)) for v in g.vertices}
    out = []
    mult = {}

    def rec(i):
        if i == len(eids):
            out.append(dict(mult))
            return
        e = g.edges[eids[i]]
        u, v = e.u, e.v
        lo = max(0, need[u] - cap * (remaining[u] - 1),
                 need[v] - cap * (remaining[v] - 1))
        hi = min(cap, need[u], need[v])
        remaining[u] -= 1
        remaining[v] -= 1
        for k in range(lo, hi + 1):
            need[u] -= k
            need[v] -= k
            mult[eids[i]] = k
            rec(i + 1)
            del mult[eids[i]]
            need[u] += k
            need[v] += k
        remaining[u] += 1
        remaining[v] += 1

    rec(0)
    return out


def reference_2web_splits(g, m):
    """The ordered splittings of multiweb m into m.n 2-multiwebs, by the
    search that gave each edge, in id order, every vector of part
    multiplicities 0..2 summing to m there."""
    n = m.n
    eids = sorted(g.edges)
    need = [{v: 2 for v in g.vertices} for _ in range(n)]
    vectors = {}
    for k in range(2 * n + 1):
        vectors[k] = [v for v in itertools.product(range(3), repeat=n)
                      if sum(v) == k]
    out = []
    parts = [{} for _ in range(n)]

    def rec(i):
        if i == len(eids):
            out.append(tuple(Multiweb(1, dict(p)) for p in parts))
            return
        e = g.edges[eids[i]]
        for vec in vectors[m[e.id]]:
            if any(vec[c] > need[c][e.u] or vec[c] > need[c][e.v]
                   for c in range(n)):
                continue
            for c in range(n):
                need[c][e.u] -= vec[c]
                need[c][e.v] -= vec[c]
                parts[c][e.id] = vec[c]
            rec(i + 1)
            for c in range(n):
                need[c][e.u] += vec[c]
                need[c][e.v] += vec[c]
                del parts[c][e.id]

    rec(0)
    return out


def reference_grlex(p):
    """The monomials of Poly p, highest first, in graded lexicographic
    order as a tuple key: total degree, then the exponents of the
    alphabetically sorted variables."""
    varlist = sorted(p.variables())

    def key(mono):
        exps = dict(mono)
        return (sum(exps.values()), tuple(exps.get(v, 0) for v in varlist))

    return sorted(p.terms, key=key, reverse=True)
