"""Seeded input generators and independent reference values.

Everything here is owned by the benchmark: graphs, connections, vectors
and matrices are built from a ``random.Random`` the caller seeds, without
``spwebs.rand``, so a refactor of the library's own generators cannot
change a workload.  Files are written in the documented JSON formats
(scalars as ``"p/q"`` strings).

The reference values used by the correctness checks are computed here
without the library: dimer partition functions by a row transfer matrix
(grids) or by matching enumeration (small graphs), symbolic partition
functions as polynomials in one variable per edge, and determinants by
fraction elimination.
"""

import json
from fractions import Fraction

LETTERS = "abcdefghijklmnopqrstuvwxyz"


def fmt(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else "%d/%d" % (
        x.numerator, x.denominator)


# -- graphs -------------------------------------------------------------


class Graph:
    """Vertices as id -> (x, y) and edges as (id, u, v, weight or None)."""

    def __init__(self, points, edges):
        self.points = points
        self.edges = edges

    def to_dict(self):
        verts = [{"id": v, "x": fmt(x), "y": fmt(y)}
                 for v, (x, y) in sorted(self.points.items())]
        edges = []
        for eid, u, v, w in self.edges:
            e = {"id": eid, "u": u, "v": v}
            if w is not None:
                e["weight"] = fmt(w)
            edges.append(e)
        return {"vertices": verts, "edges": edges}

    def weight(self, eid):
        w = self.edges[eid][3]
        return 1 if w is None else w


def grid(rows, cols, weighted=False):
    """rows x cols grid at (3i + j, 3j + i): no horizontal edges and no
    three collinear face corners.  Vertex (i, j) has id j*cols + i;
    horizontal edges come first, then vertical ones.  Weighted grids give
    every third edge weight 2 (a fixed pattern, so the cost of an op does
    not depend on the seed); otherwise edges carry no weight."""
    pts = {j * cols + i: (3 * i + j, 3 * j + i)
           for j in range(rows) for i in range(cols)}
    pairs = [(j * cols + i, j * cols + i + 1)
             for j in range(rows) for i in range(cols - 1)]
    pairs += [(j * cols + i, (j + 1) * cols + i)
              for j in range(rows - 1) for i in range(cols)]
    edges = []
    for eid, (u, v) in enumerate(pairs):
        w = (2 if eid % 3 == 0 else 1) if weighted else None
        edges.append((eid, u, v, w))
    return Graph(pts, edges)


def grid_face(rows, cols, i, j):
    """Vertex ids of the unit square with lower-left corner (i, j)."""
    return sorted([j * cols + i, j * cols + i + 1,
                   (j + 1) * cols + i, (j + 1) * cols + i + 1])


def convex_graph(rnd, nv, diagonals, weighted=False):
    """nv vertices on the convex curve y = x^2 + x/5 at x = 2i - nv (no
    two share a y, so no edge is horizontal), joined by the boundary cycle
    and `diagonals` chords of a random triangulation built by clipping
    random ears.  The positions are fixed because the size of the exact
    coordinates moves the cost of a small op by up to 25%.  Weighted
    graphs give every third edge weight 2, as grid() does."""
    xs = [2 * i - nv for i in range(nv)]
    pts = {i: (x, Fraction(x * x) + Fraction(x, 5)) for i, x in enumerate(xs)}
    pairs = [(i, (i + 1) % nv) for i in range(nv)]
    poly = list(range(nv))
    chords = []
    while len(poly) > 3:
        k = rnd.randrange(len(poly))
        a, b = poly[k - 1], poly[(k + 1) % len(poly)]
        chords.append((min(a, b), max(a, b)))
        del poly[k]
    pairs += rnd.sample(chords, diagonals)
    edges = [(eid, u, v, (2 if eid % 3 == 0 else 1) if weighted else None)
             for eid, (u, v) in enumerate(pairs)]
    return Graph(pts, edges)


# -- symplectic matrices ------------------------------------------------


def matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def ident(d):
    return [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]


def small_fraction(rnd):
    """A nonzero fraction with numerator in +-1, +-2 and denominator 1..3;
    zero entries would change the sparsity, and so the cost, of an op."""
    return Fraction(rnd.choice((-2, -1, 1, 2)), rnd.randint(1, 3))


def sp_word(rnd, n, words):
    """A product of `words` symmetric shears of size 2n for the form
    [[0, I], [-I, 0]], alternately upper [[I, S], [0, I]] and lower
    [[I, 0], [S, I]] from a random start; the two kinds generate
    Sp(2n)."""
    m = ident(2 * n)
    start = rnd.randrange(2)
    for w in range(words):
        e = ident(2 * n)
        r0, c0 = (0, n) if (start + w) % 2 == 0 else (n, 0)
        for i in range(n):
            for j in range(i, n):
                s = small_fraction(rnd)
                e[r0 + i][c0 + j] = s
                e[r0 + j][c0 + i] = s
        m = matmul(m, e)
    return m


def connection_dict(graph, n, rnd, words):
    return {"n": n, "edges": [
        {"id": eid, "matrix": [[fmt(x) for x in row]
                               for row in sp_word(rnd, n, words)]}
        for eid, _, _, _ in graph.edges]}


def write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# -- reference values ---------------------------------------------------


def grid_dimers(rows, cols, graph):
    """Weighted dimer partition function of a grid() graph by a row
    transfer matrix.  The state is the set of columns of the current row
    already covered by vertical dimers from the row below."""
    hw = {}
    vw = {}
    for eid, u, v, _ in graph.edges:
        if v == u + 1:
            hw[u] = graph.weight(eid)
        else:
            vw[u] = graph.weight(eid)
    states = {0: 1}
    for j in range(rows):
        nxt = {}
        for mask, z in states.items():
            stack = [(0, mask, 0, z)]
            while stack:
                i, cur, up, acc = stack.pop()
                if i == cols:
                    nxt[up] = nxt.get(up, 0) + acc
                    continue
                if cur >> i & 1:
                    stack.append((i + 1, cur, up, acc))
                    continue
                vid = j * cols + i
                if i + 1 < cols and not cur >> (i + 1) & 1:
                    stack.append((i + 2, cur, up, acc * hw[vid]))
                if j + 1 < rows:
                    stack.append((i + 1, cur, up | 1 << i, acc * vw[vid]))
        states = nxt
    return states.get(0, 0)


def regular_count(data, degree):
    """Number of maps edge -> 0..degree with every vertex degree equal to
    `degree`: the rank-(degree/2) multiwebs of a graph dict."""
    ids = {v["id"]: i for i, v in enumerate(data["vertices"])}
    pairs = [(ids[e["u"]], ids[e["v"]]) for e in data["edges"]]

    def rec(k, need):
        if k == len(pairs):
            return int(not any(need))
        a, b = pairs[k]
        total = 0
        for m in range(min(need[a], need[b]) + 1):
            need[a] -= m
            need[b] -= m
            total += rec(k + 1, need)
            need[a] += m
            need[b] += m
        return total

    return rec(0, [degree] * len(ids))


def matchings(nverts, edge_pairs):
    """All perfect matchings of a small graph, as lists of edge indices."""
    out = []

    def rec(free, chosen):
        if not free:
            out.append(list(chosen))
            return
        v = min(free)
        for k, (a, b) in enumerate(edge_pairs):
            if v in (a, b):
                w = b if a == v else a
                if w in free and w != v:
                    chosen.append(k)
                    rec(free - {v, w}, chosen)
                    chosen.pop()

    rec(frozenset(range(nverts)), [])
    return out


def dimer_count(data):
    """Weighted dimer partition function of a graph dict (file format)."""
    ids = {v["id"]: i for i, v in enumerate(data["vertices"])}
    pairs = [(ids[e["u"]], ids[e["v"]]) for e in data["edges"]]
    ws = [Fraction(e.get("weight", "1")) for e in data["edges"]]
    total = Fraction(0)
    for m in matchings(len(ids), pairs):
        t = Fraction(1)
        for k in m:
            t *= ws[k]
        total += t
    return total


def edge_variable(position):
    return LETTERS[position] if position < len(LETTERS) else "w%d" % position


def symbolic_dimers(data):
    """Z(w) with one variable per edge, named a, b, c, ... in edge id
    order, as {monomial: coefficient} with monomials sorted tuples of
    (variable, exponent)."""
    ids = {v["id"]: i for i, v in enumerate(data["vertices"])}
    by_id = sorted(data["edges"], key=lambda e: e["id"])
    pairs = [(ids[e["u"]], ids[e["v"]]) for e in by_id]
    poly = {}
    for m in matchings(len(ids), pairs):
        mono = tuple(sorted((edge_variable(k), 1) for k in m))
        poly[mono] = poly.get(mono, 0) + 1
    return poly


def poly_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            d = dict(m1)
            for v, e in m2:
                d[v] = d.get(v, 0) + e
            m = tuple(sorted(d.items()))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def poly_pow(p, k):
    out = {(): 1}
    for _ in range(k):
        out = poly_mul(out, p)
    return out


def det(rows):
    """Determinant of a square matrix of Fractions by elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    sign = 1
    result = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        result *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    return sign * result
