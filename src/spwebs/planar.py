"""Planar graphs with exact rational embeddings.

A graph is stored as a combinatorial map: each edge has two darts
(edge id, end) and every vertex carries a ccw cyclic list of outgoing
darts, derived from the vertex positions by exact angular sort.  Faces
are the orbits of the left-hand tracing rule, checked against Euler's
formula.  Straight edges may meet only at a shared endpoint.

Vertex coordinates are rational, but every geometric predicate (angular
order, orientation, area signs, point in polygon) runs on Python ints:
the graph multiplies all coordinates once by the lcm D of their
denominators (PlanarGraph.ipos), and a positive scale changes none of
these predicates.  Points off the vertex lattice, such as face sample
points, are int triples (x, y, w) standing for (x/w, y/w) in those
coordinates, with w > 0.  No floating point enters any decision.
"""

import functools
import json
import math
from fractions import Fraction

from .errors import (
    DegenerateGeometry,
    HorizontalStep,
    NonGenericPosition,
    NonPlanarEmbedding,
    NotSimpleLoop,
    json_field,
)
from .rings import format_scalar, parse_scalar


class Vertex:
    __slots__ = ("id", "x", "y")

    def __init__(self, vid, x, y):
        self.id = vid
        self.x = x if isinstance(x, Fraction) else Fraction(x)
        self.y = y if isinstance(y, Fraction) else Fraction(y)

    def __repr__(self):
        return "Vertex(%d, %s, %s)" % (self.id, self.x, self.y)


class Edge:
    __slots__ = ("id", "u", "v", "weight")

    def __init__(self, eid, u, v, weight=None):
        self.id = eid
        self.u = u
        self.v = v
        self.weight = weight

    def __repr__(self):
        return "Edge(%d, %d-%d)" % (self.id, self.u, self.v)


def cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def dot(a, b):
    return a[0] * b[0] + a[1] * b[1]


def orient(a, b, c):
    """Twice the signed area of triangle abc: > 0 when c lies left of the
    line from a to b, 0 when the three points are collinear."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _angular_class(d):
    """Cyclic class ccw from due west: west, south side, east, north side."""
    dx, dy = d
    if dy < 0:
        return 1
    if dy > 0:
        return 3
    return 0 if dx < 0 else 2


def _ccw(a, b):
    """Compares (angular class, vector, ...) tuples ccw from due west.
    Each class lies in an open half-plane or on one ray, so within a
    class the cross product decides, and 0 means the same direction."""
    return a[0] - b[0] or cross(b[1], a[1])


class PlanarGraph:
    def __init__(self, vertices, edges):
        self.vertices = {v.id: v for v in vertices}
        self.edges = {e.id: e for e in edges}
        if len(self.vertices) != len(vertices) or len(self.edges) != len(edges):
            raise DegenerateGeometry("duplicate vertex or edge id")
        for e in edges:
            if e.u == e.v:
                raise DegenerateGeometry("self-loop on vertex %d" % e.u)
            if e.u not in self.vertices or e.v not in self.vertices:
                raise DegenerateGeometry("edge %d references unknown vertex" % e.id)
        # every predicate runs on these ints: the coordinates times D, the
        # lcm of their denominators
        self.scale = math.lcm(*[c.denominator for v in vertices
                                for c in (v.x, v.y)])
        self.ipos = {v.id: (v.x.numerator * (self.scale // v.x.denominator),
                            v.y.numerator * (self.scale // v.y.denominator))
                     for v in vertices}
        self.rotation = self._rotation_from_positions()
        self._check_crossings()
        self.faces = self._trace_faces()
        self._check_euler()
        self.face_of_dart = {}
        for idx, cyc in enumerate(self.faces):
            for d in cyc:
                self.face_of_dart[d] = idx
        self._outer = self._find_outer_face()

    # -- construction helpers -------------------------------------------

    def dart_tail(self, d):
        e = self.edges[d[0]]
        return e.u if d[1] == 0 else e.v

    def dart_head(self, d):
        e = self.edges[d[0]]
        return e.v if d[1] == 0 else e.u

    def dart_reverse(self, d):
        return (d[0], 1 - d[1])

    def dart_vector(self, d):
        """Head minus tail, in the int coordinates ipos."""
        tx, ty = self.ipos[self.dart_tail(d)]
        hx, hy = self.ipos[self.dart_head(d)]
        return (hx - tx, hy - ty)

    def _rotation_from_positions(self):
        pts = {}
        for vid, p in self.ipos.items():
            if p in pts:
                raise DegenerateGeometry(
                    "vertices %d and %d coincide" % (pts[p], vid))
            pts[p] = vid
        out = {v: [] for v in self.vertices}
        for e in self.edges.values():
            out[e.u].append((e.id, 0))
            out[e.v].append((e.id, 1))
        for v, darts in out.items():
            # darts in id order, so the sort is deterministic and a shared
            # direction names the lower edge id first
            keyed = []
            for d in sorted(darts):
                vec = self.dart_vector(d)
                keyed.append((_angular_class(vec), vec, d))
            keyed.sort(key=functools.cmp_to_key(_ccw))
            for k1, k2 in zip(keyed, keyed[1:]):
                if not _ccw(k1, k2):
                    raise DegenerateGeometry(
                        "incident edges %d and %d share a direction"
                        % (k1[2][0], k2[2][0]))
            out[v] = [k[2] for k in keyed]
        return out

    def _check_crossings(self):
        """Straight edges may meet only at a shared endpoint.  Segments are
        taken by their left end; each is tested against the later ones
        whose x-extent reaches it and whose y-extent overlaps its own.
        Edges with a shared endpoint are skipped: they can meet again only
        along a shared direction, which the rotation already rejects."""
        segs = []
        for e in self.edges.values():
            a, b = sorted((self.ipos[e.u], self.ipos[e.v]))
            segs.append((a, b, min(a[1], b[1]), max(a[1], b[1]), e))
        segs.sort(key=lambda s: s[0])
        for i, (a, b, lo, hi, e) in enumerate(segs):
            for c, d, lo2, hi2, f in segs[i + 1:]:
                if c[0] > b[0]:
                    break
                if lo2 > hi or hi2 < lo or e.u in (f.u, f.v) or \
                        e.v in (f.u, f.v):
                    continue
                o1, o2 = orient(a, b, c), orient(a, b, d)
                if o1 * o2 > 0:
                    continue
                o3, o4 = orient(c, d, a), orient(c, d, b)
                if o3 * o4 > 0:
                    continue
                # collinear segments (all four zero) get here only when
                # their extents overlap
                raise NonPlanarEmbedding("edges %d and %d cross"
                                         % tuple(sorted((e.id, f.id))))

    def rotation_prev(self, d):
        """Next dart cw around the tail of d."""
        lst = self.rotation[self.dart_tail(d)]
        i = lst.index(d)
        return lst[(i - 1) % len(lst)]

    def _trace_faces(self):
        unused = set()
        for lst in self.rotation.values():
            unused.update(lst)
        faces = []
        while unused:
            start = min(unused)
            cyc = []
            d = start
            while True:
                cyc.append(d)
                unused.discard(d)
                # the face keeps its interior on the left: continue with the
                # dart one notch clockwise from the reversal
                d = self.rotation_prev(self.dart_reverse(d))
                if d == start:
                    break
            faces.append(cyc)
        # canonical order: rotate each cycle to start at its minimal dart
        canon = []
        for cyc in faces:
            i = cyc.index(min(cyc))
            canon.append(cyc[i:] + cyc[:i])
        canon.sort()
        return canon

    def _check_euler(self):
        """Each connected component must be a sphere embedding on its own;
        a graph file may hold several components."""
        root = {v: v for v in self.vertices}

        def find(a):
            while root[a] != a:
                root[a] = root[root[a]]
                a = root[a]
            return a

        for e in self.edges.values():
            root[find(e.u)] = find(e.v)
        nv = {}
        ne = {}
        nf = {}
        for v in self.vertices:
            nv[find(v)] = nv.get(find(v), 0) + 1
        for e in self.edges.values():
            ne[find(e.u)] = ne.get(find(e.u), 0) + 1
        for cyc in self.faces:
            c = find(self.dart_tail(cyc[0]))
            nf[c] = nf.get(c, 0) + 1
        for c, k in ne.items():
            if nv[c] - k + nf[c] != 2:
                raise NonPlanarEmbedding(
                    "Euler check failed on a component: V-E+F = %d-%d+%d != 2"
                    % (nv[c], k, nf[c]))

    def face_signed_area(self, idx):
        """Twice the signed area of face idx in the int coordinates ipos,
        so D² times twice the true area: positive for a ccw boundary."""
        total = 0
        for d in self.faces[idx]:
            total += cross(self.ipos[self.dart_tail(d)],
                           self.ipos[self.dart_head(d)])
        return total

    def _find_outer_face(self):
        if len(self.faces) == 1:
            return 0
        areas = [self.face_signed_area(i) for i in range(len(self.faces))]
        neg = [i for i, a in enumerate(areas) if a < 0]
        if len(neg) != 1:
            return None
        return neg[0]

    @property
    def outer_face(self):
        if self._outer is None:
            raise NonPlanarEmbedding("outer face is not known for this graph")
        return self._outer

    def bounded_faces(self):
        return [i for i in range(len(self.faces)) if i != self.outer_face]

    def face_length(self, idx):
        return len(self.faces[idx])

    def face_vertices(self, idx):
        return [self.dart_tail(d) for d in self.faces[idx]]

    def dual_tree(self, root):
        """Breadth-first spanning tree of the dual graph from face root,
        taking neighbours in (face, edge id) order; dual self-loops
        (bridges) are skipped.  Returns (parent, order): parent maps each
        reached face to (previous face, crossed edge id), None at the root,
        and order lists the faces as they were reached."""
        adj = {}
        for eid in self.edges:
            a, b = self.face_of_dart[(eid, 0)], self.face_of_dart[(eid, 1)]
            if a != b:
                adj.setdefault(a, []).append((b, eid))
                adj.setdefault(b, []).append((a, eid))
        parent = {root: None}
        order = [root]
        for cur in order:
            for nxt, eid in sorted(adj.get(cur, ())):
                if nxt not in parent:
                    parent[nxt] = (cur, eid)
                    order.append(nxt)
        return parent, order

    def dual_path(self, f1, f2):
        """Primal edges crossed by a shortest dual path from face f1 to f2."""
        if f1 == f2:
            return []
        prev = self.dual_tree(f1)[0]
        if f2 not in prev:
            raise NonPlanarEmbedding("dual graph is disconnected")
        path = []
        cur = f2
        while prev[cur] is not None:
            cur, eid = prev[cur]
            path.append(eid)
        return path[::-1]

    def incident_edges(self, vid):
        return [d[0] for d in self.rotation[vid]]

    def bounding_box(self):
        """(min x, min y, max x, max y) of the int coordinates ipos."""
        xs = [p[0] for p in self.ipos.values()]
        ys = [p[1] for p in self.ipos.values()]
        return min(xs), min(ys), max(xs), max(ys)

    def outside_point(self):
        """The point (7/3, 11/5) below and left of the bounding box, in
        graph units, as an (x, y, w) triple."""
        x0, y0, _, _ = self.bounding_box()
        return (15 * x0 - 35 * self.scale, 15 * y0 - 33 * self.scale, 15)

    def face_interior_point(self, idx):
        """A point strictly inside face idx, as an (x, y, w) triple."""
        if idx == self.outer_face:
            return self.outside_point()
        walk = [self.ipos[v] for v in self.face_vertices(idx)]
        poly = _strip_spurs(walk)
        if len(poly) < 3:
            raise DegenerateGeometry("face %d has no interior" % idx)
        c = _centroid(poly)
        if _locate(c, poly):
            return c
        return _interior_point(poly)

    def __repr__(self):
        return "PlanarGraph(V=%d, E=%d, F=%d)" % (
            len(self.vertices), len(self.edges), len(self.faces))


def _strip_spurs(walk):
    """Remove backtracking spurs (u, v, u) from a closed walk."""
    pts = list(walk)
    changed = True
    while changed and len(pts) >= 3:
        changed = False
        n = len(pts)
        for i in range(n):
            if pts[(i - 1) % n] == pts[(i + 1) % n]:
                j = (i + 1) % n
                for k in sorted({i, j}, reverse=True):
                    pts.pop(k)
                changed = True
                break
    return pts


def _centroid(poly):
    return (sum(p[0] for p in poly), sum(p[1] for p in poly), len(poly))


def _locate(q, poly):
    """Where the point q = (x, y, w) lies against a polygon of int
    points: True inside, False outside, None on the boundary."""
    x, y, w = q
    pts = [(a * w, b * w) for a, b in poly]
    inside = False
    for a, b in zip(pts, pts[1:] + pts[:1]):
        o = orient(a, b, (x, y))
        if o == 0 and min(a[0], b[0]) <= x <= max(a[0], b[0]) \
                and min(a[1], b[1]) <= y <= max(a[1], b[1]):
            return None
        # the edge crosses the horizontal line through q right of q
        if (a[1] > y) != (b[1] > y) and (o > 0) == (b[1] > a[1]):
            inside = not inside
    return inside


def point_in_polygon(q, poly):
    """Strict interior test of q = (x, y, w) against a polygon of int
    points; raises if q lies on the boundary."""
    inside = _locate(q, poly)
    if inside is None:
        raise DegenerateGeometry("query point on the polygon boundary")
    return inside


def _interior_point(poly):
    """A point strictly inside a simple polygon (convex-corner method)."""
    n = len(poly)
    bi = min(range(n), key=lambda i: (poly[i][1], poly[i][0]))
    a, b, c = poly[(bi - 1) % n], poly[bi], poly[(bi + 1) % n]
    best = None
    best_d = None
    for i, p in enumerate(poly):
        if i in ((bi - 1) % n, bi, (bi + 1) % n):
            continue
        if _in_triangle(p, a, b, c):
            d = abs(orient(a, c, p))
            if best_d is None or d > best_d:
                best, best_d = p, d
    if best is None:
        q = (a[0] + b[0] + c[0], a[1] + b[1] + c[1], 3)
    else:
        q = (b[0] + best[0], b[1] + best[1], 2)
    if not _locate(q, poly):
        raise DegenerateGeometry("failed to find an interior point")
    return q


def _in_triangle(p, a, b, c):
    d1, d2, d3 = orient(a, b, p), orient(b, c, p), orient(c, a, p)
    neg = d1 < 0 or d2 < 0 or d3 < 0
    pos = d1 > 0 or d2 > 0 or d3 > 0
    return not (neg and pos)


class Structure:
    """Orientation plus cilia: per vertex a linear ccw dart order starting
    just after the cilium, per edge the dart pointing along the edge."""

    def __init__(self, order, orient):
        self.order = {v: list(ds) for v, ds in order.items()}
        self.orient = dict(orient)

    def copy(self):
        return Structure(self.order, self.orient)

    def __repr__(self):
        order = {v: tuple(ds) for v, ds in sorted(self.order.items())}
        orient = {e: d for e, d in sorted(self.orient.items())}
        return "Structure(order=%r, orient=%r)" % (order, orient)


def standard_structure(g):
    """Edges oriented upward by y, cilium due west at every vertex."""
    orient = {}
    for e in g.edges.values():
        yu, yv = g.ipos[e.u][1], g.ipos[e.v][1]
        if yu == yv:
            raise NonGenericPosition("edge %d is horizontal" % e.id)
        orient[e.id] = (e.id, 0) if yu < yv else (e.id, 1)
    order = {}
    for v, darts in g.rotation.items():
        for d in darts:
            vec = g.dart_vector(d)
            if vec[1] == 0 and vec[0] < 0:
                raise NonGenericPosition(
                    "edge %d points due west from vertex %d" % (d[0], v))
        # rotation lists are sorted ccw starting from due west already,
        # so the cilium gap is before the first entry
        order[v] = list(darts)
    return Structure(order, orient)


def advance_cilium(s, v):
    """Move the cilium at v one notch ccw; returns (structure, crossed edge)."""
    out = s.copy()
    lst = out.order[v]
    crossed = lst[0][0]
    out.order[v] = lst[1:] + lst[:1]
    return out, crossed


def flip_edge_orientation(s, g, eid):
    out = s.copy()
    out.orient[eid] = g.dart_reverse(out.orient[eid])
    return out


class Loop:
    """A closed walk given by its darts; vertices are the dart tails."""

    def __init__(self, g, darts):
        if not darts:
            raise NotSimpleLoop("empty loop")
        for d1, d2 in zip(darts, darts[1:] + darts[:1]):
            if g.dart_head(d1) != g.dart_tail(d2):
                raise NotSimpleLoop("darts do not chain into a loop")
        self.darts = list(darts)
        self.vertices = [g.dart_tail(d) for d in darts]

    def __len__(self):
        return len(self.darts)

    def edge_ids(self):
        return [d[0] for d in self.darts]

    def is_simple(self):
        return len(set(self.vertices)) == len(self.vertices)

    def polygon(self, g):
        """The loop's vertices in the int coordinates g.ipos."""
        return [g.ipos[v] for v in self.vertices]

    def reversed(self, g):
        return Loop(g, [g.dart_reverse(d) for d in self.darts[::-1]])


def loop_encloses_face(g, loop, fidx):
    """Exact point-in-polygon test of the face sample point."""
    if not loop.is_simple():
        raise NotSimpleLoop("area defined for simple loops only")
    return point_in_polygon(g.face_interior_point(fidx), loop.polygon(g))


def loop_area(g, loop):
    """Total area in triangles: each enclosed face counts length - 2."""
    total = 0
    for f in g.bounded_faces():
        if loop_encloses_face(g, loop, f):
            total += g.face_length(f) - 2
    return total


def vertices_enclosed(g, loop):
    """Vertices strictly inside the loop (loop vertices excluded)."""
    on_loop = set(loop.vertices)
    poly = loop.polygon(g)
    count = 0
    for vid, (x, y) in g.ipos.items():
        if vid in on_loop:
            continue
        if point_in_polygon((x, y, 1), poly):
            count += 1
    return count


def euler_area_check(g, loop):
    """Returns (area, length, enclosed vertices); area = L + 2V - 2 holds
    for simple loops in a planar embedding."""
    a = loop_area(g, loop)
    return a, len(loop), vertices_enclosed(g, loop)


def _wedge_contains(a, b, w):
    """Is w strictly inside the ccw wedge from a to b?"""
    c_ab = cross(a, b)
    if c_ab > 0:
        return cross(a, w) > 0 and cross(w, b) > 0
    if c_ab < 0:
        return cross(a, w) > 0 or cross(w, b) > 0
    if dot(a, b) < 0:
        return cross(a, w) > 0
    return cross(a, w) != 0 or dot(a, w) < 0


def cilia_parity(points):
    """For a closed polygonal path with no horizontal steps and a west
    cilium at every vertex, return (downward steps, cilia passed on the
    left, length).  These satisfy d = s + n + 1 (mod 2)."""
    n = len(points)
    if n < 2:
        raise NotSimpleLoop("need at least two points")
    steps = []
    for i in range(n):
        p, q = points[i], points[(i + 1) % n]
        v = (q[0] - p[0], q[1] - p[1])
        if v[1] == 0:
            raise HorizontalStep("step %d is horizontal" % i)
        steps.append(v)
    d = sum(1 for v in steps if v[1] < 0)
    west = (-1, 0)
    s = 0
    for i in range(n):
        vin = steps[(i - 1) % n]
        vout = steps[i]
        if _wedge_contains(vout, (-vin[0], -vin[1]), west):
            s += 1
    return d, s, n


# -- serialization -------------------------------------------------------


def graph_to_dict(g):
    return {
        "vertices": [
            {"id": v.id, "x": format_scalar(v.x), "y": format_scalar(v.y)}
            for v in sorted(g.vertices.values(), key=lambda v: v.id)
        ],
        "edges": [
            {"id": e.id, "u": e.u, "v": e.v,
             **({"weight": format_scalar(e.weight)} if e.weight is not None else {})}
            for e in sorted(g.edges.values(), key=lambda e: e.id)
        ],
    }


def graph_from_dict(data):
    vertices = [Vertex(json_field(v, "id", int),
                       parse_scalar(json_field(v, "x"), False),
                       parse_scalar(json_field(v, "y"), False))
                for v in json_field(data, "vertices", list)]
    edges = []
    for e in json_field(data, "edges", list):
        eid = json_field(e, "id", int)
        w = parse_scalar(e["weight"]) if "weight" in e else None
        edges.append(Edge(eid, json_field(e, "u", int), json_field(e, "v", int),
                          weight=w))
    return PlanarGraph(vertices, edges)


def load_graph(path):
    with open(path) as fh:
        return graph_from_dict(json.load(fh))


def save_graph(g, path):
    with open(path, "w") as fh:
        json.dump(graph_to_dict(g), fh, indent=1)
