"""Planar graphs with exact rational embeddings.

A graph is stored as a combinatorial map: each edge has two darts
(edge id, end) and every vertex carries a ccw cyclic list of outgoing
darts, derived from the vertex positions by exact angular sort.  Faces
are the orbits of the left-hand tracing rule, walked on a map from each
dart to its predecessor around its tail, and checked against Euler's
formula.  Straight edges may meet only at a shared endpoint.  The outer
face is the one on the right of the first rotation dart at the lowest,
then leftmost, vertex with an edge.

Vertex coordinates are rational, held as reduced (p, q) pairs, but every
geometric predicate (angular order, orientation, area signs) runs on
Python ints: the graph multiplies all coordinates once by the lcm D of
their denominators (PlanarGraph.ipos), and a positive scale changes none
of these predicates.  No floating point enters any decision.
"""

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
from .rings import _pair, format_scalar, parse_scalar


class Vertex:
    """A vertex at (x, y) = (px/qx, py/qy) in lowest terms, qx, qy > 0, the
    pairs parsed straight from each coordinate; x and y are built when read."""
    __slots__ = ("id", "px", "qx", "py", "qy")

    def __init__(self, vid, x, y):
        self.id = vid
        self.px, self.qx = _pair(x) or parse_scalar(x, False).as_integer_ratio()
        self.py, self.qy = _pair(y) or parse_scalar(y, False).as_integer_ratio()

    x = property(lambda self: Fraction(self.px, self.qx))
    y = property(lambda self: Fraction(self.py, self.qy))

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
        s = math.lcm(*[q for v in vertices for q in (v.qx, v.qy)])
        self.ipos = {v.id: (v.px * (s // v.qx), v.py * (s // v.qy))
                     for v in vertices}
        self.rotation = self._rotation_from_positions()
        self._check_crossings()
        self.faces, self.face_of_dart = self._trace_faces()
        self._check_euler()
        self.outer_face = self._find_outer_face()

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
        tied = False
        # each dart, in id order, goes after the last one not ccw of it, so
        # a shared direction names the lower edge id first
        for eid, e in sorted(self.edges.items()):
            (ux, uy), (vx, vy) = self.ipos[e.u], self.ipos[e.v]
            for v, vec, d in ((e.u, (vx - ux, vy - uy), (eid, 0)),
                              (e.v, (ux - vx, uy - vy), (eid, 1))):
                k, rot = (_angular_class(vec), vec, d), out[v]
                i = len(rot)
                while i and (c := _ccw(rot[i - 1], k)) > 0:
                    i -= 1
                rot.insert(i, k)
                tied = tied or i and not c
        for v, rot in out.items():
            if tied:
                for k1, k2 in zip(rot, rot[1:]):
                    if not _ccw(k1, k2):
                        raise DegenerateGeometry(
                            "incident edges %d and %d share a direction"
                            % (k1[2][0], k2[2][0]))
            out[v] = [k[2] for k in rot]
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
            for j in range(i + 1, len(segs)):
                c, d, lo2, hi2, f = segs[j]
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

    def _trace_faces(self):
        """(faces, face_of_dart), faces as dart cycles, interior on the left:
        d is followed by prev[reversal of d], the dart before it ccw around
        d's head.  Sorted darts start each face at its least, in order."""
        prev = {}
        for ds in self.rotation.values():
            prev.update(zip(ds, ds[-1:] + ds))
        faces, face_of = [], {}
        for start in sorted(prev):
            if start not in face_of:
                idx, cyc, d = len(faces), [start], start
                face_of[start] = idx
                while (d := prev[d[0], 1 - d[1]]) != start:
                    cyc.append(d)
                    face_of[d] = idx
                faces.append(cyc)
        return faces, face_of

    def _check_euler(self):
        """The edges must form one connected graph.  Each component traces
        its own faces, outer one included, and a straight-line embedding
        gives V - E + F = 2 on each, so over the vertices with edges V - E
        + F is 2 times the number of components.  A vertex with no edges
        lies on no face and is left out."""
        if not self.edges:
            return
        nv = len({v for e in self.edges.values() for v in (e.u, e.v)})
        if nv - len(self.edges) + len(self.faces) != 2:
            raise NonPlanarEmbedding(
                "the edges form more than one connected graph: "
                "V-E+F = %d-%d+%d != 2" % (nv, len(self.edges),
                                           len(self.faces)))

    def _find_outer_face(self):
        """The face on the right of the first rotation dart at the lowest,
        then leftmost, vertex with an edge, None with no edges.  Its darts
        point up or due east, so the wedge from its last dart ccw to its
        first holds due south, where nothing of the graph lies."""
        if not self.edges:
            return None
        low = min((y, x, v) for v, (x, y) in self.ipos.items() if self.rotation[v])
        eid, end = self.rotation[low[2]][0]
        return self.face_of_dart[eid, 1 - end]

    def bounded_faces(self):
        return [i for i in range(len(self.faces)) if i != self.outer_face]

    def face_length(self, idx):
        return len(self.faces[idx])

    def face_vertices(self, idx):
        return [self.dart_tail(d) for d in self.faces[idx]]

    def dual_tree(self, root, cut=()):
        """Breadth-first spanning tree of the dual graph from face root,
        taking neighbours in (face, edge id) order; dual self-loops
        (bridges) and the edges listed in cut are not crossed.  Returns
        (parent, order): parent maps each reached face to (previous face,
        crossed edge id), None at the root, and order lists the faces as
        they were reached."""
        adj = {}
        for eid in self.edges:
            a, b = self.face_of_dart[(eid, 0)], self.face_of_dart[(eid, 1)]
            if a != b and eid not in cut:
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
        path = []
        cur = f2
        while prev[cur] is not None:
            cur, eid = prev[cur]
            path.append(eid)
        return path[::-1]

    def incident_edges(self, vid):
        return [d[0] for d in self.rotation[vid]]

    def __repr__(self):
        return "PlanarGraph(V=%d, E=%d, F=%d)" % (
            len(self.vertices), len(self.edges), len(self.faces))


class Structure:
    """Orientation plus cilia: per vertex a linear ccw dart order starting
    just after the cilium, per edge the dart pointing along the edge."""

    def __init__(self, order, orient):
        self.order = {v: list(ds) for v, ds in order.items()}
        self.orient = dict(orient)

    def __repr__(self):
        order = {v: tuple(ds) for v, ds in sorted(self.order.items())}
        orient = {e: d for e, d in sorted(self.orient.items())}
        return "Structure(order=%r, orient=%r)" % (order, orient)


def standard_structure(g):
    """Edges oriented upward by y, cilium due west at every vertex.  With
    no edge horizontal no dart points due west, and each rotation list,
    sorted ccw from due west, starts just after the cilium."""
    orient = {}
    for e in g.edges.values():
        yu, yv = g.ipos[e.u][1], g.ipos[e.v][1]
        if yu == yv:
            raise NonGenericPosition("edge %d is horizontal" % e.id)
        orient[e.id] = (e.id, 0) if yu < yv else (e.id, 1)
    return Structure(g.rotation, orient)


def vertex_order(g):
    """Vertex ids sorted by (y, x, id): the block layout of H and the sweep
    of edge_sweep."""
    return sorted(g.ipos, key=lambda v: (g.ipos[v][1], g.ipos[v][0], v))


def edge_sweep(g, eids):
    """The edge ids eids in the order the vertex_order sweep reaches them:
    by the later end, then the earlier end, then the id."""
    rank = {v: i for i, v in enumerate(vertex_order(g))}
    return [eid for *_, eid in sorted(
        (max(rank[e.u], rank[e.v]), min(rank[e.u], rank[e.v]), e.id)
        for e in map(g.edges.get, eids))]


def advance_cilium(s, v):
    """Move the cilium at v one notch ccw; returns (structure, crossed edge)."""
    out = Structure(s.order, s.orient)
    lst = out.order[v]
    crossed = lst[0][0]
    out.order[v] = lst[1:] + lst[:1]
    return out, crossed


def flip_edge_orientation(s, g, eid):
    out = Structure(s.order, s.orient)
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
        return len(set(self.vertices)) == len(self.vertices) >= 3

    def reversed(self, g):
        return Loop(g, [g.dart_reverse(d) for d in self.darts[::-1]])


def enclosed_faces(g, loop):
    """The faces inside a simple loop: the dual graph less the loop's
    edges falls into two parts, and the inside is the one without the
    outer face."""
    if not loop.is_simple():
        raise NotSimpleLoop("enclosure is defined for simple loops only")
    cut = set(loop.edge_ids())
    d = loop.darts[0]
    side = g.dual_tree(g.face_of_dart[d], cut)[1]
    if g.outer_face in side:
        side = g.dual_tree(g.face_of_dart[g.dart_reverse(d)], cut)[1]
    return side


def loop_area(g, loop):
    """Total area in triangles: each enclosed face counts length - 2."""
    return sum(g.face_length(f) - 2 for f in enclosed_faces(g, loop))


def vertices_enclosed(g, loop):
    """Vertices of the enclosed faces not on the loop."""
    inside = {v for f in enclosed_faces(g, loop) for v in g.face_vertices(f)}
    return len(inside - set(loop.vertices))


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
    """A graph file's graph; json_field runs only on a failed shape test."""
    vertices, edges = [], []
    for v in json_field(data, "vertices", list):
        if type(v) is not dict or type(v.get("id")) is not int or \
                "x" not in v or "y" not in v:
            for key, kind in (("id", int), ("x", object), ("y", object)):
                json_field(v, key, kind)
        vertices.append(Vertex(v["id"], v["x"], v["y"]))
    for e in json_field(data, "edges", list):
        if type(e) is not dict or not \
                type(e.get("id")) is type(e.get("u")) is type(e.get("v")) is int:
            for key in ("id", "u", "v"):
                json_field(e, key, int)
        w = parse_scalar(e["weight"]) if "weight" in e else None
        edges.append(Edge(e["id"], e["u"], e["v"], weight=w))
    return PlanarGraph(vertices, edges)


def load_graph(path):
    with open(path) as fh:
        return graph_from_dict(json.load(fh))


def save_graph(g, path):
    with open(path, "w") as fh:
        json.dump(graph_to_dict(g), fh, indent=1)
