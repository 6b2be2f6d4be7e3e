"""Symplectic connections on planar graphs.

A connection assigns to every edge a matrix in Sp(2n) for the edge's
canonical direction (low vertex id to high); the reverse direction is the
symplectic inverse -J M^T J.  Loop monodromy multiplies matrices right to
left along the traversal.

Included constructions: the identity connection, the Kasteleyn connection
(powers of J solved face by face over a dual spanning tree so every bounded
ccw face has monodromy J^(length-2)), flat annulus connections supported on
a ray cut, and +-1 spin connections flipping the monodromy sign around
selected faces.  The Kasteleyn and spin builders are solved and checked
on exponents in Z/4 and on +-1 signs; matrices come last, from j_power.
"""

import functools
import json
from fractions import Fraction

import numpy as np

from .errors import (
    DegenerateGeometry,
    DimensionMismatch,
    InvalidCut,
    NonCommuting,
    NotOnCircle,
    NotSymplectic,
    NotUnitary,
    SelfCheckFailed,
    json_check,
    json_field,
)
from .linalg import (
    eye,
    is_symplectic,
    mat,
    mat_equal,
    symplectic_J,
    symplectic_inverse,
)
from .planar import Loop, orient
from .rings import format_scalar, parse_scalar


class Connection:
    def __init__(self, g, n, matrices, check=True):
        self.n = n
        self.matrices = {}
        for eid in g.edges:
            m = matrices[eid]
            m = np.asarray(m, dtype=object)
            if m.shape != (2 * n, 2 * n):
                raise DimensionMismatch(
                    "edge %d matrix has shape %r, expected %dx%d"
                    % (eid, m.shape, 2 * n, 2 * n))
            if check and not is_symplectic(m):
                raise NotSymplectic("edge %d matrix is not symplectic" % eid)
            self.matrices[eid] = m

    def phi(self, g, eid, tail):
        """Parallel transport along edge eid leaving the given vertex."""
        e = g.edges[eid]
        m = self.matrices[eid]
        if tail == min(e.u, e.v):
            return m
        if tail == max(e.u, e.v):
            return symplectic_inverse(m)
        raise DimensionMismatch("vertex %d is not an endpoint of edge %d"
                                % (tail, eid))


def identity_connection(g, n=1):
    i = eye(2 * n)
    return Connection(g, n, {eid: i for eid in g.edges}, check=False)


def monodromy(g, conn, loop):
    m = eye(2 * conn.n)
    for d in loop.darts:
        m = conn.phi(g, d[0], g.dart_tail(d)) @ m
    return m


def gauge_transform(g, conn, gauges):
    """New connection with phi_uv replaced by g_v phi_uv g_u^-1."""
    for vid, gm in gauges.items():
        if not is_symplectic(np.asarray(gm, dtype=object)):
            raise NotSymplectic("gauge at vertex %d is not symplectic" % vid)
    ident = eye(2 * conn.n)
    mats = {}
    for eid, e in g.edges.items():
        t, h = min(e.u, e.v), max(e.u, e.v)
        gt = np.asarray(gauges.get(t, ident), dtype=object)
        gh = np.asarray(gauges.get(h, ident), dtype=object)
        mats[eid] = gh @ conn.matrices[eid] @ symplectic_inverse(gt)
    return Connection(g, conn.n, mats, check=False)


def edgewise_product(g, c1, c2):
    """Edge by edge product of two connections; factors must commute."""
    if c1.n != c2.n:
        raise DimensionMismatch("connections have different ranks")
    mats = {}
    for eid in g.edges:
        a, b = c1.matrices[eid], c2.matrices[eid]
        ab, ba = a @ b, b @ a
        if not mat_equal(ab, ba, tol=1e-9):
            raise NonCommuting("matrices on edge %d do not commute" % eid)
        mats[eid] = ab
    return Connection(g, c1.n, mats, check=False)


def rotation_matrix(c, s):
    """2x2 rotation [[c, s], [-s, c]] for an exact point on the circle."""
    if isinstance(c, float) or isinstance(s, float):
        if abs(c * c + s * s - 1.0) > 1e-12:
            raise NotOnCircle("c^2 + s^2 != 1")
    elif Fraction(c) ** 2 + Fraction(s) ** 2 != 1:
        raise NotOnCircle("c^2 + s^2 != 1")
    return mat([[c, s], [-s, c]])


def unitary_embed(re_m, im_m):
    """Realify M = Re + i Im in U(n) as a 2n x 2n symplectic matrix."""
    re_m = np.asarray(re_m, dtype=object)
    im_m = np.asarray(im_m, dtype=object)
    if re_m.shape != im_m.shape or re_m.shape[0] != re_m.shape[1]:
        raise DimensionMismatch("real and imaginary parts must be square")
    n = re_m.shape[0]
    ident = eye(n)
    zero = ident - ident
    if not mat_equal(re_m.T @ re_m + im_m.T @ im_m, ident, tol=1e-12):
        raise NotUnitary("M*M != I")
    if not mat_equal(re_m.T @ im_m - im_m.T @ re_m, zero, tol=1e-12):
        raise NotUnitary("M*M != I")
    top = np.concatenate([re_m, im_m], axis=1)
    bot = np.concatenate([-im_m, re_m], axis=1)
    out = np.concatenate([top, bot], axis=0)
    j = symplectic_J(n)
    if not (is_symplectic(out, tol=1e-9)
            and mat_equal(out @ j, j @ out, tol=1e-9)):
        raise SelfCheckFailed("realified unitary is not a symplectic"
                              " matrix commuting with J")
    return out


@functools.cache
def j_power(n, k):
    """J^k, one shared array per (n, k): callers must not write to it."""
    j = symplectic_J(n)
    return (eye(2 * n), j, -eye(2 * n), -j)[k % 4]


def j_connection(g, n, expo):
    """The connection with matrix J^expo[e] on every edge e."""
    mats = {eid: j_power(n, k % 4) for eid, k in expo.items()}
    return Connection(g, n, mats, check=False)


def face_loop(g, fidx):
    return Loop(g, g.faces[fidx])


def _dart_is_canonical(g, d):
    e = g.edges[d[0]]
    return g.dart_tail(d) == min(e.u, e.v)


def exponent_sum(g, darts, expo):
    """k with monodromy M^k along the darts when each edge e carries the
    power M^expo[e] in its canonical direction."""
    return sum(expo[d[0]] if _dart_is_canonical(g, d) else -expo[d[0]]
               for d in darts)


def check_kasteleyn_exponents(g, expo):
    """Raise SelfCheckFailed unless every bounded ccw face f has monodromy
    J^(len(f) - 2), comparing exponents mod 4 (k -> J^k is faithful)."""
    for f in g.bounded_faces():
        if (exponent_sum(g, g.faces[f], expo) - len(g.faces[f]) + 2) % 4:
            raise SelfCheckFailed("face %d monodromy is wrong" % f)


def kasteleyn_exponents(g):
    """Edge id -> k in Z/4 such that J^k on every edge gives every
    bounded ccw face monodromy J^(length-2).  Exponents are solved
    leaf-to-root over a spanning tree of the dual graph rooted at the
    outer face; edges not crossed by the tree keep exponent zero."""
    parent, order = g.dual_tree(g.outer_face)
    expo = {eid: 0 for eid in g.edges}
    for f in reversed(order[1:]):
        # the tree edge to f's parent is crossed once, and is still 0
        tree_eid = parent[f][1]
        s = 1 if any(d[0] == tree_eid and _dart_is_canonical(g, d)
                     for d in g.faces[f]) else -1
        expo[tree_eid] = s * (len(g.faces[f]) - 2
                              - exponent_sum(g, g.faces[f], expo)) % 4
    check_kasteleyn_exponents(g, expo)
    return expo


def kasteleyn_connection(g, n=1):
    """The J-power connection of kasteleyn_exponents at rank n."""
    return j_connection(g, n, kasteleyn_exponents(g))


class AnnulusSpec:
    """A reference cut from the inner face to the outer face: the edges a
    straight ray crosses, each with the sign of the crossing."""

    def __init__(self, inner_face, cut):
        self.inner_face = inner_face
        self.cut = list(cut)

    def winding(self, g, loop):
        signs = dict(self.cut)
        total = 0
        for d in loop.darts:
            if d[0] in signs:
                total += signs[d[0]] if _dart_is_canonical(g, d) else -signs[d[0]]
        return total


def annulus_spec(g, inner_face):
    """Build the cut by shooting an exact ray from inside the inner face."""
    if inner_face == g.outer_face:
        raise InvalidCut("inner face must be a bounded face")
    p0 = g.face_interior_point(inner_face)
    _, _, x1, y1 = g.bounding_box()
    d = g.scale
    for k in range(40):
        # (x1 + 3 + 5k/3, y1 + 5/2 + 7k/11) in graph units, over w = 66
        p1 = (66 * x1 + (198 + 110 * k) * d, 66 * y1 + (165 + 42 * k) * d, 66)
        try:
            cut = _ray_cut(g, p0, p1)
        except DegenerateGeometry:
            continue
        spec = AnnulusSpec(inner_face, cut)
        ok = True
        for f in range(len(g.faces)):
            w = spec.winding(g, face_loop(g, f))
            want = 1 if f == inner_face else (-1 if f == g.outer_face else 0)
            if w != want:
                ok = False
                break
        if ok:
            return spec
    raise InvalidCut("no valid reference ray found")


def _ray_cut(g, p0, p1):
    """Edges crossed by the segment from p0 to p1, (x, y, w) points over
    g.ipos, with the sign of each crossing."""
    w = p0[2] * p1[2]
    q0 = (p0[0] * p1[2], p0[1] * p1[2])
    q1 = (p1[0] * p0[2], p1[1] * p0[2])
    cut = []
    for e in sorted(g.edges.values(), key=lambda e: e.id):
        lo, hi = min(e.u, e.v), max(e.u, e.v)
        a = (g.ipos[lo][0] * w, g.ipos[lo][1] * w)
        b = (g.ipos[hi][0] * w, g.ipos[hi][1] * w)
        o1, o2 = orient(q0, q1, a), orient(q0, q1, b)
        o3, o4 = orient(a, b, q0), orient(a, b, q1)
        if 0 in (o1, o2, o3, o4):
            if (o1 * o2 <= 0 and o3 * o4 <= 0):
                raise DegenerateGeometry("ray touches edge %d" % e.id)
            continue
        if o1 * o2 < 0 and o3 * o4 < 0:
            # the crossing sign is that of (q1 - q0) x (b - a) = o2 - o1
            cut.append((e.id, 1 if o2 > 0 else -1))
    return cut


def flat_annulus_connection(g, spec, m, n=1, tol=1e-12):
    """Identity off the cut; M^(crossing sign) on cut edges, so every loop
    has monodromy M^winding."""
    m = np.asarray(m, dtype=object)
    if m.shape != (2 * n, 2 * n):
        raise DimensionMismatch("monodromy matrix has the wrong size")
    if not is_symplectic(m, tol=tol):
        raise NotSymplectic("monodromy matrix is not symplectic")
    ident = eye(2 * n)
    minv = symplectic_inverse(m)
    mats = {eid: ident for eid in g.edges}
    for eid, s in spec.cut:
        mats[eid] = m if s == 1 else minv
    return Connection(g, n, mats, check=False)


def spin_flips(g, marked_faces):
    """Edges where -I gives monodromy -I exactly around the marked faces:
    dual paths joining the marks in pairs, an odd last one to the outer."""
    marked = list(marked_faces)
    if len(marked) % 2:
        marked.append(g.outer_face)
    flips = set()
    for f1, f2 in zip(marked[::2], marked[1::2]):
        flips ^= set(g.dual_path(f1, f2))  # a tree path repeats no edge
    for f in g.bounded_faces():
        crossed = sum(d[0] in flips for d in g.faces[f])
        if (crossed - marked.count(f)) % 2:
            raise SelfCheckFailed("spin monodromy wrong on face %d" % f)
    return flips


def face_spin_connection(g, marked_faces, n=1):
    """A +-I connection whose monodromy is -I exactly around the marked
    faces (see spin_flips)."""
    flips = spin_flips(g, marked_faces)
    return j_connection(g, n, {eid: 2 * (eid in flips) for eid in g.edges})


# -- serialization -------------------------------------------------------


def connection_to_dict(g, conn):
    edges = []
    for eid in sorted(g.edges):
        m = conn.matrices[eid]
        edges.append({
            "id": eid,
            "matrix": [[format_scalar(x) for x in row] for row in m.tolist()],
        })
    return {"n": conn.n, "edges": edges}


def connection_from_dict(g, data):
    n = json_field(data, "n", int)
    mats = {}
    for entry in json_field(data, "edges", list):
        eid = json_field(entry, "id", int)
        rows = [[parse_scalar(x) for x in json_check(row, list, "matrix row")]
                for row in json_field(entry, "matrix", list)]
        mats[eid] = mat(rows)
    return Connection(g, n, mats)


def load_connection(g, path):
    with open(path) as fh:
        return connection_from_dict(g, json.load(fh))


def save_connection(g, conn, path):
    with open(path, "w") as fh:
        json.dump(connection_to_dict(g, conn), fh, indent=1)
