"""Symplectic connections on planar graphs.

A connection assigns to every edge a matrix in Sp(2n) for the edge's
canonical direction (low vertex id to high); the reverse direction is the
symplectic inverse -J M^T J.  Loop monodromy multiplies matrices right to
left along the traversal.  Each exact edge matrix M is cleared once to
the integer rows of dM (each shared j_power matrix once); a file's entries
go straight to those ints, and M itself is built only when read.  H and
the trace bonds are built from the ints; only oracle engines read M.

Included constructions: the identity connection, the Kasteleyn connection
(powers of J solved face by face over a dual spanning tree so every bounded
ccw face has monodromy J^(length-2)), flat annulus connections supported on
a shortest dual cut, and +-1 spin connections flipping the monodromy sign
around selected faces.  The Kasteleyn and spin builders are solved and
checked on exponents in Z/4 and on +-1 signs; matrices come last, from
j_power.
"""

import functools
import json
import math
from fractions import Fraction

from .errors import (
    DimensionMismatch,
    InvalidCut,
    MalformedInput,
    NonCommuting,
    NotSymplectic,
    NotUnitary,
    SelfCheckFailed,
    json_check,
    json_field,
)
from .linalg import (
    block_transpose,
    clear_denominators,
    eye,
    is_symplectic,
    j_times,
    mat,
    mat_equal,
    matmul,
    symplectic_rows,
)
from .planar import Loop
from .rings import _pair, format_scalar, parse_scalar


class Connection:
    """Edge id -> matrix M in Sp(2n) for the edge's canonical direction,
    and cleared[eid] = (N, d) for M of int and Fraction entries: the int
    rows of N = dM, d the lcm of the denominators (None for Poly and float
    entries).  Each distinct matrix object is cleared, and checked to be
    symplectic on those rows (floats to 1e-12), once; M given as (N, d) is
    built on read."""

    def __init__(self, g, n, matrices):
        self.n = n
        self._given, self.cleared = {}, {}
        done = {}
        for eid in g.edges:
            if eid not in matrices:
                raise DimensionMismatch("edge %d has no matrix" % eid)
            m = matrices[eid]
            if id(m) not in done:
                lazy = type(m) is tuple
                a = m if lazy else mat(m)
                rows, d = m if lazy else clear_denominators(a)
                shape = (len(rows), *sorted({len(r) for r in rows}))
                if shape != (2 * n, 2 * n):
                    raise DimensionMismatch(
                        "edge %d matrix has shape %r, expected %dx%d"
                        % (eid, shape, 2 * n, 2 * n))
                if not symplectic_rows(rows, d):
                    raise NotSymplectic("edge %d matrix is not symplectic"
                                        % eid)
                exact = lazy or all(type(x) is int for r in rows for x in r)
                done[id(m)] = a, (rows, d) if exact else None
            self._given[eid], self.cleared[eid] = done[id(m)]

    @functools.cached_property
    def matrices(self):
        """Edge id -> M, with entries N / d for M given as (N, d)."""
        return {eid: [[Fraction(x, m[1]) for x in row] for row in m[0]]
                if type(m) is tuple else m for eid, m in self._given.items()}

    def phi(self, g, eid, tail):
        """Parallel transport along edge eid leaving the given vertex."""
        m = self.matrices[eid]
        return m if _leaves_low_end(g, eid, tail) else block_transpose(m)

    def cleared_phi(self, g, eid, tail):
        """(rows, d) with rows the rows of d phi(g, eid, tail): from cleared
        for an exact matrix, else the rows of phi and d = 1."""
        if self.cleared[eid] is None:
            return self.phi(g, eid, tail), 1
        rows, d = self.cleared[eid]
        return (rows if _leaves_low_end(g, eid, tail)
                else block_transpose(rows)), d


def _leaves_low_end(g, eid, tail):
    """Whether transport along edge eid from tail runs in the canonical
    direction, low vertex id to high."""
    e = g.edges[eid]
    if tail not in (e.u, e.v):
        raise DimensionMismatch("vertex %d is not an endpoint of edge %d"
                                % (tail, eid))
    return tail == min(e.u, e.v)


def identity_connection(g, n=1):
    i = eye(2 * n)
    return Connection(g, n, {eid: i for eid in g.edges})


def monodromy(g, conn, loop):
    m = eye(2 * conn.n)
    for d in loop.darts:
        m = matmul(conn.phi(g, d[0], g.dart_tail(d)), m)
    return m


def gauge_transform(g, conn, gauges):
    """New connection with phi_uv replaced by g_v phi_uv g_u^-1."""
    gauges = {vid: mat(gm) for vid, gm in gauges.items()}
    for vid, gm in gauges.items():
        if not is_symplectic(gm):
            raise NotSymplectic("gauge at vertex %d is not symplectic" % vid)
    ident = eye(2 * conn.n)
    mats = {}
    for eid, e in g.edges.items():
        gt = gauges.get(min(e.u, e.v), ident)
        gh = gauges.get(max(e.u, e.v), ident)
        mats[eid] = matmul(matmul(gh, conn.matrices[eid]),
                           block_transpose(gt))
    return Connection(g, conn.n, mats)


def edgewise_product(g, c1, c2):
    """Edge by edge product of two connections; factors must commute."""
    if c1.n != c2.n:
        raise DimensionMismatch("connections have different ranks")
    mats = {}
    for eid in g.edges:
        a, b = c1.matrices[eid], c2.matrices[eid]
        ab, ba = matmul(a, b), matmul(b, a)
        if not mat_equal(ab, ba, tol=1e-9):
            raise NonCommuting("matrices on edge %d do not commute" % eid)
        mats[eid] = ab
    return Connection(g, c1.n, mats)


def unitary_embed(re_m, im_m):
    """Realify M = Re + i Im in U(n) as a 2n x 2n symplectic matrix."""
    re_m, im_m = mat(re_m), mat(im_m)
    n = len(re_m)
    if len(im_m) != n or any(len(r) != n for r in re_m + im_m):
        raise DimensionMismatch("real and imaginary parts must be square")
    re_t, im_t = list(zip(*re_m)), list(zip(*im_m))
    # M*M = I: Re^T Re + Im^T Im = I and Re^T Im - Im^T Re = 0
    herm = [[x + y for x, y in zip(r, s)]
            for r, s in zip(matmul(re_t, re_m), matmul(im_t, im_m))]
    skew = [[x - y for x, y in zip(r, s)]
            for r, s in zip(matmul(re_t, im_m), matmul(im_t, re_m))]
    if not (mat_equal(herm, eye(n), tol=1e-12)
            and mat_equal(skew, [[0] * n] * n, tol=1e-12)):
        raise NotUnitary("M*M != I")
    rows = ([r + i for r, i in zip(re_m, im_m)]
            + [[-x for x in i] + r for r, i in zip(re_m, im_m)])
    # a row (a, b) of R times J is (-b, a)
    if not (is_symplectic(rows, tol=1e-9)
            and mat_equal(j_times(rows), [[-x for x in r[n:]] + r[:n]
                                          for r in rows], tol=1e-9)):
        raise SelfCheckFailed("realified unitary is not a symplectic"
                              " matrix commuting with J")
    return rows


@functools.cache
def j_power(n, k):
    """J^k as k row swaps of I, one shared matrix per (n, k): callers
    must not write to it."""
    rows = eye(2 * n)
    for _ in range(k % 4):
        rows = j_times(rows)
    return rows


def j_connection(g, n, expo):
    """The connection with matrix J^expo[e] on every edge e."""
    mats = {eid: j_power(n, k % 4) for eid, k in expo.items()}
    return Connection(g, n, mats)


def face_loop(g, fidx):
    return Loop(g, g.faces[fidx])


def _dart_is_canonical(g, d):
    return _leaves_low_end(g, d[0], g.dart_tail(d))


def exponent_sum(g, darts, expo):
    """k with monodromy M^k along the darts when each edge e carries the
    power M^expo[e] in its canonical direction, and M^0 if expo has no e."""
    return sum(k if _dart_is_canonical(g, d) else -k
               for d in darts if (k := expo.get(d[0])))


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
    """A cut from the inner face to the outer face: the edges crossed by a
    shortest dual path, each with the sign of the crossing (+1 when the
    edge's canonical dart lies on the face the path leaves).  annulus_spec
    stores expo, the kasteleyn_exponents of g, once for every Pfaffian."""

    def __init__(self, inner_face, cut):
        self.inner_face = inner_face
        self.cut = list(cut)

    def winding(self, g, loop):
        return exponent_sum(g, loop.darts, dict(self.cut))


def annulus_spec(g, inner_face):
    """The cut along g.dual_path from the inner face to the outer face;
    every face then winds 1 (inner), -1 (outer) or 0 around the cut."""
    if inner_face == g.outer_face:
        raise InvalidCut("inner face must be a bounded face")
    cut, face = [], inner_face
    for eid in g.dual_path(inner_face, g.outer_face):
        d = (eid, 0) if g.face_of_dart[(eid, 0)] == face else (eid, 1)
        cut.append((eid, 1 if _dart_is_canonical(g, d) else -1))
        face = g.face_of_dart[(eid, 1 - d[1])]
    spec = AnnulusSpec(inner_face, cut)
    for f in range(len(g.faces)):
        want = 1 if f == inner_face else (-1 if f == g.outer_face else 0)
        if spec.winding(g, face_loop(g, f)) != want:
            raise SelfCheckFailed("face %d winds wrongly around the cut" % f)
    spec.expo = kasteleyn_exponents(g)
    return spec


def flat_annulus_connection(g, spec, m):
    """Identity off the cut; M^(crossing sign) on cut edges, so every loop
    has monodromy M^winding.  The rank n is read from the 2n x 2n M."""
    m = mat(m)
    n = len(m) // 2
    if not m or len(m) % 2 or len(m[0]) != len(m):
        raise DimensionMismatch("monodromy matrix has shape %r"
                                % ((len(m), len(m[0]) if m else 0),))
    flat = {1: m, -1: block_transpose(m)}
    mats = dict.fromkeys(g.edges, eye(2 * n))
    mats.update((eid, flat[s]) for eid, s in spec.cut)
    return Connection(g, n, mats)


def spin_flips(g, marked_faces):
    """Edges where -I gives monodromy -I exactly around the marked faces:
    dual paths joining the marks in pairs, an odd last one to the outer."""
    marked = list(marked_faces)
    if len(marked) % 2:
        marked.append(g.outer_face)
    flips = set()
    for f1, f2 in zip(marked[::2], marked[1::2]):
        flips ^= set(g.dual_path(f1, f2))  # a tree path repeats no edge
    ones = dict.fromkeys(flips, 1)
    for f in g.bounded_faces():
        if (exponent_sum(g, g.faces[f], ones) - marked.count(f)) % 2:
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
            "matrix": [[format_scalar(x) for x in row] for row in m],
        })
    return {"n": conn.n, "edges": edges}


def connection_from_dict(g, data):
    """A connection file lists every edge of g once, at rank n >= 1.  An
    exact matrix is cleared straight from the (p, q) of its entries."""
    n = json_field(data, "n", int)
    if n < 1:
        raise MalformedInput("connection rank n is %d, not at least 1" % n)
    mats = {}
    for entry in json_field(data, "edges", list):
        eid = json_field(entry, "id", int)
        if eid not in g.edges or eid in mats:
            raise MalformedInput("edge %d is %s" % (eid, "listed twice" if
                                 eid in mats else "not in the graph"))
        rows = [json_check(row, list, "matrix row")
                for row in json_field(entry, "matrix", list)]
        pairs = [[_pair(x) for x in row] for row in rows]
        if any(None in row for row in pairs):
            mats[eid] = [[parse_scalar(x) for x in row] for row in rows]
        else:
            d = math.lcm(*[q for row in pairs for _, q in row])
            mats[eid] = [[p * (d // q) for p, q in row] for row in pairs], d
    return Connection(g, n, mats)


def load_connection(g, path):
    with open(path) as fh:
        return connection_from_dict(g, json.load(fh))


def save_connection(g, conn, path):
    with open(path, "w") as fh:
        json.dump(connection_to_dict(g, conn), fh, indent=1)
