"""Multiwebs: edge multiplicity assignments of constant vertex degree 2n.

A rank-n multiweb puts a multiplicity 0..2n on every edge so that the
multiplicities around each vertex sum to 2n.  Rank-1 multiwebs with all
multiplicities at most 1 are dimer covers (perfect matchings).

The split factor, the product of the multiplicity factorials, is the
overcount of the coloring sum over the split web, where an edge of
multiplicity k becomes k parallel copies (see traces).
"""

import json
from math import factorial

from .errors import MalformedWeb, json_check, json_field
from .planar import Loop, edge_sweep


class Multiweb:
    __slots__ = ("n", "mult")

    def __init__(self, n, mult):
        self.n = n
        self.mult = {eid: k for eid, k in mult.items() if k != 0}

    def __getitem__(self, eid):
        return self.mult.get(eid, 0)

    def __eq__(self, other):
        return (isinstance(other, Multiweb) and self.n == other.n
                and self.mult == other.mult)

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.mult.items()))))

    def __repr__(self):
        inner = ", ".join("%d: %d" % it for it in sorted(self.mult.items()))
        return "Multiweb(n=%d, {%s})" % (self.n, inner)

    def degree(self, g, vid):
        return sum(self.mult.get(eid, 0) for eid in g.incident_edges(vid))

    def split_factor(self):
        out = 1
        for k in self.mult.values():
            out *= factorial(k)
        return out

def check_multiweb(g, m):
    for eid, k in m.mult.items():
        if eid not in g.edges:
            raise MalformedWeb("multiplicity on unknown edge %d" % eid)
        if not 0 <= k <= 2 * m.n:
            raise MalformedWeb("multiplicity %d out of range on edge %d"
                               % (k, eid))
    for vid in g.vertices:
        d = m.degree(g, vid)
        if d != 2 * m.n:
            raise MalformedWeb("vertex %d has degree %d, expected %d"
                               % (vid, d, 2 * m.n))
    return m


def _enumerate_regular(g, target, caps):
    """All maps edge -> 0..caps[edge] with every vertex degree equal to
    target, in lexicographic order over the sorted edge ids.  Edges are
    assigned in edge_sweep order, and the last edge at a vertex takes
    exactly what that vertex still needs."""
    edges = [(eid, g.edges[eid].u, g.edges[eid].v, caps[eid])
             for eid in edge_sweep(g, g.edges)]
    last = {}
    for i, (_, u, v, _) in enumerate(edges):
        last[u] = last[v] = i
    out = []
    if len(last) < len(g.vertices):
        return out
    need = {v: target for v in g.vertices}
    mult = dict.fromkeys(g.edges, 0)

    def rec(i):
        if i == len(edges):
            out.append(dict(mult))
            return
        eid, u, v, cap = edges[i]
        lo = max(need[u] if last[u] == i else 0,
                 need[v] if last[v] == i else 0)
        for k in range(lo, min(cap, need[u], need[v]) + 1):
            need[u] -= k
            need[v] -= k
            mult[eid] = k
            rec(i + 1)
            need[u] += k
            need[v] += k

    rec(0)
    ids = sorted(mult)
    out.sort(key=lambda m: [m[e] for e in ids])
    return out


def enumerate_multiwebs(g, n):
    caps = dict.fromkeys(g.edges, 2 * n)
    return [Multiweb(n, m) for m in _enumerate_regular(g, 2 * n, caps)]


def enumerate_dimers(g):
    """Perfect matchings, as rank-1/2 multiplicity maps edge -> 0/1."""
    return [{e: k for e, k in m.items() if k}
            for m in _enumerate_regular(g, 1, dict.fromkeys(g.edges, 1))]


def superpose(g, dimers):
    """Union of 2n dimer covers as a rank-n multiweb."""
    if len(dimers) % 2:
        raise MalformedWeb("need an even number of dimer covers")
    mult = {}
    for d in dimers:
        for eid, k in d.items():
            mult[eid] = mult.get(eid, 0) + k
    return check_multiweb(g, Multiweb(len(dimers) // 2, mult))


class LoopDecomposition:
    """A 2-multiweb as disjoint simple loops plus doubled edges."""

    def __init__(self, loops, doubled):
        self.loops = loops
        self.doubled = list(doubled)


def decompose_2multiweb(g, m):
    """Split a rank-1 multiweb into its doubled edges and simple loops."""
    if m.n != 1:
        raise MalformedWeb("decomposition needs rank 1, got %d" % m.n)
    check_multiweb(g, m)
    doubled = sorted(e for e, k in m.mult.items() if k == 2)
    singles = {e for e, k in m.mult.items() if k == 1}
    loops = []
    unused = set(singles)
    while unused:
        e0 = g.edges[min(unused)]
        d = (e0.id, 0 if e0.u == min(e0.u, e0.v) else 1)
        darts = []
        while True:
            darts.append(d)
            unused.discard(d[0])
            h = g.dart_head(d)
            nxt = [e for e in g.incident_edges(h)
                   if e in singles and e != d[0]]
            if len(nxt) != 1:
                raise MalformedWeb("loop branches at vertex %d" % h)
            e2 = g.edges[nxt[0]]
            d = (e2.id, 0 if e2.u == h else 1)
            if d[0] == darts[0][0]:
                break
        loops.append(Loop(g, darts))
    return LoopDecomposition(loops, doubled)


def decompositions_into_2webs(g, m):
    """Ordered splittings of a rank-n multiweb into n 2-multiwebs.

    Each part takes multiplicity 0..2 per edge, degree 2 at every vertex,
    and the parts sum to m.  Swapping two distinct parts gives a different
    decomposition.
    """
    check_multiweb(g, m)
    # (parts so far, what is left of m); after n parts nothing is left,
    # since the last part is 2-regular under caps the 2-regular rest sets
    splits = [((), {eid: m[eid] for eid in g.edges})]
    for _ in range(m.n):
        splits = [(parts + (p,), {e: k - p[e] for e, k in rest.items()})
                  for parts, rest in splits
                  for p in _enumerate_regular(
                      g, 2, {e: min(2, k) for e, k in rest.items()})]
    return [tuple(Multiweb(1, p) for p in parts) for parts, _ in splits]


# -- serialization -------------------------------------------------------


def multiweb_to_dict(m):
    return {"n": m.n, "m": {str(eid): k for eid, k in sorted(m.mult.items())}}


def multiweb_from_dict(data):
    mult = json_field(data, "m", dict)
    return Multiweb(json_field(data, "n", int),
                    {int(e): json_check(k, int, "multiplicity of edge %s" % e)
                     for e, k in mult.items()})


def load_multiweb(path):
    with open(path) as fh:
        return multiweb_from_dict(json.load(fh))


def save_multiweb(m, path):
    with open(path, "w") as fh:
        json.dump(multiweb_to_dict(m), fh, indent=1)
