"""Trace evaluations for multiwebs under symplectic connections.

The trace of a multiweb is a tensor network on the unsplit graph.  Each
dart of an edge with multiplicity k > 0 carries a leg labelled by a
k-subset of the 2n colors (a bitmask); at a vertex the subsets of its
darts partition {0..2n-1}, and the vertex tensor is the sign of the
permutation listing each subset in increasing order, darts in cilium
order.  An edge oriented u -> v with tail subset S and head subset T is
the bond

    (-1)^(k(k-1)/2) det((J phi_vu)[S, T])

Writing phi_vu (and not phi_uv) makes the row transform under the gauge
group at u and the column at v, so the contraction is gauge invariant.
With J = [[0, I], [-I, 0]] and the identity connection a tail color
i < n pairs with head color i+n at sign +1, matching the signed-coloring
definition of the trace.

This is the sum over colorings of the split web, where an edge of
multiplicity k becomes k nested parallel copies: summing the copies'
colors within S and T gives k! times the minor, the nesting reverses
the head's order (the sign), and dividing by the product of
multiplicity factorials cancels the k!.  The independent oracles
trace_coloring and trace_identity_colorings sum over these colorings
directly; they see the split web as a list of copies with their slots
in the cilium order at each end, and build no graph.

A bond is a minor scaled by D^k: the connection has cleared each exact
edge matrix once to the integers N = D phi, D the lcm of its
denominators, so D phi_vu is N in the canonical direction and the
signed block transpose of N against it (Connection.cleared_phi; Poly and
float matrices come as they are, with D = 1).  J D phi_vu is a signed
swap of its row halves, and all k-minors come from one Laplace-expansion
table.  The network is contracted on these integers and the product of
the scales is divided out once at the end.

The same index convention fills the blocks of the big antisymmetric matrix
H, so the Pfaffian pairing terms are exactly the per-edge factors here.
"""

import functools
import itertools
from types import MappingProxyType

import numpy as np

from .connections import monodromy
from .errors import DimensionMismatch, NotBipartite, SelfCheckFailed, WrongRank
from .linalg import (all_pairings, clear_denominators, det, j_times, minors,
                     perm_sign, symplectic_J)
from .planar import Structure, standard_structure
from .rings import exact_div_scalar
from .webs import check_multiweb, decompose_2multiweb


def _check_web(g, m, n):
    """Validate m on g; raises WrongRank unless its rank is the
    connection's rank n."""
    check_multiweb(g, m)
    if m.n != n:
        raise WrongRank("vertex %d has degree %d, expected %d"
                        % (min(g.vertices), 2 * m.n, 2 * n))


def _split(g, m, s):
    """The split web of m as copies (edge id, tail, tail slot, head, head
    slot), in edge id order.  Slots count the copies in cilium order at
    each vertex; copy i of an edge of multiplicity k sits i places into
    the edge's block at the structure's tail and k - 1 - i at its head,
    so the copies nest without crossing."""
    pos = {}
    for v in g.vertices:
        p = 0
        for d in s.order[v]:
            pos[d] = p
            p += m[d[0]]
    copies = []
    for eid, k in sorted(m.mult.items()):
        d = s.orient[eid]
        t, h = g.dart_tail(d), g.dart_head(d)
        st, sh = pos[d], pos[g.dart_reverse(d)]
        copies.extend((eid, t, st + i, h, sh + k - 1 - i) for i in range(k))
    return copies


def trace_coloring(g, conn, m, structure=None):
    """Trace as the signed sum over half-edge colorings of the split web,
    divided by the product of multiplicity factorials."""
    s = structure if structure is not None else standard_structure(g)
    _check_web(g, m, conn.n)
    n2 = 2 * conn.n
    vids = sorted(g.vertices)
    vpos = {v: i for i, v in enumerate(vids)}
    # per vertex: edges completed once this vertex gets its colors, with
    # the rows of D J phi_vu indexed [tail color][head color]
    ready = {v: [] for v in vids}
    scale = m.split_factor()
    for eid, t, st, h, sh in _split(g, m, s):
        later = t if vpos[t] > vpos[h] else h
        rows, d = clear_denominators(j_times(conn.phi(g, eid, h).tolist()))
        scale *= d
        ready[later].append((rows, t, h, st, sh))
    perms = list(itertools.permutations(range(n2)))
    signs = {p: perm_sign(p) for p in perms}
    color = {}
    total = 0

    def rec(i, acc):
        nonlocal total
        if i == len(vids):
            total = total + acc
            return
        v = vids[i]
        for p in perms:
            color[v] = p
            term = acc * signs[p]
            ok = True
            for mat, t, h, st, sh in ready[v]:
                f = mat[color[t][st]][color[h][sh]]
                if not f:
                    ok = False
                    break
                term = term * f
            if ok:
                rec(i + 1, term)
        del color[v]

    rec(0, 1)
    return exact_div_scalar(total, scale)


def trace_contraction(g, conn, m, structure=None):
    """Trace by contracting the subset-labelled network of m."""
    s = structure if structure is not None else standard_structure(g)
    return _trace_network(g, conn, m, s)


@functools.cache
def _vertex_tensor(n2, sizes):
    """Subset labels of the legs -> sign of the concatenated subsets; read
    only, since every vertex with the same leg sizes shares it."""
    entries = [((), ())]
    for k in sizes:
        entries = [(masks + (sum(1 << c for c in sub),), seq + sub)
                   for masks, seq in entries
                   for sub in itertools.combinations(
                       [c for c in range(n2) if c not in seq], k)]
    return MappingProxyType({masks: perm_sign(seq) for masks, seq in entries})


def _bond(rows, d, k, symplectic):
    """Tail subset -> head subset -> k-minor of J D phi (D phi when
    symplectic is False) from the rows of D phi and d = D, nonzero entries
    only, and the signed scale (-1)^(k(k-1)/2) D^k it is divided by."""
    return (minors(j_times(rows) if symplectic else rows, k),
            (-1) ** (k * (k - 1) // 2) * d ** k)


def _trace_network(g, conn, m, s, symplectic=True):
    """Contract the vertex tensors of m along its edge bonds, greedily
    taking the edge whose contraction leaves the fewest open legs.  The
    bond matrix is J phi_vu, or phi_vu alone when symplectic is False."""
    _check_web(g, m, conn.n)
    n = conn.n
    clusters = {}
    owner = {}
    for v in sorted(g.vertices):
        legs = [d for d in s.order[v] if m[d[0]]]
        clusters[v] = (legs,
                       _vertex_tensor(2 * n, tuple(m[d[0]] for d in legs)))
        for d in legs:
            owner[d] = v
    scalar = scale = 1

    def cost(eid):
        d = s.orient[eid]
        c1, c2 = owner[d], owner[g.dart_reverse(d)]
        if c1 == c2:
            return len(clusters[c1][0]) - 2
        return len(clusters[c1][0]) + len(clusters[c2][0]) - 2

    pending = sorted(m.mult)
    while pending:
        eid = min(pending, key=lambda e: (cost(e), e))
        pending.remove(eid)
        d = s.orient[eid]
        rd = g.dart_reverse(d)
        bond, bond_scale = _bond(*conn.cleared_phi(g, eid, g.dart_head(d)),
                                 m[eid], symplectic)
        scale *= bond_scale
        c1, c2 = owner[d], owner[rd]
        legs1, t1 = clusters[c1]
        if c1 == c2:
            p, q = legs1.index(d), legs1.index(rd)
            legs = [x for k, x in enumerate(legs1) if k not in (p, q)]
            out = {}
            for idx, coef in t1.items():
                f = bond[idx[p]].get(idx[q])
                if not f:
                    continue
                key = tuple(x for k, x in enumerate(idx) if k not in (p, q))
                out[key] = out.get(key, 0) + coef * f
        else:
            legs2, t2 = clusters[c2]
            p, q = legs1.index(d), legs2.index(rd)
            legs = ([x for k, x in enumerate(legs1) if k != p]
                    + [x for k, x in enumerate(legs2) if k != q])
            byq = {}
            for idx, coef in t2.items():
                byq.setdefault(idx[q], []).append(
                    (tuple(x for k, x in enumerate(idx) if k != q), coef))
            out = {}
            for idx, coef in t1.items():
                rest1 = tuple(x for k, x in enumerate(idx) if k != p)
                for b, f in bond[idx[p]].items():
                    for rest2, coef2 in byq.get(b, ()):
                        key = rest1 + rest2
                        out[key] = out.get(key, 0) + coef * coef2 * f
            del clusters[c2]
        if legs:
            clusters[c1] = (legs, out)
            for x in legs:
                owner[x] = c1
        else:
            scalar = scalar * out.get((), 0)
            del clusters[c1]
    if clusters:
        raise SelfCheckFailed("legs left uncontracted")
    return exact_div_scalar(scalar, scale)


def trace_sp2_loops(g, conn, m, structure=None):
    """Rank-1 trace from the loop decomposition: each doubled edge is a
    factor -1, each loop a factor (-1)^(L+d) tr(monodromy) where d counts
    the deviations of the structure from the position in which the loop
    contraction telescopes: edges oriented against the traversal, plus
    vertices whose two loop darts sit in (outgoing, incoming) cilium order.
    Monodromy traces do not depend on the traversal direction."""
    if conn.n != 1 or m.n != 1:
        raise WrongRank("loop-decomposition trace needs rank 1")
    s = structure if structure is not None else standard_structure(g)
    dec = decompose_2multiweb(g, m)
    total = 1 if dec.c1 % 2 == 0 else -1
    for loop in dec.loops:
        mono = monodromy(g, conn, loop)
        d = 0
        prev = loop.darts[-1]
        for dart in loop.darts:
            if s.orient[dart[0]] != dart:
                d += 1
            v = g.dart_tail(dart)
            inc = g.dart_reverse(prev)
            for x in s.order[v]:
                if x == dart:
                    d += 1
                    break
                if x == inc:
                    break
            prev = dart
        t = mono[0, 0] + mono[1, 1]
        total = total * (t if (len(loop.darts) + d) % 2 == 0 else -t)
    return total


def trace_identity_colorings(g, m, structure=None):
    """Identity-connection trace as a signed count of colorings with
    complementary colors across each edge."""
    s = structure if structure is not None else standard_structure(g)
    check_multiweb(g, m)
    copies = _split(g, m, s)
    n = m.n
    n2 = 2 * n
    colors = {v: [None] * n2 for v in g.vertices}
    used = {v: set() for v in g.vertices}
    total = 0

    def rec(i, sign):
        nonlocal total
        if i == len(copies):
            vertex_sign = 1
            for v in g.vertices:
                vertex_sign *= perm_sign(tuple(colors[v]))
            total += sign * vertex_sign
            return
        _, t, st, h, sh = copies[i]
        for a in range(n2):
            b = (a + n) % n2
            if a in used[t] or b in used[h]:
                continue
            used[t].add(a)
            used[h].add(b)
            colors[t][st] = a
            colors[h][sh] = b
            rec(i + 1, sign if a < n else -sign)
            used[t].discard(a)
            used[h].discard(b)

    rec(0, 1)
    return exact_div_scalar(total, m.split_factor())


def bipartite_parts(g):
    """Two-color the vertices; black is the part with the lowest id."""
    color = {}
    for start in sorted(g.vertices):
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop(0)
            for eid in g.incident_edges(v):
                e = g.edges[eid]
                w = e.v if e.u == v else e.u
                if w in color:
                    if color[w] == color[v]:
                        raise NotBipartite("odd cycle through edge %d" % eid)
                else:
                    color[w] = 1 - color[v]
                    queue.append(w)
    black = {v for v, c in color.items() if c == 0}
    white = set(g.vertices) - black
    return black, white


def bipartite_structure(g):
    """Standard cilia, edges oriented black to white."""
    black, _ = bipartite_parts(g)
    s = standard_structure(g)
    orient = {}
    for eid, e in g.edges.items():
        d = s.orient[eid]
        if g.dart_tail(d) in black:
            orient[eid] = d
        else:
            orient[eid] = g.dart_reverse(d)
    return Structure(s.order, orient)


def trace_sl_bipartite(g, conn, m, structure=None):
    """SL(2n)-style trace: same contraction without the J on each edge.
    On a bipartite graph with black-to-white orientation this agrees with
    the symplectic trace up to one global sign for the whole graph."""
    bipartite_parts(g)
    s = structure if structure is not None else bipartite_structure(g)
    return _trace_network(g, conn, m, s, symplectic=False)


# -- pointwise vertex evaluations ----------------------------------------


def crossing_count(pairing):
    k = 0
    pairs = list(pairing)
    for (i1, j1), (i2, j2) in itertools.combinations(pairs, 2):
        if i1 < i2 < j1 < j2 or i2 < i1 < j2 < j1:
            k += 1
    return k


def det_vertex(vectors):
    """Crossing-signed pairing sum: sum over pairings alpha of
    (-1)^(K_alpha + n(n+1)/2) prod_k v_{j_k} . (J v_{i_k})."""
    vs = [np.asarray(v, dtype=object).reshape(-1) for v in vectors]
    if len(vs) % 2:
        raise DimensionMismatch("need an even number of vectors")
    n = len(vs) // 2
    if any(v.shape[0] != 2 * n for v in vs):
        raise DimensionMismatch("vectors must have dimension 2n")
    j = symplectic_J(n)
    jv = [j @ v for v in vs]
    base = (n * (n + 1)) // 2
    total = 0
    for alpha in all_pairings(list(range(2 * n))):
        term = 1
        for i, jj in alpha:
            term = term * sum(vs[jj][k] * jv[i][k] for k in range(2 * n))
        if (crossing_count(alpha) + base) % 2:
            term = -term
        total = total + term
    return total


def wedge_norm(vectors):
    """Determinant of the matrix with the given columns."""
    vs = [np.asarray(v, dtype=object).reshape(-1) for v in vectors]
    d = len(vs)
    if any(v.shape[0] != d for v in vs):
        raise DimensionMismatch("need k vectors of dimension k")
    mat = np.empty((d, d), dtype=object)
    for c, v in enumerate(vs):
        for r in range(d):
            mat[r, c] = v[r]
    return det(mat)


def qdet(a, q):
    """Inversion-signed determinant: sum over permutations of
    (-q)^inv(sigma) prod a[i][sigma(i)]."""
    a = np.asarray(a, dtype=object)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch("matrix must be square")
    k = a.shape[0]
    total = 0
    for p in itertools.permutations(range(k)):
        inv = sum(1 for x in range(k) for y in range(x + 1, k)
                  if p[x] > p[y])
        term = (-q) ** inv
        for i in range(k):
            term = term * a[i, p[i]]
        total = total + term
    return total
