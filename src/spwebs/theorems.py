"""Global identities tying traces to Pfaffians.

The H matrix of a weighted graph with a rank-n connection is the skew
matrix whose 2n x 2n block at (u, v) is w_e * J * phi_e(v -> u), summed
over edges e joining u and v.  It depends on neither edge orientations
nor cilia, and its Pfaffian equals the weighted sum of multiweb traces
up to one global sign.  Specialising the connection recovers dimer
statistics: the Kasteleyn connection squares the dimer partition
function, a spin flip on a dual path computes the parity of separating
double-dimer loops, and a flat connection on an annulus measures
winding.  The U(2) family embedded in Sp(4) turns the rank-2 annulus
Pfaffian into a polynomial in 2 + 4*cos(eps), with exact coefficients.
"""

import math
import cmath
import warnings
from fractions import Fraction
from string import ascii_lowercase

from .connections import (Connection, exponent_sum, j_connection, j_power,
                          kasteleyn_connection, kasteleyn_exponents,
                          spin_flips, unitary_embed)
from .errors import (BadFaceLength, DivByZero, IdentityViolated,
                     MalformedInput, OutOfRange, SelfCheckFailed)
from .linalg import SkewMatrix, block_transpose, j_times
from .planar import standard_structure, vertex_order
from .rings import Poly, _Packing, exact_div_scalar
from .traces import trace_contraction
from .webs import (
    decompose_2multiweb,
    decompositions_into_2webs,
    enumerate_dimers,
    enumerate_multiwebs,
    superpose,
)


def weight_map(g, w=None):
    """Edge id -> weight.  Missing weights default to 1."""
    if w is None:
        return {e.id: (1 if e.weight is None else e.weight)
                for e in g.edges.values()}
    return {e.id: w.get(e.id, 1) for e in g.edges.values()}


def symbolic_weights(g):
    """One polynomial variable per edge, a, b, c, ... in edge id order."""
    out = {}
    for i, eid in enumerate(sorted(g.edges)):
        out[eid] = Poly.var(ascii_lowercase[i] if i < 26 else "w%d" % eid)
    return out


def float_weight(eid, w):
    """The float of edge eid's weight w; MixedRing for a Poly weight."""
    try:
        return float(w) if isinstance(w, (int, Fraction)) else 1.0 * w
    except OverflowError:
        raise OutOfRange("edge %r: weight is out of the double range" % eid)


def web_weight(m, wmap):
    total = 1
    for eid, k in sorted(m.mult.items()):
        try:
            total = total * wmap[eid] ** k
        except OverflowError:
            raise OutOfRange("edge %r: weight ** %d overflows" % (eid, k))
    return total


class HMatrix(SkewMatrix):
    """Skew matrix of a weighted graph with a rank-n connection.

    Block (u, v) holds w_e * J * phi_e(v -> u): the same edge factor the
    trace engines contract, with the row indexing the color at u, so the
    Pfaffian expansion reproduces the colored trace sum term by term.
    Vertices are laid out in (y, x, id) order with the 2n colors of a
    vertex contiguous.  Edges are straight, so no two share a block.

    With int, Fraction and Poly weights and an exact connection, the rows
    of B = DAD and the d_i come straight from the cleared edge matrices
    (_cleared_rows), and H's own entries are built only when asked for.
    A Poly weight enters as its content c_e, which _cleared_rows takes as
    the weight, and its primitive integer polynomial P_e, by which it
    multiplies the block's ints, packed as the Pfaffian takes them.
    Otherwise (a float weight or a float or Poly edge matrix) the rows
    come from _entry_rows.
    """

    def __init__(self, g, conn, w=None):
        weights = weight_map(g, w)
        blocks, dim = _blocks(g, weights, conn.n)
        if all(isinstance(wt, (int, Fraction, Poly)) and conn.cleared[eid]
               for _, _, wt, eid in blocks):
            pk, parts = None, {eid: (wt, None) for eid, wt in weights.items()}
            if any(isinstance(wt, Poly) for wt in weights.values()):
                pk = _Packing.of(weights.values(), max(dim - 2, 1))
                parts = {eid: pk.primitive(wt) for eid, wt in weights.items()}
            rows, d = _cleared_rows([(rh, rl, *parts[e], conn.cleared[e])
                                     for rh, rl, _, e in blocks], conn.n, dim)
            super().__init__(rows, d, pk)
            return
        super().__init__(_entry_rows(blocks, conn.matrices, dim))


def _blocks(g, weights, n):
    """H's blocks (rh, rl, w, eid) at rank n, and its dimension: block (hi,
    lo) is w J m, m the matrix lo -> hi, as J phi(hi -> lo) = -(J m)^T."""
    pos = {vid: 2 * n * i for i, vid in enumerate(vertex_order(g))}
    return [(pos[max(e.u, e.v)], pos[min(e.u, e.v)], weights[e.id], e.id)
            for e in g.edges.values()], 2 * n * len(pos)


def _entry_rows(blocks, mats, dim):
    """H's rows of dicts from _blocks and the edge matrices, with a zero
    under a zero weight kept, in its ring, where the matrix is nonzero."""
    rows = [{} for _ in range(dim)]
    for rh, rl, wt, eid in blocks:
        for i, row in enumerate(j_times(mats[eid]), rh):
            for c, x in enumerate(row, rl):
                if x:
                    # x * float(w) is x * w for a float x, in fewer steps
                    val = x * (float_weight(eid, wt) if isinstance(x, float)
                               else wt)
                    rows[i][c] = val
                    rows[c][i] = -val
    return rows


def _cleared_rows(blocks, n, dim):
    """The rows of B = DAD and the d_i for H of exact rank-n blocks
    (rh, rl, w, P, (N, d)): block (rh, rl) is w P J N / d, J N being N
    with its row halves swapped and the lower half negated, and d_r is
    the lcm of the lowest-terms denominators in row r, as linalg._clear
    takes them.  With w = p/q and D = dq, the entries x p / D of a line
    (row or column) of J N whose gcd is g have denominators D / gcd(D,
    x p), whose lcm is D / gcd(D, p g).  Every entry of B is checked to
    be an integer, and is an int when P is None, else that int times the
    packed integer polynomial P."""
    blocks = [(rh, rl, w.numerator, dn * w.denominator, nr[n:] + nr[:n], pe)
              for rh, rl, w, pe, (nr, dn) in blocks]
    d = [1] * dim
    for rh, rl, p, den, swapped, _ in blocks:
        if den > 1:
            for r, line in [*enumerate(swapped, rh),
                            *enumerate(zip(*swapped), rl)]:
                g = math.gcd(den, p * math.gcd(*line))
                d[r] = math.lcm(d[r], den // g)
    rows = [{} for _ in range(dim)]
    for rh, rl, p, den, swapped, pe in blocks:
        if not p:
            continue
        for r, row in enumerate(swapped, rh):
            s = p * d[r] if r < rh + n else -p * d[r]
            for c, x in enumerate(row, rl):
                if x:
                    v, rem = divmod(x * s * d[c], den)
                    if rem:
                        raise SelfCheckFailed("H entry %d, %d does not clear"
                                              % (r, c))
                    if pe is None:
                        rows[r][c], rows[c][r] = v, -v
                    else:
                        rows[r][c] = {m: v * y for m, y in pe.items()}
                        rows[c][r] = {m: -v * y for m, y in pe.items()}
    return rows, d


def sum_traces(g, conn, w=None):
    """Weighted sum of Tr(m) over all multiwebs of g of the rank of conn."""
    wmap = weight_map(g, w)
    s = standard_structure(g)
    total = 0
    for m in enumerate_multiwebs(g, conn.n):
        total = total + trace_contraction(g, conn, m, s) * web_weight(m, wmap)
    return total


def _close(a, b):
    if isinstance(a, float) or isinstance(b, float):
        scale = max(1.0, abs(a), abs(b))
        return abs(a - b) <= 1e-9 * scale
    return a == b


def identity_sign(pf, ts):
    """The sign s with Pf(H) = s * trace sum, comparing floats to a
    relative 1e-9; raises IdentityViolated when neither sign fits, and
    OutOfRange when a float operand is not finite."""
    if any(isinstance(x, float) and not math.isfinite(x) for x in (pf, ts)):
        raise OutOfRange("Pf(H) = %r and trace sum = %r: a float is out of"
                         " the double range" % (pf, ts))
    if _close(pf, ts):
        return 1
    if _close(pf, -ts):
        return -1
    raise IdentityViolated("Pf(H) = %s but trace sum = %s" % (pf, ts))


def verify_main(g, conn, w=None):
    """Check Pf(H) = +/- sum of weighted traces and return the sign."""
    pf = HMatrix(g, conn, w).pfaffian()
    return identity_sign(pf, sum_traces(g, conn, w))


def dimer_partition(g, w=None):
    wmap = weight_map(g, w)
    return sum(math.prod(wmap[eid] for eid in sorted(d))
               for d in enumerate_dimers(g))


def verify_kasteleyn(g, w=None, n=1):
    """Check |Pf(H)| under the rank-n Kasteleyn connection is Z_dimer^2n."""
    conn = kasteleyn_connection(g, n)
    pf = HMatrix(g, conn, w).pfaffian()
    zd = dimer_partition(g, w) ** (2 * n)
    if _close(pf, zd) or _close(pf, -zd):
        return True
    raise IdentityViolated("Pf(H) = %s but Z^%d = %s" % (pf, 2 * n, zd))


def kasteleyn_trace_decomposition(g, m, w=None):
    """Weighted trace of m under the Kasteleyn connection, computed from
    the ordered decompositions of m into 2-multiwebs: each decomposition
    whose loops all enclose even area contributes 2^(number of loops),
    the rest contribute 0, and the total carries the sign (-1)^(nN/2)."""
    expo = kasteleyn_exponents(g)
    total = 0
    for parts in decompositions_into_2webs(g, m):
        loops = [lp for p in parts for lp in decompose_2multiweb(g, p).loops]
        # a loop's monodromy J^k has a zero corner exactly when k is odd
        if all(exponent_sum(g, loop.darts, expo) % 2 == 0 for loop in loops):
            total += 2 ** len(loops)
    sign = -1 if (m.n * len(g.vertices) // 2) % 2 else 1
    return sign * total * web_weight(m, weight_map(g, w))


def _ratio(num, den):
    if not den:
        raise DivByZero("denominator Pfaffian vanishes")
    return exact_div_scalar(num, den)


def _kasteleyn_ratio(g, flipped, w, expo):
    """Pf(H) under the rank-1 Kasteleyn connection of exponents expo times
    -I on the flipped edges, over Pf(H) under that connection alone."""
    twisted = {eid: k + 2 * (eid in flipped) for eid, k in expo.items()}
    num = HMatrix(g, j_connection(g, 1, twisted), w).pfaffian()
    return _ratio(num, HMatrix(g, j_connection(g, 1, expo), w).pfaffian())


def spin_correlation(g, f1, f2, w=None):
    """Double-dimer expectation of (-1)^(loops separating f1 from f2):
    the Pfaffian with spin flips on a dual path from f1 to f2 over the
    plain Kasteleyn Pfaffian."""
    for f in dict.fromkeys((f1, f2)):
        ell = g.face_length(f)
        if ell % 4 != 2:
            warnings.warn("spin flips want faces of length 2 mod 4; "
                          "face %d has length %d" % (f, ell), BadFaceLength)
    return _kasteleyn_ratio(g, spin_flips(g, [f1, f2]), w,
                            kasteleyn_exponents(g))


def annulus_parity(g, spec, w=None):
    """Double-dimer expectation of (-1)^(total winding) on an annulus,
    as the ratio of the Pfaffian twisted by the flat connection with
    holonomy -I (-I on every cut edge) to the untwisted one."""
    return _kasteleyn_ratio(g, {eid for eid, _ in spec.cut}, w, spec.expo)


def double_dimer_expectation(g, edge_signs, w=None):
    """Exhaustive check value: over ordered pairs of dimer covers, the
    expectation of the product over superposition loops of the product
    of edge_signs around the loop.  Doubled edges contribute nothing."""
    wmap = weight_map(g, w)
    dimers = enumerate_dimers(g)
    if not dimers:
        raise DivByZero("graph has no dimer cover")
    num = 0
    den = 0
    for d1 in dimers:
        for d2 in dimers:
            wt = 1
            for eid in sorted(d1) + sorted(d2):
                wt = wt * wmap[eid]
            val = 1
            for loop in decompose_2multiweb(g, superpose(g, [d1, d2])).loops:
                s = 1
                for eid in loop.edge_ids():
                    s *= edge_signs.get(eid, 1)
                val *= s
            num = num + wt * val
            den = den + wt
    return _ratio(num, den)


def u2_matrix(theta, alpha, beta, eps):
    """Real 4x4 embedding of the U(2) element with the given angles."""
    a = cmath.exp(1j * alpha) * math.cos(theta)
    b = cmath.exp(1j * beta) * math.sin(theta)
    c = -cmath.exp(1j * (eps - beta)) * math.sin(theta)
    d = cmath.exp(1j * (eps - alpha)) * math.cos(theta)
    return unitary_embed([[a.real, b.real], [c.real, d.real]],
                         [[a.imag, b.imag], [c.imag, d.imag]])


def u2_loop_trace(kind, alpha, eps, theta):
    """Weight of an annulus double-dimer loop under the embedded U(2)
    holonomy, by length parity and single vs doubled winding: kind is
    "odd-doubled", "even-single" or "even-doubled".  Independent of the
    off-diagonal phase beta."""
    ca = math.cos(2 * alpha - eps)
    ce = math.cos(eps)
    h = 2 * math.cos(alpha - eps / 2) ** 2 * math.cos(2 * theta)
    if kind == "odd-doubled":
        return 1 - ca + 2 * ce - h
    if kind == "even-single":
        return 2 * (math.cos(alpha) + math.cos(alpha - eps)) * math.cos(theta)
    if kind == "even-doubled":
        return 1 + ca + 2 * ce + h
    raise ValueError("unknown loop kind %r" % (kind,))


def solve_theta(alpha, eps):
    """cos(2 theta) killing the odd-doubled loop weight.  A value outside
    [-1, 1] is reported with an OutOfRange warning and returned as-is;
    the caller decides what to do with it."""
    den = 2 * math.cos(alpha - eps / 2) ** 2
    if abs(den) < 1e-14:
        raise DivByZero("cos(alpha - eps/2) vanishes")
    v = (1 - math.cos(2 * alpha - eps) + 2 * math.cos(eps)) / den
    if abs(v) > 1 + 1e-9:
        warnings.warn("cos(2 theta) = %r is outside [-1, 1]" % v, OutOfRange)
    return v


def _annulus_matrices(spec, r, ring):
    """Edge id -> J^k R^s on a cut edge crossed with sign s, else J^k, for
    k = spec.expo[eid] and J in ring; J^k R^s is k row swaps of R^s."""
    flat = {1: r, -1: block_transpose(r)}
    jk = [[list(map(ring, row)) for row in j_power(2, k)] for k in range(4)]
    mats = {eid: jk[k] for eid, k in spec.expo.items()}
    for eid, s in spec.cut:
        mats[eid] = flat[s]
        for _ in range(spec.expo[eid]):
            mats[eid] = j_times(mats[eid])
    return mats


def annulus_partition(g, spec, eps, alpha=0.0, beta=0.0):
    """Rank-2 Kasteleyn Pfaffian twisted by the flat embedded-U(2)
    connection, at the theta that kills odd-doubled loops.  H is all
    floats; unitary_embed checked RJ = JR."""
    v = solve_theta(alpha, eps)
    theta = 0.5 * math.acos(max(-1.0, min(1.0, v)))
    mats = _annulus_matrices(spec, u2_matrix(theta, alpha, beta, eps), float)
    return float(HMatrix(g, Connection(g, 2, mats)).pfaffian())


def annulus_coefficients(g, spec):
    """Exact C_0..C_K, K = 2 |cut|, of annulus_partition at alpha = 0 in
    x^k, x = 2 + 4 cos(eps), for number weights (a float as its Fraction).
    There theta = 0 and the cut holonomy is R = unitary_embed(diag(1, c),
    diag(0, s)), c = cos(eps), s = sin(eps): one packed Pfaffian gives
    P(c, s); s^2 -> 1 - c^2 and c = (x - 2) / 4 give the C_k."""
    c, s = Poly.var("c"), Poly.var("s")
    # written out: R is symplectic only modulo c^2 + s^2 - 1
    r = [[1, 0, 0, 0], [0, c, 0, s], [0, 0, 1, 0], [0, -s, 0, c]]
    for eid, w in weight_map(g).items():
        if isinstance(w, Poly):
            raise MalformedInput("edge %d weight %s is no number" % (eid, w))
    weights = {eid: Fraction(w) for eid, w in weight_map(g).items()}
    blocks, dim = _blocks(g, weights, 2)
    mats = _annulus_matrices(spec, r, int)
    pf = SkewMatrix(_entry_rows(blocks, mats, dim)).pfaffian()
    cx, ck = (Poly.var("x") - 2) * Fraction(1, 4), Poly()
    cpow, spow = [1, cx], [1, 1 - cx * cx]  # powers, each built once
    for mono, coeff in pf.terms.items():
        a, b = dict(mono).get("c", 0), dict(mono).get("s", 0)
        if b % 2:
            raise SelfCheckFailed("an odd power of s survives in P(c, s)")
        while len(cpow) <= a:
            cpow.append(cpow[-1] * cx)
        while len(spow) <= b // 2:
            spow.append(spow[-1] * spow[1])
        ck += coeff * cpow[a] * spow[b // 2]
    ck = {dict(m).get("x", 0): v for m, v in ck.terms.items()}
    if max(ck, default=0) > 2 * len(spec.cut):
        raise SelfCheckFailed("C_%d is nonzero, past K" % max(ck))
    return [ck.get(k, Fraction(0)) for k in range(2 * len(spec.cut) + 1)]
