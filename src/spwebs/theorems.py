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
Pfaffian into a polynomial in 2 + 4*cos(eps).
"""

import math
import cmath
import warnings
from fractions import Fraction

import numpy as np

from .connections import (Connection, exponent_sum, j_connection, j_power,
                          kasteleyn_connection, kasteleyn_exponents,
                          spin_flips, unitary_embed)
from .errors import (BadFaceLength, DimensionMismatch, DivByZero,
                     IdentityViolated, IllConditioned, NonCommuting,
                     OutOfRange, SelfCheckFailed, WrongRank)
from .linalg import (SkewMatrix, mat, mat_equal, scalar_is_zero,
                     symplectic_inverse)
from .planar import standard_structure
from .rings import Poly, exact_div_scalar
from .traces import trace_contraction
from .webs import (
    decompose_2multiweb,
    decompositions_into_2webs,
    enumerate_dimers,
    enumerate_multiwebs,
    superpose,
)

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def vertex_order(g):
    """Vertex ids sorted by (y, x, id); fixes the block layout of H."""
    return sorted(g.ipos, key=lambda v: (g.ipos[v][1], g.ipos[v][0], v))


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
        out[eid] = Poly.var(_LETTERS[i] if i < len(_LETTERS) else "w%d" % eid)
    return out


def web_weight(m, wmap):
    total = 1
    for eid, k in sorted(m.mult.items()):
        total = total * wmap[eid] ** k
    return total


class HMatrix(SkewMatrix):
    """Skew matrix of a weighted graph with a rank-n connection.

    Block (u, v) holds w_e * J * phi_e(v -> u): the same edge factor the
    trace engines contract, with the row indexing the color at u, so the
    Pfaffian expansion reproduces the colored trace sum term by term.
    Vertices are laid out in (y, x, id) order with the 2n colors of a
    vertex contiguous.  Edges are straight, so no two share a block.

    With int and Fraction weights and an exact connection, the int rows
    of B = DAD and the d_i come straight from the cleared edge matrices
    (_cleared_rows), and H's own entries are built only when asked for.
    Otherwise the entries where an edge matrix is nonzero are stored as
    rows of dicts (zeros under a zero weight, which keep its ring).
    """

    def __init__(self, g, conn, w=None):
        weights = weight_map(g, w)
        pos = {vid: i for i, vid in enumerate(vertex_order(g))}
        n, b = conn.n, 2 * conn.n
        # block (hi, lo) is w J m, m the matrix from lo to hi, since
        # J phi(hi -> lo) = m^T J = -(J m)^T.  Row i < n of J m is row
        # i + n of m, and row i + n is minus row i.
        blocks = [(b * pos[max(e.u, e.v)], b * pos[min(e.u, e.v)],
                   weights[e.id], e.id) for e in g.edges.values()]
        exact = [(rh, rl, wt, conn.cleared[eid]) for rh, rl, wt, eid in blocks
                 if isinstance(wt, (int, Fraction)) and conn.cleared[eid]]
        if len(exact) == len(blocks):
            super().__init__(*_cleared_rows(exact, n, b * len(pos)))
            return
        rows = [{} for _ in range(b * len(pos))]
        for rh, rl, wt, eid in blocks:
            m = conn.matrices[eid].tolist()
            # a float entry times the float of the weight is its product
            # with the weight, in fewer steps
            wf = float(wt) if isinstance(wt, (int, Fraction)) else wt
            for i, row in enumerate(m[n:] + m[:n]):
                for c, x in enumerate(row, rl):
                    if x:
                        val = x * (wf if isinstance(x, float) else wt)
                        val = val if i < n else -val
                        rows[rh + i][c] = val
                        rows[c][rh + i] = -val
        super().__init__(rows)


def _cleared_rows(blocks, n, dim):
    """The int rows of B = DAD and the d_i for H of exact rank-n blocks
    (rh, rl, w, (N, d)): block (rh, rl) is w J N / d, J N being N with its
    row halves swapped and the lower half negated, and d_r is the lcm of
    the lowest-terms denominators in row r, as linalg._clear takes them.
    With w = p/q and D = dq, the entries x p / D of a line (row or column)
    of J N whose gcd is g have denominators D / gcd(D, x p), whose lcm is
    D / gcd(D, p g).  Every entry of B is checked to be an integer."""
    blocks = [(rh, rl, w.numerator, dn * w.denominator, nr[n:] + nr[:n])
              for rh, rl, w, (nr, dn) in blocks]
    d = [1] * dim
    for rh, rl, p, den, swapped in blocks:
        if den > 1:
            for r, line in [*enumerate(swapped, rh),
                            *enumerate(zip(*swapped), rl)]:
                g = math.gcd(den, p * math.gcd(*line))
                d[r] = math.lcm(d[r], den // g)
    rows = [{} for _ in range(dim)]
    for rh, rl, p, den, swapped in blocks:
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
                    rows[r][c] = v
                    rows[c][r] = -v
    return rows, d


def sum_traces(g, conn, w=None, n=None):
    """Weighted sum of Tr(m) over all n-multiwebs of g."""
    rank = conn.n if n is None else n
    if rank != conn.n:
        raise WrongRank("connection has rank %d, asked for %d" % (conn.n, rank))
    wmap = weight_map(g, w)
    s = standard_structure(g)
    total = 0
    for m in enumerate_multiwebs(g, rank):
        total = total + trace_contraction(g, conn, m, s) * web_weight(m, wmap)
    return total


def _close(a, b):
    if isinstance(a, float) or isinstance(b, float):
        scale = max(1.0, abs(a), abs(b))
        return abs(a - b) <= 1e-9 * scale
    return a == b


def identity_sign(pf, ts):
    """The sign s with Pf(H) = s * trace sum, comparing floats to a
    relative 1e-9; raises IdentityViolated when neither sign fits."""
    if _close(pf, ts):
        return 1
    if _close(pf, -ts):
        return -1
    raise IdentityViolated("Pf(H) = %s but trace sum = %s" % (pf, ts))


def verify_main(g, conn, w=None, n=None):
    """Check Pf(H) = +/- sum of weighted traces and return the sign."""
    pf = HMatrix(g, conn, w).pfaffian()
    return identity_sign(pf, sum_traces(g, conn, w, n))


def dimer_partition(g, w=None):
    wmap = weight_map(g, w)
    total = 0
    for d in enumerate_dimers(g):
        t = 1
        for eid in sorted(d):
            t = t * wmap[eid]
        total = total + t
    return total


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
    if scalar_is_zero(den):
        raise DivByZero("denominator Pfaffian vanishes")
    return exact_div_scalar(num, den)


def _kasteleyn_ratio(g, flipped, w):
    """Pf(H) under the rank-1 Kasteleyn connection times -I on the
    flipped edges, over Pf(H) under the Kasteleyn connection alone."""
    expo = kasteleyn_exponents(g)
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
    return _kasteleyn_ratio(g, spin_flips(g, [f1, f2]), w)


def annulus_parity(g, spec, w=None):
    """Double-dimer expectation of (-1)^(total winding) on an annulus,
    as the ratio of the Pfaffian twisted by the flat connection with
    holonomy -I (-I on every cut edge) to the untwisted one."""
    return _kasteleyn_ratio(g, {eid for eid, _ in spec.cut}, w)


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
    re = mat([[a.real, b.real], [c.real, d.real]])
    im = mat([[a.imag, b.imag], [c.imag, d.imag]])
    return unitary_embed(re, im)


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


def annulus_partition(g, spec, eps, alpha=0.0, beta=0.0, w=None):
    """Rank-2 Kasteleyn Pfaffian twisted by the flat embedded-U(2)
    connection, at the theta that kills odd-doubled loops."""
    v = solve_theta(alpha, eps)
    theta = 0.5 * math.acos(max(-1.0, min(1.0, v)))
    r = u2_matrix(theta, alpha, beta, eps)
    flat = {1: r, -1: symplectic_inverse(r)}
    mats = {eid: j_power(2, k) for eid, k in kasteleyn_exponents(g).items()}
    # the flat factor is I off the cut, so only cut edges are multiplied
    for eid, s in spec.cut:
        ab, ba = mats[eid] @ flat[s], flat[s] @ mats[eid]
        if not mat_equal(ab, ba, tol=1e-9):
            raise NonCommuting("matrices on edge %d do not commute" % eid)
        mats[eid] = ab
    return float(HMatrix(g, Connection(g, 2, mats, check=False), w).pfaffian())


def extract_Ck(g, spec, eps_samples, alpha=0.0, beta=0.0, w=None):
    """Coefficients C_0..C_K of the annulus partition function in the
    monomial basis x^k, x = 2 + 4 cos(eps).  K = half the strand capacity
    of the cut: each cut edge carries at most 4 loop strands at rank 2
    and a winding loop uses at least 2 of them.  Least-squares over the
    samples; a Vandermonde condition number past 1e8 raises IllConditioned
    rather than returning noise."""
    k_max = 2 * len(spec.cut)
    if len(eps_samples) < k_max + 1:
        raise DimensionMismatch(
            "need at least %d samples for K = %d" % (k_max + 1, k_max))
    xs = [2.0 + 4.0 * math.cos(e) for e in eps_samples]
    v = np.array([[x ** k for k in range(k_max + 1)] for x in xs], dtype=float)
    cond = np.linalg.cond(v)
    if cond > 1e8:
        raise IllConditioned("Vandermonde condition number %.3g" % cond)
    z = np.array([annulus_partition(g, spec, e, alpha=alpha, beta=beta, w=w)
                  for e in eps_samples], dtype=float)
    coeffs, _, _, _ = np.linalg.lstsq(v, z, rcond=None)
    return [float(c) for c in coeffs]
