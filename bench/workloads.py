"""The four workloads, as cycles of CLI ops with invariant checks.

An op is one ``spwebs.cli.main([..., "--json"])`` call on files written
during set-up.  Its check receives the parsed JSON output and returns
True when the output satisfies an invariant that every correct
implementation must meet; checks are never byte snapshots.  A workload
is a list of cycles; each cycle holds the workload's whole op mix in a
fixed interleaved order, so a run that stops on a cycle boundary always
measures the same mix.

Set-up may call the library's deterministic public builders (graph
loading, face lookup, the Kasteleyn connection, gauge transforms and
connection saving): any correct implementation of those writes the same
files.
"""

import json
import math
import re
from fractions import Fraction
from pathlib import Path

import inputs as gen
from spwebs import gauge_transform, kasteleyn_connection, load_graph, save_connection
from spwebs.rings import parse_scalar

WORKLOADS = ("trace_sum", "pfaffian_grid", "symbolic", "cli_small")


class Op:
    __slots__ = ("kind", "argv", "check")

    def __init__(self, kind, argv, check):
        self.kind = kind
        self.argv = [str(a) for a in argv] + ["--json"]
        self.check = check


# -- checks ---------------------------------------------------------------


def exact(text):
    x = parse_scalar(text)
    if not isinstance(x, Fraction):
        raise ValueError("not an exact rational: %r" % (text,))
    return x


def parse_poly(text):
    """Parse printed polynomials such as ``a^2*b - 3/2*c + 1`` into
    {monomial: Fraction}, monomials as sorted (variable, exponent) tuples."""
    text = text.strip()
    if text == "0":
        return {}
    if text.startswith("-"):
        text = "0 - " + text[1:]
    parts = re.split(r" ([+-]) ", text)
    out = {}
    for sign, body in zip(["+"] + parts[1::2], parts[0::2]):
        coef = Fraction(1 if sign == "+" else -1)
        factors = {}
        for f in body.split("*"):
            if f[0].isdigit():
                coef *= Fraction(f)
            else:
                v, _, e = f.partition("^")
                factors[v] = factors.get(v, 0) + (int(e) if e else 1)
        mono = tuple(sorted(factors.items()))
        out[mono] = out.get(mono, 0) + coef
    return {m: c for m, c in out.items() if c}


def power_check(key, z_power):
    """|value| = Z^(2n) exactly."""
    return lambda p: abs(exact(p[key])) == z_power


def poly_power_check(key, target):
    """The printed polynomial is +-target, as {monomial: coefficient}."""
    neg = {m: -c for m, c in target.items()}
    return lambda p: parse_poly(p[key]) in (target, neg)


def ratio_check(key, z):
    """A double-dimer expectation: |v| <= 1 and v * Z^2 is an integer."""
    def check(p):
        v = exact(p[key])
        return abs(v) <= 1 and (v * z * z).denominator == 1
    return check


def ck_check(z):
    """sum C_k 6^k is Z^4 (x = 6 is the untwisted annulus) to a relative
    1e-9, and the held-out residual is at most 1e-6 Z^4."""
    z4 = float(z) ** 4

    def check(p):
        total = sum(float(c) * 6.0 ** k for k, c in enumerate(p["C"]))
        return (math.isclose(total, z4, rel_tol=1e-9)
                and float(p["residual"]) <= 1e-6 * z4)
    return check


def identity_check(symbolic=False):
    """verify-main: pf = sign * sum_traces."""
    def check(p):
        if p["sign"] not in (1, -1):
            return False
        if symbolic:
            pf, ts = parse_poly(p["pf"]), parse_poly(p["sum_traces"])
            return pf == {m: p["sign"] * c for m, c in ts.items()}
        return exact(p["pf"]) == p["sign"] * exact(p["sum_traces"])
    return check


def equals_check(key, value):
    return lambda p: exact(str(p[key])) == value


# -- set-up helpers -------------------------------------------------------


class Files:
    """Writes numbered input files into one set-up directory."""

    def __init__(self, workdir):
        self.dir = Path(workdir)
        self.count = 0

    def write(self, stem, data):
        self.count += 1
        return gen.write_json(self.dir / ("%s-%d.json" % (stem, self.count)),
                              data)


def face_index(path, vids):
    """Index of the bounded face with the given vertex set."""
    g = load_graph(path)
    for f in g.bounded_faces():
        if sorted(g.face_vertices(f)) == sorted(vids):
            return f
    raise LookupError("no bounded face on %r" % (vids,))


def gauged_kasteleyn(path, n, rnd, files):
    """The rank-n Kasteleyn connection of a graph file, gauge-transformed
    by random Sp(2n) words at every vertex.  Its H has rational entries
    and the same Pfaffian."""
    g = load_graph(path)
    gauges = {v: gen.sp_word(rnd, n, 2) for v in sorted(g.vertices)}
    conn = gauge_transform(g, kasteleyn_connection(g, n), gauges)
    out = files.write("conn", {})
    save_connection(g, conn, out)
    return out


# -- workloads ------------------------------------------------------------

# trace_sum: verify-main on convex-position graphs.  Eight rank-1 ops on
# 3-6 vertices interleave with four rank-2 ops.  The four dearest rank-1
# ops are all hexagons, so p50 falls in the middle of that one shape (a
# few ms, mostly fixed overhead) instead of on the edge between two.  The
# rank-2 ops are one triangle and three 4-vertex graphs with one
# diagonal, whose middle is p90 (~0.3 s, almost all of it trace
# contraction).  Each edge carries one symmetric shear, upper or lower at
# random: longer words make the cost of an op bimodal (rank 1) or 3-6x
# higher and swinging with the zero pattern (rank 2), which would move
# the percentiles with the seed.
TRACE_SUM_MIX = [(1, 3, 0), (1, 6, 0), (2, 4, 1), (1, 4, 0), (1, 6, 0),
                 (2, 3, 0), (1, 4, 1), (1, 6, 0), (2, 4, 1), (1, 5, 1),
                 (1, 6, 0), (2, 4, 1)]


def trace_sum(rnd, files, cycles):
    out = []
    for _ in range(cycles):
        cycle = []
        for n, nv, diagonals in TRACE_SUM_MIX:
            g = gen.convex_graph(rnd, nv, diagonals, weighted=True)
            gp = files.write("graph", g.to_dict())
            cp = files.write("conn", gen.connection_dict(g, n, rnd, 1))
            cycle.append(Op("verify-main r%d" % n,
                            ["verify-main", "--graph", gp, "--conn", cp,
                             "--n", n], identity_check()))
        out.append(cycle)
    return out


# pfaffian_grid: dimer statistics on weighted grids 4x4 to 6x6, where the
# Pfaffian does the work.  One cycle holds 28 ops (about 4 s): integral
# (kasteleyn), rational (gauged pfaffian), ratio (spin-corr,
# annulus-parity, two Pfaffians each) and one float annulus-ck, whose
# cost is mostly connection building rather than Pfaffians; mid-size
# grids dominate so the Pfaffian stays above 80% of op time while a run
# still completes 100+ ops.
GRID_MIX = [("kasteleyn", 4, 4, 1), ("pfaffian", 4, 5, 1),
            ("spin-corr", 4, 4, 1), ("kasteleyn", 4, 6, 1),
            ("annulus-parity", 4, 5, 1), ("pfaffian", 4, 6, 1),
            ("kasteleyn", 4, 4, 2), ("spin-corr", 4, 5, 1),
            ("kasteleyn", 5, 6, 1), ("annulus-parity", 4, 4, 1),
            ("kasteleyn", 6, 6, 1), ("spin-corr", 4, 6, 1),
            ("kasteleyn", 4, 5, 1), ("annulus-ck", 4, 4, 2),
            ("pfaffian", 5, 6, 1), ("annulus-parity", 4, 6, 1),
            ("pfaffian", 6, 6, 1), ("spin-corr", 4, 5, 1),
            ("kasteleyn", 4, 6, 1), ("annulus-parity", 4, 5, 1),
            ("pfaffian", 4, 5, 1), ("spin-corr", 4, 6, 1),
            ("pfaffian", 4, 6, 1), ("kasteleyn", 4, 4, 2),
            ("kasteleyn", 4, 5, 1), ("annulus-parity", 4, 6, 1),
            ("pfaffian", 4, 4, 1), ("kasteleyn", 5, 6, 1)]


def pfaffian_grid(rnd, files, cycles):
    out = []
    for _ in range(cycles):
        cycle = []
        for verb, rows, cols, n in GRID_MIX:
            g = gen.grid(rows, cols, weighted=True)
            gp = files.write("grid", g.to_dict())
            z = gen.grid_dimers(rows, cols, g)
            argv = [verb, "--graph", gp]
            kind = "%s %dx%d" % (verb, rows, cols)
            if verb == "kasteleyn":
                argv += ["--n", n]
                check = power_check("pf", z ** (2 * n))
                kind += " r%d" % n
            elif verb == "pfaffian":
                argv += ["--n", n, "--conn", gauged_kasteleyn(gp, n, rnd, files)]
                check = power_check("pf", z ** (2 * n))
            elif verb == "spin-corr":
                faces = [(i, j) for i in range(cols - 1) for j in range(rows - 1)]
                a, b = rnd.sample(faces, 2)
                argv += ["--f1", face_index(gp, gen.grid_face(rows, cols, *a)),
                         "--f2", face_index(gp, gen.grid_face(rows, cols, *b))]
                check = ratio_check("spin", z)
            elif verb == "annulus-parity":
                i, j = rnd.randrange(cols - 1), rnd.randrange(rows - 1)
                argv += ["--inner", face_index(gp, gen.grid_face(rows, cols, i, j))]
                check = ratio_check("parity", z)
            else:
                # the centre square of 4x4: a 3-edge cut, so K = 6
                argv += ["--inner", face_index(gp, gen.grid_face(rows, cols, 1, 1))]
                check = ck_check(z)
            cycle.append(Op(kind, argv, check))
        out.append(cycle)
    return out


# symbolic: the same Pfaffian on Poly entries (one variable per edge).
# (verb, rank, graph) with graph either a grid shape or (vertices,
# diagonals) of a convex-position graph.
SYMBOLIC_MIX = [("kasteleyn", 1, (4, 1)), ("verify-main", 1, (3, 0)),
                ("kasteleyn", 2, "2x3"), ("kasteleyn", 1, (6, 2)),
                ("verify-main", 1, (4, 1)), ("kasteleyn", 2, (4, 1)),
                ("kasteleyn", 1, "3x4"), ("verify-main", 1, (5, 2)),
                ("kasteleyn", 2, "2x4"), ("kasteleyn", 1, (6, 3)),
                ("kasteleyn", 2, (6, 1))]


def symbolic(rnd, files, cycles):
    out = []
    for _ in range(cycles):
        cycle = []
        for verb, n, shape in SYMBOLIC_MIX:
            if isinstance(shape, str):
                rows, cols = map(int, shape.split("x"))
                g = gen.grid(rows, cols)
                label = shape
            else:
                g = gen.convex_graph(rnd, *shape)
                label = "%dv" % shape[0]
            data = g.to_dict()
            gp = files.write("graph", data)
            argv = [verb, "--graph", gp, "--n", n, "--weights", "symbolic"]
            if verb == "kasteleyn":
                z = gen.symbolic_dimers(data)
                check = poly_power_check("pf", gen.poly_pow(z, 2 * n))
            else:
                argv += ["--conn", files.write("conn", gen.connection_dict(g, n, rnd, 2))]
                check = identity_check(symbolic=True)
            cycle.append(Op("%s %s r%d" % (verb, label, n), argv, check))
        out.append(cycle)
    return out


def cli_small(rnd, files, cycles, data_dir):
    """All 13 verbs on the repository's small example graphs and on
    seeded vector and matrix files."""
    d = Path(data_dir)
    two_by_three, cube, c4 = (str(d / f) for f in ("2by3.json", "cube.json", "c4.json"))
    web = str(d / "golden_web.json")
    cube_data, tbt_data, c4_data = (gen.read_json(f) for f in (cube, two_by_three, c4))
    z_cube = gen.dimer_count(cube_data)
    z_c4 = gen.dimer_count(c4_data)
    webs_2by3 = gen.regular_count(tbt_data, 4)
    z4_2by3 = gen.poly_pow(gen.symbolic_dimers(tbt_data), 4)
    cube_inner = face_index(cube, [4, 5, 6, 7])
    cube_faces = [face_index(cube, f) for f in
                  ([0, 1, 4, 5], [1, 2, 5, 6], [2, 3, 6, 7], [0, 3, 4, 7])]
    golden = tuple(sorted((gen.edge_variable(k), e) for k, e in
                          enumerate([2, 1, 1, 2, 1, 1])))

    def golden_coefficient(p):
        return parse_poly(p["pf"]).get(golden) == 12

    out = []
    for _ in range(cycles):
        rows = [[gen.small_fraction(rnd) for _ in range(4)] for _ in range(4)]
        vec = files.write("vectors", [[gen.fmt(x) for x in r] for r in rows])
        square = [[gen.small_fraction(rnd) for _ in range(4)] for _ in range(4)]
        matrix = files.write("matrix", [[gen.fmt(x) for x in r] for r in square])
        # wedge-norm takes the rows as columns: the same determinant
        d_vec, d_mat = gen.det(rows), gen.det(square)
        g = gen.convex_graph(rnd, 5, 2, weighted=True)
        gp = files.write("graph", g.to_dict())
        cp = files.write("conn", gen.connection_dict(g, 1, rnd, 2))
        f1, f2 = rnd.sample(cube_faces, 2)
        seed = rnd.randrange(10 ** 6)
        kz = gauged_kasteleyn(cube, 1, rnd, files)
        cycle = [
            Op("multiwebs", ["multiwebs", "--graph", two_by_three, "--n", 2],
               equals_check("count", webs_2by3)),
            Op("dimers", ["dimers", "--graph", cube],
               equals_check("count", z_cube)),
            Op("trace", ["trace", "--graph", two_by_three, "--n", 2,
                         "--web", web], equals_check("trace", 4)),
            Op("pfaffian", ["pfaffian", "--graph", cube, "--conn", kz],
               power_check("pf", z_cube ** 2)),
            Op("verify-main", ["verify-main", "--graph", gp, "--conn", cp],
               identity_check()),
            Op("kasteleyn", ["kasteleyn", "--graph", two_by_three, "--n", 2,
                             "--weights", "symbolic"],
               lambda p: golden_coefficient(p) and poly_power_check("pf", z4_2by3)(p)),
            Op("spin-corr", ["spin-corr", "--graph", cube, "--f1", f1,
                             "--f2", f2], ratio_check("spin", z_cube)),
            Op("annulus-parity", ["annulus-parity", "--graph", cube,
                                  "--inner", cube_inner],
               equals_check("parity", Fraction(25, 81))),
            Op("annulus-ck", ["annulus-ck", "--graph", c4, "--inner",
                              face_index(c4, [0, 1, 2, 3])], ck_check(z_c4)),
            Op("det-vertex", ["det-vertex", "--n", 2, "--vectors", vec],
               equals_check("det", d_vec)),
            Op("wedge-norm", ["wedge-norm", "--n", 2, "--vectors", vec],
               equals_check("det", d_vec)),
            Op("qdet", ["qdet", "--matrix", matrix, "--q", 1],
               equals_check("qdet", d_mat)),
            Op("isotopy-check", ["isotopy-check", "--count", 40, "--seed", seed],
               equals_check("ok", 40)),
            Op("verify-main count", ["verify-main", "--n", 1, "--count", 2,
                                     "--seed", seed], equals_check("ok", 2)),
        ]
        out.append(cycle)
    return out


def build(name, rnd, workdir, data_dir, cycles):
    """Cycles of ops for one workload; files go to workdir."""
    files = Files(workdir)
    if name == "trace_sum":
        return trace_sum(rnd, files, cycles)
    if name == "pfaffian_grid":
        return pfaffian_grid(rnd, files, cycles)
    if name == "symbolic":
        return symbolic(rnd, files, cycles)
    if name == "cli_small":
        return cli_small(rnd, files, cycles, data_dir)
    raise ValueError("unknown workload %r" % (name,))
