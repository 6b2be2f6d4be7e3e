"""Command line front end.

Loads graphs, connections, webs and vector files from JSON, runs the
enumerations, traces, Pfaffians and identity checks, and prints
canonical deterministic output: exact scalars through format_scalar,
floats through repr, JSON with sorted keys.  Exit code 0 on success,
1 when an identity check fails, 2 on usage errors.
"""

import argparse
import json
import math
import random
import sys

import numpy as np

from . import theorems as th
from .connections import (annulus_spec, identity_connection,
                          kasteleyn_connection, load_connection)
from .errors import IdentityViolated, SpwebsError, json_check
from .planar import cilia_parity, load_graph, standard_structure
from .rand import random_connection, random_planar_graph, random_polygon
from .rings import format_scalar, parse_scalar
from .traces import (det_vertex, qdet, trace_coloring, trace_contraction,
                     trace_sp2_loops, wedge_norm)
from .webs import enumerate_dimers, enumerate_multiwebs, load_multiweb

DEFAULT_SEED = 20260814


def _emit(args, human, payload):
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)
    return 0


def _graph(args):
    if not args.graph:
        raise SpwebsError("--graph is required for this command")
    return load_graph(args.graph)


def _face(g, f):
    if not 0 <= f < len(g.faces):
        raise SpwebsError("no face %d: the graph has faces 0..%d"
                          % (f, len(g.faces) - 1))
    return f


def _connection(args, g):
    if args.conn:
        return load_connection(g, args.conn)
    return identity_connection(g, args.n)


def _weights(args, g):
    if args.weights == "symbolic" or args.ring == "poly":
        return th.symbolic_weights(g)
    wmap = th.weight_map(g)
    if args.ring == "float":
        return {eid: float(w) for eid, w in wmap.items()}
    return wmap


def _load_rows(path):
    """A JSON list of lists of scalars, parsed."""
    with open(path) as fh:
        rows = json_check(json.load(fh), list, path)
    return [[parse_scalar(x) for x in json_check(row, list, "row")]
            for row in rows]


def _load_vectors(path, n):
    """The 2n vectors of a vector file."""
    vs = [np.array(row, dtype=object) for row in _load_rows(path)]
    if len(vs) != 2 * n:
        raise SpwebsError("expected %d vectors, file has %d"
                          % (2 * n, len(vs)))
    return vs


def cmd_multiwebs(args):
    g = _graph(args)
    webs = sorted(enumerate_multiwebs(g, args.n),
                  key=lambda m: tuple(sorted(m.mult.items())))
    lines = [" ".join("%d:%d" % it for it in sorted(m.mult.items()))
             for m in webs]
    payload = {"count": len(webs),
               "multiwebs": [{str(e): k for e, k in sorted(m.mult.items())}
                             for m in webs]}
    return _emit(args, "\n".join(lines + ["count %d" % len(webs)]), payload)


def cmd_dimers(args):
    g = _graph(args)
    covers = sorted(sorted(d) for d in enumerate_dimers(g))
    lines = [" ".join(str(e) for e in d) for d in covers]
    payload = {"count": len(covers), "dimers": covers}
    return _emit(args, "\n".join(lines + ["count %d" % len(covers)]), payload)


def cmd_trace(args):
    g = _graph(args)
    conn = _connection(args, g)
    m = load_multiweb(args.web)
    s = standard_structure(g)
    method = {"coloring": trace_coloring, "contraction": trace_contraction,
              "loops": trace_sp2_loops}[args.method]
    value = method(g, conn, m, s)
    return _emit(args, format_scalar(value), {"trace": format_scalar(value)})


def cmd_pfaffian(args):
    g = _graph(args)
    conn = _connection(args, g)
    pf = th.HMatrix(g, conn, _weights(args, g)).pfaffian()
    return _emit(args, format_scalar(pf), {"pf": format_scalar(pf)})


def cmd_verify_main(args):
    if args.graph:
        g = _graph(args)
        conn = _connection(args, g)
        w = _weights(args, g)
        pf = th.HMatrix(g, conn, w).pfaffian()
        ts = th.sum_traces(g, conn, w)
        sign = th.identity_sign(pf, ts)
        human = "sign %+d\nOK" % sign
        return _emit(args, human, {"pf": format_scalar(pf),
                                   "sum_traces": format_scalar(ts),
                                   "sign": sign})
    rnd = random.Random(args.seed)
    count = args.count if args.count else (50 if args.n == 1 else 20)
    hi = 6 if args.n == 1 else 4
    for _ in range(count):
        g = random_planar_graph(rnd, rnd.randint(3, hi))
        th.verify_main(g, random_connection(g, rnd, args.n))
    human = "ok %d instances (n=%d, seed=%d)" % (count, args.n, args.seed)
    return _emit(args, human, {"ok": count, "n": args.n, "seed": args.seed})


def cmd_kasteleyn(args):
    g = _graph(args)
    conn = kasteleyn_connection(g, args.n)
    pf = th.HMatrix(g, conn, _weights(args, g)).pfaffian()
    return _emit(args, format_scalar(pf), {"pf": format_scalar(pf)})


def cmd_spin_corr(args):
    g = _graph(args)
    value = th.spin_correlation(g, _face(g, args.f1), _face(g, args.f2),
                                 _weights(args, g))
    return _emit(args, format_scalar(value), {"spin": format_scalar(value)})


def cmd_annulus_parity(args):
    g = _graph(args)
    spec = annulus_spec(g, _face(g, args.inner))
    value = th.annulus_parity(g, spec, _weights(args, g))
    return _emit(args, format_scalar(value), {"parity": format_scalar(value)})


def cmd_annulus_ck(args):
    g = _graph(args)
    spec = annulus_spec(g, _face(g, args.inner))
    k_max = 2 * len(spec.cut)
    if args.samples:
        samples = [float(x) for x in args.samples.split(",")]
    else:
        samples = [0.2 + 2.8 * i / (k_max + 1) for i in range(k_max + 2)]
    if len(samples) < k_max + 2:
        raise SpwebsError("need at least %d samples (K = %d plus a held-out"
                          " point)" % (k_max + 2, k_max))
    coeffs = th.extract_Ck(g, spec, samples[:-1])
    x = 2.0 + 4.0 * math.cos(samples[-1])
    z = th.annulus_partition(g, spec, samples[-1])
    residual = abs(z - sum(c * x ** k for k, c in enumerate(coeffs)))
    human = "\n".join(["C_%d = %r" % (k, c) for k, c in enumerate(coeffs)]
                      + ["residual = %r" % residual])
    return _emit(args, human, {"C": coeffs, "residual": residual})


def cmd_det_vertex(args):
    value = det_vertex(_load_vectors(args.vectors, args.n))
    return _emit(args, format_scalar(value), {"det": format_scalar(value)})


def cmd_wedge_norm(args):
    value = wedge_norm(_load_vectors(args.vectors, args.n))
    return _emit(args, format_scalar(value), {"det": format_scalar(value)})


def cmd_qdet(args):
    a = np.array(_load_rows(args.matrix), dtype=object)
    value = qdet(a, parse_scalar(args.q))
    return _emit(args, format_scalar(value), {"qdet": format_scalar(value)})


def cmd_isotopy_check(args):
    rnd = random.Random(args.seed)
    count = args.count if args.count else 1000
    for i in range(count):
        d, s, n = cilia_parity(random_polygon(rnd))
        if (d - s - n - 1) % 2 != 0:
            print("IDENTITY VIOLATED: polygon %d has d=%d s=%d n=%d"
                  % (i, d, s, n))
            return 1
    human = "ok %d polygons (seed=%d)" % (count, args.seed)
    return _emit(args, human, {"ok": count, "seed": args.seed})


def _int_at_least(lo):
    """Argument type: an integer no smaller than lo."""
    def parse(text):
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(
                "must be at least %d, got %d" % (lo, value))
        return value
    parse.__name__ = "int"  # argparse reports "invalid int value"
    return parse


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--graph", help="graph JSON file")
    common.add_argument("--conn", help="connection JSON file")
    common.add_argument("--n", type=_int_at_least(1), default=1, help="rank")
    common.add_argument("--weights", choices=["symbolic", "file"],
                        default="file",
                        help="edge weights: one variable per edge, or the"
                             " weights stored in the graph file")
    common.add_argument("--ring", choices=["rational", "poly", "float"],
                        default="rational")
    common.add_argument("--json", action="store_true")
    common.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common.add_argument("--count", type=_int_at_least(0), default=0,
                        help="size of randomized suites (0: the default)")

    parser = argparse.ArgumentParser(prog="spwebs",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("multiwebs", parents=[common])
    p.set_defaults(func=cmd_multiwebs)
    p = sub.add_parser("dimers", parents=[common])
    p.set_defaults(func=cmd_dimers)
    p = sub.add_parser("trace", parents=[common])
    p.add_argument("--web", required=True, help="multiweb JSON file")
    p.add_argument("--method", choices=["coloring", "contraction", "loops"],
                   default="contraction")
    p.set_defaults(func=cmd_trace)
    p = sub.add_parser("pfaffian", parents=[common])
    p.set_defaults(func=cmd_pfaffian)
    p = sub.add_parser("verify-main", parents=[common])
    p.set_defaults(func=cmd_verify_main)
    p = sub.add_parser("kasteleyn", parents=[common])
    p.set_defaults(func=cmd_kasteleyn)
    p = sub.add_parser("spin-corr", parents=[common])
    p.add_argument("--f1", type=int, required=True)
    p.add_argument("--f2", type=int, required=True)
    p.set_defaults(func=cmd_spin_corr)
    p = sub.add_parser("annulus-parity", parents=[common])
    p.add_argument("--inner", type=int, required=True, help="inner face index")
    p.set_defaults(func=cmd_annulus_parity)
    p = sub.add_parser("annulus-ck", parents=[common])
    p.add_argument("--inner", type=int, required=True, help="inner face index")
    p.add_argument("--samples", help="comma separated eps values; the last"
                                     " one is held out for the residual")
    p.set_defaults(func=cmd_annulus_ck)
    p = sub.add_parser("det-vertex", parents=[common])
    p.add_argument("--vectors", required=True, help="JSON list of vectors")
    p.set_defaults(func=cmd_det_vertex)
    p = sub.add_parser("wedge-norm", parents=[common])
    p.add_argument("--vectors", required=True, help="JSON list of vectors")
    p.set_defaults(func=cmd_wedge_norm)
    p = sub.add_parser("qdet", parents=[common])
    p.add_argument("--matrix", required=True, help="JSON matrix file")
    p.add_argument("--q", required=True, help="deformation scalar")
    p.set_defaults(func=cmd_qdet)
    p = sub.add_parser("isotopy-check", parents=[common])
    p.set_defaults(func=cmd_isotopy_check)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except IdentityViolated as exc:
        print("IDENTITY VIOLATED: %s" % exc)
        return 1
    except (SpwebsError, OSError, ValueError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
