"""Command line front end.

Loads graphs, connections, webs and vector files from JSON, runs the
enumerations, traces, Pfaffians and identity checks, and prints
canonical deterministic output: exact scalars through format_scalar,
floats through repr, JSON with sorted keys.  Exit code 0 on success,
1 when an identity check fails, and 2 on usage errors and malformed
input.  A library warning is printed to stderr as one "warning:" line.

VERBS maps each verb to its handler and to exactly the flags that
handler reads; besides those, every verb takes --json, and any other
flag is a usage error.  The parsers are built once per process, and a
verb's arguments are parsed by its own sub-parser.
"""

import argparse
import functools
import json
import math
import random
import sys
import warnings
from fractions import Fraction

from . import theorems as th
from .connections import (annulus_spec, identity_connection,
                          kasteleyn_connection, load_connection)
from .errors import IdentityViolated, SpwebsError, WrongRank, json_check
from .planar import cilia_parity, load_graph, standard_structure
from .rand import random_connection, random_planar_graph, random_polygon
from .rings import format_scalar, parse_scalar
from .traces import (det_vertex, qdet, trace_coloring, trace_contraction,
                     trace_sp2_loops, wedge_norm)
from .webs import enumerate_dimers, enumerate_multiwebs, load_multiweb

DEFAULT_SEED = 20260814


def _graph(args):
    if not args.graph:
        raise SpwebsError("--graph is required for this command")
    return load_graph(args.graph)


def _face(g, f):
    if not 0 <= f < len(g.faces):
        raise SpwebsError("no face %d: the graph has %s" % (
            f, "faces 0..%d" % (len(g.faces) - 1) if g.faces else "no faces"))
    return f


def _connection(args, g):
    """The --conn file, whose rank an explicit --n must match, or else
    the identity connection of rank --n."""
    if not args.conn:
        return identity_connection(g, args.n or 1)
    conn = load_connection(g, args.conn)
    if args.n not in (None, conn.n):
        raise WrongRank("--n %d, but %s has rank %d"
                        % (args.n, args.conn, conn.n))
    return conn


def _weights(g, ring, weights=None):
    if weights == "symbolic":
        return th.symbolic_weights(g)
    wmap = th.weight_map(g)
    if ring == "float":
        return {eid: th.float_weight(eid, w) for eid, w in wmap.items()}
    return wmap


def _load_rows(path):
    """A JSON list of lists of scalars, parsed."""
    with open(path) as fh:
        rows = json_check(json.load(fh), list, path)
    return [[parse_scalar(x) for x in json_check(row, list, "row")]
            for row in rows]


def _vectors(args):
    """The 2n vectors of the --vectors file."""
    n = args.n or 1
    vs = _load_rows(args.vectors)
    if len(vs) != 2 * n:
        raise SpwebsError("expected %d vectors, file has %d"
                          % (2 * n, len(vs)))
    return vs


def cmd_multiwebs(args):
    webs = sorted(tuple(sorted(m.mult.items()))
                  for m in enumerate_multiwebs(_graph(args), args.n or 1))
    lines = [" ".join("%d:%d" % it for it in w) for w in webs]
    payload = {"count": len(webs),
               "multiwebs": [{str(e): k for e, k in w} for w in webs]}
    return "\n".join(lines + ["count %d" % len(webs)]), payload


def cmd_dimers(args):
    covers = sorted(sorted(d) for d in enumerate_dimers(_graph(args)))
    lines = [" ".join(str(e) for e in d) for d in covers]
    payload = {"count": len(covers), "dimers": covers}
    return "\n".join(lines + ["count %d" % len(covers)]), payload


def cmd_trace(args):
    g = _graph(args)
    conn = _connection(args, g)
    m = load_multiweb(args.web)
    method = {"coloring": trace_coloring, "contraction": trace_contraction,
              "loops": trace_sp2_loops}[args.method]
    return method(g, conn, m, standard_structure(g))


def cmd_pfaffian(args, connection=_connection):
    g = _graph(args)
    conn = connection(args, g)
    w = _weights(g, args.ring, args.weights)
    return th.HMatrix(g, conn, w).pfaffian()


def cmd_verify_main(args):
    if args.graph:
        if args.seed is not None or args.count is not None:
            args.usage_error("--seed and --count size the random suite,"
                             " which runs without --graph")
        g = _graph(args)
        conn = _connection(args, g)
        w = _weights(g, args.ring, args.weights)
        pf = th.HMatrix(g, conn, w).pfaffian()
        ts = th.sum_traces(g, conn, w)
        sign = th.identity_sign(pf, ts)
        return "sign %+d\nOK" % sign, {"pf": format_scalar(pf),
                                       "sum_traces": format_scalar(ts),
                                       "sign": sign}
    if (args.conn, args.weights, args.ring) != (None, None, None):
        args.usage_error("--conn, --weights and --ring need --graph")
    n = args.n or 1
    seed = DEFAULT_SEED if args.seed is None else args.seed
    count = args.count or (50 if n == 1 else 20)
    rnd = random.Random(seed)
    hi = 6 if n == 1 else 4
    for _ in range(count):
        g = random_planar_graph(rnd, rnd.randint(3, hi))
        th.verify_main(g, random_connection(g, rnd, n))
    return ("ok %d instances (n=%d, seed=%d)" % (count, n, seed),
            {"ok": count, "n": n, "seed": seed})


def _kasteleyn(args, g):
    return kasteleyn_connection(g, args.n or 1)


def cmd_spin_corr(args):
    g = _graph(args)
    return th.spin_correlation(g, _face(g, args.f1), _face(g, args.f2),
                               _weights(g, args.ring))


def cmd_annulus_parity(args):
    g = _graph(args)
    spec = annulus_spec(g, _face(g, args.inner))
    return th.annulus_parity(g, spec, _weights(g, args.ring))


def cmd_annulus_ck(args):
    g = _graph(args)
    spec = annulus_spec(g, _face(g, args.inner))
    # the held-out float Pfaffian comes first: it rejects a Poly weight
    z = th.annulus_partition(g, spec, 3.0)
    coeffs = th.annulus_coefficients(g, spec)
    x = Fraction(2.0 + 4.0 * math.cos(3.0))
    residual = abs(z - float(sum(c * x ** k for k, c in enumerate(coeffs))))
    exact = [format_scalar(c) for c in coeffs]
    human = "\n".join(["C_%d = %s" % kc for kc in enumerate(exact)]
                      + ["residual = %r" % residual])
    return human, {"C": [float(c) for c in coeffs], "C_exact": exact,
                   "residual": residual}


def cmd_isotopy_check(args):
    seed = DEFAULT_SEED if args.seed is None else args.seed
    count = args.count or 1000
    rnd = random.Random(seed)
    for i in range(count):
        d, s, n = cilia_parity(random_polygon(rnd))
        if (d - s - n - 1) % 2 != 0:
            raise IdentityViolated("polygon %d has d=%d s=%d n=%d"
                                   % (i, d, s, n))
    return ("ok %d polygons (seed=%d)" % (count, seed),
            {"ok": count, "seed": seed})


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


FLAGS = {
    "graph": dict(help="graph JSON file"),
    "conn": dict(help="connection JSON file (default: identity)"),
    "n": dict(type=_int_at_least(1),
              help="rank (default: the rank of --conn, else 1)"),
    "weights": dict(choices=["symbolic", "file"], help="one variable per"
                    " edge, or the graph file's weights (default)"),
    "ring": dict(choices=["rational", "float"],
                 help="exact rationals (default) or floats"),
    "seed": dict(type=int, help="random seed (default %d)" % DEFAULT_SEED),
    "count": dict(type=_int_at_least(0),
                  help="size of the random suite (0: the default)"),
    "web": dict(required=True, help="multiweb JSON file"),
    "method": dict(choices=["coloring", "contraction", "loops"],
                   default="contraction"),
    "f1": dict(type=int, required=True, help="face index"),
    "f2": dict(type=int, required=True, help="face index"),
    "inner": dict(type=int, required=True, help="inner face index"),
    "vectors": dict(required=True, help="JSON list of vectors"),
    "matrix": dict(required=True, help="JSON matrix file"),
    "q": dict(required=True, help="deformation scalar"),
}

# verb: (handler, JSON key or None, the flags the handler reads).  A
# handler returns (human text, JSON payload), or with a key a scalar that
# is printed under that key.
VERBS = {
    "multiwebs": (cmd_multiwebs, None, "graph n"),
    "dimers": (cmd_dimers, None, "graph"),
    "trace": (cmd_trace, "trace", "graph conn n web method"),
    "pfaffian": (cmd_pfaffian, "pf", "graph conn n weights ring"),
    "verify-main": (cmd_verify_main, None,
                    "graph conn n weights ring seed count"),
    "kasteleyn": (functools.partial(cmd_pfaffian, connection=_kasteleyn),
                  "pf", "graph n weights ring"),
    "spin-corr": (cmd_spin_corr, "spin", "graph f1 f2 ring"),
    "annulus-parity": (cmd_annulus_parity, "parity", "graph inner ring"),
    "annulus-ck": (cmd_annulus_ck, None, "graph inner"),
    "det-vertex": (lambda args: det_vertex(_vectors(args)), "det",
                   "n vectors"),
    "wedge-norm": (lambda args: wedge_norm(_vectors(args)), "det",
                   "n vectors"),
    "qdet": (lambda args: qdet(_load_rows(args.matrix), parse_scalar(args.q)),
             "qdet", "matrix q"),
    "isotopy-check": (cmd_isotopy_check, None, "seed count"),
}


@functools.cache
def _build_parser():
    """The top parser and its sub-parser for each verb."""
    parser = argparse.ArgumentParser(prog="spwebs",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (_, _, flags) in VERBS.items():
        p = sub.add_parser(verb)
        for name in flags.split():
            p.add_argument("--" + name, **FLAGS[name])
        p.add_argument("--json", action="store_true")
        p.set_defaults(verb=verb, usage_error=p.error)
    return parser, sub.choices


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    parser, verbs = _build_parser()
    # a verb's own sub-parser reads the rest of argv in one parse; the
    # top parser handles -h and a missing or unknown verb
    args = (verbs[argv[0]].parse_args(argv[1:]) if argv and argv[0] in verbs
            else parser.parse_args(argv))
    if getattr(args, "weights", None) == "symbolic" and args.ring == "float":
        args.usage_error("--ring float does nothing with --weights symbolic")
    handler, key, _ = VERBS[args.verb]
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(
            "warning: %s" % message, file=sys.stderr)
        try:
            result = handler(args)
            if key is not None:
                text = format_scalar(result)
                result = text, {key: text}
            human, payload = result
            print(json.dumps(payload, sort_keys=True, allow_nan=False)
                  if args.json else human)
            return 0
        except IdentityViolated as exc:
            print("IDENTITY VIOLATED: %s" % exc)
            return 1
        except (SpwebsError, OSError, ValueError, KeyError,
                OverflowError) as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
