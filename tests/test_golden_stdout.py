"""Byte-for-byte CLI output over tests/data, against a stored snapshot.

Every verb runs in process on the graphs and the web of tests/data, at
ranks 1 and 2 where the verb takes a rank, with and without --json, and
on a few invalid inputs.  `pfaffian`, `trace` and `verify-main` also
read connections saved from gauges drawn with fixed seeds, so exact
values with denominators are covered.  The test compares stdout and the
exit code of each case with tests/data/golden_stdout.json.

A change that means to alter CLI output regenerates the snapshot with

    PYTHONPATH=src:tests python tests/test_golden_stdout.py

and says so in CHANGES.md.
"""

import contextlib
import io
import json
import random
import sys
import tempfile
import warnings
from pathlib import Path

from helpers import random_gauges
from spwebs import cli
from spwebs.connections import (gauge_transform, kasteleyn_connection,
                                save_connection)
from spwebs.planar import load_graph
from spwebs.rand import random_connection

DATA = Path(__file__).parent / "data"
SNAPSHOT = DATA / "golden_stdout.json"
GRAPHS = ("c4", "2by3", "cube")
VECTORS = {"v1": [["1/2", "3"], ["-2", "5/3"]],
           "v2": [["1", "0", "2", "-1/3"], ["0", "1", "1", "1"],
                  ["3/4", "-1", "0", "2"], ["1", "1", "-1", "0"]],
           "vf": [[3.0, 0.0], [0.0, 1.0]]}
CYCLE = {"n": 1, "m": {"0": 1, "1": 1, "2": 1, "3": 1}}
MATRIX = [["1", "2", "0"], ["-1/2", "3", "1"], ["0", "4", "5"]]


def write_inputs(tmp):
    """Connection, vector and matrix files under tmp, the same every time:
    Kasteleyn connections gauged by seeded random gauges at ranks 1 and
    2, random rank-1 connections, and the 4-cycle as a rank-1 web."""
    for name in GRAPHS:
        g = load_graph(str(DATA / (name + ".json")))
        for n in (1, 2):
            gauges = random_gauges(g, random.Random(100 * n + len(g.edges)), n)
            save_connection(g, gauge_transform(g, kasteleyn_connection(g, n),
                                               gauges),
                            str(tmp / ("%s_gauged%d.json" % (name, n))))
        save_connection(g, random_connection(g, random.Random(7)),
                        str(tmp / ("%s_random1.json" % name)))
    for name, rows in VECTORS.items():
        (tmp / (name + ".json")).write_text(json.dumps(rows))
    (tmp / "matrix.json").write_text(json.dumps(MATRIX))
    (tmp / "c4_cycle.json").write_text(json.dumps(CYCLE))


def cases():
    """Every argv of the snapshot, with {data} and {tmp} for the input
    directories."""
    out = []
    for name in GRAPHS:
        graph = ["--graph", "{data}/%s.json" % name]
        for n in ("1", "2"):
            out.append(["multiwebs", *graph, "--n", n])
            out.append(["kasteleyn", *graph, "--n", n])
            out.append(["kasteleyn", *graph, "--n", n, "--ring", "float"])
            out.append(["pfaffian", *graph, "--n", n])
            out.append(["pfaffian", *graph, "--conn",
                        "{tmp}/%s_gauged%s.json" % (name, n)])
            if name != "cube" or n == "1":
                out.append(["verify-main", *graph, "--conn",
                            "{tmp}/%s_gauged%s.json" % (name, n)])
        out.append(["dimers", *graph])
        out.append(["kasteleyn", *graph, "--weights", "symbolic"])
        out.append(["pfaffian", *graph, "--conn",
                    "{tmp}/%s_gauged1.json" % name, "--ring", "float"])
        out.append(["pfaffian", *graph, "--conn",
                    "{tmp}/%s_random1.json" % name])
        out.append(["verify-main", *graph, "--n", "1"])
        out.append(["verify-main", *graph, "--conn",
                    "{tmp}/%s_random1.json" % name, "--weights", "symbolic"])
        out.append(["spin-corr", *graph, "--f1", "0", "--f2", "0"])
        out.append(["annulus-parity", *graph, "--inner", "0"])
        out.append(["annulus-parity", *graph, "--inner", "0", "--ring",
                    "float"])
        out.append(["annulus-ck", *graph, "--inner", "0"])
        # invalid: a face that does not exist, a rank that does not match
        out.append(["annulus-parity", *graph, "--inner", "9"])
        out.append(["pfaffian", *graph, "--conn",
                    "{tmp}/%s_gauged1.json" % name, "--n", "2"])
    cube = ["--graph", "{data}/cube.json"]
    out.append(["spin-corr", *cube, "--f1", "0", "--f2", "2"])
    out.append(["spin-corr", *cube, "--f1", "2", "--f2", "3", "--ring",
                "float"])
    out.append(["annulus-ck", *cube, "--inner", "5"])
    web = ["--graph", "{data}/2by3.json", "--web", "{data}/golden_web.json"]
    cycle = ["--graph", "{data}/c4.json", "--web", "{tmp}/c4_cycle.json"]
    for method in ("coloring", "contraction", "loops"):
        out.append(["trace", *web, "--n", "2", "--method", method])
        out.append(["trace", *web, "--conn", "{tmp}/2by3_gauged2.json",
                    "--method", method])
        for conn in ("gauged1", "random1"):
            out.append(["trace", *cycle, "--conn",
                        "{tmp}/c4_%s.json" % conn, "--method", method])
    out.append(["trace", *web, "--conn", "{tmp}/2by3_gauged1.json"])
    for n in ("1", "2"):
        out.append(["verify-main", "--n", n, "--count", "3", "--seed", "5"])
    out.append(["det-vertex", "--vectors", "{tmp}/v1.json"])
    out.append(["det-vertex", "--n", "2", "--vectors", "{tmp}/v2.json"])
    out.append(["det-vertex", "--n", "2", "--vectors", "{tmp}/v1.json"])
    out.append(["wedge-norm", "--vectors", "{tmp}/v1.json"])
    out.append(["wedge-norm", "--vectors", "{tmp}/vf.json"])
    out.append(["wedge-norm", "--n", "2", "--vectors", "{tmp}/v2.json"])
    out.append(["qdet", "--matrix", "{tmp}/matrix.json", "--q", "2/3"])
    out.append(["qdet", "--matrix", "{tmp}/matrix.json", "--q", "q"])
    out.append(["isotopy-check", "--count", "20", "--seed", "3"])
    return out + [argv + ["--json"] for argv in out]


def run_case(argv, tmp):
    """(exit code, stdout) of one in-process CLI call; stderr is dropped."""
    args = [a.format(data=DATA, tmp=tmp) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            code = cli.main(args)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def snapshot():
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        return [{"argv": argv, "code": code, "stdout": stdout}
                for argv in cases()
                for code, stdout in [run_case(argv, tmp)]]


def test_cli_stdout_matches_snapshot(tmp_path):
    stored = json.loads(SNAPSHOT.read_text())
    assert [c["argv"] for c in stored] == cases()
    write_inputs(tmp_path)
    diffs = [(c["argv"], c["code"], code)
             for c in stored
             for code, stdout in [run_case(c["argv"], tmp_path)]
             if (code, stdout) != (c["code"], c["stdout"])]
    assert not diffs, diffs
    # the snapshot covers successful runs and usage errors alike
    assert {c["code"] for c in stored} >= {0, 2}


if __name__ == "__main__":
    SNAPSHOT.write_text(json.dumps(snapshot(), indent=1) + "\n")
    sys.exit(0)
