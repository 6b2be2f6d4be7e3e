import copy
import json
import random
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import grid, inner_face
from spwebs import cli
from spwebs import theorems as th
from spwebs.connections import (annulus_spec, connection_to_dict,
                                kasteleyn_connection, save_connection)
from spwebs.planar import load_graph, save_graph
from spwebs.rand import random_connection, random_planar_graph
from spwebs.rings import Poly

DATA = Path(__file__).parent / "data"
G24 = str(DATA / "2by3.json")


def run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def test_kasteleyn_prints_canonical_expansion(capsys):
    code, out = run(capsys, ["kasteleyn", "--graph", G24, "--n", "2",
                             "--weights", "symbolic"])
    a, b, c = Poly.var("a"), Poly.var("b"), Poly.var("c")
    d, e, f = Poly.var("d"), Poly.var("e"), Poly.var("f")
    assert code == 0
    assert out.strip() == str((a * d + b * e + c * f) ** 4)


def test_output_is_deterministic(capsys):
    argv = ["kasteleyn", "--graph", G24, "--n", "2", "--weights", "symbolic"]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second


def test_verify_main_single_instance(capsys, tmp_path):
    g = load_graph(G24)
    conn_path = str(tmp_path / "kc.json")
    save_connection(g, kasteleyn_connection(g, 2), conn_path)
    code, out = run(capsys, ["verify-main", "--graph", G24, "--conn",
                             conn_path, "--n", "2", "--weights", "symbolic"])
    assert code == 0
    assert out.splitlines()[-1] == "OK"
    assert out.splitlines()[0] in ("sign +1", "sign -1")


def test_verify_main_json_schema(capsys, tmp_path):
    g = load_graph(G24)
    conn_path = str(tmp_path / "kc.json")
    save_connection(g, kasteleyn_connection(g, 2), conn_path)
    code, out = run(capsys, ["verify-main", "--graph", G24, "--conn",
                             conn_path, "--n", "2", "--weights", "symbolic",
                             "--json"])
    payload = json.loads(out)
    assert code == 0
    assert set(payload) == {"pf", "sum_traces", "sign"}
    assert payload["sign"] in (1, -1)


def test_verify_main_random_suite(capsys):
    code, out = run(capsys, ["verify-main", "--count", "3", "--seed", "5"])
    assert code == 0
    assert out.strip() == "ok 3 instances (n=1, seed=5)"


def test_multiwebs_and_dimers_counts(capsys):
    code, out = run(capsys, ["multiwebs", "--graph", G24, "--n", "1",
                             "--json"])
    assert code == 0 and json.loads(out)["count"] == 6
    code, out = run(capsys, ["dimers", "--graph", G24])
    assert code == 0 and out.splitlines()[-1] == "count 3"


def test_vertex_with_no_edges_has_no_webs(capsys, tmp_path):
    # c4.json plus a vertex with no edges: no web reaches its degree, so
    # the web counts are 0 like Pf(H), and the identity holds as 0 = 0
    doc = json.loads((DATA / "c4.json").read_text())
    doc["vertices"].append({"id": 4, "x": "20", "y": "3"})
    path = tmp_path / "lone.json"
    path.write_text(json.dumps(doc))
    graph = ["--graph", str(path)]
    assert run(capsys, ["multiwebs", "--n", "1"] + graph) == (0, "count 0\n")
    assert run(capsys, ["dimers"] + graph) == (0, "count 0\n")
    assert run(capsys, ["pfaffian"] + graph) == (0, "0\n")
    code, out = run(capsys, ["verify-main"] + graph)
    assert code == 0 and out.splitlines() == ["sign +1", "OK"]


def test_graph_with_no_faces(capsys, tmp_path):
    # with no edges there are no faces, so kasteleyn has no exponents to
    # solve and agrees with pfaffian, and a face flag names no face
    for vertices, pf in (([], "1\n"),
                         ([{"id": 0, "x": "0", "y": "0"},
                           {"id": 1, "x": "1", "y": "2"}], "0\n")):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps({"vertices": vertices, "edges": []}))
        graph = ["--graph", str(path)]
        assert run(capsys, ["pfaffian"] + graph) == (0, pf)
        assert run(capsys, ["kasteleyn"] + graph) == (0, pf)
        assert run(capsys, ["kasteleyn", "--n", "2"] + graph) == (0, pf)
        for argv in (["spin-corr", "--f1", "0", "--f2", "0"],
                     ["annulus-parity", "--inner", "0"],
                     ["annulus-ck", "--inner", "0"]):
            assert cli.main(argv + graph) == 2
            assert capsys.readouterr().err == \
                "error: no face 0: the graph has no faces\n"


def test_floats_out_of_the_double_range_exit_2(capsys, tmp_path):
    # one weight past the double range, or every weight so large that the
    # float Pfaffian or the float trace sum overflows
    doc = json.loads((DATA / "c4.json").read_text())
    for weights in (["1e400", "1", "1", "1"], ["1e200"] * 4):
        for e, w in zip(doc["edges"], weights):
            e["weight"] = w
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        for argv in (["verify-main", "--ring", "float"],
                     ["kasteleyn", "--ring", "float", "--json"],
                     ["annulus-ck", "--inner", "0", "--json"]):
            assert cli.main(argv + ["--graph", str(path)]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ")
            assert err.count("\n") == 1
            if weights[0] == "1e400":
                # the weight itself has no float: the line names its edge
                assert err == "error: edge %d: weight is out of the double" \
                              " range\n" % doc["edges"][0]["id"]
            elif argv[0] == "verify-main":
                # the float power w_e ** k of a web weight overflows: the
                # line names the edge and the power
                ids = "|".join(str(e["id"]) for e in doc["edges"])
                assert re.search(r"edge (%s): weight \*\* [2-9]" % ids, err)


def test_trace_verb(capsys):
    code, out = run(capsys, ["trace", "--graph", G24, "--n", "2", "--web",
                             str(DATA / "golden_web.json")])
    assert code == 0
    assert out.strip() == "4"


def test_spin_corr_verb(capsys, tmp_path):
    path = str(tmp_path / "grid.json")
    save_graph(grid(2, 3), path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, out = run(capsys, ["spin-corr", "--graph", path, "--f1", "0",
                                 "--f2", "1"])
    assert code == 0
    assert out.strip() == "1/9"


def test_annulus_parity_verb(capsys):
    code, out = run(capsys, ["annulus-parity", "--graph",
                             str(DATA / "cube.json"), "--inner", "5"])
    assert code == 0
    assert out.strip() == "25/81"


def test_annulus_ck_verb(capsys):
    code, out = run(capsys, ["annulus-ck", "--graph", str(DATA / "c4.json"),
                             "--inner", "0", "--json"])
    payload = json.loads(out)
    assert code == 0
    assert payload["C_exact"] == ["4", "2", "0"]
    assert payload["C"] == [4.0, 2.0, 0.0]
    assert payload["residual"] < 1e-8


def test_verbs_run_without_numpy(capsys):
    # python -S leaves site-packages, and numpy with it, off the path: a
    # matrix is a list of rows, and the C_k are exact, so no verb loads it
    src = str(Path(__file__).resolve().parent.parent / "src")
    argvs = [["verify-main", "--graph", str(DATA / "cube.json"), "--n", "2"],
             ["kasteleyn", "--graph", G24, "--n", "2",
              "--weights", "symbolic"],
             ["annulus-ck", "--graph", str(DATA / "c4.json"), "--inner", "0"]]
    script = ("import sys\n"
              "sys.path.insert(0, sys.argv[1])\n"
              "from spwebs import cli\n"
              "codes = [cli.main(argv) for argv in %r]\n"
              "sys.exit(0 if codes == [0, 0, 0] and 'numpy' not in"
              " sys.modules else 'exit codes %%r, numpy loaded: %%s'"
              " %% (codes, 'numpy' in sys.modules))\n" % (argvs,))
    proc = subprocess.run([sys.executable, "-S", "-c", script, src],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "".join(run(capsys, argv)[1] for argv in argvs)
    assert proc.stderr == ""


def test_library_warnings_are_one_line_each(capsys):
    # spin flips on the cube's square faces: stdout and the exit code are
    # those of a clean run, and stderr holds one line per warning, with no
    # source path or line of the library
    code = cli.main(["spin-corr", "--graph", str(DATA / "cube.json"),
                     "--f1", "1", "--f2", "2"])
    out, err = capsys.readouterr()
    assert (code, out) == (0, "1/9\n")
    assert err.splitlines() == [
        "warning: spin flips want faces of length 2 mod 4; face %d has"
        " length 4" % f for f in (1, 2)]


def test_annulus_ck_is_exact_on_every_face_of_a_grid(capsys, tmp_path):
    # at x = 6 the holonomy is the identity, so sum C_k 6^k is Z^4 of the
    # plain dimer sum, exactly: Z = 1183 on a 5x6 grid (a 5x5 grid has no
    # dimer cover, so there every face would give 0 against 0)
    g = grid(5, 6)
    path = str(tmp_path / "g.json")
    save_graph(g, path)
    z4 = th.dimer_partition(g) ** 4
    assert z4 == 1183 ** 4
    for f in g.bounded_faces():
        code, out = run(capsys, ["annulus-ck", "--graph", path, "--inner",
                                 str(f), "--json"])
        assert code == 0, f
        payload = json.loads(out)
        exact = [Fraction(c) for c in payload["C_exact"]]
        assert len(exact) == 2 * len(annulus_spec(g, f).cut) + 1
        assert payload["C"] == [float(c) for c in exact]
        assert sum(c * 6 ** k for k, c in enumerate(exact)) == z4, f
        assert payload["residual"] <= 1e-6 * z4, f


ANNULUS_CK_GRIDS = {
    (4, 4, (1, 1)): '{"C": [23831418672.0, 372982032.0, 1292832.0, 0.0, '
                    '0.0], "C_exact": ["23831418672", "372982032", '
                    '"1292832", "0", "0"], "residual": 3.814697265625e-06}',
    (5, 5, (2, 2)): '{"C": [0.0, 0.0, 0.0, 0.0, 0.0], "C_exact": ["0", '
                    '"0", "0", "0", "0"], "residual": 0.0}',
    (5, 5, (0, 3)): '{"C": [0.0, 0.0, 0.0], "C_exact": ["0", "0", "0"], '
                    '"residual": 0.0}',
    (5, 6, (2, 2)): '{"C": [1.1147629347232395e+19, 2.6653471815613686e+18, '
                    '1613442449350656.0, 0.0, 0.0], "C_exact": '
                    '["11147629347232395264", "2665347181561368576", '
                    '"1613442449350656", "0", "0"], "residual": 3072.0}',
    (5, 6, (0, 3)): '{"C": [8.104176900833366e+18, 3.1822699106573107e+18, '
                    '0.0], "C_exact": ["8104176900833366016", '
                    '"3182269910657310720", "0"], "residual": 1536.0}',
}


def test_annulus_ck_stdout_on_bench_sized_grids(capsys, tmp_path,
                                                monkeypatch):
    # the bench's weighted grids (weight 2 on every third edge id), where
    # H has dimension 64 and more; the 5x5 grid has no dimer cover.  The
    # one HMatrix is the held-out float H, all floats: the J-powers off
    # the cut are float rows; the exact C_k take no HMatrix
    built = []

    class Spy(th.HMatrix):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append({type(x) for row in self.rows
                          for x in row.values()})

    monkeypatch.setattr(th, "HMatrix", Spy)
    for (rows, cols, (i, j)), want in ANNULUS_CK_GRIDS.items():
        g = grid(rows, cols)
        for e in g.edges.values():
            e.weight = 2 if e.id % 3 == 0 else 1
        path = str(tmp_path / "g.json")
        save_graph(g, path)
        f = inner_face(g, [j * cols + i, j * cols + i + 1,
                           (j + 1) * cols + i, (j + 1) * cols + i + 1])
        built.clear()
        code, out = run(capsys, ["annulus-ck", "--graph", path, "--inner",
                                 str(f), "--json"])
        assert (code, out) == (0, want + "\n"), (rows, cols, f)
        assert built == [{float}]


def test_det_vertex_matches_wedge_norm(capsys, tmp_path):
    path = str(tmp_path / "v.json")
    vs = [["1", "0", "2", "-1/3", "0", "5"],
          ["0", "1", "1", "4", "0", "0"],
          ["2", "0", "1", "0", "1", "0"],
          ["0", "3", "0", "1", "0", "1"],
          ["1", "1", "0", "0", "2", "0"],
          ["0", "0", "1", "1", "0", "3"]]
    with open(path, "w") as fh:
        json.dump(vs, fh)
    _, out1 = run(capsys, ["det-vertex", "--n", "3", "--vectors", path])
    _, out2 = run(capsys, ["wedge-norm", "--n", "3", "--vectors", path])
    assert out1 == out2


def test_det_vertex_rejects_wrong_count(capsys, tmp_path):
    path = str(tmp_path / "v.json")
    with open(path, "w") as fh:
        json.dump([["1", "0"], ["0", "1"]], fh)
    code, _ = run(capsys, ["det-vertex", "--n", "2", "--vectors", path])
    assert code == 2


def test_qdet_verb(capsys, tmp_path):
    path = str(tmp_path / "m.json")
    with open(path, "w") as fh:
        json.dump([["1", "2"], ["3", "1/2"]], fh)
    code, out = run(capsys, ["qdet", "--matrix", path, "--q", "1"])
    assert code == 0 and out.strip() == "-11/2"
    code, out = run(capsys, ["qdet", "--matrix", path, "--q", "1/3"])
    assert code == 0 and out.strip() == "-3/2"


def test_isotopy_check_verb(capsys):
    code, out = run(capsys, ["isotopy-check", "--count", "50", "--seed", "3"])
    assert code == 0
    assert out.strip() == "ok 50 polygons (seed=3)"


def test_crossing_edges_exit_two(capsys, tmp_path):
    # c4.json with vertex 2 moved to x = -3: edges 1 and 3 cross, and
    # verify-main used to report Pf(H) = 0 against a trace sum of 4;
    # with vertex 1 moved to y = 0 edge 0 is horizontal
    paths = {}
    for name, vid, key, value in (("crossing", 2, "x", "-3"),
                                  ("horizontal", 1, "y", "0")):
        doc = json.loads((DATA / "c4.json").read_text())
        doc["vertices"][vid][key] = value
        paths[name] = tmp_path / (name + ".json")
        paths[name].write_text(json.dumps(doc))
    cube = str(DATA / "cube.json")
    outer = str(load_graph(cube).outer_face)
    runs = [([verb, "--graph", str(paths["crossing"])], "edges 1 and 3 cross")
            for verb in ("verify-main", "pfaffian", "multiwebs")]
    runs += [(["verify-main", "--graph", str(paths["horizontal"])],
              "edge 0 is horizontal")]
    # the outer face cannot be the inner face of an annulus
    runs += [([verb, "--graph", cube, "--inner", outer],
              "inner face must be a bounded face")
             for verb in ("annulus-parity", "annulus-ck")]
    # two disjoint triangles: a graph file holds one connected graph, so
    # every verb that reads a graph rejects it before it runs
    two = tmp_path / "two.json"
    corners = [(0, 0), (4, 1), (1, 5), (10, 0), (14, 1), (11, 5)]
    two.write_text(json.dumps({
        "vertices": [{"id": i, "x": str(x), "y": str(y)}
                     for i, (x, y) in enumerate(corners)],
        "edges": [{"id": 3 * t + k, "u": 3 * t + k, "v": 3 * t + (k + 1) % 3}
                  for t in (0, 1) for k in range(3)]}))
    web = str(DATA / "golden_web.json")
    runs += [([verb, "--graph", str(two)] + extra,
              "the edges form more than one connected graph: "
              "V-E+F = 6-6+4 != 2")
             for verb, extra in (("multiwebs", []), ("dimers", []),
                                 ("trace", ["--n", "1", "--web", web]),
                                 ("pfaffian", []), ("verify-main", []),
                                 ("kasteleyn", []),
                                 ("spin-corr", ["--f1", "0", "--f2", "1"]),
                                 ("annulus-parity", ["--inner", "0"]),
                                 ("annulus-ck", ["--inner", "0"]))]
    assert {argv[0] for argv, _ in runs} == {
        verb for verb, (_, _, flags) in cli.VERBS.items()
        if "graph" in flags.split()}
    for argv, message in runs:
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", argv
        assert captured.err.splitlines() == ["error: " + message]


def test_violated_identity_exits_one(capsys, monkeypatch):
    # exit 1 is the violated identity alone: the report goes to stdout
    sum_traces = th.sum_traces
    monkeypatch.setattr(th, "sum_traces",
                        lambda g, conn, w: sum_traces(g, conn, w) + 1)
    code = cli.main(["verify-main", "--graph", str(DATA / "c4.json")])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    assert out.startswith("IDENTITY VIOLATED: Pf(H) = ")
    assert len(out.splitlines()) == 1


def test_missing_graph_exits_two(capsys):
    code = cli.main(["dimers"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.splitlines() == [
        "error: --graph is required for this command"]


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["trace", "--graph", G24])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        cli.main(["not-a-verb"])
    assert err.value.code == 2
    # a rank below 1 and a negative suite size are usage errors, as are
    # flags outside verify-main's mode; the ratio verbs take no symbolic
    # weights, since a ratio of two Poly Pfaffians is no Poly
    c4, cube = str(DATA / "c4.json"), str(DATA / "cube.json")
    for argv in (["verify-main", "--n", "1", "--count", "-5"],
                 ["verify-main", "--graph", c4, "--n", "0"],
                 ["pfaffian", "--graph", c4, "--n", "0"],
                 ["det-vertex", "--n", "-1", "--vectors", c4],
                 ["pfaffian", "--graph", c4, "--ring", "poly"],
                 ["verify-main", "--graph", c4, "--count", "7", "--seed", "2"],
                 ["verify-main", "--graph", c4, "--seed", "2"],
                 ["verify-main", "--conn", c4],
                 ["verify-main", "--n", "2", "--weights", "symbolic"],
                 ["verify-main", "--ring", "float", "--count", "1"],
                 ["annulus-parity", "--graph", cube, "--inner", "5",
                  "--weights", "symbolic"],
                 ["spin-corr", "--graph", cube, "--f1", "1", "--f2", "2",
                  "--weights", "symbolic"],
                 # symbolic weights are exact, so --ring float would do
                 # nothing
                 ["pfaffian", "--graph", c4, "--ring", "float",
                  "--weights", "symbolic"],
                 ["kasteleyn", "--graph", c4, "--weights", "symbolic",
                  "--ring", "float"],
                 ["verify-main", "--graph", c4, "--ring", "float",
                  "--weights", "symbolic"]):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
        assert capsys.readouterr().out == ""
    # --count 0 still means the default size
    code, out = run(capsys, ["isotopy-check", "--count", "0", "--seed", "3"])
    assert code == 0 and out.strip() == "ok 1000 polygons (seed=3)"
    code = cli.main(["pfaffian", "--graph", "/nonexistent.json"])
    assert code == 2


def test_mixed_float_and_symbolic_input_exits_two(capsys, tmp_path):
    # no ring holds a float and a Poly, so each of these is malformed
    # input: exit 2, nothing on stdout, one error line and no traceback
    c4 = json.loads((DATA / "c4.json").read_text())
    files = {
        "vectors": [[1.5, "a"], [0, 1]],
        "matrix": [[1.5, 2], [3, 1]],
        "conn": {"n": 1, "edges": [{"id": e["id"],
                                    "matrix": [[1.0, "a"], [0, 1]]}
                                   for e in c4["edges"]]},
        "graph": dict(c4, edges=[dict(e, weight=1.5 if e["id"] % 2 else "a")
                                 for e in c4["edges"]]),
    }
    path = {}
    for name, doc in files.items():
        path[name] = str(tmp_path / (name + ".json"))
        with open(path[name], "w") as fh:
            json.dump(doc, fh)
    c4_path, weighted = str(DATA / "c4.json"), path["graph"]
    for argv in (["wedge-norm", "--n", "1", "--vectors", path["vectors"]],
                 ["det-vertex", "--n", "1", "--vectors", path["vectors"]],
                 ["qdet", "--matrix", path["matrix"], "--q", "a"],
                 ["pfaffian", "--graph", c4_path, "--conn", path["conn"]],
                 ["verify-main", "--graph", c4_path, "--conn", path["conn"]],
                 ["pfaffian", "--graph", weighted],
                 ["kasteleyn", "--graph", weighted],
                 ["verify-main", "--graph", weighted],
                 ["spin-corr", "--graph", weighted, "--f1", "0", "--f2", "1"],
                 ["annulus-ck", "--graph", weighted, "--inner", "0"],
                 ["pfaffian", "--graph", weighted, "--ring", "float"]):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = cli.main(argv)
        out, err = capsys.readouterr()
        assert (code, out) == (2, ""), argv
        assert len(err.splitlines()) == 1 and err.startswith("error: "), \
            (argv, err)


# a value each flag accepts; the parser does not open the files
FLAG_VALUES = {"graph": G24, "conn": G24, "n": "2", "weights": "symbolic",
               "ring": "float", "seed": "3", "count": "2", "web": G24,
               "method": "loops", "f1": "1", "f2": "2", "inner": "1",
               "vectors": G24, "matrix": G24, "q": "1/2"}


def _flag(name):
    return ["--" + name] + ([] if name == "json" else [FLAG_VALUES[name]])


@pytest.mark.parametrize("verb", sorted(cli.VERBS))
def test_each_verb_takes_exactly_the_flags_it_reads(capsys, verb):
    flags = cli.VERBS[verb][2].split() + ["json"]
    argv = [verb]
    for name in flags:
        if cli.FLAGS.get(name, {}).get("required"):
            argv += _flag(name)
    for name in flags:
        args = cli._build_parser().parse_args(argv + _flag(name))
        assert getattr(args, name) not in (None, False)
    for name in sorted(set(cli.FLAGS) - set(flags)):
        with pytest.raises(SystemExit) as err:
            cli.main(argv + _flag(name))
        out, errtext = capsys.readouterr()
        assert err.value.code == 2 and out == "", name
        assert "unrecognized arguments: --" + name in errtext


def test_parser_is_built_once_from_the_flag_table(capsys):
    # 13 verbs take 41 flags besides --json, and every flag has a reader
    rows = [flags.split() for _, _, flags in cli.VERBS.values()]
    assert sum(len(r) + 1 for r in rows) == 54
    assert set(cli.FLAGS) == {name for r in rows for name in r}
    cli._build_parser.cache_clear()
    run(capsys, ["dimers", "--graph", G24])
    run(capsys, ["isotopy-check", "--count", "1"])
    assert cli._build_parser.cache_info().misses == 1


def test_explicit_rank_must_match_the_connection_file(capsys, tmp_path):
    g = load_graph(G24)
    conn = {}
    for n in (1, 2):
        conn[n] = str(tmp_path / ("k%d.json" % n))
        save_connection(g, kasteleyn_connection(g, n), conn[n])
    for argv in (["pfaffian", "--graph", G24, "--conn", conn[2], "--n", "1"],
                 ["verify-main", "--graph", G24, "--conn", conn[1],
                  "--n", "2"]):
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: --n ") and "has rank" in err
    # without --n the file sets the rank, and without --conn it is 1
    for argv in (["pfaffian", "--graph", G24, "--conn", conn[2]],
                 ["pfaffian", "--graph", G24, "--conn", conn[2], "--n", "2"],
                 ["kasteleyn", "--graph", G24, "--n", "2"]):
        assert run(capsys, argv) == (0, "81\n")
    assert run(capsys, ["kasteleyn", "--graph", G24]) == \
        run(capsys, ["pfaffian", "--graph", G24, "--conn", conn[1]])
    code, out = run(capsys, ["multiwebs", "--graph", G24])
    assert code == 0 and out.splitlines()[-1] == "count 6"


def test_verify_main_float_ring_uses_library_tolerance(capsys, tmp_path):
    # Pf(H) = -6.888888888888891 and the trace sum -6.888888888888889
    # differ in the last digits only
    rnd = random.Random(0)
    g = random_planar_graph(rnd, rnd.randint(4, 6))
    graph_path, conn_path = str(tmp_path / "g.json"), str(tmp_path / "c.json")
    save_graph(g, graph_path)
    save_connection(g, random_connection(g, rnd, 1), conn_path)
    code, out = run(capsys, ["verify-main", "--graph", graph_path, "--conn",
                             conn_path, "--ring", "float"])
    assert code == 0
    assert out.splitlines()[0] in ("sign +1", "sign -1")
    assert out.splitlines()[1] == "OK"


def test_connection_file_lists_every_edge_once_at_rank_one_or_more(
        capsys, tmp_path):
    # each of these used to run: a missing edge exited 2 with the bare
    # "error: 3" of a KeyError, and the other three exited 0 (the last
    # matrix of a repeated edge won, an unknown id was ignored, and rank 0
    # printed a Pfaffian of 1)
    c4 = str(DATA / "c4.json")
    ident = [["1", "0"], ["0", "1"]]
    full = [{"id": eid, "matrix": ident} for eid in range(4)]
    cases = [
        ({"n": 1, "edges": full[:3]}, "error: edge 3 has no matrix"),
        ({"n": 1, "edges": full + [{"id": 0, "matrix": [["2", "0"],
                                                         ["0", "1/2"]]}]},
         "error: edge 0 is listed twice"),
        ({"n": 1, "edges": full + [{"id": 9, "matrix": ident}]},
         "error: edge 9 is not in the graph"),
        ({"n": 0, "edges": [{"id": eid, "matrix": []} for eid in range(4)]},
         "error: connection rank n is 0, not at least 1"),
        ({"n": -1, "edges": full}, "error: connection rank n is -1, not"
         " at least 1")]
    path = tmp_path / "conn.json"
    for doc, message in cases:
        path.write_text(json.dumps(doc))
        for verb in (["pfaffian"], ["verify-main"]):
            code = cli.main(verb + ["--graph", c4, "--conn", str(path)])
            out, err = capsys.readouterr()
            assert (code, out, err.splitlines()) == (2, "", [message]), doc
    # in any order, every edge once is fine: under the identity
    # connection the two matchings of the 4-cycle cancel
    path.write_text(json.dumps({"n": 1, "edges": full[::-1]}))
    assert run(capsys, ["pfaffian", "--graph", c4, "--conn", str(path)]) \
        == (0, "0\n")


FILLERS = [0, -3, 2.5, float("inf"), "x", "", None, True, [], {}, [1, 2],
           {"k": 1}]


def _mutate(doc, rnd):
    """One random edit of a parsed JSON document: drop a key or list
    item, give a value another type, nest a value in a list, or move a
    vertex coordinate to a small integer, which can make edges cross."""
    box = [doc]
    slots = []

    def walk(node):
        for k in (list(node) if isinstance(node, dict) else range(len(node))):
            slots.append((node, k))
            if isinstance(node[k], (dict, list)):
                walk(node[k])

    walk(box)
    coords = [(node, k) for node, k in slots if k in ("x", "y")]
    if coords and rnd.random() < 0.25:
        node, key = rnd.choice(coords)
        node[key] = str(rnd.randint(-12, 12))
        return box[0]
    node, key = rnd.choice(slots)
    kind = rnd.randrange(1 if node is box else 0, 3)
    if kind == 0:
        del node[key]
    elif kind == 1:
        node[key] = copy.deepcopy(rnd.choice(
            [f for f in FILLERS if type(f) is not type(node[key])]))
    else:
        node[key] = [node[key]]
    return box[0]


def test_malformed_json_exits_two_without_traceback(capsys, tmp_path):
    docs = [json.loads(f.read_text()) for f in sorted(DATA.glob("*.json"))]
    g = load_graph(G24)
    docs.append(connection_to_dict(g, kasteleyn_connection(g, 2)))
    docs.append([["1", "2", "0", "1/2"], ["0", "1", "1", "3"],
                 ["2", "0", "1", "1"], ["1", "1", "0", "-1"]])
    path = str(tmp_path / "bad.json")
    web = str(DATA / "golden_web.json")
    readers = [["multiwebs", "--graph", path], ["dimers", "--graph", path],
               ["pfaffian", "--graph", path], ["kasteleyn", "--graph", path],
               ["verify-main", "--graph", path],
               ["spin-corr", "--graph", path, "--f1", "0", "--f2", "1"],
               ["annulus-parity", "--graph", path, "--inner", "0"],
               ["annulus-ck", "--graph", path, "--inner", "0"],
               ["trace", "--graph", G24, "--n", "2", "--web", path],
               ["trace", "--graph", path, "--n", "2", "--web", web],
               ["pfaffian", "--graph", G24, "--n", "2", "--conn", path],
               ["det-vertex", "--vectors", path],
               ["wedge-norm", "--vectors", path],
               ["qdet", "--matrix", path, "--q", "1"]]
    rnd = random.Random(20260814)
    crossings = 0
    for doc in docs:
        for _ in range(10):
            bad = copy.deepcopy(doc)
            for _ in range(rnd.randint(1, 3)):
                bad = _mutate(bad, rnd)
            with open(path, "w") as fh:
                json.dump(bad, fh)
            for argv in readers:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    code = cli.main(argv)
                err = capsys.readouterr().err.splitlines()
                assert code in (0, 2), (argv, bad)
                if code == 2:
                    assert len(err) == 1 and err[0].startswith("error: "), \
                        (argv, bad, err)
                    crossings += err[0].endswith(" cross")
    # the coordinate moves reach the crossing-edge check
    assert crossings
    # coordinates that miss parse_scalar's int() fast path fail as
    # Fraction(str) does: a sign after the slash, a superscript digit
    doc = json.loads((DATA / "c4.json").read_text())
    for x in ("3/-4", "²"):
        doc["vertices"][0]["x"] = x
        with open(path, "w") as fh:
            json.dump(doc, fh)
        for argv in readers:
            if argv[1:3] == ["--graph", path]:
                assert cli.main(argv) == 2, (argv, x)
                err = capsys.readouterr().err.splitlines()
                assert len(err) == 1 and err[0].startswith("error: "), err
