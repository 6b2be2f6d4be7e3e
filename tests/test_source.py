import ast
import importlib
import random
from fractions import Fraction
from pathlib import Path

from helpers import grid, random_gauges
from spwebs import linalg
from spwebs import theorems as th
from spwebs.connections import gauge_transform, kasteleyn_connection
from spwebs.rings import Poly

SRC = Path(__file__).resolve().parent.parent / "src" / "spwebs"


def test_no_assert_statements_in_package():
    # python -O strips assert, so self-checks must raise explicitly
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assert):
                found.append("%s:%d" % (path.name, node.lineno))
    assert not found, found


def _bench_tree(name):
    return ast.parse((SRC.parent.parent / "bench" / name).read_text())


def test_bench_contract_names():
    # the bench tracer and workloads find library code by name, so a
    # rename drops metrics instead of failing loudly
    consts = {}
    for node in _bench_tree("tracer.py").body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            try:
                consts[node.targets[0].id] = ast.literal_eval(node.value)
            except ValueError:
                pass
    layers = consts["LAYERS"]
    labels = [v for v in consts.values()
              if isinstance(v, str) and v.split(".")[0] in layers]
    assert labels
    for label in labels:
        obj = importlib.import_module("spwebs." + label.split(".")[0])
        for part in label.split(".")[1:]:
            assert hasattr(obj, part), label
            obj = getattr(obj, part)
    for layer, cls_name in consts["CLASS_INITS"]:
        cls = getattr(importlib.import_module("spwebs." + layer), cls_name)
        assert "__init__" in vars(cls), (layer, cls_name)
    for node in ast.walk(_bench_tree("workloads.py")):
        if isinstance(node, ast.ImportFrom) and \
                (node.module or "").split(".")[0] == "spwebs":
            mod = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(mod, alias.name), (node.module, alias.name)
    traces = importlib.import_module("spwebs.traces")
    assert any(name.startswith("trace_") and callable(fn)
               for name, fn in vars(traces).items())


def _numpy_linalg(node):
    """Whether an AST node names numpy.linalg."""
    if isinstance(node, ast.Attribute):
        return node.attr == "linalg" and isinstance(node.value, ast.Name) \
            and node.value.id in ("np", "numpy")
    if isinstance(node, ast.Import):
        return any(a.name.startswith("numpy.linalg") for a in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").startswith("numpy.linalg") or \
            (node.module == "numpy" and any(a.name == "linalg"
                                            for a in node.names))
    return False


def test_float_linear_algebra_only_in_the_ck_fit():
    # exact paths must never reach float linear algebra: np.linalg is for
    # the one numeric least-squares fit of C_k
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    owner[node] = fn.name
        found |= {"%s.%s" % (path.stem, owner.get(node, "<module>"))
                  for node in ast.walk(tree) if _numpy_linalg(node)}
    assert found == {"theorems.extract_Ck"}, found


# every planar predicate runs on the int coordinates PlanarGraph.ipos,
# and exact H and the trace bonds on the int rows that Connection clears;
# a Fraction or a true division inside one would bring back the slow path
INT_PREDICATES = {
    "planar": ["_rotation_from_positions", "_check_crossings", "dart_vector",
               "face_signed_area", "_find_outer_face", "bounding_box",
               "outside_point", "face_interior_point", "_centroid", "_locate",
               "point_in_polygon", "_interior_point", "_in_triangle",
               "orient", "_ccw", "loop_area", "vertices_enclosed",
               "standard_structure", "cilia_parity", "_wedge_contains"],
    "connections": ["_ray_cut", "annulus_spec", "cleared_phi"],
    "theorems": ["vertex_order", "_cleared_rows"],
    "traces": ["_bond"],
}


def _slow_arithmetic(node):
    """Whether an AST node names Fraction or divides with /."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.Div)
    return isinstance(node, ast.Name) and node.id == "Fraction" or \
        isinstance(node, ast.Attribute) and node.attr == "Fraction"


def test_planar_predicates_construct_no_fraction():
    found = []
    for module, names in INT_PREDICATES.items():
        tree = ast.parse((SRC / (module + ".py")).read_text())
        fns = {fn.name: fn for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef)}
        found += ["%s.%s:%d" % (module, name, node.lineno)
                  for name in names for node in ast.walk(fns[name])
                  if _slow_arithmetic(node)]
    assert not found, found


def test_one_pfaffian_elimination_for_every_exact_ring(monkeypatch):
    # the dense Poly loop and its pivot search are gone, with no fallback
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        assert not [name for name in ("_pf_poly", "_pf_pivot", "_swap_rc")
                    if name in text], path.name
    # int, Fraction and Poly matrices all reach the one sparse loop
    seen = []
    sparse = linalg._pf_sparse

    def spy(b, *ops):
        seen.append(ops[0])
        return sparse(b, *ops)

    monkeypatch.setattr(linalg, "_pf_sparse", spy)
    x = Poly.var("x")
    half = Fraction(1, 2)
    for a, pf in (([[0, 3], [-3, 0]], 3), ([[0, half], [-half, 0]], half),
                  ([[0, x], [-x, 0]], x)):
        assert linalg.pf_eliminate(linalg.mat(a)) == pf
        assert linalg.det(linalg.mat(a)) == pf * pf
    # the zero of each ring: int 0 for the int rows, {} for packed ones
    assert seen == [0, 0, 0, 0, {}, {}]


def test_rational_rows_are_cleared_once(monkeypatch):
    # H over an exact connection is built as B = DAD from the cleared edge
    # matrices, so no Fraction row of it is ever cleared; a dense rational
    # SkewMatrix is cleared once, for its skew check, and the Pfaffian
    # reuses that B
    calls = []
    clear = linalg._clear

    def spy(rows):
        calls.append(len(rows))
        return clear(rows)

    monkeypatch.setattr(linalg, "_clear", spy)
    g = grid(3, 4)
    kc = kasteleyn_connection(g, 1)
    gauged = gauge_transform(g, kc, random_gauges(g, random.Random(59), 1))
    for w in (None, {eid: Fraction(eid - 3, 4) for eid in g.edges}):
        h = th.HMatrix(g, gauged, w)
        assert h.pfaffian() == h.pfaffian() != 0
        assert max(h.cleared[1]) > 1
    assert calls == []
    s = linalg.SkewMatrix(h.a)
    assert calls == [s.dim]
    assert s.pfaffian() == h.pfaffian()
    assert calls == [s.dim]
    # Poly and float matrices never reach the clearing
    calls.clear()
    for w in (th.symbolic_weights(g), dict.fromkeys(g.edges, 1.5)):
        assert th.HMatrix(g, kc, w).pfaffian()
    assert calls == []
