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


def _owners(tree):
    """Node -> name of the innermost function around it."""
    owner = {}
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                owner[node] = fn.name
    return owner


def test_float_linear_algebra_only_in_the_ck_fit():
    # exact paths must never reach float linear algebra: the C_k are
    # exact, and their least-squares fit is a test oracle
    # (helpers.extract_Ck), so no np.linalg is left in the package
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = _owners(tree)
        found |= {"%s.%s" % (path.stem, owner.get(node, "<module>"))
                  for node in ast.walk(tree) if _numpy_linalg(node)}
    assert found == set(), found


def test_numpy_only_in_the_ck_fit_and_the_array_conversion():
    # a matrix is a list of rows and the C_k are exact: numpy is imported
    # only inside SkewMatrix.__array__, which the bench tracer calls, never
    # at module level, and no object-array idiom (@, .tolist, .astype) is
    # left in the package
    found, idioms = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = _owners(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) and any(
                    a.name.split(".")[0] == "numpy" for a in node.names) \
                    or isinstance(node, ast.ImportFrom) and \
                    (node.module or "").split(".")[0] == "numpy":
                found.add("%s.%s" % (path.stem, owner.get(node, "<module>")))
            if isinstance(node, ast.BinOp) and \
                    isinstance(node.op, ast.MatMult) or \
                    isinstance(node, ast.Attribute) and \
                    node.attr in ("tolist", "astype"):
                idioms.append("%s:%d" % (path.name, node.lineno))
    assert found == {"linalg.__array__"}, found
    assert not idioms, idioms


# every planar predicate and the face tracing run on the int coordinates
# PlanarGraph.ipos and on darts, a connection file is cleared straight to
# int rows and checked symplectic on them, and exact H and the trace bonds
# are built from those rows; a Fraction or a true division inside one
# would bring back the slow path
INT_PREDICATES = {
    "planar": ["_rotation_from_positions", "_check_crossings", "dart_vector",
               "_trace_faces", "_find_outer_face",
               "orient", "_ccw", "enclosed_faces", "loop_area",
               "vertices_enclosed", "standard_structure", "cilia_parity",
               "_wedge_contains", "vertex_order"],
    "connections": ["annulus_spec", "cleared_phi", "connection_from_dict"],
    "linalg": ["symplectic_rows"],
    "theorems": ["_cleared_rows"],
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
    # the dense Poly loop and its pivot search are gone, with no fallback,
    # and so is the second ring dispatch beside SkewMatrix's
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        assert not [name for name in ("_pf_poly", "_pf_pivot", "_swap_rc",
                                      "_pf_rows")
                    if name in text], path.name
    # int, Fraction and Poly matrices all reach the one sparse loop
    seen, sizes, rings = [], [], []
    sparse, cleared = linalg._pf_sparse, linalg._cleared

    def spy(b, *ops):
        seen.append(ops[0])
        sizes.append(ops[-1])
        return sparse(b, *ops)

    def ring_spy(rows, kinds):
        rings.append(kinds)
        return cleared(rows, kinds)

    monkeypatch.setattr(linalg, "_pf_sparse", spy)
    monkeypatch.setattr(linalg, "_cleared", ring_spy)
    x = Poly.var("x")
    half = Fraction(1, 2)
    for a, pf in (([[0, 3], [-3, 0]], 3), ([[0, half], [-half, 0]], half),
                  ([[0, x], [-x, 0]], x), ([[0, 1.5], [-1.5, 0]], 1.5)):
        # the ring is picked once per Pfaffian and once per determinant
        assert linalg.pf_eliminate(linalg.mat(a)) == pf
        assert len(rings) == 1, a
        assert linalg.det(linalg.mat(a)) == pf * pf
        assert len(rings) == 2, a
        rings.clear()
    # the zero of each ring: int 0 for the int rows, {} for packed ones
    assert seen == [0, 0, 0, 0, {}, {}]
    # pivots are ranked by entry size through the same loop: a nonzero int
    # entry counts as one (bool), so int rows rank by their number of
    # entries, and a packed entry as its number of terms (len)
    assert sizes == [bool] * 4 + [len] * 2


def test_h_rows_are_built_in_one_pass(monkeypatch):
    # _cleared_rows writes B's entries in their final form, ints or
    # packed polynomials, and HMatrix hands them on as they are
    built = []
    cleared_rows = th._cleared_rows

    def spy(*args):
        built.append(cleared_rows(*args))
        return built[-1]

    monkeypatch.setattr(th, "_cleared_rows", spy)
    g = grid(2, 3)
    conn = kasteleyn_connection(g, 2)
    for w, kind in ((None, int), (th.symbolic_weights(g), dict)):
        h = th.HMatrix(g, conn, w)
        rows, d = built.pop()
        assert h.cleared[:2] == (rows, d) and h.cleared[0] is rows
        entries = [v for row in rows for v in row.values()]
        assert entries and all(type(v) is kind for v in entries)
        if kind is dict:
            assert all(type(c) is int for v in entries for c in v.values())
        assert h.pfaffian() == th.dimer_partition(g, w) ** 4


def test_one_annulus_cut_builder():
    # the annulus cut is the shortest dual path; the geometric ray search
    # is gone, with no second cut builder beside it
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        assert not [name for name in ("_ray_cut", "reference ray")
                    if name in text], path.name


def test_one_multiplicity_search():
    # multiwebs, dimers and the parts of a 2-web splitting all come from
    # the per-edge-cap search in _enumerate_regular, with no second
    # backtracking search or product table beside it
    for path in sorted(SRC.glob("*.py")):
        assert "itertools.product" not in path.read_text(), path.name
    tree = ast.parse((SRC / "webs.py").read_text())
    searches = [(outer.name, fn.name)
                for outer in tree.body if isinstance(outer, ast.FunctionDef)
                for fn in ast.walk(outer) if isinstance(fn, ast.FunctionDef)
                and any(isinstance(c, ast.Call)
                        and isinstance(c.func, ast.Name)
                        and c.func.id == fn.name for c in ast.walk(fn))]
    assert searches == [("_enumerate_regular", "rec")]


def test_one_enclosure_rule():
    # a loop encloses the faces the dual graph less its edges separates
    # from the outer face; the point-in-polygon test is gone, with no
    # geometric path beside it
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        assert not [name for name in ("point_in_polygon",
                                      "face_interior_point")
                    if name in text], path.name


def test_one_face_walk_and_no_identity_in_the_symplectic_check():
    # faces are walked on the precomputed previous-dart map, with no
    # list.index walk beside it, and the symplectic check compares the
    # upper triangle of (DM)^T J (DM) with no identity matrix built
    for path in sorted(SRC.glob("*.py")):
        assert "rotation_prev" not in path.read_text(), path.name
    tree = ast.parse((SRC / "linalg.py").read_text())
    fn = next(f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
              and f.name == "symplectic_rows")
    assert not [n.id for n in ast.walk(fn) if isinstance(n, ast.Name)
                and n.id in ("eye", "mat_equal")]


def test_no_unused_import_or_private_definition():
    # a deletion must not leave an orphaned helper or import behind
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    unused = []
    for name, tree in trees.items():
        if name == "__init__.py":
            continue
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        bound = [alias.asname or alias.name.split(".")[0]
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 for alias in node.names]
        unused += [(name, b) for b in bound if b not in used]
    assert not unused, unused
    refs = {n.id if isinstance(n, ast.Name) else n.attr
            for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))}
    private = [(name, node.name)
               for name, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_")]
    assert private
    orphans = [p for p in private if p[1] not in refs]
    assert not orphans, orphans


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


def _function(module, qualname):
    """The FunctionDef of module.qualname, a function or a method."""
    node = ast.parse((SRC / (module + ".py")).read_text())
    for part in qualname.split("."):
        node = next(n for n in node.body
                    if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                    and n.name == part)
    return node


def test_every_connection_is_checked_and_j_acts_by_row_swaps():
    # Connection checks every distinct matrix, with no switch to skip it
    init = _function("connections", "Connection.__init__")
    assert [a.arg for a in init.args.args] == ["self", "g", "n", "matrices"]
    assert not init.args.kwonlyargs
    for path in sorted(SRC.glob("*.py")):
        assert not [n.lineno for n in ast.walk(ast.parse(path.read_text()))
                    if isinstance(n, ast.keyword) and n.arg == "check"], \
            path.name
    # the annulus twist J^k R^s is k row swaps of R^s: no matmul, and no
    # commutation check beside the one in unitary_embed.  The float and
    # the exact annulus Pfaffians share that one cut-edge builder, and
    # the exact one no Connection: its R is symplectic only modulo
    # c^2 + s^2 - 1
    fn = _function("theorems", "_annulus_matrices")
    assert not [n.lineno for n in ast.walk(fn)
                if isinstance(n, ast.BinOp) and isinstance(n.op, ast.MatMult)
                or isinstance(n, ast.Name) and n.id in ("mat_equal", "matmul",
                                                        "NonCommuting")]
    for name in ("annulus_partition", "annulus_coefficients"):
        calls = {n.func.id for n in ast.walk(_function("theorems", name))
                 if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
        assert "_annulus_matrices" in calls and "j_times" not in calls, name
    assert "Connection" not in {
        n.id for n in ast.walk(_function("theorems", "annulus_coefficients"))
        if isinstance(n, ast.Name)}
    # the powers of (x - 2) / 4 and of 1 - ((x - 2) / 4)^2 in the C_k
    # reduction are built once, not with ** for every term of P(c, s)
    assert not [n.lineno for n in ast.walk(
        _function("theorems", "annulus_coefficients"))
        if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow)]
    # unitary_embed checks RJ = JR as row swaps, with no product with J
    fn = _function("connections", "unitary_embed")
    names = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)}
    assert "j_times" in names and not names & {"symplectic_J", "j_power"}
    assert not [n.lineno for n in ast.walk(fn)
                if isinstance(n, ast.BinOp) and isinstance(n.op, ast.MatMult)
                and "j" in {x.id for x in (n.left, n.right)
                            if isinstance(x, ast.Name)}]
    # one signed dart sum serves the Kasteleyn exponents, the annulus
    # winding and the spin check
    for module, name in (("connections", "AnnulusSpec.winding"),
                         ("connections", "spin_flips")):
        assert "exponent_sum" in {
            n.func.id for n in ast.walk(_function(module, name))
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}, name


def test_trace_network_sweeps_in_a_fixed_order():
    # the trace network and the multiplicity search both take their edges
    # from planar.edge_sweep, and neither sorts g.edges itself
    calls = {}
    for module, name in (("traces", "_trace_network"),
                         ("webs", "_enumerate_regular")):
        calls[name] = [n for n in ast.walk(_function(module, name))
                       if isinstance(n, ast.Call)
                       and isinstance(n.func, ast.Name)]
        assert "edge_sweep" in {n.func.id for n in calls[name]}, name
        assert not [n.lineno for n in calls[name] if n.func.id == "sorted"
                    and "g.edges" in ast.unparse(n)], name
    # no nested cost function and no min scan over the pending edges
    fn = _function("traces", "_trace_network")
    assert not [n.lineno for n in ast.walk(fn) if n is not fn
                and isinstance(n, (ast.FunctionDef, ast.Lambda))]
    assert "min" not in {n.func.id for n in calls["_trace_network"]}
