import math
import random
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from helpers import (IllConditioned, c4_ring, cube_ring, extract_Ck, grid,
                     inner_face, k4_2by3, pendant_square, substitute)
from spwebs import theorems as th
from spwebs.connections import (annulus_spec, edgewise_product,
                                face_spin_connection, flat_annulus_connection,
                                kasteleyn_connection, unitary_embed)
from spwebs.errors import (BadFaceLength, DimensionMismatch, DivByZero,
                           IdentityViolated, MalformedInput, OutOfRange,
                           SelfCheckFailed)
from spwebs.linalg import (eye, is_symplectic, mat, mat_equal, matmul,
                           symplectic_J)
from spwebs.planar import (flip_edge_orientation, load_graph,
                           standard_structure)
from spwebs.rand import (random_connection, random_fraction,
                         random_planar_graph)
from spwebs.rings import Poly
from spwebs.traces import trace_contraction
from spwebs.webs import Multiweb, enumerate_multiwebs


def _z_dimers(g):
    w = th.symbolic_weights(g)
    return th.dimer_partition(g, w), w


def test_golden_pfaffian_is_fourth_power():
    g = k4_2by3()
    z, w = _z_dimers(g)
    pf = th.HMatrix(g, kasteleyn_connection(g, 2), w).pfaffian()
    assert pf == z ** 4
    assert pf.coefficient("a^2*b*c*d^2*e*f") == 12


def test_symbolic_kasteleyn_pfaffian_on_4x4_grid():
    # one variable per edge on 24 edges: Pf(H) = +-Z(w)^2 with 446 terms
    g = grid(4, 4)
    z, w = _z_dimers(g)
    pf = th.HMatrix(g, kasteleyn_connection(g, 1), w).pfaffian()
    assert pf == z ** 2 or pf == -(z ** 2)
    assert len(pf.terms) == 446


def test_verify_kasteleyn_both_ranks():
    g = k4_2by3()
    w = th.symbolic_weights(g)
    assert th.verify_kasteleyn(g, w, 1) in (1, -1)
    assert th.verify_kasteleyn(g, w, 2) in (1, -1)


def test_verify_main_symbolic():
    g = k4_2by3()
    w = th.symbolic_weights(g)
    assert th.verify_main(g, kasteleyn_connection(g, 2), w) == 1


def test_verify_main_random_connection():
    rnd = random.Random(41)
    g = c4_ring()
    assert th.verify_main(g, random_connection(g, rnd, 1)) in (1, -1)


def test_h_blocks_are_weighted_j_phi():
    rnd = random.Random(43)
    for g, n in ((k4_2by3(), 1), (k4_2by3(), 2), (c4_ring(), 2)):
        conn = random_connection(g, rnd, n)
        w = th.symbolic_weights(g)
        h = th.HMatrix(g, conn, w).a
        pos = {v: 2 * n * i for i, v in enumerate(th.vertex_order(g))}
        want = np.full((len(h), len(h)), 0, dtype=object)
        for e in g.edges.values():
            block = w[e.id] * np.array(
                matmul(symplectic_J(n), conn.phi(g, e.id, e.v)), dtype=object)
            ru, rv = pos[e.u], pos[e.v]
            want[ru:ru + 2 * n, rv:rv + 2 * n] += block
            want[rv:rv + 2 * n, ru:ru + 2 * n] -= block.T
        assert mat_equal(h, want)


def test_sum_traces_equals_pfaffian_termwise():
    g = k4_2by3()
    conn = kasteleyn_connection(g, 2)
    w = th.symbolic_weights(g)
    assert th.sum_traces(g, conn, w) == th.HMatrix(g, conn, w).pfaffian()


def test_golden_web_trace():
    g = k4_2by3()
    conn = kasteleyn_connection(g, 2)
    m = Multiweb(2, {0: 2, 1: 1, 2: 1, 3: 2, 4: 1, 5: 1})
    assert abs(trace_contraction(g, conn, m, standard_structure(g))) == 12


def test_kasteleyn_trace_decomposition_matches_trace():
    g = k4_2by3()
    conn = kasteleyn_connection(g, 2)
    s = standard_structure(g)
    w = th.symbolic_weights(g)
    for m in enumerate_multiwebs(g, 2):
        lhs = trace_contraction(g, conn, m, s) * th.web_weight(m, w)
        assert th.kasteleyn_trace_decomposition(g, m, w) == lhs


def test_dimer_partition_symbolic():
    g = k4_2by3()
    z, _ = _z_dimers(g)
    a, b, c = Poly.var("a"), Poly.var("b"), Poly.var("c")
    d, e, f = Poly.var("d"), Poly.var("e"), Poly.var("f")
    assert z == a * d + b * e + c * f


def test_orientation_covariance():
    rnd = random.Random(42)
    g = k4_2by3()
    conn = random_connection(g, rnd, 2)
    s = standard_structure(g)
    m = Multiweb(2, {0: 2, 1: 1, 2: 1, 3: 2, 4: 1, 5: 1})
    base = trace_contraction(g, conn, m, s)
    assert trace_contraction(g, conn, m, flip_edge_orientation(s, g, 1)) == \
        -base
    assert trace_contraction(g, conn, m, flip_edge_orientation(s, g, 0)) == \
        base


def test_spin_correlation_matches_double_dimers():
    g = grid(2, 3)
    f1, f2 = g.bounded_faces()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sc = th.spin_correlation(g, f1, f2)
    dd = th.double_dimer_expectation(g, {e: -1 for e in g.dual_path(f1, f2)})
    assert sc == dd == Fraction(1, 9)


def test_spin_correlation_same_face_is_one():
    g = grid(2, 3)
    f1 = g.bounded_faces()[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert th.spin_correlation(g, f1, f1) == 1


def test_spin_correlation_warns_on_bad_face_length():
    g = grid(2, 3)
    f1, f2 = g.bounded_faces()
    with pytest.warns(BadFaceLength):
        th.spin_correlation(g, f1, f2)


def test_annulus_parity_cube():
    g = cube_ring()
    spec = annulus_spec(g, inner_face(g, [4, 5, 6, 7]))
    ap = th.annulus_parity(g, spec)
    dd = th.double_dimer_expectation(g, {e: -1 for e, _ in spec.cut})
    assert ap == dd == Fraction(25, 81)


def test_annulus_parity_no_winding_is_one():
    g = pendant_square()
    spec = annulus_spec(g, inner_face(g, [0, 1, 2, 3]))
    assert th.annulus_parity(g, spec) == 1


def test_annulus_squared_twist_is_trivial():
    g = cube_ring()
    spec = annulus_spec(g, inner_face(g, [4, 5, 6, 7]))
    minus = mat([[Fraction(-1), Fraction(0)], [Fraction(0), Fraction(-1)]])
    conn = flat_annulus_connection(g, spec, matmul(minus, minus))
    kc = kasteleyn_connection(g, 1)
    num = th.HMatrix(g, edgewise_product(g, kc, conn)).pfaffian()
    den = th.HMatrix(g, kc).pfaffian()
    assert num == den


def _twisted_ratio_oracle(g, twist, w):
    """Pf(H) under the Kasteleyn connection times twist, as the matrix
    product edgewise_product, over the untwisted Pf(H)."""
    kc = kasteleyn_connection(g, 1)
    num = th.HMatrix(g, edgewise_product(g, kc, twist), w).pfaffian()
    return num / th.HMatrix(g, kc, w).pfaffian()


def test_exponent_twists_match_edgewise_product_oracle():
    rnd = random.Random(61)
    cases = [(cube_ring(), None)]
    for rows, cols in ((2, 4), (3, 4), (4, 4), (2, 5), (4, 5)):
        g = grid(rows, cols)
        cases.append((g, {eid: Fraction(rnd.randint(1, 5), rnd.randint(1, 3))
                          for eid in g.edges}))
    minus = mat([[-1, 0], [0, -1]])
    for g, w in cases:
        faces = g.bounded_faces()
        for _ in range(3):
            f1, f2 = rnd.sample(faces, 2)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", BadFaceLength)
                spin = th.spin_correlation(g, f1, f2, w)
            assert spin == _twisted_ratio_oracle(
                g, face_spin_connection(g, [f1, f2]), w)
            spec = annulus_spec(g, rnd.choice(faces))
            assert th.annulus_parity(g, spec, w) == _twisted_ratio_oracle(
                g, flat_annulus_connection(g, spec, minus), w)


def test_annulus_partition_values_are_pinned():
    # float reprs of the U(2)-twisted rank-2 Pfaffian, as computed from
    # edgewise_product of the Kasteleyn and the flat connection on the
    # shortest dual cut; another cut gives a gauge-equivalent connection
    # whose floats round differently in the last digits
    g = grid(4, 4)
    spec = annulus_spec(g, inner_face(g, [5, 6, 10, 9]))
    c4 = load_graph(Path(__file__).parent / "data" / "c4.json")
    c4_spec = annulus_spec(c4, 0 if c4.outer_face != 0 else 1)
    for graph, sp, values in (
            (g, spec, ("1636016.5793964125", "1383042.154243487",
                       "1579191.643082061")),
            (c4, c4_spec, ("14.118737498275909", "2.669791829761407",
                           "11.628768971404616"))):
        for (eps, alpha, beta), want in zip(
                ((0.7, 0.0, 0.0), (2.3, 0.0, 0.0), (1.1, 0.2, 0.5)), values):
            z = th.annulus_partition(graph, sp, eps, alpha=alpha, beta=beta)
            assert repr(z) == want


def test_annulus_coefficients_on_random_planar_graphs():
    # on every bounded face: at x = 6 the holonomy is the identity, so
    # sum C_k 6^k is +-Pf of the rank-2 Kasteleyn H, exactly; and sum
    # C_k x^k is the float annulus Pfaffian at three eps, to 1e-9 of the
    # size of its terms (at least 1: an exact 0 comes out as float noise)
    rnd = random.Random(20261020)
    faces = 0
    for _ in range(40):
        g = random_planar_graph(rnd, rnd.randint(4, 7))
        for e in g.edges.values():
            e.weight = random_fraction(rnd)
        pf = th.HMatrix(g, kasteleyn_connection(g, 2)).pfaffian()
        for f in g.bounded_faces():
            spec = annulus_spec(g, f)
            ck = th.annulus_coefficients(g, spec)
            assert len(ck) == 2 * len(spec.cut) + 1
            assert all(type(c) is Fraction for c in ck)
            assert sum(c * 6 ** k for k, c in enumerate(ck)) in (pf, -pf)
            for eps in (0.4, 1.3, 2.5):
                x = Fraction(2 + 4 * math.cos(eps))
                z = float(sum(c * x ** k for k, c in enumerate(ck)))
                size = float(sum(abs(c * x ** k) for k, c in enumerate(ck)))
                assert abs(th.annulus_partition(g, spec, eps) - z) \
                    <= 1e-9 * max(size, 1.0), (f, eps)
            faces += 1
    assert faces >= 100


def test_exact_cut_holonomy_is_symplectic_modulo_the_circle(monkeypatch):
    # R(c, s) is not symplectic over Z[c, s], but every entry of
    # R^T J R - J is divisible by c^2 + s^2 - 1, and at a point of the
    # circle R is unitary_embed(diag(1, c), diag(0, s))
    seen = []
    build = th._annulus_matrices
    monkeypatch.setattr(th, "_annulus_matrices",
                        lambda spec, r, ring: seen.append(r)
                        or build(spec, r, ring))
    g = c4_ring()
    th.annulus_coefficients(g, annulus_spec(g, inner_face(g, [0, 1, 2, 3])))
    (r,) = seen
    c, s = Poly.var("c"), Poly.var("s")
    j = symplectic_J(2)
    rt = [list(col) for col in zip(*r)]
    defect = [Poly() + x - y for row, jrow in zip(matmul(matmul(rt, j), r), j)
              for x, y in zip(row, jrow)]
    assert any(defect)
    for x in defect:
        x.exact_div(c * c + s * s - 1)
    cos, sin = math.cos(0.9), math.sin(0.9)
    at = [[substitute(x, {"c": cos, "s": sin}) if isinstance(x, Poly) else x
           for x in row] for row in r]
    assert at == unitary_embed([[1, 0], [0, cos]], [[0, 0], [0, sin]])


def test_annulus_coefficient_self_checks_raise(monkeypatch):
    # an odd power of s, or a C_k past K = 2 |cut|, is a library defect:
    # SelfCheckFailed, which python -O keeps
    g = c4_ring()
    spec = annulus_spec(g, inner_face(g, [0, 1, 2, 3]))
    assert len(spec.cut) == 1
    c, s = Poly.var("c"), Poly.var("s")
    for pf, message in ((c * s + 1, "odd power of s"), (c ** 3, "past K")):
        monkeypatch.setattr(th.SkewMatrix, "pfaffian",
                            lambda self, pf=pf: pf)
        with pytest.raises(SelfCheckFailed, match=message):
            th.annulus_coefficients(g, spec)


def test_annulus_coefficients_reject_a_poly_weight():
    # the C_k are exact in x for number weights; a Poly weight is a
    # library error naming its edge, not Fraction's bare TypeError
    g = grid(4, 4)
    g.edges[0].weight = Poly.var("a")
    spec = annulus_spec(g, g.bounded_faces()[4])
    with pytest.raises(MalformedInput, match="edge 0 "):
        th.annulus_coefficients(g, spec)


def test_u2_matrix_is_symplectic():
    m = th.u2_matrix(0.7, 0.3, -1.1, 0.9)
    assert is_symplectic(m, tol=1e-12)
    assert np.shape(th.u2_matrix(0.0, 0.0, 0.0, 0.0)) == (4, 4)


def test_u2_loop_trace_at_zero_angles():
    assert th.u2_loop_trace("even-single", 0.0, 0.0, 0.0) == 4.0
    assert th.u2_loop_trace("even-doubled", 0.0, 0.0, 0.0) == 6.0
    assert th.u2_loop_trace("odd-doubled", 0.0, 0.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        th.u2_loop_trace("sideways", 0.0, 0.0, 0.0)


def test_solve_theta_closed_form_point():
    assert abs(th.solve_theta(0.0, 2 * math.pi / 3) - 1.0) < 1e-12


def test_solve_theta_divides_by_zero_at_pi():
    with pytest.raises(DivByZero):
        th.solve_theta(0.0, math.pi)


def test_solve_theta_warns_out_of_range():
    with pytest.warns(OutOfRange):
        th.solve_theta(0.3, -0.8)


def test_extract_ck_ring_values():
    g = c4_ring()
    spec = annulus_spec(g, 0 if g.outer_face != 0 else 1)
    cks = extract_Ck(g, spec, [0.3, 1.1, 2.0])
    assert abs(cks[0] - 4.0) < 1e-8
    assert abs(cks[1] - 2.0) < 1e-8
    assert abs(cks[2]) < 1e-8


def test_extract_ck_alpha_beta_independent():
    g = c4_ring()
    spec = annulus_spec(g, 0 if g.outer_face != 0 else 1)
    samples = [0.4, 1.2, 2.1]
    base = extract_Ck(g, spec, samples)
    # alpha values where the loop-killing angle stays real on the samples
    for al, be in ((0.1, 0.0), (0.2, 0.0), (0.0, 1.3)):
        other = extract_Ck(g, spec, samples, alpha=al, beta=be)
        assert max(abs(a - b) for a, b in zip(base, other)) < 1e-8


def test_extract_ck_needs_enough_samples():
    g = c4_ring()
    spec = annulus_spec(g, 0 if g.outer_face != 0 else 1)
    with pytest.raises(DimensionMismatch):
        extract_Ck(g, spec, [0.5, 1.5])


def test_extract_ck_rejects_clustered_samples():
    g = c4_ring()
    spec = annulus_spec(g, 0 if g.outer_face != 0 else 1)
    with pytest.raises(IllConditioned):
        extract_Ck(g, spec, [1.0, 1.0 + 1e-10, 1.0 + 2e-10])


def test_double_dimer_expectation_unsigned_is_one():
    g = k4_2by3()
    assert th.double_dimer_expectation(g, {}) == 1


def test_identity_sign_of_each_outcome():
    assert th.identity_sign(3, 3) == 1
    assert th.identity_sign(3, -3) == -1
    assert th.identity_sign(1.0, -1.0 + 1e-12) == -1
    # neither sign fits
    with pytest.raises(IdentityViolated):
        th.identity_sign(2, 3)
    # a float past the double range compares to nothing
    for pf, ts in ((math.inf, 1.0), (1.0, -math.inf), (math.nan, math.nan)):
        with pytest.raises(OutOfRange):
            th.identity_sign(pf, ts)


def test_weight_map_defaults():
    g = c4_ring()
    assert th.weight_map(g) == {0: 1, 1: 1, 2: 1, 3: 1}
    g.edges[2].weight = Fraction(3, 5)
    assert th.weight_map(g)[2] == Fraction(3, 5)


def test_symbolic_weights_names():
    w = th.symbolic_weights(c4_ring())
    assert w[0] == Poly.var("a") and w[3] == Poly.var("d")
