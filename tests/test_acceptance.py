"""End-to-end acceptance checks.

One test per numbered criterion; ``pytest -v tests/test_acceptance.py``
prints one pass/fail line for each.
"""

import math
import random
import time
import warnings
from fractions import Fraction

import numpy as np

from helpers import (c4_ring, cube_ring, exterior_power_trace, grid,
                     inner_face, k4_2by3, pendant_square, random_triangulation,
                     random_vector, rotation_matrix, simple_loops, triangle)
from spwebs import theorems as th
from spwebs.connections import (Connection, annulus_spec,
                                identity_connection, kasteleyn_connection,
                                monodromy)
from spwebs.linalg import det, scalar_is_zero, symplectic_J
from spwebs.planar import (advance_cilium, cilia_parity, euler_area_check,
                           flip_edge_orientation, standard_structure)
from spwebs.rand import (random_connection, random_fraction,
                         random_planar_graph, random_polygon)
from spwebs.rings import Poly
from spwebs.traces import (det_vertex, qdet, trace_coloring,
                           trace_contraction, trace_identity_colorings,
                           trace_sp2_loops, wedge_norm)
from spwebs.webs import (Multiweb, decompose_2multiweb,
                         decompositions_into_2webs, enumerate_multiwebs)

GOLDEN = Multiweb(2, {0: 2, 1: 1, 2: 1, 3: 2, 4: 1, 5: 1})


def test_c01_golden_pfaffian_is_fourth_power_of_dimer_sum():
    t0 = time.monotonic()
    g = k4_2by3()
    w = th.symbolic_weights(g)
    z = th.dimer_partition(g, w)
    pf = th.HMatrix(g, kasteleyn_connection(g, 2), w).pfaffian()
    assert pf == z ** 4 or pf == -(z ** 4)
    assert pf.coefficient("a^2*b*c*d^2*e*f") in (12, -12)
    assert pf.coefficient("a^2*b*c*d^2*e*f") == 12
    assert time.monotonic() - t0 < 10


def test_c02_golden_web_trace_and_decompositions():
    g = k4_2by3()
    conn = kasteleyn_connection(g, 2)
    tr = trace_contraction(g, conn, GOLDEN, standard_structure(g))
    assert abs(tr) == 12
    w = th.symbolic_weights(g)
    assert th.kasteleyn_trace_decomposition(g, GOLDEN, w) == \
        tr * th.web_weight(GOLDEN, w)
    kc1 = kasteleyn_connection(g, 1)
    weights = []
    for parts in decompositions_into_2webs(g, GOLDEN):
        count, good = 0, True
        for part in parts:
            for loop in decompose_2multiweb(g, part).loops:
                count += 1
                if scalar_is_zero(monodromy(g, kc1, loop)[0, 0]):
                    good = False
        weights.append(2 ** count if good else 0)
    assert sorted(weights) == [2, 2, 4, 4]


def test_c03_pfaffian_equals_trace_sum_on_random_instances():
    t0 = time.monotonic()
    rnd = random.Random(20260814)
    for _ in range(50):
        g = random_planar_graph(rnd, rnd.randint(3, 6))
        assert th.verify_main(g, random_connection(g, rnd, 1)) in (1, -1)
    for _ in range(20):
        g = random_planar_graph(rnd, rnd.randint(3, 4))
        assert th.verify_main(g, random_connection(g, rnd, 2)) in (1, -1)
    for _ in range(10):
        g = random_planar_graph(rnd, rnd.randint(3, 5))
        assert th.verify_main(g, random_connection(g, rnd, 1),
                              th.symbolic_weights(g)) in (1, -1)
    assert time.monotonic() - t0 < 120


def test_c04_kasteleyn_pfaffian_is_power_of_dimer_sum():
    t0 = time.monotonic()
    rnd = random.Random(20260815)
    for _ in range(30):
        g = random_planar_graph(rnd, rnd.choice([4, 6]))
        w = th.symbolic_weights(g)
        assert th.verify_kasteleyn(g, w, 1) in (1, -1)
        assert th.verify_kasteleyn(g, w, 2) in (1, -1)
    assert time.monotonic() - t0 < 120


def test_c05_trace_engines_agree_on_every_multiweb():
    rnd = random.Random(20260816)
    for g in (triangle(), c4_ring(), k4_2by3(), grid(2, 3)):
        conn = random_connection(g, rnd, 1)
        s = standard_structure(g)
        for m in enumerate_multiwebs(g, 1):
            a = trace_coloring(g, conn, m, s)
            assert a == trace_contraction(g, conn, m, s)
            assert a == trace_sp2_loops(g, conn, m, s)
    for g in (triangle(), c4_ring(), k4_2by3()):
        conn = random_connection(g, rnd, 2)
        s = standard_structure(g)
        for m in enumerate_multiwebs(g, 2):
            assert trace_coloring(g, conn, m, s) == \
                trace_contraction(g, conn, m, s)


def test_c06_identity_connection_trace_counts_colorings():
    for g in (triangle(), c4_ring(), k4_2by3()):
        for n in (1, 2):
            conn = identity_connection(g, n)
            s = standard_structure(g)
            for m in enumerate_multiwebs(g, n):
                assert trace_contraction(g, conn, m, s) == \
                    trace_identity_colorings(g, m, s)


def test_c07_polygon_parity_and_euler_area():
    rnd = random.Random(20260817)
    for _ in range(1000):
        d, s, n = cilia_parity(random_polygon(rnd))
        assert (d - s - n - 1) % 2 == 0
    for _ in range(20):
        g = random_triangulation(rnd, rnd.randint(4, 7))
        for loop in simple_loops(g):
            area, length, inside = euler_area_check(g, loop)
            assert area == length + 2 * inside - 2


def test_c08_vertex_determinant_equals_wedge_norm():
    t0 = time.monotonic()
    rnd = random.Random(20260818)
    cases = {1: 70, 2: 70, 3: 60}
    for n, reps in cases.items():
        for _ in range(reps):
            vs = [random_vector(rnd, n) for _ in range(2 * n)]
            assert det_vertex(vs) == wedge_norm(vs)
        basis = [np.array([Fraction(int(i == k)) for i in range(2 * n)],
                          dtype=object) for k in range(2 * n)]
        assert det_vertex(basis) == 1
    assert time.monotonic() - t0 < 30


def test_c09_trace_covariance_under_cilium_and_orientation_moves():
    rnd = random.Random(20260819)
    for _ in range(100):
        g = random_planar_graph(rnd, rnd.randint(3, 5))
        conn = random_connection(g, rnd, 1)
        m = rnd.choice(enumerate_multiwebs(g, 1))
        s = standard_structure(g)
        base = trace_contraction(g, conn, m, s)
        v = rnd.choice(sorted(g.vertices))
        s2, crossed = advance_cilium(s, v)
        assert trace_contraction(g, conn, m, s2) == base * (-1) ** m[crossed]
        eid = rnd.choice(sorted(g.edges))
        s3 = flip_edge_orientation(s, g, eid)
        assert trace_contraction(g, conn, m, s3) == base * (-1) ** m[eid]


def test_c10_spin_and_annulus_parity_match_double_dimers():
    pairs = []
    g = c4_ring()
    pairs.append((g, g.bounded_faces()[0], g.bounded_faces()[0]))
    g = grid(2, 3)
    pairs.append((g, g.bounded_faces()[0], g.bounded_faces()[1]))
    g = grid(2, 4)
    pairs.append((g, g.bounded_faces()[0], g.bounded_faces()[2]))
    g = k4_2by3()
    pairs.append((g, g.bounded_faces()[0], g.bounded_faces()[1]))
    g = cube_ring()
    pairs.append((g, g.bounded_faces()[0], g.bounded_faces()[2]))
    for g, f1, f2 in pairs:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sc = th.spin_correlation(g, f1, f2)
        dd = th.double_dimer_expectation(
            g, {e: -1 for e in g.dual_path(f1, f2)})
        assert sc == dd
    for g, face in ((cube_ring(), [4, 5, 6, 7]),
                    (pendant_square(), [0, 1, 2, 3]),
                    (c4_ring(), [0, 1, 2, 3])):
        spec = annulus_spec(g, inner_face(g, face))
        ap = th.annulus_parity(g, spec)
        dd = th.double_dimer_expectation(g, {e: -1 for e, _ in spec.cut})
        assert ap == dd
    g = cube_ring()
    spec = annulus_spec(g, inner_face(g, [4, 5, 6, 7]))
    assert th.annulus_parity(g, spec) == Fraction(25, 81)


def test_c11_u2_loop_weights_match_raw_matrices():
    rng = np.random.default_rng(20260820)
    j4 = np.array(symplectic_J(2).tolist(), dtype=float)
    for _ in range(20):
        al, be, ep, t = rng.uniform(-math.pi, math.pi, 4)
        r4 = np.array(th.u2_matrix(t, al, be, ep).tolist(), dtype=float)
        esl = th.u2_loop_trace("even-single", al, ep, t)
        edl = th.u2_loop_trace("even-doubled", al, ep, t)
        odl = th.u2_loop_trace("odd-doubled", al, ep, t)
        assert abs(esl - np.trace(r4)) < 1e-10
        assert abs(edl - float(exterior_power_trace(r4, 2))) < 1e-10
        assert abs(odl - (2.0 - float(exterior_power_trace(j4 @ r4, 2)))) \
            < 1e-10

    # doubled winding loops of every area class, realized on cycles
    cycles = {
        3: [(0, 0), (7, 2), (3, 9)],
        4: [(0, 0), (8, 1), (9, 8), (1, 7)],
        5: [(0, 0), (8, 1), (10, 6), (4, 11), (-2, 5)],
        6: [(0, 0), (6, 1), (9, 5), (6, 10), (0, 9), (-3, 4)],
    }
    al, be, ep, t = 0.9, -0.4, 1.7, 0.6
    r4 = th.u2_matrix(t, al, be, ep)
    edl = th.u2_loop_trace("even-doubled", al, ep, t)
    odl = th.u2_loop_trace("odd-doubled", al, ep, t)
    from helpers import cycle_graph
    for ell, pts in cycles.items():
        g = cycle_graph(pts)
        mats = dict(kasteleyn_connection(g, 2).matrices)
        mats[0] = mats[0] @ r4
        conn = Connection(g, 2, mats, check=False)
        m = Multiweb(2, {i: 2 for i in range(ell)})
        tr = float(trace_contraction(g, conn, m, standard_structure(g)))
        want = edl if (ell - 2) % 2 == 0 else odl
        assert abs(tr - want) < 1e-10

    j2 = np.array(symplectic_J(1).tolist(), dtype=float)
    for t in (0.83, -1.2, 2.4):
        r2 = np.array(rotation_matrix(math.cos(t), math.sin(t)).tolist(),
                      dtype=float)
        quad = [np.trace(np.linalg.matrix_power(j2, a) @ r2)
                for a in range(4)]
        want = [2 * math.cos(t), -2 * math.sin(t),
                -2 * math.cos(t), 2 * math.sin(t)]
        assert max(abs(q - w) for q, w in zip(quad, want)) < 1e-12

    for al, ep in ((0.0, 0.4), (0.0, 1.3), (0.0, 2.0), (0.1, 0.8)):
        t = 0.5 * math.acos(max(-1.0, min(1.0, th.solve_theta(al, ep))))
        assert abs(th.u2_loop_trace("odd-doubled", al, ep, t)) < 1e-12
        if al == 0.0:
            esl = th.u2_loop_trace("even-single", al, ep, t)
            edl = th.u2_loop_trace("even-doubled", al, ep, t)
            assert abs(esl - (1 + edl / 2)) < 1e-12


def test_c12_annulus_coefficients_stable_across_sample_sets():
    g = c4_ring()
    spec = annulus_spec(g, inner_face(g, [0, 1, 2, 3]))
    assert 2 * len(spec.cut) <= 2
    first = th.extract_Ck(g, spec, [0.3, 1.1, 2.0])
    x = 2 + 4 * math.cos(2.6)
    z = th.annulus_partition(g, spec, 2.6)
    residual = abs(z - sum(c * x ** k for k, c in enumerate(first)))
    assert residual < 1e-8
    second = th.extract_Ck(g, spec, [0.7, 1.7, 2.9])
    assert max(abs(a - b) for a, b in zip(first, second)) < 1e-6


def test_c13_quantum_determinant_specializes_to_determinant():
    rnd = random.Random(20260821)
    for _ in range(50):
        a = np.array([[random_fraction(rnd) for _ in range(3)]
                      for _ in range(3)], dtype=object)
        assert qdet(a, Fraction(1)) == det(a)
    a11, a12, a21, a22 = (Poly.var(v) for v in ("w", "x", "y", "z"))
    q = Poly.var("q")
    m = np.array([[a11, a12], [a21, a22]], dtype=object)
    assert qdet(m, q) == a11 * a22 - q * a12 * a21
