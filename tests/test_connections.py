import math
import random
from fractions import Fraction

import numpy as np
import pytest

from helpers import (NotOnCircle, c4_ring, cube_ring, grid, inner_face,
                     k4_2by3, pendant_square, random_gauges, rotation_matrix,
                     simple_loops)
from spwebs.connections import (Connection, annulus_spec,
                                check_kasteleyn_exponents, edgewise_product,
                                face_loop, face_spin_connection,
                                flat_annulus_connection, gauge_transform,
                                identity_connection, j_power,
                                kasteleyn_connection, kasteleyn_exponents,
                                load_connection, monodromy, save_connection,
                                spin_flips, unitary_embed)
from spwebs.errors import (NonCommuting, NotSymplectic, NotUnitary,
                           SelfCheckFailed)
from spwebs.linalg import eye, is_symplectic, mat, mat_equal, symplectic_J
from spwebs.rand import random_connection, random_planar_graph


def test_identity_monodromy():
    g = k4_2by3()
    conn = identity_connection(g, 1)
    for loop in simple_loops(g):
        assert mat_equal(monodromy(g, conn, loop), eye(2))


def test_kasteleyn_matrices_are_j_powers():
    g = c4_ring()
    conn = kasteleyn_connection(g, 1)
    j = symplectic_J(1)
    for eid in g.edges:
        m = conn.phi(g, eid, g.edges[eid].u)
        assert any(mat_equal(m, np.linalg.matrix_power(np.array(
            j.tolist(), dtype=object), k)) for k in range(4))


def _oracle_suite(seed):
    """Seeded random planar graphs and grids, the matrix-product monodromy
    oracle's test bed for the exponent and sign solvers."""
    rnd = random.Random(seed)
    graphs = [random_planar_graph(rnd, rnd.randint(3, 8)) for _ in range(12)]
    return rnd, graphs + [grid(2, 3), grid(3, 3), grid(3, 4), grid(4, 4)]


def test_kasteleyn_face_monodromy_matches_matrix_oracle():
    for n in (1, 2):
        _, graphs = _oracle_suite(31 + n)
        for g in graphs:
            conn = kasteleyn_connection(g, n)
            for f in g.bounded_faces():
                want = j_power(n, len(g.faces[f]) - 2)
                assert mat_equal(monodromy(g, conn, face_loop(g, f)), want)


def test_spin_face_monodromy_matches_matrix_oracle():
    for n in (1, 2):
        rnd, graphs = _oracle_suite(41 + n)
        for g in graphs:
            faces = g.bounded_faces()
            marked = rnd.sample(faces, rnd.randint(0, len(faces)))
            conn = face_spin_connection(g, marked, n)
            flips = spin_flips(g, marked)
            for eid, e in g.edges.items():
                want = -eye(2 * n) if eid in flips else eye(2 * n)
                assert mat_equal(conn.phi(g, eid, e.u), want)
            for f in faces:
                want = -eye(2 * n) if f in marked else eye(2 * n)
                assert mat_equal(monodromy(g, conn, face_loop(g, f)), want)


def test_perturbed_kasteleyn_exponents_fail_the_check():
    rnd, graphs = _oracle_suite(51)
    for g in graphs:
        expo = kasteleyn_exponents(g)
        check_kasteleyn_exponents(g, expo)
        # an edge between two faces, one of them bounded, shifted by 1, 2
        # or 3 mod 4 (a bridge would cancel in its one face)
        eid = rnd.choice([e for e in sorted(g.edges)
                          if g.face_of_dart[(e, 0)] != g.face_of_dart[(e, 1)]])
        bad = dict(expo)
        bad[eid] += rnd.randint(1, 3)
        with pytest.raises(SelfCheckFailed):
            check_kasteleyn_exponents(g, bad)


def test_spin_flips_check_the_marked_faces(monkeypatch):
    # dual paths that cross nothing leave the marked faces at +I
    g = grid(3, 4)
    monkeypatch.setattr(g, "dual_path", lambda f1, f2: [])
    with pytest.raises(SelfCheckFailed):
        spin_flips(g, g.bounded_faces()[:2])


def test_j_power():
    assert mat_equal(j_power(1, 2), -eye(2))
    assert mat_equal(j_power(2, 4), eye(4))


def test_connection_rejects_non_symplectic():
    g = c4_ring()
    mats = {eid: eye(2) for eid in g.edges}
    mats[0] = mat([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]])
    with pytest.raises(NotSymplectic):
        Connection(g, 1, mats)


def test_phi_inverse_in_reverse_direction():
    rnd = random.Random(21)
    g = k4_2by3()
    conn = random_connection(g, rnd, 1)
    for eid, e in g.edges.items():
        forth = conn.phi(g, eid, e.u)
        back = conn.phi(g, eid, e.v)
        assert mat_equal(forth @ back, eye(2))


def test_gauge_trace_invariance():
    rnd = random.Random(22)
    g = k4_2by3()
    conn = random_connection(g, rnd, 1)
    conn2 = gauge_transform(g, conn, random_gauges(g, rnd, 1))
    for loop in simple_loops(g):
        assert np.trace(monodromy(g, conn, loop)) == \
            np.trace(monodromy(g, conn2, loop))


def test_connection_round_trip(tmp_path):
    rnd = random.Random(23)
    g = k4_2by3()
    conn = random_connection(g, rnd, 2)
    path = tmp_path / "conn.json"
    save_connection(g, conn, path)
    conn2 = load_connection(g, path)
    for eid, e in g.edges.items():
        assert mat_equal(conn2.phi(g, eid, e.u), conn.phi(g, eid, e.u))


def test_edgewise_product():
    g = cube_ring()
    c1 = kasteleyn_connection(g, 1)
    c2 = face_spin_connection(g, list(g.bounded_faces()[:2]))
    prod = edgewise_product(g, c1, c2)
    for eid, e in g.edges.items():
        assert mat_equal(prod.phi(g, eid, e.u),
                         c1.phi(g, eid, e.u) @ c2.phi(g, eid, e.u))


def test_edgewise_product_requires_commuting_factors():
    rnd = random.Random(24)
    g = c4_ring()
    with pytest.raises(NonCommuting):
        edgewise_product(g, random_connection(g, rnd, 1),
                         random_connection(g, rnd, 1))


def test_face_spin_connection_flips_dual_path():
    g = cube_ring()
    f1, f2 = g.bounded_faces()[0], g.bounded_faces()[2]
    conn = face_spin_connection(g, [f1, f2])
    flipped = set(g.dual_path(f1, f2))
    for eid, e in g.edges.items():
        want = -eye(2) if eid in flipped else eye(2)
        assert mat_equal(conn.phi(g, eid, e.u), want)


def test_annulus_spec_cuts_on_half_integer_coordinates():
    # the cube's coordinates have denominator 2, so the reference ray is
    # placed on coordinates cleared by 2; these are the cuts the exact
    # Fraction geometry chose, and annulus-ck prints C_k fitted on them
    g = cube_ring()
    assert g.scale == 2
    assert [annulus_spec(g, f).cut for f in g.bounded_faces()] == [
        [(1, 1), (4, -1), (5, 1)], [(1, 1)], [(2, 1)],
        [(1, 1), (6, 1), (7, 1), (10, -1)], [(1, 1), (5, 1)]]


def test_annulus_spec_windings():
    g = cube_ring()
    f_in = inner_face(g, [4, 5, 6, 7])
    spec = annulus_spec(g, f_in)
    assert len(spec.cut) == 2
    for f in range(len(g.faces)):
        w = spec.winding(g, face_loop(g, f))
        if f == f_in:
            assert w == 1
        elif f == g.outer_face:
            assert w == -1
        else:
            assert w == 0


def test_flat_annulus_connection():
    g = pendant_square()
    spec = annulus_spec(g, inner_face(g, [0, 1, 2, 3]))
    twist = mat([[Fraction(-1), Fraction(0)], [Fraction(0), Fraction(-1)]])
    conn = flat_annulus_connection(g, spec, twist)
    for f in g.bounded_faces():
        loop = face_loop(g, f)
        want = twist if spec.winding(g, loop) == 1 else eye(2)
        assert mat_equal(monodromy(g, conn, loop), want)


def test_rotation_matrix_checks_circle():
    m = rotation_matrix(Fraction(3, 5), Fraction(4, 5))
    assert is_symplectic(m)
    with pytest.raises(NotOnCircle):
        rotation_matrix(Fraction(1), Fraction(1))


def test_unitary_embed():
    re = mat([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]])
    im = mat([[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]])
    assert mat_equal(unitary_embed(re, im), eye(4))
    th = 0.73
    re = np.array([[math.cos(th), 0.0], [0.0, math.cos(th)]], dtype=object)
    im = np.array([[math.sin(th), 0.0], [0.0, -math.sin(th)]], dtype=object)
    assert is_symplectic(unitary_embed(re, im), tol=1e-12)
    with pytest.raises(NotUnitary):
        unitary_embed(mat([[Fraction(2), Fraction(0)],
                           [Fraction(0), Fraction(2)]]), im * 0)
