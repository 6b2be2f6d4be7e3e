"""Exact multiweb traces, symplectic connections and Pfaffians on planar graphs."""

from .errors import SpwebsError
from .rings import Poly, format_scalar, parse_scalar
from .linalg import (SkewMatrix, det, eye, is_symplectic, mat, pf_eliminate,
                     symplectic_J)
from .planar import (Edge, Loop, PlanarGraph, Vertex, advance_cilium,
                     cilia_parity, euler_area_check, flip_edge_orientation,
                     load_graph, loop_area, save_graph, standard_structure)
from .connections import (AnnulusSpec, Connection, annulus_spec,
                          edgewise_product, face_spin_connection,
                          flat_annulus_connection, gauge_transform,
                          identity_connection, kasteleyn_connection,
                          load_connection, monodromy, save_connection)
from .webs import (Multiweb, check_multiweb, decompose_2multiweb,
                   decompositions_into_2webs, enumerate_dimers,
                   enumerate_multiwebs, load_multiweb, save_multiweb,
                   superpose)
from .traces import (crossing_count, det_vertex, qdet, trace_coloring,
                     trace_contraction, trace_identity_colorings,
                     trace_sl_bipartite, trace_sp2_loops, wedge_norm)
from .theorems import (HMatrix, annulus_coefficients, annulus_parity,
                       annulus_partition, dimer_partition,
                       double_dimer_expectation, kasteleyn_trace_decomposition,
                       solve_theta, spin_correlation, sum_traces,
                       symbolic_weights, u2_loop_trace, u2_matrix,
                       verify_kasteleyn, verify_main)

__version__ = "0.1.0"
