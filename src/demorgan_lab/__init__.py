"""Finite-model toolkit for Belnap-Dunn logic and its extensions."""

from .formula import (
    And, Atom, Formula, Neg, Or, BOT, TOP, RuleInstance, ParseError,
    chi, classical_status, normal_form, parse, parse_rule, rename_apart,
    substitute,
)
from .matrix import (
    FinMatrix, MatrixError, Partition, MatrixMap,
    bd4, catalog, cl2, etl4, evaluate, find_countervaluation,
    find_isomorphism, free_dm_algebra, k3, kminus8, leibniz_congruence,
    leibniz_reduct, lp3, principal_congruence, product, split_at,
    submatrices, validates,
)
from .frame import (
    Frame, FrameError, CompatiblePreorder, complex_matrix, dual_frame,
    frame_isomorphic, frame_isomorphism, is_reduced_frame, leibniz_subframe,
    roundtrip_check,
)
from .graph import (
    Graph, GraphError, GraphPair, graph_isomorphic, hom_search,
    is_n_colorable, weak_n_coloring,
)
from .bridge import (
    TriplePresentation, alpha_rule, classify_reduced, gamma,
    mu_minus, mu_plus, mu_triple, p_minus, p_plus, p_triple,
)
from .logics import (
    NamedLogic, exp_validates, is_antitheorem_of, kminus_witness, log_leq,
    probe_lattice, registry, separation_search,
)

__version__ = "0.1.0"
