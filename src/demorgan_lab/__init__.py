"""Finite-model toolkit for Belnap-Dunn logic and its extensions.

The flat public API below is resolved on first access (PEP 562), so
importing one submodule, as the command-line front end does, does not load
the others.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "formula": (
        "And", "Atom", "Formula", "Neg", "Or", "BOT", "TOP", "RuleInstance",
        "ParseError", "chi", "classical_status", "normal_form", "parse",
        "parse_rule", "rename_apart", "substitute",
    ),
    "matrix": (
        "FinMatrix", "MatrixError", "Partition", "MatrixMap", "bd4", "catalog",
        "cl2", "etl4", "evaluate", "find_countervaluation", "find_isomorphism",
        "free_dm_algebra", "k3", "kminus8", "leibniz_congruence",
        "leibniz_reduct", "lp3", "principal_congruence", "product", "split_at",
        "submatrices", "validates",
    ),
    "frame": (
        "Frame", "FrameError", "CompatiblePreorder", "complex_matrix",
        "dual_frame", "frame_isomorphic", "frame_isomorphism",
        "is_reduced_frame", "leibniz_subframe", "roundtrip_check",
    ),
    "graph": (
        "Graph", "GraphError", "GraphPair", "graph_isomorphic", "hom_search",
        "is_n_colorable", "weak_n_coloring",
    ),
    "bridge": (
        "TriplePresentation", "alpha_rule", "classify_reduced", "gamma",
        "mu_minus", "mu_plus", "mu_triple", "p_minus", "p_plus", "p_triple",
    ),
    "logics": (
        "NamedLogic", "exp_validates", "is_antitheorem_of", "kminus_witness",
        "log_leq", "probe_lattice", "registry", "separation_search",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# submodules that resolve as attributes of the package without an import
_SUBMODULES = frozenset(_EXPORTS) | {"_order"}

__all__ = sorted(_HOME.keys() | _EXPORTS.keys())
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys() | _SUBMODULES)
