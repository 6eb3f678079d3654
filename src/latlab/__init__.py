"""Local antimagic (total) labelings: construction, verification, exact solving.

Each public name loads its module on first use (PEP 562).
"""

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("CertificateError", "IntegrityError", "LatlabError", "ParameterError",
               "ParseError", "PreconditionError", "StructureError", "TooLargeError",
               "ValidationError"),
    "graph": ("FamilySpec", "Graph", "disjoint_union", "format_graph", "generate",
              "graph6_decode", "graph6_encode", "join", "parse_graph"),
    "labeling": ("Labeling", "VerifyReport", "WeightProfile", "verify"),
    "constructions": ("construct_k2_plus_empty", "construct_small_odd_path",
                      "path_from_cycle"),
    "transforms": ("cone_to_total", "double_cone_collapse", "total_to_cone"),
    "coloring": ("chromatic_number",),
    "bounds": ("BoundsReport", "KnownResult", "bounds_report", "chi_lat_lower_bound",
               "known_value"),
    "budget": ("SolveBudget",),
    "solver": ("FeasibilityResult", "SearchMode", "SolveResult", "find_with_at_most_k",
               "solve_min_distinct"),
    "certificate": ("Certificate", "export_dot", "make_certificate", "read_certificate",
                    "write_certificate"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    # not a public name: AttributeError, so `from latlab import solver` imports the module
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
