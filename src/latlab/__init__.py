"""Local antimagic (total) labelings: construction, verification, exact solving."""

__version__ = "0.1.0"

from .errors import (CertificateError, IntegrityError, LatlabError, ParameterError,
                     ParseError, PreconditionError, StructureError, TooLargeError,
                     ValidationError)
from .graph import (FamilySpec, Graph, disjoint_union, format_graph, generate,
                    graph6_decode, graph6_encode, join, parse_graph)
from .labeling import Labeling, VerifyReport, WeightProfile, verify
from .constructions import (construct_k2_plus_empty, construct_small_odd_path,
                            path_from_cycle)
from .transforms import cone_to_total, double_cone_collapse, total_to_cone
from .coloring import chromatic_number
from .bounds import (BoundsReport, KnownResult, bounds_report, chi_lat_lower_bound,
                     chi_lat_upper_bound_via_cone, known_value)
from .solver import (FeasibilityResult, SearchMode, SolveBudget, SolveResult,
                     find_with_at_most_k, iter_valid_labelings, solve_min_distinct)
from .certificate import (Certificate, export_dot, make_certificate,
                          read_certificate, write_certificate)

__all__ = [
    "BoundsReport", "Certificate", "CertificateError", "FamilySpec",
    "FeasibilityResult", "Graph", "IntegrityError", "KnownResult", "Labeling",
    "LatlabError", "ParameterError", "ParseError", "PreconditionError",
    "SearchMode", "SolveBudget", "SolveResult", "StructureError",
    "TooLargeError", "ValidationError", "VerifyReport", "WeightProfile",
    "bounds_report", "chi_lat_lower_bound",
    "chi_lat_upper_bound_via_cone", "chromatic_number", "cone_to_total",
    "construct_k2_plus_empty", "construct_small_odd_path", "disjoint_union",
    "double_cone_collapse", "export_dot", "find_with_at_most_k", "format_graph",
    "generate", "graph6_decode", "graph6_encode", "iter_valid_labelings", "join",
    "known_value", "make_certificate", "parse_graph", "path_from_cycle",
    "read_certificate", "solve_min_distinct", "total_to_cone", "verify",
    "write_certificate",
]
