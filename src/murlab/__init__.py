"""Exact computation and certification of the minimum universal rank of graphs."""

from .engine import (
    Budget,
    Certificate,
    MurResult,
    ParamPoint,
    SpreadResult,
    complement_params,
    compute_mur,
    mur_lower,
    mur_spread,
    regular_mur,
    family_mur,
    spread_bounds,
    universal_matrix,
)
from .graphs import Graph, GraphError, Graph6Error, encode_graph6, parse_edge_list, parse_graph6
from .report import build_report, parse_report, replay_report, report_to_json

__all__ = [
    "Budget",
    "Certificate",
    "Graph",
    "Graph6Error",
    "GraphError",
    "MurResult",
    "ParamPoint",
    "SpreadResult",
    "build_report",
    "complement_params",
    "compute_mur",
    "encode_graph6",
    "family_mur",
    "mur_lower",
    "mur_spread",
    "parse_edge_list",
    "parse_graph6",
    "parse_report",
    "regular_mur",
    "replay_report",
    "report_to_json",
    "spread_bounds",
    "universal_matrix",
]

__version__ = "0.1.0"
