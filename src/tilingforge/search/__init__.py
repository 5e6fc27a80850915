"""Exhaustive exact-coordinate tiling search, certificates and rendering."""

from .certificate import (
    Certificate,
    Violation,
    analyze_maximal_segments,
    check_certificate,
    extract_edge_relations,
)
from .engine import (
    InvalidInstance,
    Outcome,
    SearchConfig,
    SearchStats,
    TilingSearch,
    resume_from_checkpoint,
    run_search,
)
from .placements import Candidate, Placement, TileGeometry, candidate_placements, select_corner
from .region import Polygon, subtract_triangle
from .svg import render_svg

__all__ = [
    "Certificate",
    "Violation",
    "check_certificate",
    "extract_edge_relations",
    "analyze_maximal_segments",
    "run_search",
    "resume_from_checkpoint",
    "TilingSearch",
    "SearchConfig",
    "SearchStats",
    "Outcome",
    "InvalidInstance",
    "Placement",
    "Candidate",
    "TileGeometry",
    "candidate_placements",
    "select_corner",
    "Polygon",
    "subtract_triangle",
    "render_svg",
]
