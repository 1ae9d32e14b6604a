"""Exact constructions and searches of very negative spheres in elliptic surfaces.

Monodromy words over the twist generators a, b multiply out in SL(2, Z);
singular-fiber fragments assemble into plumbing trees; blow-up rewrites
and smoothing turn the trees into single embedded spheres whose
self-intersection the search minimizes over E(n) # k CP2bar, with an
independent quadratic-form oracle double-checking every reported number.
"""

from .sl2z import (
    GroupElement,
    IDENTITY,
    compose,
    generator,
    is_identity,
    word_to_matrix,
)
from .fibers import FiberType, PlumbingFragment, catalog, fiber
from .plumbing import PlumbingError, PlumbingGraph, oracle_square
from .fibration import (
    ASSUMED_REALIZABLE,
    AmbientSurface,
    FibrationSpec,
    PAPER_VERIFIED,
    ValidationError,
    betti,
    build_tree,
    closed_form_square,
    construction_square,
    reference_decomposition,
    validate,
)
from .search import (
    BlowupPlan,
    CANDIDATE_CONSTANT,
    NoSolutionError,
    SearchResult,
    best_sphere,
    blowup_guarantee,
    conjecture_check,
    enumerate_specs,
    replay_plan,
)

__version__ = "0.1.0"

__all__ = [
    "GroupElement",
    "IDENTITY",
    "compose",
    "generator",
    "is_identity",
    "word_to_matrix",
    "FiberType",
    "PlumbingFragment",
    "catalog",
    "fiber",
    "PlumbingError",
    "PlumbingGraph",
    "oracle_square",
    "ASSUMED_REALIZABLE",
    "AmbientSurface",
    "FibrationSpec",
    "PAPER_VERIFIED",
    "ValidationError",
    "betti",
    "build_tree",
    "closed_form_square",
    "construction_square",
    "reference_decomposition",
    "validate",
    "BlowupPlan",
    "CANDIDATE_CONSTANT",
    "NoSolutionError",
    "SearchResult",
    "best_sphere",
    "blowup_guarantee",
    "conjecture_check",
    "enumerate_specs",
    "replay_plan",
]
