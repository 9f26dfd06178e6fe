"""Mod-2 cellular homology on finite cell complexes, with
descriptor-driven sub-complexes, gauge-group checks, and persistence
signatures."""

from .cellcomplex import CellComplex, CellId, Skeleton, Violation, from_simplices
from .homology import (
    Chain,
    DimensionHomology,
    HomologyResult,
    boundary_of,
    cycle_basis,
    homology,
    is_boundary,
    oracle_homology,
    rank_mod2,
)
from .descriptive import (
    Descriptor,
    DescriptorBall,
    DescriptiveSubcomplex,
    ProbeAssignment,
    alpha_spectrum,
    assign_probe,
    ball_members,
    chain_inclusion,
    derive_subcomplex,
    descriptive_homology,
)
from .bundle import (
    Chart,
    GaugeReport,
    GaugeViolation,
    TransitionFunction,
    make_chart,
    transition,
    verify_cocycle,
    with_overrides,
)
from .persistence import (
    PersistenceSignature,
    Scenario,
    ScenarioStep,
    TransitionTrace,
    betti_curve,
    build_scenario,
    compare_signatures,
    signature,
    transition_evolution,
)
from . import errors, formats

__version__ = "0.1.0"

__all__ = [
    "CellComplex", "CellId", "Skeleton", "Violation", "from_simplices",
    "Chain", "DimensionHomology", "HomologyResult", "boundary_of",
    "cycle_basis", "homology", "is_boundary", "oracle_homology", "rank_mod2",
    "Descriptor", "DescriptorBall", "DescriptiveSubcomplex", "ProbeAssignment",
    "alpha_spectrum", "assign_probe", "ball_members", "chain_inclusion",
    "derive_subcomplex", "descriptive_homology",
    "Chart", "GaugeReport", "GaugeViolation", "TransitionFunction",
    "make_chart", "transition", "verify_cocycle", "with_overrides",
    "PersistenceSignature", "Scenario", "ScenarioStep", "TransitionTrace",
    "betti_curve", "build_scenario", "compare_signatures", "signature",
    "transition_evolution",
    "errors", "formats",
]
