"""Core algorithms of the paper: problem models, local search, Rep-Factor.

This package is the paper's primary contribution and is deliberately free
of any simulator dependency — it operates on
:class:`~repro.core.instance.PlacementProblem` /
:class:`~repro.core.placement.PlacementState` values and can be used
standalone for offline placement optimization.
"""

from repro.core.admissibility import (
    AdmissibilityPolicy,
    AlwaysAdmissible,
    RelativeCostPolicy,
    RelativeGapPolicy,
    theorem9_approximation_factor,
    theorem9_iteration_bound,
)
from repro.core.bounds import (
    average_load_bound,
    combined_lower_bound,
    empirical_ratio,
    max_share_bound,
)
from repro.core.initial_placement import place_all_blocks, place_block
from repro.core.instance import BlockSpec, PlacementProblem, ProblemVariant
from repro.core.local_search import (
    SearchStats,
    balance_node_level,
    balance_rack_aware,
)
from repro.core.operations import MoveOp, Operation, OperationOutcome, SwapOp
from repro.core.placement import PlacementState
from repro.core.relaxation import certified_lower_bound, lp_lower_bound
from repro.core.rep_factor import (
    RepFactorResult,
    compute_replication_factors,
    factors_for_problem,
    max_share,
    verify_optimal_factors,
)

__all__ = [
    "AdmissibilityPolicy",
    "AlwaysAdmissible",
    "RelativeCostPolicy",
    "RelativeGapPolicy",
    "theorem9_approximation_factor",
    "theorem9_iteration_bound",
    "average_load_bound",
    "combined_lower_bound",
    "empirical_ratio",
    "max_share_bound",
    "place_all_blocks",
    "place_block",
    "BlockSpec",
    "PlacementProblem",
    "ProblemVariant",
    "SearchStats",
    "balance_node_level",
    "balance_rack_aware",
    "MoveOp",
    "Operation",
    "OperationOutcome",
    "SwapOp",
    "PlacementState",
    "certified_lower_bound",
    "lp_lower_bound",
    "RepFactorResult",
    "compute_replication_factors",
    "factors_for_problem",
    "max_share",
    "verify_optimal_factors",
]
