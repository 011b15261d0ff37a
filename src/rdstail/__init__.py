"""rdstail: exact desk-scale calculus for driven fiberwise dynamics.

Finite driven bundle systems with exact rational masses and distances;
random covers and their dynamical iterates; exact minimal-subcover counts;
subadditive integrated log-count sequences with certified running-infimum
brackets; conditional and relative entropy against finite sub-sigma-algebras;
invariant-measure polytopes, Cesaro projections, and empirical pair-measure
constructions; a driven-subshift backend for positive ground truths; and
deterministic verification suites asserting the inequalities and identities
that tie all of it together.
"""

__version__ = "0.1.0"

# bench/tracer.py traces rdstail._linalg.rank by module name, so the package keeps it loaded
from . import _linalg  # noqa: F401
from .budgets import Budgets, DEFAULTS
from .counting import (
    CountProfile,
    count_profile,
    count_profiles,
    min_cover_size,
    minimal_subcover,
    relative_count,
)
from .covers import (
    RandomCover,
    RandomPartition,
    RandomSet,
    SigmaAlgebra,
    fiber_partition,
    fiber_sigma,
    iterate_cover,
    join,
    point_partition,
    pullback,
    pullback_cover,
    refines,
    sigma_join,
    sigma_refines,
    state_partition,
    state_sigma,
    trivial_cover,
    validate_cover,
)
from .errors import (
    BudgetExceededError,
    DomainError,
    IncompatibleSystemsError,
    PreconditionError,
    RdstailError,
)
from .invariant import (
    DiagonalMeasureResult,
    InvariantPolytope,
    SeparatedEmpirical,
    bowen_ball,
    cesaro_limit,
    cycle_coefficients,
    diagonal_measure,
    hull_certificate,
    invariance_defect,
    lebesgue_number,
    lift_invariant,
    separated_empirical,
    vertex_enumeration,
)
from .measures import (
    BoundCheck,
    ContainmentBound,
    ContainmentWitness,
    DefectEstimate,
    FiberedMeasure,
    FiltrationCheck,
    conditional_entropy,
    containment_entropy_bound_check,
    defect,
    delta_contains,
    disintegrate,
    entropy_count_bound_check,
    filtration_limit_check,
    measures_equal,
    pushforward_measure,
    relative_entropy_sequence,
    relative_entropy_sequences,
    skew_pushforward,
    total_variation,
    transformation_relative_entropy_sequence,
    two_partition_count_bound_check,
)
from .model import (
    BundleRDS,
    DrivingSystem,
    FactorMap,
    MetricSpace,
    ProductSystem,
    identity_factor,
    pair_system,
    power_system,
    product_system,
    skew_iterate,
    validate_system,
)
from .presets import cycle_system, extend_with_tags, one_point_system, swap_system
from .scenario import Scenario, ScenarioError, load_scenario, loads_scenario
from .symbolic import (
    CylinderCoverSpec,
    RandomSFT,
    SFTComponent,
    admissible_word_count,
    relative_word_count,
    sft_tail_sequence,
)
from .tail_entropy import (
    EntropyEstimate,
    PowerRuleResult,
    cover_conditional_entropy,
    integrated_log_count,
    power_rule_check,
    tail_entropy_estimate,
    tail_entropy_total,
)
from .verify import (
    CheckResult,
    SuiteReport,
    principal_extension_check,
    run_cover_suite,
    run_entropy_suite,
    run_invariant_suite,
    run_principal_suite,
    run_suite,
    run_theorem_suite,
)
