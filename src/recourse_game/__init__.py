"""Utility-maximizing counterfactual explanations under strategic behavior.

A decision maker screens a discrete population, publishes up to k feature
values as counterfactual explanations, and individuals best-respond by
adapting whenever the benefit gain covers their cost. This package models
that game, optimizes explanation sets (greedy, matroid-constrained greedy)
and jointly optimal policies (closed form per set, randomized greedy over
sets), and ships baselines, synthetic generators and a seeded CSV experiment
harness.
"""

from .algorithms import (
    BRUTE_FORCE_CAP,
    JointSolution,
    brute_force_fixed,
    brute_force_joint,
    exhaustive_best_policy,
    greedy_fixed_policy,
    greedy_matroid,
    joint_objective,
    optimal_policy_for,
    randomized_joint,
    randomized_joint_runs,
)
from .baselines import (
    black_box_utility,
    diverse_explanations,
    min_cost_explanations,
    threshold_policy,
)
from .behavior import (
    NO_EXPLANATION,
    Assignment,
    BestResponseResult,
    assign_explanations,
    best_respond,
    group_improvement,
    leakage_utility,
    leakage_utility_mc,
    transport_matrix,
    utility,
)
from .core import (
    INFINITE_COST,
    ExplanationSet,
    Instance,
    PartitionMatroid,
    Policy,
    ground_set_accepted,
    ground_set_viable,
    is_outcome_monotonic,
    is_rational,
    make_instance,
    sort_canonical,
)
from .datagen import (
    FeatureTable,
    SynthConfig,
    build_cost_matrix,
    derive_seed,
    generate_synthetic,
    load_feature_table,
    load_instance,
    save_feature_table,
    save_instance,
    seeded_rng,
)
from .harness import TOOL_VERSION, ExperimentConfig

__version__ = TOOL_VERSION

__all__ = [
    "Assignment",
    "BestResponseResult",
    "BRUTE_FORCE_CAP",
    "ExperimentConfig",
    "ExplanationSet",
    "FeatureTable",
    "INFINITE_COST",
    "Instance",
    "JointSolution",
    "NO_EXPLANATION",
    "PartitionMatroid",
    "Policy",
    "SynthConfig",
    "TOOL_VERSION",
    "assign_explanations",
    "best_respond",
    "black_box_utility",
    "brute_force_fixed",
    "brute_force_joint",
    "build_cost_matrix",
    "derive_seed",
    "diverse_explanations",
    "exhaustive_best_policy",
    "generate_synthetic",
    "greedy_fixed_policy",
    "greedy_matroid",
    "ground_set_accepted",
    "ground_set_viable",
    "group_improvement",
    "is_outcome_monotonic",
    "is_rational",
    "joint_objective",
    "leakage_utility",
    "leakage_utility_mc",
    "load_feature_table",
    "load_instance",
    "make_instance",
    "min_cost_explanations",
    "optimal_policy_for",
    "randomized_joint",
    "randomized_joint_runs",
    "save_feature_table",
    "save_instance",
    "seeded_rng",
    "sort_canonical",
    "threshold_policy",
    "transport_matrix",
    "utility",
]
