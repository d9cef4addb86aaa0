"""Comparison regimes: no explanations, minimum-cost, and diverse coverage.

All three operate under the non-strategic threshold policy (accept iff
py >= gamma) and are evaluated through the same best-response engine as the
main optimizers, so utility comparisons are apples-to-apples.
"""

from __future__ import annotations

import numpy as np

from .algorithms import _lazy_greedy
from .behavior import _coverage, utility
from .core import ExplanationSet, Instance, Policy, ground_set_accepted


def threshold_policy(instance: Instance) -> Policy:
    """Deterministic accept-iff-viable policy: pi(x) = 1 iff py[x] >= gamma."""
    return Policy((instance.py >= instance.gamma).astype(float))


def black_box_utility(instance: Instance) -> float:
    """Utility of the threshold policy with no explanations.

    Nobody receives a target, so nobody moves and the expectation runs over
    the original distribution.
    """
    return utility(instance, threshold_policy(instance), ExplanationSet())


def min_cost_explanations(
    instance: Instance, policy: Policy, k: int
) -> ExplanationSet:
    """Greedy k-median: pick up to k accepted values minimizing the mass-
    weighted distance from rejected individuals to their nearest pick.

    Ties go to the lowest index. Individuals with no finite-cost option under
    any candidate contribute a constant penalty and never sway the choice.
    A policy that accepts nothing, or k = 0, yields the empty set. Each rejected
    individual's cost to the nearest pick is kept, so the run is O(k m^2).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    ground = list(ground_set_accepted(instance, policy).indices)
    cost = instance.cost
    rejected = policy.pi < 1.0
    penalty = 1.0 + float(np.max(cost, where=np.isfinite(cost), initial=0.0))
    px_r = instance.px[rejected]
    # row x holds the costs of every rejected individual to x
    cost_r = np.ascontiguousarray(cost[rejected].T)
    # penalty exceeds every finite cost: unservable individuals cost exactly it
    nearest = np.full(px_r.shape, penalty)

    # stays eager: a lazy heap flips float near-ties that this argmin pins
    A: list[int] = []
    while ground and len(A) < k:
        # a row sum of the block equals that row's 1-D sum, bit for bit
        objs = (px_r * np.minimum(nearest, cost_r[ground])).sum(axis=1)
        best_x = ground.pop(int(np.argmin(objs)))  # first minimum: lowest index
        A.append(best_x)
        nearest = np.minimum(nearest, cost_r[best_x])
    return ExplanationSet(tuple(A))


def diverse_explanations(instance: Instance, policy: Policy, k: int) -> ExplanationSet:
    """Greedy weighted max coverage: each pick is the accepted value whose
    region-of-adaptation membership covers the most still-uncovered rejected
    mass (ties: lowest index); stops when nothing new gets covered. Coverage
    is monotone submodular, so the shared lazy greedy picks what re-scoring
    every candidate would."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _lazy_greedy(instance, policy, _coverage, [0] * instance.m, [k])
