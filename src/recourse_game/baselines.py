"""Comparison regimes: no explanations, minimum-cost, and diverse coverage.

All three operate under the non-strategic threshold policy (accept iff
py >= gamma) and are evaluated through the same best-response engine as the
main optimizers, so utility comparisons are apples-to-apples.
"""

from __future__ import annotations

import numpy as np

from .behavior import adaptation_matrix, utility
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
    A policy that accepts nothing yields the empty set. Each rejected
    individual's cost to the nearest pick is kept, so the run is O(k m^2).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    ground = list(ground_set_accepted(instance, policy).indices)
    cost = instance.cost
    rejected = policy.pi < 1.0
    penalty = 1.0 + float(np.max(cost, where=np.isfinite(cost), initial=0.0))
    px_r = instance.px[rejected]
    # row x holds the costs of every rejected individual to x
    cost_r = np.ascontiguousarray(cost[rejected].T)
    # penalty exceeds every finite cost: unservable individuals cost exactly it
    nearest = np.full(px_r.shape, penalty)

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
    mass (ties: lowest index); stops when nothing new gets covered."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ground = list(ground_set_accepted(instance, policy).indices)
    # row x marks who can adapt to x; open_ marks rejected, uncovered values
    near = np.ascontiguousarray(adaptation_matrix(instance, policy).T)
    open_ = policy.pi < 1.0
    px = instance.px

    A: list[int] = []
    while ground and len(A) < k:
        best, best_gain = None, 0.0
        for pos, x in enumerate(ground):
            gain = float(px[open_ & near[x]].sum())
            if gain > best_gain:
                best, best_gain = pos, gain
        if best is None:
            break
        x = ground.pop(best)
        A.append(x)
        open_ &= ~near[x]
    return ExplanationSet(tuple(A))
