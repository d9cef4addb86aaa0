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


# Bytes of candidate scores min_cost_explanations holds at once: one block
# at m=200, about seven at m=1000.
_SCORE_BYTES = 256 * 1024


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
    A policy that accepts nothing, or k = 0, yields the empty set. The costs
    from rejected individuals to accepted values are gathered and weighted
    by mass once, and each pick scores every candidate with one min and one
    row sum, in row blocks of one buffer of at most _SCORE_BYTES, keeping
    each rejected individual's weighted cost to the nearest pick: O(k m^2).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    ground = np.asarray(ground_set_accepted(instance, policy).indices, dtype=int)
    rejected = np.flatnonzero(policy.pi < 1.0)
    cost = instance.cost
    penalty = 1.0 + float(np.max(cost, where=np.isfinite(cost), initial=0.0))
    px_r = instance.px[rejected]
    # row g: the rejected's costs to ground[g], capped at penalty and weighted by
    # mass. The cap is exact (nearest starts at penalty, above every finite cost)
    # and keeps inf * 0 out; rounding is monotone, so min(a, b) * p = min(ap, bp)
    to_ground = cost.T[np.ix_(ground, rejected)]
    np.minimum(to_ground, penalty, out=to_ground)
    to_ground *= px_r
    nearest = penalty * px_r
    objs = np.empty(ground.size)
    rows = max(1, _SCORE_BYTES // max(1, px_r.nbytes))  # a score row is px_r wide
    scores = np.empty_like(to_ground[:rows])
    blocks = [
        (to_ground[s : s + rows], objs[s : s + rows])
        for s in range(0, ground.size, rows)
    ]

    # stays eager: a lazy heap flips float near-ties that this argmin pins
    picks: list[int] = []
    for _ in range(min(k, ground.size)):
        for costs, obj in blocks:
            part = scores[: len(costs)]
            np.minimum(nearest, costs, out=part)
            # a row sum of a C-contiguous block equals that row's 1-D sum
            part.sum(axis=1, out=obj)
        objs[picks] = np.inf
        best = int(np.argmin(objs))  # first minimum: lowest index
        picks.append(best)
        np.minimum(nearest, to_ground[best], out=nearest)
    return ExplanationSet(tuple(ground[picks]))


def diverse_explanations(instance: Instance, policy: Policy, k: int) -> ExplanationSet:
    """Greedy weighted max coverage: each pick is the accepted value whose
    region-of-adaptation membership covers the most still-uncovered rejected
    mass (ties: lowest index); stops when nothing new gets covered. Coverage
    is monotone submodular, so the shared lazy greedy picks what re-scoring
    every candidate would."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _lazy_greedy(instance, policy, _coverage, [0] * instance.m, [k])
