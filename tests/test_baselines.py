"""Threshold policy, black box, minimum-cost and diverse baselines."""

from itertools import combinations

import numpy as np
import pytest

import recourse_game as rg
from conftest import (
    equivalence_cases,
    min_cost_one_row_per_block,
    random_instance,
    traced_peak,
)
from recourse_game.behavior import adaptation_matrix


def _min_cost_objective(
    px: np.ndarray, cost_to: np.ndarray, rejected: np.ndarray, penalty: float
) -> float:
    """Weighted average adaptation cost of rejected individuals to their
    cheapest offered explanation; unservable individuals (all costs infinite)
    count as the fixed penalty so candidates stay comparable."""
    nearest = cost_to.min(axis=1) if cost_to.shape[1] else np.full(px.shape, np.inf)
    nearest = np.where(np.isfinite(nearest), nearest, penalty)
    return float(np.sum(px[rejected] * nearest[rejected]))


def mc_penalty(inst):
    finite = inst.cost[np.isfinite(inst.cost)]
    return 1.0 + (float(finite.max()) if finite.size else 0.0)


def mc_objective(inst, policy, A):
    rejected = policy.pi < 1.0
    cols = inst.cost[:, list(A)]
    return _min_cost_objective(inst.px, cols, rejected, mc_penalty(inst))


def eager_min_cost(inst, policy, k):
    """Re-scores every candidate on the full cost[:, A + [x]] block."""
    ground = list(rg.ground_set_accepted(inst, policy).indices)
    rejected = policy.pi < 1.0
    A: list[int] = []
    while len(A) < min(k, len(ground)):
        best_x, best_obj = None, np.inf
        for x in ground:
            if x in A:
                continue
            cols = inst.cost[:, A + [x]]
            obj = _min_cost_objective(inst.px, cols, rejected, mc_penalty(inst))
            if obj < best_obj:
                best_x, best_obj = x, obj
        A.append(best_x)
    return tuple(A)


def eager_diverse(inst, policy, k):
    """Re-scores every remaining candidate's uncovered rejected mass with the
    zero-filled sum the coverage kernel uses; strict > keeps the lowest index."""
    ground = list(rg.ground_set_accepted(inst, policy).indices)
    near = adaptation_matrix(inst, policy).T
    open_ = policy.pi < 1.0
    A: list[int] = []
    while len(A) < k:
        best_x, best_gain = None, 0.0
        for x in ground:
            gain = float(np.where(open_ & near[x], inst.px, 0.0).sum())
            if x not in A and gain > best_gain:
                best_x, best_gain = x, gain
        if best_x is None:
            break
        A.append(best_x)
        open_ &= ~near[best_x]
    return tuple(A)


# -- threshold policy ---------------------------------------------------------

def test_threshold_policy_examples(nonmono):
    assert rg.threshold_policy(nonmono).pi.tolist() == [1.0, 1.0, 1.0]
    low = rg.make_instance([0.5, 0.5], [0.4, 0.3], np.zeros((2, 2)), 0.9)
    assert rg.threshold_policy(low).pi.tolist() == [0.0, 0.0]
    boundary = rg.make_instance([1.0], [0.3], [[0.0]], 0.3)
    assert rg.threshold_policy(boundary).pi.tolist() == [1.0]


def test_threshold_policy_is_rational_and_monotonic():
    rng = rg.seeded_rng(rg.derive_seed(0, "base-threshold"))
    for _ in range(30):
        inst = random_instance(rng, 3 + rng.integers(9))
        policy = rg.threshold_policy(inst)
        assert rg.is_rational(inst, policy)
        assert rg.is_outcome_monotonic(inst, policy)


# -- black box ----------------------------------------------------------------

def test_black_box_witness_value(nonmono):
    assert rg.black_box_utility(nonmono) == pytest.approx(0.44, abs=1e-12)


def test_black_box_all_rejected_is_zero():
    inst = rg.make_instance([0.5, 0.5], [0.4, 0.3], np.zeros((2, 2)), 0.9)
    assert rg.black_box_utility(inst) == 0.0


def test_black_box_small_gamma_limit():
    inst = rg.make_instance(
        [0.25, 0.75], [0.8, 0.6], [[0.0, 2.0], [2.0, 0.0]], 1e-9
    )
    expected = float(np.sum(inst.px * inst.py))
    assert rg.black_box_utility(inst) == pytest.approx(expected, abs=1e-8)


# -- minimum cost -------------------------------------------------------------

def test_min_cost_prefers_only_finite_candidate():
    cost = np.array(
        [
            [0.0, 2.0, 0.4],
            [2.0, 0.0, rg.INFINITE_COST],
            [0.5, rg.INFINITE_COST, 0.0],
        ]
    )
    # accepted = {0, 1}; only 0 is finitely reachable from the rejected value 2
    inst = rg.make_instance([0.1, 0.1, 0.8], [0.9, 0.8, 0.2], cost, 0.5)
    policy = rg.threshold_policy(inst)
    A = rg.min_cost_explanations(inst, policy, 1)
    assert A.indices == (0,)


def test_min_cost_full_budget_returns_ground_set():
    rng = rg.seeded_rng(rg.derive_seed(0, "base-mc-full"))
    inst = random_instance(rng, 8, gamma=0.5)
    policy = rg.threshold_policy(inst)
    ground = rg.ground_set_accepted(inst, policy).indices
    A = rg.min_cost_explanations(inst, policy, len(ground) + 3)
    assert tuple(sorted(A)) == tuple(ground)


def test_min_cost_objective_nonincreasing_across_iterations():
    rng = rg.seeded_rng(rg.derive_seed(0, "base-mc-mono"))
    for _ in range(20):
        inst = random_instance(rng, 5 + rng.integers(8))
        policy = rg.threshold_policy(inst)
        ground = rg.ground_set_accepted(inst, policy).indices
        if not ground:
            continue
        k = min(3, len(ground))
        A = rg.min_cost_explanations(inst, policy, k)
        objs = [mc_objective(inst, policy, A.indices[: t + 1]) for t in range(len(A))]
        assert all(a >= b - 1e-12 for a, b in zip(objs, objs[1:]))


def test_min_cost_last_pick_is_swap_optimal_and_bounded_by_optimum():
    # greedy addition guarantees optimality of the final pick given the rest;
    # the exhaustive optimum lower-bounds the objective (ratio reported)
    rng = rg.seeded_rng(rg.derive_seed(0, "base-mc-swap"))
    ratios = []
    for _ in range(40):
        inst = random_instance(rng, 4 + rng.integers(9))
        policy = rg.threshold_policy(inst)
        ground = list(rg.ground_set_accepted(inst, policy).indices)
        if len(ground) < 2:
            continue
        k = 1 + rng.integers(min(3, len(ground)))
        A = list(rg.min_cost_explanations(inst, policy, k).indices)
        obj = mc_objective(inst, policy, A)
        for b in ground:
            if b not in A:
                assert obj <= mc_objective(inst, policy, A[:-1] + [b]) + 1e-12
        best = min(
            mc_objective(inst, policy, combo)
            for combo in combinations(ground, min(k, len(ground)))
        )
        assert obj >= best - 1e-12
        ratios.append(obj / best if best > 0 else 1.0)
    assert np.mean(ratios) < 1.2


def test_min_cost_incremental_matches_eager():
    for inst, k in equivalence_cases("base-mc-lazy"):
        policy = rg.threshold_policy(inst)
        assert rg.min_cost_explanations(inst, policy, k).indices == eager_min_cost(
            inst, policy, k
        )


def test_min_cost_picks_do_not_depend_on_the_score_block():
    # m=200 scores every candidate in one block under the default budget
    for seed in range(3):
        inst = rg.generate_synthetic(rg.SynthConfig(m=200, gamma=0.3, seed=seed))
        policy = rg.threshold_policy(inst)
        want = rg.min_cost_explanations(inst, policy, 20).indices
        assert min_cost_one_row_per_block(inst, policy, 20) == want


def test_min_cost_scores_in_blocks_beside_the_gathered_costs():
    # the gathered rejected-to-accepted costs (about 0.21x here) and one
    # score block of at most 256 KiB, not a second gathered-size buffer
    inst = rg.generate_synthetic(rg.SynthConfig(m=1000, gamma=0.3, seed=7))
    policy = rg.threshold_policy(inst)
    peak = traced_peak(lambda: rg.min_cost_explanations(inst, policy, 50))
    assert peak <= 0.3 * inst.cost.nbytes


def test_min_cost_without_candidates_is_empty():
    inst = rg.make_instance([0.5, 0.5], [0.4, 0.3], np.zeros((2, 2)), 0.9)
    assert rg.min_cost_explanations(inst, rg.threshold_policy(inst), 1).indices == ()
    ok = rg.make_instance([0.5, 0.5], [0.9, 0.3], np.zeros((2, 2)), 0.5)
    with pytest.raises(ValueError, match="^k must be >= 0$"):
        rg.min_cost_explanations(ok, rg.threshold_policy(ok), -1)


# -- diverse ------------------------------------------------------------------

def test_diverse_set_cover_picks_covering_set(setcover):
    inst, policy = setcover
    assert rg.diverse_explanations(inst, policy, 1).indices == (0,)


def test_diverse_disjoint_regions_picks_largest_masses():
    cost = np.full((6, 6), 2.0)
    np.fill_diagonal(cost, 0.0)
    cost[3, 0] = 0.1  # mass 0.2
    cost[4, 1] = 0.1  # mass 0.35
    cost[5, 2] = 0.1  # mass 0.3
    inst = rg.make_instance(
        [0.05, 0.05, 0.05, 0.2, 0.35, 0.3],
        [0.95, 0.9, 0.85, 0.4, 0.3, 0.2],
        cost,
        0.5,
    )
    policy = rg.threshold_policy(inst)
    A = rg.diverse_explanations(inst, policy, 2)
    assert tuple(sorted(A)) == (1, 2)


def test_diverse_early_stop_without_new_coverage():
    cost = np.full((3, 3), 2.0)
    np.fill_diagonal(cost, 0.0)
    cost[2, 0] = 0.3
    inst = rg.make_instance([0.1, 0.1, 0.8], [0.9, 0.85, 0.2], cost, 0.5)
    policy = rg.threshold_policy(inst)
    # both 0 and 1 are candidates, but 1 covers nobody new: stop after 0
    A = rg.diverse_explanations(inst, policy, 2)
    assert A.indices == (0,)


def test_diverse_lazy_matches_eager():
    for inst, k in equivalence_cases("base-diverse-lazy"):
        policy = rg.threshold_policy(inst)
        assert rg.diverse_explanations(inst, policy, k).indices == eager_diverse(
            inst, policy, k
        )


def test_diverse_coverage_guarantee():
    rng = rg.seeded_rng(rg.derive_seed(0, "base-diverse"))
    for _ in range(25):
        inst = random_instance(rng, 4 + rng.integers(9))
        policy = rg.threshold_policy(inst)
        ground = list(rg.ground_set_accepted(inst, policy).indices)
        if not ground:
            continue
        k = 1 + rng.integers(min(3, len(ground)))
        rejected = [i for i in range(inst.m) if policy.pi[i] < 1.0]
        reach = adaptation_matrix(inst, policy)
        regions = {i: set(np.flatnonzero(reach[i])) for i in rejected}

        def coverage(A):
            return sum(inst.px[i] for i in rejected if regions[i] & set(A))

        greedy_cov = coverage(rg.diverse_explanations(inst, policy, k).indices)
        best_cov = max(
            coverage(combo) for combo in combinations(ground, min(k, len(ground)))
        )
        assert greedy_cov >= (1.0 - 1.0 / np.e) * best_cov - 1e-12


def test_baseline_sets_are_accepted():
    rng = rg.seeded_rng(rg.derive_seed(0, "base-subset"))
    for _ in range(20):
        inst = random_instance(rng, 4 + rng.integers(9))
        policy = rg.threshold_policy(inst)
        accepted = rg.ground_set_accepted(inst, policy).as_set()
        if not accepted:
            continue
        for fn in (rg.min_cost_explanations, rg.diverse_explanations):
            assert fn(inst, policy, 2).as_set() <= accepted
