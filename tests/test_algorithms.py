"""Greedy, matroid greedy, closed-form joint policy, randomized joint
optimizer, and the exhaustive oracles."""

from itertools import combinations

import numpy as np
import pytest

import recourse_game as rg
from conftest import equivalence_cases, random_instance, subset
from recourse_game import algorithms
from recourse_game.algorithms import _joint_gain, _padded_instance
from recourse_game.behavior import _fixed_gain

E_INV = 1.0 / np.e
ONE_MINUS_E_INV = 1.0 - 1.0 / np.e


# -- eager reference loops ----------------------------------------------------
# Full re-scans of every candidate in every iteration: the lazy solvers must
# pick exactly what these pick.

def eager_greedy(inst, policy, group_of, capacities):
    used = [0] * len(capacities)
    ground = list(rg.ground_set_accepted(inst, policy).indices)
    A = rg.ExplanationSet()
    state = rg.fixed_marginal_state(inst, policy)
    while True:
        best_x, best_gain = None, -np.inf
        for x in ground:
            if x in A or used[group_of[x]] >= capacities[group_of[x]]:
                continue
            gain = _fixed_gain(inst, state, x)
            if gain > best_gain:
                best_x, best_gain = x, gain
        if best_x is None or best_gain <= 0.0:
            break
        _, state = rg.marginal_gain_fixed(inst, policy, A, state, best_x)
        A = A.add(best_x)
        used[group_of[best_x]] += 1
    return A


def eager_randomized_joint(inst, k, rng):
    aug, perm = _padded_instance(inst, k)
    ground = [int(i) for i in np.flatnonzero(aug.py >= aug.gamma)]
    A = rg.ExplanationSet()
    state = rg.joint_marginal_state(aug, A)
    for _ in range(k):
        ranked = sorted(
            ((_joint_gain(aug, state, x), x) for x in ground if x not in A),
            key=lambda t: (-t[0], t[1]),
        )
        pool = ranked[: min(k, len(ranked))]
        _, pick = pool[rng.integers(len(pool))]
        _, state = rg.marginal_gain_joint(aug, A, state, pick)
        A = A.add(pick)
    result = rg.ExplanationSet(tuple(int(perm[a]) for a in A if perm[a] < inst.m))
    policy = rg.optimal_policy_for(inst, result)
    return result, rg.utility(inst, policy, result)


def test_lazy_greedy_matches_eager():
    for inst, k in equivalence_cases("alg-lazy-greedy"):
        policy = rg.threshold_policy(inst)
        assert (
            rg.greedy_fixed_policy(inst, policy, k).indices
            == eager_greedy(inst, policy, [0] * inst.m, [k]).indices
        )


@pytest.mark.filterwarnings("ignore:capacity")
def test_lazy_matroid_matches_eager():
    rng = rg.RngStream(rg.derive_seed(0, "alg-lazy-matroid-split"))
    for inst, k in equivalence_cases("alg-lazy-matroid"):
        policy = rg.threshold_policy(inst)
        split = 1 + rng.integers(inst.m - 1)
        caps = (rng.integers(k + 1), rng.integers(k + 1))
        matroid = rg.PartitionMatroid(
            groups=(tuple(range(split)), tuple(range(split, inst.m))),
            capacities=caps,
        )
        group_of = [0] * split + [1] * (inst.m - split)
        assert (
            rg.greedy_matroid(inst, policy, matroid).indices
            == eager_greedy(inst, policy, group_of, caps).indices
        )


def test_lazy_randomized_joint_matches_eager():
    for t, (inst, k) in enumerate(equivalence_cases("alg-lazy-joint")):
        lazy_rng, eager_rng = rg.RngStream(t), rg.RngStream(t)
        sol = rg.randomized_joint(inst, k, lazy_rng)
        A, u = eager_randomized_joint(inst, k, eager_rng)
        assert sol.explanations.indices == A.indices
        assert repr(sol.utility) == repr(u)
        assert lazy_rng.integers(2**31) == eager_rng.integers(2**31)


def test_lazy_randomized_joint_evaluates_fewer_gains(monkeypatch):
    inst = rg.generate_synthetic(rg.SynthConfig(m=300, gamma=0.3, seed=11))
    k = 15
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return _joint_gain(*args)

    monkeypatch.setattr(algorithms, "_joint_gain", counted)
    rg.randomized_joint(inst, k, rg.RngStream(3))
    ground = len(rg.ground_set_viable(inst)) + 2 * k
    assert calls[0] < 0.5 * k * ground


# -- greedy at a fixed policy -------------------------------------------------

def test_greedy_set_cover_picks_covering_set(setcover):
    inst, policy = setcover
    A = rg.greedy_fixed_policy(inst, policy, 1)
    assert A.indices == (0,)
    assert rg.utility(inst, policy, A) == 1.0 - inst.gamma


def test_greedy_k_zero(setcover):
    inst, policy = setcover
    assert rg.greedy_fixed_policy(inst, policy, 0).indices == ()


def test_greedy_rejects_bad_policies():
    inst = rg.make_instance([0.5, 0.5], [0.9, 0.2], np.zeros((2, 2)), 0.3)
    with pytest.raises(ValueError, match="reject"):
        rg.greedy_fixed_policy(inst, rg.Policy([1.0, 0.5]), 1)
    mono = rg.make_instance([0.5, 0.5], [0.9, 0.8], np.zeros((2, 2)), 0.3)
    with pytest.raises(ValueError, match="monotonic"):
        rg.greedy_fixed_policy(mono, rg.Policy([0.4, 0.7]), 1)
    with pytest.raises(ValueError, match="nonnegative"):
        rg.greedy_fixed_policy(mono, rg.Policy([1.0, 0.0]), -1)
    # deterministic non-monotonic policies are allowed
    rg.greedy_fixed_policy(mono, rg.Policy([0.0, 1.0]), 1)


def test_greedy_reaches_guarantee_against_brute_force():
    rng = rg.RngStream(rg.derive_seed(0, "alg-greedy"))
    for _ in range(30):
        inst = random_instance(rng, 4 + rng.integers(9))
        policy = rg.threshold_policy(inst)
        k = 1 + rng.integers(3)
        f_greedy = rg.utility(inst, policy, rg.greedy_fixed_policy(inst, policy, k))
        f_opt = rg.utility(inst, policy, rg.brute_force_fixed(inst, policy, k))
        assert f_greedy >= ONE_MINUS_E_INV * f_opt - 1e-12


def test_greedy_utility_sequence_nondecreasing():
    rng = rg.RngStream(rg.derive_seed(0, "alg-sequence"))
    inst = random_instance(rng, 12, gamma=0.5)
    policy = rg.threshold_policy(inst)
    A = rg.greedy_fixed_policy(inst, policy, 5)
    utilities = [
        rg.utility(inst, policy, rg.ExplanationSet(A.indices[:t]))
        for t in range(len(A) + 1)
    ]
    assert all(a <= b for a, b in zip(utilities, utilities[1:]))


# -- closed-form optimal policy ----------------------------------------------

def test_optimal_policy_witness_sets(nonmono):
    assert rg.optimal_policy_for(nonmono, rg.ExplanationSet((0,))).pi.tolist() == [1, 0, 0]
    assert rg.optimal_policy_for(nonmono, rg.ExplanationSet((0, 1))).pi.tolist() == [1, 1, 0]


def test_optimal_policy_empty_set_is_threshold(nonmono):
    assert np.array_equal(
        rg.optimal_policy_for(nonmono, rg.ExplanationSet()).pi,
        rg.threshold_policy(nonmono).pi,
    )


def test_optimal_policy_rejects_nonviable_explanations():
    inst = rg.make_instance([0.5, 0.5], [0.9, 0.2], np.zeros((2, 2)), 0.3)
    with pytest.raises(ValueError, match="viable"):
        rg.optimal_policy_for(inst, rg.ExplanationSet((1,)))


def test_optimal_policy_beats_enumeration():
    rng = rg.RngStream(rg.derive_seed(0, "alg-prop3"))
    for _ in range(20):
        inst = random_instance(rng, 2 + rng.integers(7))
        A = rg.ExplanationSet(subset(rng, rg.ground_set_viable(inst).indices))
        u_star = rg.utility(inst, rg.optimal_policy_for(inst, A), A)
        _, u_best = rg.exhaustive_best_policy(inst, A)
        assert u_star >= u_best - 1e-12


# -- joint objective ----------------------------------------------------------

def test_joint_objective_witness_values(nonmono):
    assert rg.joint_objective(nonmono, rg.ExplanationSet((0,))) == pytest.approx(0.9, abs=1e-12)
    assert rg.joint_objective(nonmono, rg.ExplanationSet((0, 1))) == pytest.approx(0.5, abs=1e-12)
    assert rg.joint_objective(nonmono, rg.ExplanationSet()) == pytest.approx(
        rg.black_box_utility(nonmono), abs=1e-15
    )


def test_joint_marginal_matches_recomputation():
    rng = rg.RngStream(rg.derive_seed(0, "alg-joint-marginal"))
    for _ in range(100):
        inst = random_instance(rng, 4 + rng.integers(7))
        viable = list(rg.ground_set_viable(inst).indices)
        if not viable:
            continue
        x = viable[rng.integers(len(viable))]
        A = rg.ExplanationSet(subset(rng, [i for i in viable if i != x]))
        state = rg.joint_marginal_state(inst, A)
        gain, new_state = rg.marginal_gain_joint(inst, A, state, x)
        exact = rg.joint_objective(inst, A.add(x)) - rg.joint_objective(inst, A)
        assert gain == pytest.approx(exact, abs=1e-12)
        rest = [i for i in viable if i != x and i not in A]
        if rest:
            y = rest[rng.integers(len(rest))]
            g2, _ = rg.marginal_gain_joint(inst, A.add(x), new_state, y)
            exact2 = rg.joint_objective(inst, A.add(x).add(y)) - rg.joint_objective(
                inst, A.add(x)
            )
            assert g2 == pytest.approx(exact2, abs=1e-12)


# -- randomized joint optimizer ----------------------------------------------

def test_randomized_joint_witness_unique_top_candidate(nonmono):
    for seed in range(5):
        sol = rg.randomized_joint(nonmono, 1, rg.RngStream(seed))
        assert sol.explanations.indices == (0,)
        assert sol.utility == pytest.approx(0.9, abs=1e-12)
        assert sol.policy.pi.tolist() == [1, 0, 0]


def test_randomized_joint_deterministic_per_seed():
    rng = rg.RngStream(rg.derive_seed(0, "alg-rj-det"))
    inst = random_instance(rng, 12, gamma=0.4)
    a = rg.randomized_joint(inst, 3, rg.RngStream(99))
    b = rg.randomized_joint(inst, 3, rg.RngStream(99))
    assert a.explanations.indices == b.explanations.indices
    assert a.utility == b.utility


def test_randomized_joint_output_is_clean():
    rng = rg.RngStream(rg.derive_seed(0, "alg-rj-clean"))
    for _ in range(20):
        inst = random_instance(rng, 4 + rng.integers(7))
        k = 1 + rng.integers(3)
        sol = rg.randomized_joint(inst, k, rng.derive("run"))
        assert len(sol.explanations) <= k
        for a in sol.explanations:
            assert 0 <= a < inst.m
            assert sol.policy.pi[a] == 1.0
        assert sol.utility == pytest.approx(
            rg.utility(inst, sol.policy, sol.explanations), abs=1e-15
        )


def test_randomized_joint_mean_guarantee_sampled():
    rng = rg.RngStream(rg.derive_seed(0, "alg-rj-guarantee"))
    for t in range(5):
        inst = random_instance(rng, 4 + rng.integers(5))
        k = 1 + rng.integers(2)
        opt = rg.brute_force_joint(inst, k).utility
        mean = np.mean(
            [
                rg.randomized_joint(inst, k, rg.RngStream(rg.derive_seed(7, t, r))).utility
                for r in range(50)
            ]
        )
        assert mean >= E_INV * opt - 1e-12


def test_randomized_joint_rejects_bad_k(nonmono):
    with pytest.raises(ValueError):
        rg.randomized_joint(nonmono, 0, rg.RngStream(0))


# -- matroid greedy -----------------------------------------------------------

def test_matroid_uniform_equals_cardinality():
    rng = rg.RngStream(rg.derive_seed(0, "alg-matroid-uniform"))
    for _ in range(10):
        inst = random_instance(rng, 4 + rng.integers(7))
        policy = rg.threshold_policy(inst)
        k = 1 + rng.integers(3)
        uniform = rg.PartitionMatroid(
            groups=(tuple(range(inst.m)),), capacities=(k,)
        )
        assert (
            rg.greedy_matroid(inst, policy, uniform).indices
            == rg.greedy_fixed_policy(inst, policy, k).indices
        )


def test_matroid_zero_capacities(two_group):
    inst, matroid = two_group
    empty = rg.PartitionMatroid(groups=matroid.groups, capacities=(0, 0))
    policy = rg.threshold_policy(inst)
    assert rg.greedy_matroid(inst, policy, empty).indices == ()


@pytest.mark.filterwarnings("ignore:capacity")
def test_matroid_result_feasible_and_half_optimal():
    rng = rg.RngStream(rg.derive_seed(0, "alg-matroid-half"))
    for _ in range(15):
        inst = random_instance(rng, 4 + rng.integers(9))
        policy = rg.threshold_policy(inst)
        split = 1 + rng.integers(inst.m - 1)
        matroid = rg.PartitionMatroid(
            groups=(tuple(range(split)), tuple(range(split, inst.m))),
            capacities=(1 + rng.integers(2), 1 + rng.integers(2)),
        )
        A = rg.greedy_matroid(inst, policy, matroid)
        assert matroid.is_feasible(A.indices)
        f_greedy = rg.utility(inst, policy, A)
        ground = list(rg.ground_set_accepted(inst, policy).indices)
        f_opt = 0.0
        for size in range(0, min(len(ground), matroid.k) + 1):
            for combo in combinations(ground, size):
                if matroid.is_feasible(combo):
                    f_opt = max(f_opt, rg.utility(inst, policy, rg.ExplanationSet(combo)))
        assert f_greedy >= 0.5 * f_opt - 1e-12


def test_matroid_warns_on_oversized_capacity(two_group):
    inst, matroid = two_group
    silly = rg.PartitionMatroid(groups=matroid.groups, capacities=(10, 1))
    with pytest.warns(UserWarning, match="capacity"):
        rg.greedy_matroid(inst, rg.threshold_policy(inst), silly)


def test_matroid_dimension_mismatch(nonmono):
    matroid = rg.PartitionMatroid(groups=((0, 1),), capacities=(1,))
    with pytest.raises(ValueError, match="cover"):
        rg.greedy_matroid(nonmono, rg.Policy([1.0, 0.0, 0.0]), matroid)


# -- exhaustive oracles -------------------------------------------------------

def test_brute_force_fixed_full_budget_is_global_max():
    rng = rg.RngStream(rg.derive_seed(0, "alg-bf"))
    inst = random_instance(rng, 8, gamma=0.5)
    policy = rg.threshold_policy(inst)
    ground = rg.ground_set_accepted(inst, policy).indices
    best = rg.brute_force_fixed(inst, policy, len(ground))
    u_best = rg.utility(inst, policy, best)
    for size in range(len(ground) + 1):
        for combo in combinations(ground, size):
            assert u_best >= rg.utility(inst, policy, rg.ExplanationSet(combo))


def test_brute_force_fixed_set_cover(setcover):
    inst, policy = setcover
    assert rg.brute_force_fixed(inst, policy, 1).indices == (0,)


def test_brute_force_caps_ground_set():
    m = 25
    px = np.full(m, 1.0 / m)
    py = np.linspace(0.99, 0.5, m)
    inst = rg.make_instance(px, py, np.zeros((m, m)), 0.3)
    assert len(rg.ground_set_viable(inst)) > rg.BRUTE_FORCE_CAP
    with pytest.raises(ValueError, match="too large"):
        rg.brute_force_fixed(inst, rg.threshold_policy(inst), 2)
    with pytest.raises(ValueError, match="too large"):
        rg.brute_force_joint(inst, 2)


def test_brute_force_joint_witness(nonmono):
    k1 = rg.brute_force_joint(nonmono, 1)
    k2 = rg.brute_force_joint(nonmono, 2)
    assert k1.explanations.indices == (0,)
    assert k1.utility == pytest.approx(0.9, abs=1e-12)
    assert k2.explanations.indices == (0,)
    assert k2.utility == pytest.approx(0.9, abs=1e-12)
    k0 = rg.brute_force_joint(nonmono, 0)
    assert k0.explanations.indices == ()
    assert np.array_equal(k0.policy.pi, rg.threshold_policy(nonmono).pi)


def test_greedy_matches_brute_force_on_separable_instance():
    # disjoint regions: each rejected value reaches exactly one accepted one,
    # so the objective is modular and greedy is exactly optimal
    cost = np.full((6, 6), 2.0)
    np.fill_diagonal(cost, 0.0)
    cost[3, 0] = 0.1
    cost[4, 1] = 0.1
    cost[5, 2] = 0.1
    inst = rg.make_instance(
        [0.1, 0.1, 0.1, 0.3, 0.25, 0.15],
        [0.95, 0.9, 0.85, 0.4, 0.3, 0.2],
        cost,
        0.5,
    )
    policy = rg.threshold_policy(inst)
    for k in (1, 2, 3):
        greedy = rg.greedy_fixed_policy(inst, policy, k)
        brute = rg.brute_force_fixed(inst, policy, k)
        assert greedy.sorted() == brute.sorted()


# -- rng plumbing -------------------------------------------------------------

def test_rng_stream_reproducible():
    a, b = rg.RngStream(123), rg.RngStream(123)
    assert a.random() == b.random()
    assert a.integers(1000) == b.integers(1000)
    assert np.array_equal(a.uniform(size=5), b.uniform(size=5))


def test_derive_seed_stable_and_sensitive():
    assert rg.derive_seed(1, "x", 2) == rg.derive_seed(1, "x", 2)
    assert rg.derive_seed(1, "x", 2) != rg.derive_seed(1, "x", 3)
    assert rg.RngStream(5).derive("a").seed == rg.derive_seed(5, "a")
