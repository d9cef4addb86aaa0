"""Best-response mechanics: regions, assignments, induced mass, marginals,
transport, leakage and group improvement."""

from functools import partial

import numpy as np
import pytest

import recourse_game as rg
from conftest import (
    equivalence_cases,
    random_instance,
    ref_fixed_gain,
    ref_leak_payoff,
    ref_leakage_utility,
    ref_where_gains,
    subset,
    tie_heavy_instance,
    traced_peak,
)
from recourse_game.behavior import (
    _MC_ROWS,
    _followed,
    _gains,
    _leak_targets,
    _leakage_utilities,
    _members,
    adaptation_matrix,
    fixed_marginal_state,
    joint_marginal_state,
    marginal_gain_fixed,
    marginal_gain_joint,
)
from recourse_game.harness import _scale_costs


def rational_monotone_policy(rng, inst) -> rg.Policy:
    n_viable = int(np.sum(inst.py >= inst.gamma))
    pi = np.zeros(inst.m)
    if n_viable == 0:
        return rg.Policy(pi)
    r = 1 + rng.integers(n_viable)
    pi[:r] = 1.0
    if n_viable > r and rng.random() < 0.5:
        pi[r:n_viable] = np.sort(rng.uniform(0.0, 0.95, n_viable - r))[::-1]
    return rg.Policy(pi)


# -- regions of adaptation ---------------------------------------------------

def test_region_example_from_witness(nonmono):
    policy = rg.Policy([1.0, 0.0, 0.0])
    assert np.flatnonzero(adaptation_matrix(nonmono, policy)[2]).tolist() == [0, 2]


def test_region_flat_policy_positive_costs():
    inst = rg.make_instance(
        [0.4, 0.6], [0.8, 0.7], [[0.0, 0.5], [0.5, 0.0]], 0.3
    )
    policy = rg.Policy([0.6, 0.6])
    for i in range(2):
        assert np.flatnonzero(adaptation_matrix(inst, policy)[i]).tolist() == [i]


def test_region_zero_cost_boundary():
    inst = rg.make_instance(
        [0.4, 0.6], [0.8, 0.7], [[0.0, 0.5], [0.0, 0.0]], 0.3
    )
    policy = rg.Policy([1.0, 0.2])
    assert adaptation_matrix(inst, policy)[1, 0]


# -- explanation assignment --------------------------------------------------

def test_assignment_on_witness(nonmono):
    policy = rg.Policy([1.0, 0.0, 0.0])
    a = rg.assign_explanations(nonmono, policy, rg.ExplanationSet((0,)))
    assert a.explanation_of.tolist() == [rg.NO_EXPLANATION, 0, 0]


def test_assignment_empty_set(nonmono):
    a = rg.assign_explanations(nonmono, rg.Policy([1.0, 0.0, 0.0]), rg.ExplanationSet())
    assert a.explanation_of.tolist() == [rg.NO_EXPLANATION] * 3


def test_assignment_unreachable_explanation_stays():
    inst = rg.make_instance(
        [0.5, 0.5], [0.9, 0.2], [[0.0, 1.0], [rg.INFINITE_COST, 0.0]], 0.5
    )
    policy = rg.Policy([1.0, 0.0])
    assert rg.assign_explanations(inst, policy, rg.ExplanationSet((0,))).explanation_of[1] == 0
    res = rg.best_respond(inst, policy, rg.ExplanationSet((0,)))
    assert res.moved[1] == 1


def test_assignment_prefers_outcome_then_cost_then_index():
    # two reachable explanations with equal outcome: cheaper one wins
    inst = rg.make_instance(
        [0.0, 0.0, 1.0],
        [0.9, 0.9, 0.2],
        [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.8, 0.3, 0.0]],
        0.5,
    )
    policy = rg.Policy([1.0, 1.0, 0.0])
    a = rg.assign_explanations(inst, policy, rg.ExplanationSet((0, 1)))
    assert a.explanation_of[2] == 1


def test_rejected_member_of_a_follows_itself():
    # 1 is rejected and in A: she reaches herself and 2 (same net benefit,
    # lower outcome) but not 0, so she is covered, assigned 1, and stays.
    inst = rg.make_instance(
        [0.2, 0.5, 0.3],
        [0.9, 0.5, 0.2],
        [[0.0, 0.0, 0.0], [rg.INFINITE_COST, 0.0, 0.0], [0.5, 0.5, 0.0]],
        0.3,
    )
    policy = rg.Policy([1.0, 0.0, 0.0])
    A = rg.ExplanationSet((2, 1, 0))
    _, reach, _ = _followed(inst, policy.pi, _members(inst, A))
    assert reach[1].tolist() == [True, True, False]
    assert rg.assign_explanations(inst, policy, A).explanation_of[1] == 1
    assert rg.best_respond(inst, policy, A).moved[1] == 1
    targets = _leak_targets(inst, policy, A)
    assert targets[1, 0] == 1 and targets[1, 1:].tolist() == [1, 1, 1]


def test_mismatched_shapes_raise_named_errors():
    inst = rg.generate_synthetic(rg.SynthConfig(m=6, gamma=0.3, seed=0))
    one = rg.ExplanationSet((0,))
    for n in (7, 5):
        sized = rg.Policy(np.ones(n))
        for call in (
            partial(rg.utility, inst, sized, one),
            partial(rg.leakage_utility, inst, sized, one, 0.5),
            partial(rg.leakage_utility, inst, sized, rg.ExplanationSet(), 0.5),
            partial(rg.greedy_fixed_policy, inst, sized, 2),
            partial(rg.ground_set_accepted, inst, sized),
            partial(rg.is_rational, inst, sized),
            partial(rg.is_outcome_monotonic, inst, sized),
            partial(rg.min_cost_explanations, inst, sized, 2),
            partial(rg.diverse_explanations, inst, sized, 2),
            partial(fixed_marginal_state, inst, sized),
            partial(rg.assign_explanations, inst, sized, rg.ExplanationSet()),
        ):
            with pytest.raises(
                ValueError, match=f"^policy has {n} values but the instance has 6$"
            ):
                call()
    policy, far = rg.threshold_policy(inst), rg.ExplanationSet((1, 9))
    none = rg.ExplanationSet()
    fixed_state = fixed_marginal_state(inst, policy)
    joint_state = joint_marginal_state(inst, none)
    for call in (
        partial(rg.utility, inst, policy, far),
        partial(rg.best_respond, inst, policy, far),
        partial(rg.leakage_utility, inst, policy, far, 0.5),
        partial(rg.assign_explanations, inst, policy, far),
        partial(rg.optimal_policy_for, inst, far),
        partial(rg.joint_objective, inst, far),
        partial(rg.exhaustive_best_policy, inst, far),
        partial(fixed_marginal_state, inst, policy, far),
        partial(joint_marginal_state, inst, far),
        partial(marginal_gain_fixed, inst, policy, none, fixed_state, 9),
        partial(marginal_gain_joint, inst, none, joint_state, 9),
    ):
        with pytest.raises(ValueError, match=r"^explanation index 9 outside 0\.\.5$"):
            call()
    # 5 is rejected by the threshold policy and not viable
    assert policy.pi[5] == 0.0 and inst.py[5] < inst.gamma
    outside = rg.ExplanationSet((0, 5))
    for call, ground in (
        (partial(marginal_gain_fixed, inst, policy, none, fixed_state, 5), "accepted"),
        (partial(marginal_gain_joint, inst, none, joint_state, 5), "viable"),
        (partial(fixed_marginal_state, inst, policy, outside), "accepted"),
        (partial(joint_marginal_state, inst, outside), "viable"),
        (partial(rg.optimal_policy_for, inst, outside), "viable"),
        (partial(rg.joint_objective, inst, outside), "viable"),
    ):
        with pytest.raises(
            ValueError, match=f"^explanations must come from the {ground} set$"
        ):
            call()


# -- best response and utility ----------------------------------------------

def test_best_respond_witness_utilities(nonmono):
    u1 = rg.utility(nonmono, rg.Policy([1.0, 0.0, 0.0]), rg.ExplanationSet((0,)))
    u2 = rg.utility(nonmono, rg.Policy([1.0, 1.0, 0.0]), rg.ExplanationSet((0, 1)))
    assert abs(u1 - 0.9) <= 1e-12
    assert abs(u2 - 0.5) <= 1e-12


def test_best_respond_no_explanations_keeps_distribution(nonmono):
    policy = rg.Policy([1.0, 0.3, 0.0])
    res = rg.best_respond(nonmono, policy, rg.ExplanationSet())
    assert np.array_equal(res.induced_px, nonmono.px)
    direct = float(np.sum(nonmono.px * policy.pi * (nonmono.py - nonmono.gamma)))
    assert res.utility == pytest.approx(direct, abs=1e-15)


def test_accepted_individuals_never_move_even_at_zero_cost():
    inst = rg.make_instance(
        [0.5, 0.5], [0.9, 0.8], [[0.0, 0.0], [0.0, 0.0]], 0.3
    )
    res = rg.best_respond(inst, rg.Policy([1.0, 1.0]), rg.ExplanationSet((0,)))
    assert res.moved.tolist() == [0, 1]


def test_conservation_and_movement_legality():
    rng = rg.seeded_rng(rg.derive_seed(0, "behavior-conservation"))
    for _ in range(100):
        inst = random_instance(rng, 3 + rng.integers(8))
        policy = rational_monotone_policy(rng, inst)
        accepted = rg.ground_set_accepted(inst, policy).indices
        A = rg.ExplanationSet(subset(rng, accepted))
        res = rg.best_respond(inst, policy, A)
        assert abs(res.induced_px.sum() - 1.0) <= 1e-9
        for i, j in enumerate(res.moved):
            if j != i:
                assert j in A
                assert policy.pi[j] - inst.cost[i, j] >= policy.pi[i]


def test_utility_nonnegative_for_rational_policies():
    rng = rg.seeded_rng(rg.derive_seed(0, "behavior-nonneg"))
    for _ in range(200):
        inst = random_instance(rng, 3 + rng.integers(8))
        policy = rational_monotone_policy(rng, inst)
        A = rg.ExplanationSet(subset(rng, rg.ground_set_accepted(inst, policy).indices))
        assert rg.utility(inst, policy, A) >= 0.0


# -- marginal gains ----------------------------------------------------------

def test_marginal_from_empty_single_element(nonmono):
    policy = rg.Policy([1.0, 0.0, 0.0])
    state = fixed_marginal_state(nonmono, policy)
    gain, _ = marginal_gain_fixed(nonmono, policy, rg.ExplanationSet(), state, 0)
    assert gain == pytest.approx(0.81, abs=1e-12)


def test_marginal_gain_matches_recomputation():
    rng = rg.seeded_rng(rg.derive_seed(0, "behavior-marginal"))
    for _ in range(100):
        inst = random_instance(rng, 3 + rng.integers(8))
        policy = rational_monotone_policy(rng, inst)
        accepted = list(rg.ground_set_accepted(inst, policy).indices)
        if not accepted:
            continue
        x = accepted[rng.integers(len(accepted))]
        A = rg.ExplanationSet(subset(rng, [i for i in accepted if i != x]))
        state = fixed_marginal_state(inst, policy, A)
        gain, new_state = marginal_gain_fixed(inst, policy, A, state, x)
        exact = rg.utility(inst, policy, A.add(x)) - rg.utility(inst, policy, A)
        assert gain == pytest.approx(exact, abs=1e-12)
        # returned state is usable for the next marginal
        rest = [i for i in accepted if i != x and i not in A]
        if rest:
            y = rest[rng.integers(len(rest))]
            g2, _ = marginal_gain_fixed(inst, policy, A.add(x), new_state, y)
            exact2 = rg.utility(inst, policy, A.add(x).add(y)) - rg.utility(
                inst, policy, A.add(x)
            )
            assert g2 == pytest.approx(exact2, abs=1e-12)


def test_marginal_gain_rejects_member(nonmono):
    policy = rg.Policy([1.0, 0.0, 0.0])
    A = rg.ExplanationSet((0,))
    state = fixed_marginal_state(nonmono, policy, A)
    with pytest.raises(ValueError):
        marginal_gain_fixed(nonmono, policy, A, state, 0)


def test_fixed_gains_batch_invariant_and_near_reference():
    # stochastic monotone policies and arbitrary A, tie-heavy every other case
    rng = rg.seeded_rng(rg.derive_seed(0, "behavior-kernel"))
    for t in range(200):
        m = 3 + rng.integers(40)
        inst = tie_heavy_instance(rng, m) if t % 2 else random_instance(rng, m)
        policy = rational_monotone_policy(rng, inst)
        accepted = list(rg.ground_set_accepted(inst, policy).indices)
        A = rg.ExplanationSet(subset(rng, accepted, 0.3))
        xs = [x for x in accepted if x not in A]
        if not xs:
            continue
        state = fixed_marginal_state(inst, policy, A)
        whole = _gains(inst, state, xs)
        alone = np.array([_gains(inst, state, [x])[0] for x in xs])
        assert whole.tobytes() == alone.tobytes()
        for x, g in zip(xs, whole):
            assert g == marginal_gain_fixed(inst, policy, A, state, x)[0]
            assert abs(g - ref_fixed_gain(inst, state, x)) <= 1e-15


def test_gains_match_the_where_kernel_at_scale():
    # rows of m >= 128 sum in pairwise blocks; alpha = 8 leaves few reachable
    rng = rg.seeded_rng(rg.derive_seed(0, "behavior-where-kernel"))
    for m, alpha in ((150, 1.0), (300, 8.0)):
        inst = _scale_costs(random_instance(rng, m, gamma=0.3), alpha)
        policy = rational_monotone_policy(rng, inst)
        accepted = rg.ground_set_accepted(inst, policy).indices
        fixed_A = rg.ExplanationSet(subset(rng, accepted, 0.1))
        joint_A = rg.ExplanationSet(subset(rng, rg.ground_set_viable(inst).indices, 0.1))
        for A, state in (
            (fixed_A, fixed_marginal_state(inst, policy, fixed_A)),
            (joint_A, joint_marginal_state(inst, joint_A)),
        ):
            xs = [x for x in range(m) if x not in A]
            got, want = _gains(inst, state, xs), ref_where_gains(inst, state, xs)
            assert got.tobytes() == want.tobytes()


def test_gains_never_return_negative_zero():
    # x = 1 is rejected with zero mass and nobody else can reach it: its
    # own term and every masked product are -0.0, and the gain is still the
    # +0.0 of the np.where kernel
    inst = rg.make_instance([1.0, 0.0], [0.9, 0.1], [[0.0, 1.0], [1.0, 0.0]], 0.3)
    state = fixed_marginal_state(inst, rg.threshold_policy(inst))
    got = _gains(inst, state, [1])
    assert got.tobytes() == ref_where_gains(inst, state, [1]).tobytes()
    assert got[0] == 0.0 and not np.signbit(got[0])


def test_monotone_and_submodular_sampled():
    rng = rg.seeded_rng(rg.derive_seed(0, "behavior-submodular"))
    for _ in range(150):
        inst = random_instance(rng, 4 + rng.integers(7))
        policy = rational_monotone_policy(rng, inst)
        accepted = list(rg.ground_set_accepted(inst, policy).indices)
        if not accepted:
            continue
        x = accepted[rng.integers(len(accepted))]
        B = subset(rng, [i for i in accepted if i != x])
        A = subset(rng, B)
        fa = rg.utility(inst, policy, rg.ExplanationSet(A))
        fb = rg.utility(inst, policy, rg.ExplanationSet(B))
        fax = rg.utility(inst, policy, rg.ExplanationSet(A + (x,)))
        fbx = rg.utility(inst, policy, rg.ExplanationSet(B + (x,)))
        assert fa <= fb
        assert fax - fa >= fbx - fb - 1e-12


# -- transport ---------------------------------------------------------------

def test_transport_no_movers_zero(nonmono):
    out = rg.transport_matrix(nonmono, rg.Policy([1.0, 0.0, 0.0]), rg.ExplanationSet(), 10)
    assert out.shape == (10, 10) and not out.any()


def test_transport_witness_mass_lands_in_top_bin(nonmono):
    out = rg.transport_matrix(
        nonmono, rg.Policy([1.0, 0.0, 0.0]), rg.ExplanationSet((0,)), 10
    )
    assert out[5, 9] == pytest.approx(0.8)
    assert out[4, 9] == pytest.approx(0.1)
    assert out[:, 9].sum() == pytest.approx(0.9)
    assert out.sum() == pytest.approx(0.9)


def test_transport_conserves_moved_mass():
    rng = rg.seeded_rng(rg.derive_seed(0, "behavior-transport"))
    for _ in range(25):
        inst = random_instance(rng, 4 + rng.integers(7))
        policy = rg.threshold_policy(inst)
        accepted = rg.ground_set_accepted(inst, policy).indices
        A = rg.ExplanationSet(subset(rng, accepted))
        res = rg.best_respond(inst, policy, A)
        moved = float(inst.px[res.moved != np.arange(inst.m)].sum())
        out = rg.transport_matrix(inst, policy, A, 7)
        assert out.sum() == pytest.approx(moved, abs=1e-12)


def test_transport_rejects_bad_bins(nonmono):
    with pytest.raises(ValueError):
        rg.transport_matrix(nonmono, rg.Policy([1.0, 0.0, 0.0]), rg.ExplanationSet(), 0)
    policy, A = rg.Policy([1.0, 0.0, 0.0]), rg.ExplanationSet((0,))
    for bins in (2.5, np.float64(3.0)):
        with pytest.raises(ValueError, match="^bins must be an integer$"):
            rg.transport_matrix(nonmono, policy, A, bins)
    want = rg.transport_matrix(nonmono, policy, A, 3).tolist()
    assert rg.transport_matrix(nonmono, policy, A, np.int64(3)).tolist() == want


# -- leakage -----------------------------------------------------------------

def leaky_instance():
    """Four values where the assigned (best-outcome) explanation differs from
    the cheapest one, so leakage strictly hurts."""
    cost = np.full((4, 4), 2.0)
    np.fill_diagonal(cost, 0.0)
    cost[2, 0] = 0.8
    cost[2, 1] = 0.1
    return rg.make_instance(
        [0.1, 0.1, 0.4, 0.4], [0.9, 0.7, 0.3, 0.2], cost, 0.5
    )


def test_leakage_zero_probability_is_exact():
    inst = leaky_instance()
    policy = rg.threshold_policy(inst)
    A = rg.ExplanationSet((0, 1))
    assert rg.leakage_utility(inst, policy, A, 0.0) == rg.utility(inst, policy, A)


def test_leakage_singleton_constant():
    inst = leaky_instance()
    policy = rg.threshold_policy(inst)
    A = rg.ExplanationSet((0,))
    base = rg.utility(inst, policy, A)
    for p in (0.0, 0.3, 1.0):
        assert rg.leakage_utility(inst, policy, A, p) == pytest.approx(base, abs=1e-15)


def test_leakage_hand_value_and_monotone_decrease():
    inst = leaky_instance()
    policy = rg.threshold_policy(inst)
    A = rg.ExplanationSet((0, 1))
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    values = [rg.leakage_utility(inst, policy, A, p) for p in grid]
    for p, v in zip(grid, values):
        assert v == pytest.approx(0.22 - 0.04 * p, abs=1e-12)
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_leakage_matches_monte_carlo():
    # 3-sigma bound on a fixed seeded stream; the analytic value was cross-
    # checked against independent 1e6-sample runs when pinning the seed
    rng = rg.seeded_rng(rg.derive_seed(0, "behavior-leakage-mc"))
    for _ in range(5):
        inst = random_instance(rng, 4 + rng.integers(6), gamma=0.5)
        policy = rg.threshold_policy(inst)
        accepted = list(rg.ground_set_accepted(inst, policy).indices)
        if len(accepted) < 2:
            continue
        A = rg.ExplanationSet(tuple(accepted[:2]))
        p_l = float(rng.uniform(0.2, 0.9))
        analytic = rg.leakage_utility(inst, policy, A, p_l)
        mc, se = rg.leakage_utility_mc(inst, policy, A, p_l, samples=100_000, rng=rng)
        assert abs(analytic - mc) <= 3.0 * se + 1e-12


def test_leakage_rejects_bad_probability():
    inst = leaky_instance()
    with pytest.raises(ValueError):
        rg.leakage_utility(inst, rg.threshold_policy(inst), rg.ExplanationSet((0,)), 1.5)


def test_leakage_mc_rejects_bad_sample_counts():
    inst = leaky_instance()
    policy, A = rg.threshold_policy(inst), rg.ExplanationSet((0, 1))
    for samples in (0, -1):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            rg.leakage_utility_mc(inst, policy, A, 0.5, samples, rg.seeded_rng(0))
    mean, stderr = rg.leakage_utility_mc(inst, policy, A, 0.5, 1, rg.seeded_rng(0))
    assert np.isfinite(mean) and stderr == 0.0
    for samples in (10.5, np.float64(10.0)):
        with pytest.raises(ValueError, match="^samples must be an integer$"):
            rg.leakage_utility_mc(inst, policy, A, 0.5, samples, rg.seeded_rng(0))
    want = rg.leakage_utility_mc(inst, policy, A, 0.5, 10, rg.seeded_rng(0))
    got = rg.leakage_utility_mc(inst, policy, A, 0.5, np.int64(10), rg.seeded_rng(0))
    assert got == want


def test_leakage_mc_peaks_near_two_draw_arrays():
    # the draws and the gathered payoffs, not leak, which and a product too
    inst = rg.generate_synthetic(rg.SynthConfig(m=10, seed=1))
    policy = rg.threshold_policy(inst)
    A = rg.greedy_fixed_policy(inst, policy, 3)
    assert len(A) > 0
    samples = 100_000
    peak = traced_peak(
        lambda: rg.leakage_utility_mc(inst, policy, A, 0.5, samples, rg.seeded_rng(0))
    )
    assert peak <= 2.5 * samples * inst.m * np.dtype(np.int64).itemsize


def test_leakage_mc_streams_below_one_draw_array():
    # the boolean leak mask, the per-sample sums and one block, not the
    # (samples, m) draws and payoffs
    inst = rg.generate_synthetic(rg.SynthConfig(m=10, seed=1))
    policy = rg.threshold_policy(inst)
    A = rg.greedy_fixed_policy(inst, policy, 3)
    assert len(A) > 0
    samples = 100_000
    peak = traced_peak(
        lambda: rg.leakage_utility_mc(inst, policy, A, 0.5, samples, rg.seeded_rng(0))
    )
    assert peak <= 0.5 * samples * inst.m * np.dtype(np.int64).itemsize


def test_blocked_bounded_integers_equal_one_draw():
    # numpy takes a bounded integer's 32-bit word through the bit generator's
    # own buffer, so an odd-sized block leaves half a 64-bit draw for the
    # next: blocks of any size give the one-shot values and the same state
    for high in (2, 3, 10):
        one, blocked = np.random.default_rng(7), np.random.default_rng(7)
        want = one.integers(0, high, size=(301, 9))
        got = np.vstack([blocked.integers(0, high, size=(n, 9)) for n in (1, 99, 201)])
        assert np.array_equal(got, want)
        assert blocked.random() == one.random()


@pytest.mark.parametrize("size", [0, 1, 2, 3])
def test_leakage_mc_blocks_match_one_shot_draws(size):
    # sample counts around and across the block size, on an odd m so that
    # blocks hold odd numbers of integer draws; |A| = 1 draws no integer (a
    # one-value range), |A| = 3 is not a power of two
    inst = rg.generate_synthetic(rg.SynthConfig(m=9, gamma=0.5, seed=1))
    policy = rg.threshold_policy(inst)
    A = rg.ExplanationSet((2, 1, 0)[:size])
    for samples in (_MC_ROWS - 1, _MC_ROWS, _MC_ROWS + 1, 5 * _MC_ROWS // 2):
        for p_l in (0.0, 0.37, 1.0):
            rng, ref = np.random.default_rng(samples), np.random.default_rng(samples)
            got = rg.leakage_utility_mc(inst, policy, A, p_l, samples, rng)
            assert got == ref_leakage_mc(inst, policy, A, p_l, samples, ref)
            assert rng.random() == ref.random()
            if size >= 2 and p_l == 0.37:
                assert got[1] > 0.0  # the draws do change some targets


def test_leakage_ties_go_to_lower_cost_before_higher_outcome():
    # Value 1 can stay at net 0.75 or take 0, and value 2 can take 1 or 0 at
    # net 0; in both, 0 has the higher outcome and is assigned, the leaked 1
    # is cheaper. Lower cost wins, so leakage hurts; were outcome to decide
    # first, nobody would switch and the utility would stay at 0.6.
    cost = [[0.0, 2.0, 2.0], [0.25, 0.0, 2.0], [1.0, 0.75, 0.0]]
    inst = rg.make_instance([0.2, 0.3, 0.5], [0.9, 0.6, 0.1], cost, 0.3)
    policy = rg.Policy([1.0, 0.75, 0.0])
    A = rg.ExplanationSet((0, 1))
    values = [rg.leakage_utility(inst, policy, A, p) for p in (0.0, 0.5, 1.0)]
    assert values == pytest.approx([0.6, 0.525, 0.45], abs=1e-12)


def leak_cases(tag: str, n: int):
    """(instance, policy, A) over equivalence_cases, cycling through the
    threshold policy, a {0, 0.5, 1} grid and continuous monotone policies;
    A is a shuffled subset of all values, rejected ones included, or empty."""
    rng = rg.seeded_rng(rg.derive_seed(0, tag))
    for t, (inst, _) in enumerate(equivalence_cases(tag, n)):
        if t % 3 == 0:
            policy = rg.threshold_policy(inst)
        elif t % 3 == 1:
            policy = rg.Policy(rng.choice([0.0, 0.5, 1.0], size=inst.m))
        else:
            policy = rational_monotone_policy(rng, inst)
        size = rng.integers(min(inst.m, 12) + 1)
        A = tuple(int(x) for x in rng.permutation(inst.m)[:size])
        yield inst, policy, rg.ExplanationSet(A)


def ref_leakage_mc(inst, policy, A, p_l, samples, rng):
    payoff = ref_leak_payoff(inst, policy, A)
    m = inst.m
    if len(A) == 0:
        draws = np.zeros((samples, m), dtype=int)
    else:
        leak = rng.random((samples, m)) < p_l
        which = rng.integers(0, len(A), size=(samples, m))
        draws = np.where(leak, 1 + which, 0)
    per_sample = (payoff[np.arange(m)[None, :], draws] * inst.px[None, :]).sum(axis=1)
    return float(per_sample.mean()), float(per_sample.std(ddof=1) / np.sqrt(samples))


def test_leakage_matches_reference_loop_bit_for_bit():
    pls, sizes = (0.0, 0.37, 1.0), set()
    for inst, policy, A in leak_cases("leak-equivalence", 200):
        want = [repr(ref_leakage_utility(inst, policy, A, p_l)) for p_l in pls]
        assert [repr(rg.leakage_utility(inst, policy, A, p_l)) for p_l in pls] == want
        # a sweep reads one target table for every p_l
        assert [repr(u) for u in _leakage_utilities(inst, policy, A, pls)] == want
        sizes.add(len(A))
    assert 0 in sizes  # an empty A is among the cases


def test_leakage_mc_matches_reference_loop_bit_for_bit():
    for t, (inst, policy, A) in enumerate(leak_cases("leak-mc-equivalence", 120)):
        p_l = (0.0, 0.37, 1.0)[t % 3]
        got = rg.leakage_utility_mc(
            inst, policy, A, p_l, samples=40, rng=np.random.default_rng(t)
        )
        want = ref_leakage_mc(inst, policy, A, p_l, 40, np.random.default_rng(t))
        assert got == want


def test_leakage_matches_reference_loop_on_tie_heavy_examples():
    hypothesis = pytest.importorskip("hypothesis")
    from conftest import TIE_PY, tie_heavy_instances

    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        inst = draw(tie_heavy_instances(2, 7))
        m = inst.m
        pi = draw(st.lists(st.sampled_from(TIE_PY), min_size=m, max_size=m))
        A = draw(st.lists(st.integers(0, m - 1), unique=True, max_size=m))
        return inst, rg.Policy(pi), rg.ExplanationSet(tuple(A))

    @hypothesis.settings(max_examples=300)
    @hypothesis.given(cases(), st.sampled_from([0.0, 0.37, 1.0]))
    def check(case, p_l):
        inst, policy, A = case
        got = rg.leakage_utility(inst, policy, A, p_l)
        assert repr(got) == repr(ref_leakage_utility(inst, policy, A, p_l))
        pls = (0.0, 0.37, 1.0)
        assert [repr(u) for u in _leakage_utilities(inst, policy, A, pls)] == [
            repr(ref_leakage_utility(inst, policy, A, q)) for q in pls
        ]
        got = rg.leakage_utility_mc(
            inst, policy, A, p_l, samples=8, rng=np.random.default_rng(1)
        )
        assert got == ref_leakage_mc(inst, policy, A, p_l, 8, np.random.default_rng(1))

    check()


# -- group improvement -------------------------------------------------------

def test_group_improvement_no_movers(nonmono):
    out = rg.group_improvement(
        nonmono, rg.Policy([1.0, 0.0, 0.0]), rg.ExplanationSet(), [(0,), (1, 2)]
    )
    assert out.tolist() == [0.0, 0.0]


def test_group_improvement_witness_value(nonmono):
    out = rg.group_improvement(
        nonmono, rg.Policy([1.0, 0.0, 0.0]), rg.ExplanationSet((0,)), [(0,), (1, 2)]
    )
    assert out[1] == pytest.approx((0.8 * 0.5 + 0.1 * 0.6) / 0.9, abs=1e-12)


def test_group_improvement_single_group_is_population_average(nonmono):
    policy = rg.Policy([1.0, 0.0, 0.0])
    whole = rg.group_improvement(nonmono, policy, rg.ExplanationSet((0,)), [(0, 1, 2)])
    res = rg.best_respond(nonmono, policy, rg.ExplanationSet((0,)))
    rejected = policy.pi < 1.0
    num = float(
        np.sum(nonmono.px[rejected] * (nonmono.py[res.moved] - nonmono.py)[rejected])
    )
    den = float(nonmono.px[rejected].sum())
    assert whole[0] == pytest.approx(num / den, abs=1e-15)


def test_group_improvement_requires_partition(nonmono):
    with pytest.raises(ValueError):
        rg.group_improvement(
            nonmono, rg.Policy([1.0, 0.0, 0.0]), rg.ExplanationSet(), [(0, 1)]
        )


def test_group_improvement_refuses_non_integer_members(nonmono):
    policy, A = rg.Policy([1.0, 0.0, 0.0]), rg.ExplanationSet((0,))
    for groups in ([(0,), (1.7, 2)], [(0,), (1.0, 2)], [(0,), (1, np.float64(2.0))]):
        with pytest.raises(ValueError, match="^every group member must be an integer$"):
            rg.group_improvement(nonmono, policy, A, groups)
    want = rg.group_improvement(nonmono, policy, A, [(0,), (1, 2)])
    got = rg.group_improvement(nonmono, policy, A, [(0,), np.array([1, 2])])
    assert got.tolist() == want.tolist()
