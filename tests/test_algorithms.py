"""Greedy, matroid greedy, closed-form joint policy, randomized joint
optimizer, and the exhaustive oracles."""

import sys
from functools import partial
from itertools import combinations

import numpy as np
import pytest

import recourse_game as rg
from conftest import (
    assert_oracles_match_the_per_set_loop,
    equivalence_cases,
    is_feasible,
    random_instance,
    ref_best_subset,
    ref_brute_force_fixed,
    ref_fixed_gain,
    ref_joint_gain,
    ref_pop_k_joint_runs,
    subset,
    tie_heavy_instance,
    traced_peak,
)
from recourse_game import algorithms, baselines
from recourse_game.behavior import (
    _advance,
    _coverage,
    _gains,
    fixed_marginal_state,
    joint_marginal_state,
    marginal_gain_fixed,
    marginal_gain_joint,
)
from recourse_game.harness import _scale_costs

E_INV = 1.0 / np.e
ONE_MINUS_E_INV = 1.0 - 1.0 / np.e


def kernel_gains(inst, state, xs):
    return _gains(inst, state, xs).tolist()


def per_candidate(ref):
    return lambda inst, state, xs: [ref(inst, state, x) for x in xs]


# -- eager reference loops ----------------------------------------------------
# Full re-scans of every candidate in every iteration: the lazy solvers must
# pick exactly what these pick. Per iteration each yields the state, the
# gains of the remaining candidates and the pick (None where the greedy
# stops or the joint greedy draws a dummy slot).

def eager_greedy_steps(inst, policy, group_of, capacities, gains=kernel_gains):
    used = [0] * len(capacities)
    ground = list(rg.ground_set_accepted(inst, policy).indices)
    A = rg.ExplanationSet()
    state = fixed_marginal_state(inst, policy)
    while True:
        cands = [
            x for x in ground
            if x not in A and used[group_of[x]] < capacities[group_of[x]]
        ]
        scored = dict(zip(cands, gains(inst, state, cands))) if cands else {}
        best_x = max(cands, key=lambda x: (scored[x], -x), default=None)
        if best_x is None or scored[best_x] <= 0.0:
            yield state, scored, None
            return
        yield state, scored, best_x
        _, state = marginal_gain_fixed(inst, policy, A, state, best_x)
        A = A.add(best_x)
        used[group_of[best_x]] += 1


def eager_greedy(inst, policy, group_of, capacities):
    steps = eager_greedy_steps(inst, policy, group_of, capacities)
    return rg.ExplanationSet(tuple(x for _, _, x in steps if x is not None))


def eager_joint_steps(inst, k, rng, gains=kernel_gains):
    """The k slots hold the candidates of nonnegative gain, best first; a
    slot past them is one of the 2k zero-gain dummies and picks nothing."""
    ground = [int(i) for i in np.flatnonzero(inst.py >= inst.gamma)]
    A = rg.ExplanationSet()
    state = joint_marginal_state(inst, A)
    for _ in range(k):
        cands = [x for x in ground if x not in A]
        scored = dict(zip(cands, gains(inst, state, cands))) if cands else {}
        nonnegative = [x for x in cands if scored[x] >= 0.0]
        slots = sorted(nonnegative, key=lambda x: (-scored[x], x))
        slot = rng.integers(k)
        pick = slots[slot] if slot < len(slots) else None
        yield state, scored, pick
        if pick is not None:
            _, state = marginal_gain_joint(inst, A, state, pick)
            A = A.add(pick)


def eager_randomized_joint(inst, k, rng):
    picks = [x for *_, x in eager_joint_steps(inst, k, rng) if x is not None]
    result = rg.ExplanationSet(tuple(picks))
    policy = rg.optimal_policy_for(inst, result)
    return result, rg.utility(inst, policy, result)


# The padded formulation the solver used to run: 2k dummy values (zero
# mass, outcome exactly gamma, cost 2 both ways) appended as real data and
# re-sorted. It computes gains on a copy whose px is re-normalized and whose
# summation trees differ, so its picks match the virtual slots only up to
# near-ties.

def _padded_instance(inst, k):
    m, pad = inst.m, 2 * k
    px = np.concatenate([inst.px, np.zeros(pad)])
    py = np.concatenate([inst.py, np.full(pad, inst.gamma)])
    cost = np.full((m + pad, m + pad), 2.0)
    cost[:m, :m] = inst.cost
    np.fill_diagonal(cost, 0.0)
    return rg.sort_canonical(px, py, cost, inst.gamma)


def padded_joint_steps(inst, k, rng):
    """Per iteration: the padded state, the real candidates' gains and the
    pick, mapped back through perm (None for a dummy)."""
    aug, perm = _padded_instance(inst, k)
    ground = [int(i) for i in np.flatnonzero(aug.py >= aug.gamma)]
    A = rg.ExplanationSet()
    state = joint_marginal_state(aug, A)
    for _ in range(k):
        cands = [x for x in ground if x not in A]
        scored = dict(zip(cands, kernel_gains(aug, state, cands)))
        ranked = sorted(cands, key=lambda x: (-scored[x], x))
        pick = ranked[rng.integers(k)]  # at least k + 1 dummies remain
        real = {int(perm[x]): g for x, g in scored.items() if perm[x] < inst.m}
        yield state, real, int(perm[pick]) if perm[pick] < inst.m else None
        _, state = marginal_gain_joint(aug, A, state, pick)
        A = A.add(pick)


def test_lazy_greedy_matches_eager():
    for inst, k in equivalence_cases("alg-lazy-greedy"):
        policy = rg.threshold_policy(inst)
        assert (
            rg.greedy_fixed_policy(inst, policy, k).indices
            == eager_greedy(inst, policy, [0] * inst.m, [k]).indices
        )


@pytest.mark.filterwarnings("ignore:capacity")
def test_lazy_matroid_matches_eager():
    rng = rg.seeded_rng(rg.derive_seed(0, "alg-lazy-matroid-split"))
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
        lazy_rng, eager_rng = rg.seeded_rng(t), rg.seeded_rng(t)
        sol = rg.randomized_joint(inst, k, lazy_rng)
        A, u = eager_randomized_joint(inst, k, eager_rng)
        assert sol.explanations.indices == A.indices
        assert repr(sol.utility) == repr(u)
        assert lazy_rng.integers(2**31) == eager_rng.integers(2**31)


def test_lazy_randomized_joint_evaluates_fewer_gains(monkeypatch):
    inst = rg.generate_synthetic(rg.SynthConfig(m=300, gamma=0.3, seed=11))
    k = 15
    rows = [0]

    def counted(instance, state, xs):
        rows[0] += len(xs)
        return _gains(instance, state, xs)

    monkeypatch.setattr(algorithms, "_gains", counted)
    rg.randomized_joint(inst, k, rg.seeded_rng(3))
    ground = len(rg.ground_set_viable(inst)) + 2 * k
    assert rows[0] < 0.5 * k * ground


@pytest.mark.parametrize("seed", range(10))
def test_slot_first_draw_scores_fewer_rows_for_the_same_picks(monkeypatch, seed):
    inst = _scale_costs(rg.generate_synthetic(rg.SynthConfig(m=300, seed=seed)), 8.0)
    rows = [0]

    def counted(instance, state, xs):
        rows[0] += len(xs)
        return _gains(instance, state, xs)

    monkeypatch.setattr(algorithms, "_gains", counted)
    rng, ref_rng = rg.seeded_rng(seed), rg.seeded_rng(seed)
    [sol] = rg.randomized_joint_runs(inst, 30, [rng])
    slot_first, rows[0] = rows[0], 0
    [ref] = ref_pop_k_joint_runs(inst, 30, [ref_rng])
    assert sol.explanations.indices == ref.explanations.indices
    assert repr(sol.utility) == repr(ref.utility)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert slot_first < rows[0]


def test_solvers_never_score_an_empty_block(monkeypatch, two_group):
    calls = []

    def checked(kernel):
        def run(instance, state, xs):
            assert len(xs) > 0
            calls.append(len(xs))
            return kernel(instance, state, xs)

        return run

    monkeypatch.setattr(algorithms, "_gains", checked(_gains))
    monkeypatch.setattr(baselines, "_coverage", checked(_coverage))
    inst, matroid = two_group
    policy = rg.threshold_policy(inst)
    nothing = rg.Policy(np.zeros(inst.m))
    # no budget, or nothing accepted: the empty set, without a kernel call
    assert rg.greedy_fixed_policy(inst, policy, 0).indices == ()
    closed = rg.PartitionMatroid(groups=matroid.groups, capacities=(0, 0))
    assert rg.greedy_matroid(inst, policy, closed).indices == ()
    assert rg.greedy_fixed_policy(inst, nothing, 3).indices == ()
    assert rg.diverse_explanations(inst, policy, 0).indices == ()
    assert rg.diverse_explanations(inst, nothing, 3).indices == ()
    assert calls == []
    for g, caps in ((1, (0, 1)), (0, (1, 0))):
        half = rg.PartitionMatroid(groups=matroid.groups, capacities=caps)
        assert set(rg.greedy_matroid(inst, policy, half)) <= set(matroid.groups[g])
    assert calls
    calls.clear()
    rg.diverse_explanations(inst, policy, 2)
    assert calls


def test_lazy_solvers_score_gains_only_in_pop_best(monkeypatch):
    callers = []

    def recorded(kernel):
        def run(instance, state, xs):
            callers.append(sys._getframe(1).f_code.co_name)
            return kernel(instance, state, xs)

        return run

    monkeypatch.setattr(algorithms, "_gains", recorded(_gains))
    monkeypatch.setattr(baselines, "_coverage", recorded(_coverage))
    inst = rg.generate_synthetic(rg.SynthConfig(m=120, gamma=0.3, seed=4))
    policy = rg.threshold_policy(inst)
    matroid = rg.PartitionMatroid(
        groups=(tuple(range(0, 120, 2)), tuple(range(1, 120, 2))), capacities=(3, 2)
    )
    rg.greedy_fixed_policy(inst, policy, 10)
    rg.greedy_matroid(inst, policy, matroid)
    rg.diverse_explanations(inst, policy, 10)
    rg.randomized_joint_runs(inst, 6, [rg.seeded_rng(s) for s in range(3)])
    assert callers and set(callers) == {"_pop_best"}


@pytest.mark.parametrize("k, most", [(2, 10), (4, 20)])
def test_randomized_joint_refreshes_at_least_a_block(monkeypatch, k, most):
    calls = []

    def counted(instance, state, xs):
        calls.append(len(xs))
        return _gains(instance, state, xs)

    monkeypatch.setattr(algorithms, "_gains", counted)
    inst = rg.generate_synthetic(rg.SynthConfig(m=200, gamma=0.3, seed=7))
    rg.randomized_joint(inst, k, rg.seeded_rng(1))
    assert len(calls) <= most


def count_steps(monkeypatch) -> dict:
    """Count the joint greedy's _advance calls and the rows it scores."""
    counts = {"advance": 0, "rows": 0}

    def advance(instance, state, x):
        counts["advance"] += 1
        return _advance(instance, state, x)

    def gains(instance, state, xs):
        counts["rows"] += len(xs)
        return _gains(instance, state, xs)

    monkeypatch.setattr(algorithms, "_advance", advance)
    monkeypatch.setattr(algorithms, "_gains", gains)
    return counts


def test_copies_of_one_stream_step_as_often_as_one(monkeypatch):
    inst = rg.generate_synthetic(rg.SynthConfig(m=200, gamma=0.3, seed=7))
    counts = count_steps(monkeypatch)
    [one] = rg.randomized_joint_runs(inst, 5, [rg.seeded_rng(3)])
    alone = dict(counts)
    counts.update(advance=0, rows=0)
    runs = rg.randomized_joint_runs(inst, 5, [rg.seeded_rng(3) for _ in range(50)])
    assert alone["advance"] > 0 and counts == alone
    assert {sol.explanations.indices for sol in runs} == {one.explanations.indices}


@pytest.mark.parametrize("k", [1, 2, 3, 20, 50])
def test_one_slot_draw_equals_k_scalar_draws(k):
    # randomized_joint_runs draws a stream's k slots in one call: the values
    # of k scalar integers(k) calls, and the generator ends in their state
    for seed in range(120):
        one, scalar = rg.seeded_rng(seed), rg.seeded_rng(seed)
        got = one.integers(k, size=k).tolist()
        assert got == [int(scalar.integers(k)) for _ in range(k)]
        assert one.bit_generator.state == scalar.bit_generator.state
        assert one.integers(k) == scalar.integers(k)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("seed", range(5))
def test_shared_slot_prefixes_are_stepped_once(monkeypatch, seed, k):
    # k slots have k + k^2 + ... + k^k prefixes (6 at k = 2), each stepped
    # at most once however many streams draw it; at k = 3 a stored prefix
    # has three children, so a run that changed its heap would show
    inst = tie_heavy_instance(rg.seeded_rng(seed), 10)
    counts = count_steps(monkeypatch)
    runs = rg.randomized_joint_runs(inst, k, [rg.seeded_rng(r) for r in range(200)])
    assert counts["advance"] <= sum(k**i for i in range(1, k + 1))
    for r, sol in enumerate(runs):
        ref = rg.randomized_joint(inst, k, rg.seeded_rng(r))
        assert sol.explanations.indices == ref.explanations.indices
        assert repr(sol.utility) == repr(ref.utility)


def test_kernel_gain_is_batch_invariant():
    rng = rg.seeded_rng(rg.derive_seed(0, "alg-batch-invariance"))
    for t, (inst, k) in enumerate(equivalence_cases("alg-batch")):
        if t % 2:
            ground = np.flatnonzero(inst.py >= inst.gamma)
            A = rg.ExplanationSet(subset(rng, ground.tolist(), 0.2)[:k])
            state = joint_marginal_state(inst, A)
        else:
            policy = rg.threshold_policy(inst)
            ground = np.flatnonzero(policy.pi == 1.0)
            A = rg.ExplanationSet(subset(rng, ground.tolist(), 0.2)[:k])
            state = fixed_marginal_state(inst, policy, A)
        xs = np.array([x for x in ground if x not in A], dtype=int)
        if xs.size == 0:
            continue
        for kernel in (_gains, _coverage):
            whole = kernel(inst, state, xs)
            alone = np.array([kernel(inst, state, [x])[0] for x in xs])
            order = rng.permutation(xs.size)
            blocks = np.empty(xs.size)
            lo = 0
            while lo < xs.size:
                hi = lo + 1 + rng.integers(xs.size - lo)
                blocks[order[lo:hi]] = kernel(inst, state, xs[order[lo:hi]])
                lo = hi
            assert whole.tobytes() == alone.tobytes() == blocks.tobytes()


def test_kernel_matches_reference_gains():
    worst = 0.0
    for t, (inst, k) in enumerate(equivalence_cases("alg-reference")):
        policy = rg.threshold_policy(inst)
        group_of = [0] * inst.m
        for state, scored, _ in eager_greedy_steps(inst, policy, group_of, [k]):
            for x, g in scored.items():
                worst = max(worst, abs(g - ref_fixed_gain(inst, state, x)))
        for state, scored, _ in eager_joint_steps(inst, k, rg.seeded_rng(t)):
            for x, g in scored.items():
                worst = max(worst, abs(g - ref_joint_gain(inst, state, x)))
    assert worst <= 1e-15


def first_divergence(steps_a, steps_b):
    """(state, gains, pick_a, pick_b) at the first iteration whose picks
    differ, or None; a greedy that stopped picks None."""
    for (state, scored, a), (*_, b) in zip(steps_a, steps_b):
        if a != b:
            return state, scored, a, b
    return None


def gap(scored, a, b):
    """Gain gap between two picks; a stop or a dummy (None) counts as 0."""
    return abs(scored.get(a, 0.0) - scored.get(b, 0.0))


def test_reference_picks_differ_only_at_near_ties():
    for t, (inst, k) in enumerate(equivalence_cases("alg-reference")):
        policy = rg.threshold_policy(inst)
        one_group = [0] * inst.m
        hit = first_divergence(
            eager_greedy_steps(inst, policy, one_group, [k]),
            eager_greedy_steps(
                inst, policy, one_group, [k], per_candidate(ref_fixed_gain)
            ),
        )
        if hit is not None:
            assert gap(hit[1], hit[2], hit[3]) <= 1e-15
        hit = first_divergence(
            eager_joint_steps(inst, k, rg.seeded_rng(t)),
            eager_joint_steps(
                inst, k, rg.seeded_rng(t), per_candidate(ref_joint_gain)
            ),
        )
        if hit is not None:
            assert gap(hit[1], hit[2], hit[3]) <= 1e-15


def test_padded_picks_differ_only_at_near_ties():
    diverged = 0
    for t, (inst, k) in enumerate(equivalence_cases("alg-padded", 1400)):
        hit = first_divergence(
            eager_joint_steps(inst, k, rg.seeded_rng(t)),
            padded_joint_steps(inst, k, rg.seeded_rng(t)),
        )
        if hit is not None:
            diverged += 1
            assert gap(hit[1], hit[2], hit[3]) <= 1e-15
    # the padded copy's gains are a few ulp off, so some near-ties do flip
    assert diverged > 0


# -- greedy at a fixed policy -------------------------------------------------

def test_greedy_set_cover_picks_covering_set(setcover):
    inst, policy = setcover
    A = rg.greedy_fixed_policy(inst, policy, 1)
    assert A.indices == (0,)
    assert rg.utility(inst, policy, A) == 1.0 - inst.gamma


def test_greedy_k_zero(setcover):
    inst, policy = setcover
    assert rg.greedy_fixed_policy(inst, policy, 0).indices == ()


def _at_policy(solver):
    return lambda inst, policy, k, rng: (policy, solver(inst, policy, k))


def _joint_solution(inst, policy, k, rng):
    sol = rg.randomized_joint(inst, k, rng)
    return sol.policy, sol.explanations


@pytest.mark.parametrize(
    "solve",
    [
        _at_policy(rg.min_cost_explanations),
        _at_policy(rg.diverse_explanations),
        _at_policy(rg.greedy_fixed_policy),
        _joint_solution,
    ],
    ids=["min_cost", "diverse", "greedy_fixed_policy", "randomized_joint"],
)
def test_regime_solvers_take_k_zero(solve):
    # k=0 publishes nothing under the threshold policy and draws nothing
    inst = rg.generate_synthetic(rg.SynthConfig(m=12, gamma=0.3, seed=4))
    policy = rg.threshold_policy(inst)
    rng, ref = rg.seeded_rng(9), rg.seeded_rng(9)
    published, A = solve(inst, policy, 0, rng)
    assert A.indices == ()
    assert published.pi.tolist() == policy.pi.tolist()
    assert rng.integers(2**31) == ref.integers(2**31)
    with pytest.raises(ValueError, match="^k must be >= 0$"):
        solve(inst, policy, -1, rng)


@pytest.mark.parametrize("k", [2.5, np.float64(2.0)], ids=["2.5", "float64"])
@pytest.mark.parametrize(
    "solve",
    [
        _at_policy(rg.greedy_fixed_policy),
        _at_policy(rg.diverse_explanations),
        _at_policy(rg.min_cost_explanations),
        _joint_solution,
        _at_policy(rg.brute_force_fixed),
        lambda inst, policy, k, rng: rg.brute_force_joint(inst, k),
    ],
    ids=["alg1", "diverse", "min_cost", "alg2", "brute_fixed", "brute_joint"],
)
def test_budgeted_solvers_refuse_a_non_integer_k(solve, k):
    # refused, not truncated to k=2
    inst = rg.generate_synthetic(rg.SynthConfig(m=10, gamma=0.3, seed=1))
    rng, ref = rg.seeded_rng(9), rg.seeded_rng(9)
    with pytest.raises(ValueError, match="^k must be an integer$"):
        solve(inst, rg.threshold_policy(inst), k, rng)
    assert rng.integers(2**31) == ref.integers(2**31)  # nothing drawn


def test_budgeted_solvers_take_numpy_integers():
    inst = rg.generate_synthetic(rg.SynthConfig(m=10, gamma=0.3, seed=1))
    policy = rg.threshold_policy(inst)
    fixed = (
        rg.greedy_fixed_policy,
        rg.diverse_explanations,
        rg.min_cost_explanations,
        rg.brute_force_fixed,
    )
    for solve in fixed:
        assert solve(inst, policy, np.int64(2)) == solve(inst, policy, 2)
    for k in (np.int32(2), np.int64(2)):
        got = rg.randomized_joint(inst, k, rg.seeded_rng(3)).explanations
        assert got == rg.randomized_joint(inst, 2, rg.seeded_rng(3)).explanations
        got = rg.brute_force_joint(inst, k).explanations
        assert got == rg.brute_force_joint(inst, 2).explanations


def test_greedy_rejects_bad_policies():
    inst = rg.make_instance([0.5, 0.5], [0.9, 0.2], np.zeros((2, 2)), 0.3)
    with pytest.raises(ValueError, match="reject"):
        rg.greedy_fixed_policy(inst, rg.Policy([1.0, 0.5]), 1)
    mono = rg.make_instance([0.5, 0.5], [0.9, 0.8], np.zeros((2, 2)), 0.3)
    with pytest.raises(ValueError, match="monotonic"):
        rg.greedy_fixed_policy(mono, rg.Policy([0.4, 0.7]), 1)
    with pytest.raises(ValueError, match="^k must be >= 0$"):
        rg.greedy_fixed_policy(mono, rg.Policy([1.0, 0.0]), -1)
    # deterministic non-monotonic policies are allowed
    rg.greedy_fixed_policy(mono, rg.Policy([0.0, 1.0]), 1)


def test_greedy_reaches_guarantee_against_brute_force():
    rng = rg.seeded_rng(rg.derive_seed(0, "alg-greedy"))
    for _ in range(30):
        inst = random_instance(rng, 4 + rng.integers(9))
        policy = rg.threshold_policy(inst)
        k = 1 + rng.integers(3)
        f_greedy = rg.utility(inst, policy, rg.greedy_fixed_policy(inst, policy, k))
        f_opt = rg.utility(inst, policy, rg.brute_force_fixed(inst, policy, k))
        assert f_greedy >= ONE_MINUS_E_INV * f_opt - 1e-12


def test_greedy_utility_sequence_nondecreasing():
    rng = rg.seeded_rng(rg.derive_seed(0, "alg-sequence"))
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
    rng = rg.seeded_rng(rg.derive_seed(0, "alg-prop3"))
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
    rng = rg.seeded_rng(rg.derive_seed(0, "alg-joint-marginal"))
    for _ in range(100):
        inst = random_instance(rng, 4 + rng.integers(7))
        viable = list(rg.ground_set_viable(inst).indices)
        if not viable:
            continue
        x = viable[rng.integers(len(viable))]
        A = rg.ExplanationSet(subset(rng, [i for i in viable if i != x]))
        state = joint_marginal_state(inst, A)
        gain, new_state = marginal_gain_joint(inst, A, state, x)
        exact = rg.joint_objective(inst, A.add(x)) - rg.joint_objective(inst, A)
        assert gain == pytest.approx(exact, abs=1e-12)
        rest = [i for i in viable if i != x and i not in A]
        if rest:
            y = rest[rng.integers(len(rest))]
            g2, _ = marginal_gain_joint(inst, A.add(x), new_state, y)
            exact2 = rg.joint_objective(inst, A.add(x).add(y)) - rg.joint_objective(
                inst, A.add(x)
            )
            assert g2 == pytest.approx(exact2, abs=1e-12)


# -- randomized joint optimizer ----------------------------------------------

def test_randomized_joint_witness_unique_top_candidate(nonmono):
    for seed in range(5):
        sol = rg.randomized_joint(nonmono, 1, rg.seeded_rng(seed))
        assert sol.explanations.indices == (0,)
        assert sol.utility == pytest.approx(0.9, abs=1e-12)
        assert sol.policy.pi.tolist() == [1, 0, 0]


def test_randomized_joint_deterministic_per_seed():
    rng = rg.seeded_rng(rg.derive_seed(0, "alg-rj-det"))
    inst = random_instance(rng, 12, gamma=0.4)
    a = rg.randomized_joint(inst, 3, rg.seeded_rng(99))
    b = rg.randomized_joint(inst, 3, rg.seeded_rng(99))
    assert a.explanations.indices == b.explanations.indices
    assert a.utility == b.utility


def test_randomized_joint_output_is_clean():
    rng = rg.seeded_rng(rg.derive_seed(0, "alg-rj-clean"))
    for t in range(20):
        inst = random_instance(rng, 4 + rng.integers(7))
        k = 1 + rng.integers(3)
        run = rg.seeded_rng(rg.derive_seed(0, "alg-rj-clean-run", t))
        sol = rg.randomized_joint(inst, k, run)
        assert len(sol.explanations) <= k
        for a in sol.explanations:
            assert 0 <= a < inst.m
            assert sol.policy.pi[a] == 1.0
        assert sol.utility == pytest.approx(
            rg.utility(inst, sol.policy, sol.explanations), abs=1e-15
        )


def test_randomized_joint_mean_guarantee_sampled():
    rng = rg.seeded_rng(rg.derive_seed(0, "alg-rj-guarantee"))
    for t in range(5):
        inst = random_instance(rng, 4 + rng.integers(5))
        k = 1 + rng.integers(2)
        opt = rg.brute_force_joint(inst, k).utility
        runs = rg.randomized_joint_runs(
            inst, k, [rg.seeded_rng(rg.derive_seed(7, t, r)) for r in range(50)]
        )
        mean = np.mean([sol.utility for sol in runs])
        assert mean >= E_INV * opt - 1e-12


def test_randomized_joint_rejects_bad_k(nonmono):
    with pytest.raises(ValueError, match="^k must be >= 0$"):
        rg.randomized_joint(nonmono, -1, rg.seeded_rng(0))


def test_randomized_joint_k_zero_builds_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("k = 0 built a state or scored a gain")

    monkeypatch.setattr(algorithms, "joint_marginal_state", refuse)
    monkeypatch.setattr(algorithms, "_gains", refuse)
    inst = rg.generate_synthetic(rg.SynthConfig(m=40, gamma=0.3, seed=5))
    threshold = rg.threshold_policy(inst)
    rngs = [rg.seeded_rng(s) for s in range(3)]
    runs = rg.randomized_joint_runs(inst, 0, rngs)
    assert len(runs) == 3
    for s, (sol, rng) in enumerate(zip(runs, rngs)):
        assert sol.explanations.indices == ()
        assert sol.policy.pi.tolist() == threshold.pi.tolist()
        assert repr(sol.utility) == repr(rg.black_box_utility(inst))
        assert rng.integers(2**31) == rg.seeded_rng(s).integers(2**31)


def test_randomized_joint_degenerate_inputs(nonmono):
    none_viable = rg.make_instance([0.5, 0.5], [0.2, 0.1], np.zeros((2, 2)), 0.3)
    assert len(rg.ground_set_viable(nonmono)) < 5
    for inst, k in ((none_viable, 3), (nonmono, 5)):
        rng, ref = rg.seeded_rng(17), rg.seeded_rng(17)
        sol = rg.randomized_joint(inst, k, rng)
        assert isinstance(sol, rg.JointSolution)
        assert set(sol.explanations) <= set(rg.ground_set_viable(inst))
        assert repr(sol.utility) == repr(rg.joint_objective(inst, sol.explanations))
        # exactly k draws of integers(k), whatever the pool holds
        for _ in range(k):
            ref.integers(k)
        assert rng.integers(2**31) == ref.integers(2**31)
    sol = rg.randomized_joint(none_viable, 3, rg.seeded_rng(0))
    assert sol.explanations.indices == ()
    assert sol.policy.pi.tolist() == [0.0, 0.0]

    # many streams: k < 0 raises before any stream is drawn, no streams give
    # no runs, with no viable value every run gets the empty set under the
    # all-reject policy, and with k above the viable set each run still takes
    # exactly k draws
    taken = []

    def streams():
        taken.append(True)
        yield rg.seeded_rng(0)

    with pytest.raises(ValueError, match="^k must be >= 0$"):
        rg.randomized_joint_runs(nonmono, -1, streams())
    assert taken == []
    assert rg.randomized_joint_runs(nonmono, 2, []) == []
    for sol in rg.randomized_joint_runs(
        none_viable, 3, [rg.seeded_rng(s) for s in range(4)]
    ):
        assert sol.explanations.indices == ()
        assert sol.policy.pi.tolist() == [0.0, 0.0]
    k = 5
    rngs = [rg.seeded_rng(s) for s in range(6)]
    rg.randomized_joint_runs(nonmono, k, rngs)
    for s, rng in enumerate(rngs):
        ref = rg.seeded_rng(s)
        for _ in range(k):
            ref.integers(k)
        assert rng.integers(2**31) == ref.integers(2**31)


def test_randomized_joint_peaks_below_the_cost_matrix():
    inst = rg.generate_synthetic(rg.SynthConfig(m=300, gamma=0.3, seed=11))
    peak = traced_peak(lambda: rg.randomized_joint(inst, 15, rg.seeded_rng(3)))
    assert peak < inst.cost.nbytes


@pytest.mark.parametrize(
    "solve, bound",
    [
        pytest.param(fixed_marginal_state, 0.4, id="fixed_marginal_state"),
        pytest.param(partial(rg.greedy_fixed_policy, k=50), 0.4, id="alg1"),
        pytest.param(partial(rg.diverse_explanations, k=50), 0.4, id="diverse"),
        pytest.param(partial(rg.min_cost_explanations, k=50), 0.5, id="min_cost"),
    ],
)
def test_solvers_make_no_float_copy_of_the_cost_matrix(solve, bound):
    # the boolean region matrix and its transpose, or min_cost's gathered
    # block and score buffer; no m x m float temporary
    inst = rg.generate_synthetic(rg.SynthConfig(m=1000, gamma=0.3, seed=7))
    policy = rg.threshold_policy(inst)
    assert traced_peak(lambda: solve(inst, policy)) <= bound * inst.cost.nbytes


# -- matroid greedy -----------------------------------------------------------

def test_matroid_uniform_equals_cardinality():
    rng = rg.seeded_rng(rg.derive_seed(0, "alg-matroid-uniform"))
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
    rng = rg.seeded_rng(rg.derive_seed(0, "alg-matroid-half"))
    for _ in range(15):
        inst = random_instance(rng, 4 + rng.integers(9))
        policy = rg.threshold_policy(inst)
        split = 1 + rng.integers(inst.m - 1)
        matroid = rg.PartitionMatroid(
            groups=(tuple(range(split)), tuple(range(split, inst.m))),
            capacities=(1 + rng.integers(2), 1 + rng.integers(2)),
        )
        A = rg.greedy_matroid(inst, policy, matroid)
        assert is_feasible(matroid, A.indices)
        f_greedy = rg.utility(inst, policy, A)
        ground = list(rg.ground_set_accepted(inst, policy).indices)
        f_opt = 0.0
        for size in range(0, min(len(ground), matroid.k) + 1):
            for combo in combinations(ground, size):
                if is_feasible(matroid, combo):
                    f_opt = max(f_opt, rg.utility(inst, policy, rg.ExplanationSet(combo)))
        assert f_greedy >= 0.5 * f_opt - 1e-12


def test_matroid_warns_on_oversized_capacity(two_group):
    inst, matroid = two_group
    silly = rg.PartitionMatroid(groups=matroid.groups, capacities=(10, 1))
    with pytest.warns(UserWarning, match="capacity"):
        rg.greedy_matroid(inst, rg.threshold_policy(inst), silly)


def test_matroid_dimension_mismatch(nonmono):
    matroid = rg.PartitionMatroid(groups=((0, 1),), capacities=(1,))
    with pytest.raises(ValueError, match="matroid covers 2 values .* has 3"):
        rg.greedy_matroid(nonmono, rg.Policy([1.0, 0.0, 0.0]), matroid)


# -- exhaustive oracles -------------------------------------------------------

def test_brute_force_fixed_full_budget_is_global_max():
    rng = rg.seeded_rng(rg.derive_seed(0, "alg-bf"))
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


def test_exhaustive_best_policy_tie_takes_smallest_extra_set():
    # A = {0, 3} and free = {1, 2}. Value 0 alone contributes the float just
    # below 0.25; accepting 1 or 2 adds half its ulp, which rounds up to 0.25,
    # and the other adds too little to move 0.25. So {1}, {2} and {1, 2} tie
    # above {}: the bit-product order met {2} first, the subset order keeps
    # the smallest tuple, (1,).
    tiny = 2.0**-54
    cost = np.full((4, 4), 2.0)
    np.fill_diagonal(cost, 0.0)
    inst = rg.make_instance(
        [0.5 - tiny, tiny, tiny, 0.5 - tiny], [1.0, 0.75, 0.75, 0.5], cost, 0.5
    )
    A = rg.ExplanationSet((0, 3))

    def u(*extra):
        pi = np.zeros(4)
        pi[[0, 3, *extra]] = 1.0
        return rg.utility(inst, rg.Policy(pi), A)

    assert u() < u(1) == u(2) == u(1, 2)
    policy, best = rg.exhaustive_best_policy(inst, A)
    assert policy.pi.tolist() == [1.0, 1.0, 0.0, 1.0]
    assert best == u(1)


def test_exhaustive_best_policy_caps_free_values():
    m = rg.BRUTE_FORCE_CAP + 2
    inst = rg.make_instance(
        np.full(m, 1.0 / m), np.linspace(0.99, 0.5, m), np.zeros((m, m)), 0.3
    )
    with pytest.raises(ValueError, match="too large"):
        rg.exhaustive_best_policy(inst, rg.ExplanationSet((0,)))


def test_exhaustive_best_policy_runs_at_its_cap_in_flat_memory():
    # 2^20 policies; a chunk of 1,024 peaks near 2.5 MB here, where the
    # C(20, 10) = 184,756 policies of the largest size at once would not
    m = rg.BRUTE_FORCE_CAP + 2
    inst = rg.generate_synthetic(rg.SynthConfig(m=m, gamma=0.3, seed=5))
    A = rg.ExplanationSet((0, 1))
    assert set(A) <= set(rg.ground_set_viable(inst))
    result = []
    peak = traced_peak(lambda: result.append(rg.exhaustive_best_policy(inst, A)))
    [(policy, best)] = result
    assert peak < 4_000_000
    assert policy.pi[[0, 1]].tolist() == [1.0, 1.0]
    assert repr(rg.utility(inst, policy, A)) == repr(best)
    assert best - 1e-12 <= rg.joint_objective(inst, A) <= best


def test_best_subset_breaks_a_tie_across_sizes_by_tuple_order():
    # (3,) and (0, 5) share the top score; (0, 5) < (3,) as tuples, so the
    # pair wins though its size is enumerated after the singleton's
    top = {(3,), (0, 5)}

    def score(sets):
        return np.array([float(tuple(S) in top) for S in sets.tolist()])

    A, u = algorithms._best_subset(range(6), 2, score)
    assert (A.indices, u) == ((0, 5), 1.0)
    ref = ref_best_subset(range(6), 2, lambda E: float(E.indices in top))
    assert ref == (A, u)


def test_oracles_at_k_zero_past_the_ground_set_and_on_an_empty_one():
    rng = rg.seeded_rng(7)
    inst = random_instance(rng, 8, gamma=0.3)
    policy = rg.threshold_policy(inst)
    ground = rg.ground_set_accepted(inst, policy).indices
    assert 0 < len(ground) < 8
    A = rg.ExplanationSet(ground[:1])
    assert rg.brute_force_fixed(inst, policy, 0).indices == ()
    assert rg.brute_force_joint(inst, 0).explanations.indices == ()
    for k in (0, 1, len(ground) + 3):
        assert_oracles_match_the_per_set_loop(inst, policy, k, A)
    # nothing accepted, nothing viable, nothing free
    nothing = rg.Policy(np.zeros(inst.m))
    assert rg.brute_force_fixed(inst, nothing, 3).indices == ()
    assert ref_brute_force_fixed(inst, nothing, 3).indices == ()
    high = rg.make_instance(inst.px, inst.py * 0.5, inst.cost, 0.9)
    assert len(rg.ground_set_viable(high)) == 0
    assert_oracles_match_the_per_set_loop(high, rg.threshold_policy(high), 3, A)
    everything = rg.ExplanationSet(range(inst.m))
    assert_oracles_match_the_per_set_loop(inst, policy, 2, everything)
    assert rg.exhaustive_best_policy(inst, everything)[0].pi.tolist() == [1.0] * 8


def test_oracles_match_the_per_set_loop_across_chunks(monkeypatch):
    # C(13, 6) = 1,716 sets of one size, more than one chunk of 1,024
    assert algorithms._SUBSET_BLOCK == 1024
    inst = random_instance(rg.seeded_rng(3), 13, gamma=0.05)
    policy = rg.threshold_policy(inst)
    assert len(rg.ground_set_accepted(inst, policy)) == 13
    assert_oracles_match_the_per_set_loop(inst, policy, 6, rg.ExplanationSet((0,)))
    # chunks of 5: each one (n, size) array, sizes ascending, then
    # lexicographic order within a size
    monkeypatch.setattr(algorithms, "_SUBSET_BLOCK", 5)
    chunks = list(algorithms._subset_chunks(range(7), 3))
    assert all(sets.ndim == 2 and 1 <= len(sets) <= 5 for sets in chunks)
    rows = [tuple(S) for sets in chunks for S in sets.tolist()]
    assert rows == [S for size in range(4) for S in combinations(range(7), size)]
    # on tie-heavy instances: ties cross chunk boundaries
    rng = rg.seeded_rng(4)
    for _ in range(20):
        inst = tie_heavy_instance(rng, 2 + rng.integers(7))
        A = rg.ExplanationSet(subset(rng, rg.ground_set_viable(inst).indices))
        k = int(rng.integers(5))
        assert_oracles_match_the_per_set_loop(inst, rg.threshold_policy(inst), k, A)


def test_brute_force_joint_witness(nonmono):
    k1 = rg.brute_force_joint(nonmono, 1)
    k2 = rg.brute_force_joint(nonmono, 2)
    assert k1.explanations.indices == (0,)
    assert k1.utility == pytest.approx(0.9, abs=1e-12)
    assert k2.explanations.indices == (0,)
    assert k2.utility == pytest.approx(0.9, abs=1e-12)
    with pytest.raises(ValueError, match="^k must be >= 0$"):
        rg.brute_force_joint(nonmono, -1)
    with pytest.raises(ValueError, match="^k must be >= 0$"):
        rg.brute_force_fixed(nonmono, rg.threshold_policy(nonmono), -1)
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
        assert sorted(greedy) == sorted(brute)


# -- rng plumbing -------------------------------------------------------------

def test_seeded_rng_reproducible():
    a, b = rg.seeded_rng(123), rg.seeded_rng(123)
    assert a.random() == b.random()
    assert a.integers(1000) == b.integers(1000)
    assert np.array_equal(a.uniform(size=5), b.uniform(size=5))
    # pinned to PCG64, whatever numpy's default bit generator becomes
    pcg = np.random.Generator(np.random.PCG64(123))
    assert rg.seeded_rng(np.int64(123)).random(4).tobytes() == pcg.random(4).tobytes()


def test_seeded_rng_refuses_a_non_integer_seed():
    # refused, not truncated to seed 1's stream
    for seed in (1.7, np.float64(1.0), None):
        with pytest.raises(ValueError, match="^seed must be an integer$"):
            rg.seeded_rng(seed)
    with pytest.raises(ValueError, match="^seed must be >= 0$"):
        rg.seeded_rng(-1)


def test_derive_seed_stable_and_sensitive():
    assert rg.derive_seed(1, "x", 2) == rg.derive_seed(1, "x", 2)
    assert rg.derive_seed(1, "x", 2) != rg.derive_seed(1, "x", 3)
