"""The solvers' guarantees as derandomized properties on tie-heavy and
boundary instances: outcomes on a grid that includes gamma, zero-mass
values, costs of exactly 1.0 or inf, empty viable sets and k=0."""

from dataclasses import replace
from functools import partial
from itertools import combinations

import numpy as np
import pytest

import recourse_game as rg

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from conftest import (  # noqa: E402
    assert_oracles_match_the_per_set_loop,
    full_near,
    is_feasible,
    min_cost_one_row_per_block,
    ref_assignment,
    ref_leak_targets,
    ref_ordered_advance,
    ref_pop_k_joint_runs,
    ref_state,
    ref_where_gains,
    tie_heavy_instances,
)
from recourse_game.algorithms import _optimal_pi  # noqa: E402
from recourse_game.behavior import (  # noqa: E402
    _advance,
    _gains,
    _leak_targets,
    _responses,
    fixed_marginal_state,
    joint_marginal_state,
    marginal_gain_fixed,
    marginal_gain_joint,
)

E_INV = 1.0 / np.e
ONE_MINUS_E_INV = 1.0 - 1.0 / np.e

instances = tie_heavy_instances(1, 10)


def draw_subset(data, items) -> tuple[int, ...]:
    keep = data.draw(st.lists(st.booleans(), min_size=len(items), max_size=len(items)))
    return tuple(x for x, kept in zip(items, keep) if kept)


@hypothesis.given(instances, st.integers(1, 4), st.integers(0, 2**32))
def test_randomized_joint_returns_k_viable_members_at_their_objective(inst, k, seed):
    sol = rg.randomized_joint(inst, k, rg.seeded_rng(seed))
    A = sol.explanations
    assert len(A) <= k
    assert set(A) <= set(rg.ground_set_viable(inst))
    assert repr(sol.utility) == repr(rg.joint_objective(inst, A))


@hypothesis.given(instances, st.data())
def test_every_budgeted_solver_keeps_within_k(inst, data):
    # budgets past the ground set and past m included
    k = data.draw(st.integers(0, inst.m + 2))
    policy = rg.threshold_policy(inst)
    fixed = (
        rg.greedy_fixed_policy,
        rg.diverse_explanations,
        rg.min_cost_explanations,
        rg.brute_force_fixed,
    )
    chosen = [solve(inst, policy, k) for solve in fixed]
    chosen.append(rg.randomized_joint(inst, k, rg.seeded_rng(k)).explanations)
    chosen.append(rg.brute_force_joint(inst, k).explanations)
    assert all(len(A) <= k for A in chosen)


@pytest.mark.filterwarnings("ignore:capacity")
@hypothesis.given(instances, st.data())
def test_matroid_greedy_keeps_within_every_capacity(inst, data):
    split = data.draw(st.integers(0, inst.m))
    groups = (tuple(range(split)), tuple(range(split, inst.m)))
    caps = tuple(data.draw(st.integers(0, inst.m + 2)) for _ in groups)
    matroid = rg.PartitionMatroid(groups=groups, capacities=caps)
    A = rg.greedy_matroid(inst, rg.threshold_policy(inst), matroid)
    for members, cap in zip(groups, caps):
        assert len(set(A) & set(members)) <= cap


@hypothesis.given(instances, st.integers(1, 3))
def test_randomized_joint_mean_reaches_one_over_e(inst, k):
    opt = rg.brute_force_joint(inst, k).utility
    runs = rg.randomized_joint_runs(inst, k, [rg.seeded_rng(r) for r in range(100)])
    assert np.mean([sol.utility for sol in runs]) >= E_INV * opt - 1e-12


def assert_runs_match_one_stream_calls(inst, k, seeds):
    """randomized_joint_runs equals one randomized_joint call per fresh copy
    of each stream (picks, utility, policy, and the draws consumed), and
    reversing the streams reverses the runs."""
    rngs = [rg.seeded_rng(s) for s in seeds]
    runs = rg.randomized_joint_runs(inst, k, rngs)
    assert len(runs) == len(seeds)
    for sol, rng, s in zip(runs, rngs, seeds):
        ref_rng = rg.seeded_rng(s)
        ref = rg.randomized_joint(inst, k, ref_rng)
        assert sol.explanations.indices == ref.explanations.indices
        assert repr(sol.utility) == repr(ref.utility)
        assert sol.policy.pi.tolist() == ref.policy.pi.tolist()
        assert rng.integers(2**31) == ref_rng.integers(2**31)
    backward = rg.randomized_joint_runs(
        inst, k, [rg.seeded_rng(s) for s in seeds[::-1]]
    )
    assert [(sol.explanations.indices, repr(sol.utility)) for sol in backward] == [
        (sol.explanations.indices, repr(sol.utility)) for sol in runs[::-1]
    ]


@hypothesis.given(
    instances, st.integers(1, 4), st.lists(st.integers(0, 40), min_size=1, max_size=8)
)
def test_many_runs_equal_one_stream_calls(inst, k, seeds):
    assert_runs_match_one_stream_calls(inst, k, seeds)


@hypothesis.given(
    instances, st.integers(1, 4), st.lists(st.integers(0, 40), min_size=1, max_size=4)
)
def test_slot_first_draw_equals_the_pop_k_loop(inst, k, seeds):
    rngs = [rg.seeded_rng(s) for s in seeds]
    ref_rngs = [rg.seeded_rng(s) for s in seeds]
    runs = rg.randomized_joint_runs(inst, k, rngs)
    refs = ref_pop_k_joint_runs(inst, k, ref_rngs)
    for sol, ref, rng, ref_rng in zip(runs, refs, rngs, ref_rngs, strict=True):
        assert sol.explanations.indices == ref.explanations.indices
        assert repr(sol.utility) == repr(ref.utility)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("seed", range(3))
def test_many_runs_equal_one_stream_calls_at_m200(seed):
    inst = rg.generate_synthetic(rg.SynthConfig(m=200, gamma=0.3, seed=seed))
    assert_runs_match_one_stream_calls(inst, 10, [seed, 7, seed + 100, 7])


@hypothesis.given(instances, st.integers(0, 4))
def test_greedy_reaches_one_minus_one_over_e(inst, k):
    policy = rg.threshold_policy(inst)
    A = rg.greedy_fixed_policy(inst, policy, k)
    if k == 0:
        assert A.indices == ()
    f_opt = rg.utility(inst, policy, rg.brute_force_fixed(inst, policy, k))
    assert rg.utility(inst, policy, A) >= ONE_MINUS_E_INV * f_opt - 1e-12


@pytest.mark.filterwarnings("ignore:capacity")
@hypothesis.given(tie_heavy_instances(2, 10), st.data())
def test_matroid_greedy_reaches_one_half(inst, data):
    policy = rg.threshold_policy(inst)
    split = data.draw(st.integers(1, inst.m - 1))
    matroid = rg.PartitionMatroid(
        groups=(tuple(range(split)), tuple(range(split, inst.m))),
        capacities=(data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))),
    )
    A = rg.greedy_matroid(inst, policy, matroid)
    assert is_feasible(matroid, A.indices)
    ground = rg.ground_set_accepted(inst, policy).indices
    f_opt = max(
        rg.utility(inst, policy, rg.ExplanationSet(combo))
        for size in range(min(len(ground), matroid.k) + 1)
        for combo in combinations(ground, size)
        if is_feasible(matroid, combo)
    )
    assert rg.utility(inst, policy, A) >= 0.5 * f_opt - 1e-12


@hypothesis.given(instances, st.data())
def test_closed_form_policy_matches_enumeration(inst, data):
    A = rg.ExplanationSet(draw_subset(data, rg.ground_set_viable(inst).indices))
    u_star = rg.joint_objective(inst, A)
    _, u_best = rg.exhaustive_best_policy(inst, A)
    assert u_best - 1e-12 <= u_star <= u_best


@hypothesis.given(instances, st.data())
def test_marginal_gains_equal_full_recompute(inst, data):
    viable = rg.ground_set_viable(inst).indices
    hypothesis.assume(viable)
    x = data.draw(st.sampled_from(viable))
    A = rg.ExplanationSet(draw_subset(data, [i for i in viable if i != x]))
    policy = rg.threshold_policy(inst)
    state = fixed_marginal_state(inst, policy, A)
    gain, _ = marginal_gain_fixed(inst, policy, A, state, x)
    Ax = rg.ExplanationSet(A.indices + (x,))
    exact = rg.utility(inst, policy, Ax) - rg.utility(inst, policy, A)
    assert abs(gain - exact) <= 1e-12
    gain, _ = marginal_gain_joint(inst, A, joint_marginal_state(inst, A), x)
    exact = rg.joint_objective(inst, Ax) - rg.joint_objective(inst, A)
    assert abs(gain - exact) <= 1e-12


def draw_monotone_policy(data, inst) -> rg.Policy:
    """A rational policy, stochastic below its top levels: one pi per py
    level, from a grid, nonincreasing as py falls and 0 where py < gamma."""
    levels = sorted(set(inst.py.tolist()), reverse=True)
    grid = st.sampled_from([1.0, 0.75, 0.5, 0.25, 0.0])
    pis = sorted(data.draw(st.lists(grid, min_size=len(levels), max_size=len(levels))))
    pi_of = dict(zip(levels, pis[::-1]))
    return rg.Policy([pi_of[y] if y >= inst.gamma else 0.0 for y in inst.py])


@hypothesis.given(instances, st.integers(0, 4), st.data())
def test_batched_oracles_equal_the_per_set_loop(inst, k, data):
    policy = draw_monotone_policy(data, inst)
    A = rg.ExplanationSet(draw_subset(data, rg.ground_set_viable(inst).indices))
    assert_oracles_match_the_per_set_loop(inst, policy, k, A)


@hypothesis.given(instances, st.data())
def test_one_set_utility_equals_its_batched_row(inst, data):
    # the three batch shapes the oracles use: one policy and (B, c) sets,
    # each set's optimal policy, and (B, m) policies against one set
    policy = draw_monotone_policy(data, inst)
    viable = rg.ground_set_viable(inst).indices
    for size in range(min(3, inst.m) + 1):
        sets = np.array(list(combinations(range(inst.m), size)), dtype=int)
        rows = _responses(inst, policy.pi, sets)[1]
        assert [repr(float(u)) for u in rows] == [
            repr(rg.utility(inst, policy, rg.ExplanationSet(S))) for S in sets
        ]
        sets = np.array(list(combinations(viable, size)), dtype=int)
        if len(sets):
            rows = _responses(inst, _optimal_pi(inst, sets), sets)[1]
            assert [repr(float(u)) for u in rows] == [
                repr(rg.joint_objective(inst, rg.ExplanationSet(S))) for S in sets
            ]
    A = rg.ExplanationSet(draw_subset(data, viable))
    members = np.array(A.indices, dtype=int)
    threshold = rg.threshold_policy(inst).pi
    pis = np.stack([policy.pi, threshold, _optimal_pi(inst, members)])
    rows = _responses(inst, pis, members)[1]
    assert [repr(float(u)) for u in rows] == [
        repr(rg.utility(inst, rg.Policy(pi), A)) for pi in pis
    ]


def assert_state_is(state, ref) -> None:
    near = full_near(state)
    arrays = (near, state.rejected, state.flippable, state.value, state.moving)
    for got, want in zip(arrays, ref):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@hypothesis.given(instances, st.data())
def test_advanced_states_equal_the_closed_form(inst, data):
    policy = draw_monotone_policy(data, inst)
    assert rg.is_outcome_monotonic(inst, policy) and rg.is_rational(inst, policy)
    # members in any order, and for each state one outside its ground set
    for ground, build, ref, message in (
        (
            rg.ground_set_accepted(inst, policy).indices,
            partial(fixed_marginal_state, inst, policy),
            partial(ref_state, inst, policy),
            "the accepted set",
        ),
        (
            rg.ground_set_viable(inst).indices,
            partial(joint_marginal_state, inst),
            partial(ref_state, inst, None),
            "the viable set",
        ),
    ):
        A = rg.ExplanationSet(data.draw(st.permutations(draw_subset(data, ground))))
        assert_state_is(build(A), ref(A))
        outside = [i for i in range(inst.m) if i not in ground]
        if outside:
            extra = data.draw(st.sampled_from(outside))
            with pytest.raises(ValueError, match=message):
                build(rg.ExplanationSet(A.indices + (extra,)))


@hypothesis.given(instances, st.data())
def test_gains_are_byte_identical_to_the_where_kernel(inst, data):
    # a stochastic policy leaves negative terms, which a product mask turns
    # into -0.0; every value outside A is scored, in the ground set or not
    policy = draw_monotone_policy(data, inst)
    for ground, build in (
        (rg.ground_set_accepted(inst, policy).indices,
         partial(fixed_marginal_state, inst, policy)),
        (rg.ground_set_viable(inst).indices, partial(joint_marginal_state, inst)),
    ):
        A = rg.ExplanationSet(data.draw(st.permutations(draw_subset(data, ground))))
        state = build(A)
        xs = [x for x in range(inst.m) if x not in A]
        if xs:
            got, want = _gains(inst, state, xs), ref_where_gains(inst, state, xs)
            assert got.tobytes() == want.tobytes()


def assert_steps_agree(got, want) -> None:
    """Two states hold the same bytes in every array but near."""
    fields = (want.rejected, want.flippable, want.value, want.moving)
    assert_state_is(got, (full_near(got), *fields))


@hypothesis.given(instances, st.data())
def test_the_joint_outcome_order_changes_no_gain_or_step(inst, data):
    # the joint near holds py[x] > py[i]; on the plain reach matrix the
    # kernels that compare outcomes themselves must give the same bytes for
    # every viable candidate outside A, at every state along a random A
    viable = rg.ground_set_viable(inst).indices
    order = data.draw(st.permutations(draw_subset(data, viable)))
    state = joint_marginal_state(inst, rg.ExplanationSet())
    plain = replace(state, near=inst.cost.T <= 1.0)
    for step in range(len(order) + 1):
        assert_steps_agree(state, plain)
        xs = [x for x in viable if x not in order[:step]]
        if xs:
            got, want = _gains(inst, state, xs), ref_where_gains(inst, plain, xs)
            assert got.tobytes() == want.tobytes()
        for x in xs:
            want = ref_ordered_advance(inst, plain, x)
            assert_steps_agree(_advance(inst, state, x), want)
        if step < len(order):
            state = _advance(inst, state, order[step])
            plain = ref_ordered_advance(inst, plain, order[step])


@hypothesis.given(instances, st.data())
def test_both_objectives_are_submodular(inst, data):
    viable = rg.ground_set_viable(inst).indices
    hypothesis.assume(viable)
    x = data.draw(st.sampled_from(viable))
    B = rg.ExplanationSet(draw_subset(data, [i for i in viable if i != x]))
    A = rg.ExplanationSet(draw_subset(data, B.indices))
    policy = rg.threshold_policy(inst)

    def fixed(S):
        return rg.utility(inst, policy, S)

    for f in (fixed, lambda S: rg.joint_objective(inst, S)):
        Ax, Bx = (rg.ExplanationSet(S.indices + (x,)) for S in (A, B))
        assert f(Ax) - f(A) >= f(Bx) - f(B) - 1e-12


@hypothesis.given(instances, st.data())
def test_targets_match_per_individual_loop(inst, data):
    levels = st.sampled_from([0.0, 0.25, 0.5, 1.0])
    policy = rg.Policy(data.draw(st.lists(levels, min_size=inst.m, max_size=inst.m)))
    order = data.draw(st.permutations(range(inst.m)))
    A = rg.ExplanationSet(order[: data.draw(st.integers(0, inst.m))])
    explanation_of, moved = ref_assignment(inst, policy, A)
    assert rg.best_respond(inst, policy, A).moved.tolist() == moved
    assigned = rg.assign_explanations(inst, policy, A)
    assert assigned.tolist() == explanation_of
    targets = _leak_targets(inst, policy, A)
    assert targets[:, 0].tolist() == moved
    np.testing.assert_array_equal(targets[:, 1:], ref_leak_targets(inst, policy, A))


@hypothesis.given(instances, st.integers(0, 4))
def test_min_cost_picks_do_not_depend_on_the_score_block(inst, k):
    policy = rg.threshold_policy(inst)
    want = rg.min_cost_explanations(inst, policy, k).indices
    assert min_cost_one_row_per_block(inst, policy, k) == want
