import heapq
import tracemalloc
from dataclasses import replace
from functools import partial
from itertools import combinations

import numpy as np
import pytest

import recourse_game as rg
from recourse_game import algorithms, baselines
from recourse_game.behavior import _advance, adaptation_matrix, joint_marginal_state
from recourse_game.checks import (
    nonmonotone_witness,
    set_cover_witness,
    two_group_witness,
)

# The grids of tie-heavy instances: py on a grid that includes every gamma,
# and costs that sit exactly on the unit benefit or are unreachable.
TIE_GAMMAS = [0.25, 0.5, 0.75]
TIE_PY = [0.0, 0.25, 0.5, 0.75, 1.0]
TIE_COSTS = [0.0, 0.5, 1.0, 1.5, np.inf]

try:
    import hypothesis
except ImportError:
    hypothesis = None
else:
    # Property tests replay the same examples on every run and machine.
    hypothesis.settings.register_profile(
        "derandomized", derandomize=True, database=None, deadline=None
    )
    hypothesis.settings.load_profile("derandomized")
    st = hypothesis.strategies

    @st.composite
    def tie_heavy_instances(draw, min_m=1, max_m=10):
        """Instances on the tie-heavy grids, with zero-mass values; the
        viable set may be empty."""
        m = draw(st.integers(min_m, max_m))
        py = sorted(draw(st.lists(st.sampled_from(TIE_PY), min_size=m, max_size=m)))
        px = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
        px[0] += sum(px) == 0
        levels = st.sampled_from(TIE_COSTS)
        cost = np.array(draw(st.lists(levels, min_size=m * m, max_size=m * m)))
        cost = cost.reshape(m, m)
        np.fill_diagonal(cost, 0.0)
        gamma = draw(st.sampled_from(TIE_GAMMAS))
        return rg.make_instance(np.divide(px, sum(px)), py[::-1], cost, gamma)


@pytest.fixture
def nonmono() -> rg.Instance:
    """Three-value instance whose joint objective is non-monotone."""
    return nonmonotone_witness()


@pytest.fixture
def setcover():
    """(instance, policy) for the two-element set-cover reduction."""
    return set_cover_witness()


@pytest.fixture
def two_group():
    """(instance, matroid) with nearly all rejected mass in group 1."""
    return two_group_witness()


def random_instance(
    rng: np.random.Generator, m: int, gamma: float | None = None
) -> rg.Instance:
    g = gamma if gamma is not None else float(rng.uniform(0.15, 0.85))
    return rg.generate_synthetic(rg.SynthConfig(m=m, gamma=g, seed=rng.integers(2**62)))


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc sees allocated while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def min_cost_one_row_per_block(inst: rg.Instance, policy, k: int) -> tuple:
    """min_cost_explanations' picks with its score buffer cut to one row."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(baselines, "_SCORE_BYTES", 1)
        return rg.min_cost_explanations(inst, policy, k).indices


def subset(rng: np.random.Generator, items, p: float = 0.5) -> tuple[int, ...]:
    return tuple(i for i in items if rng.random() < p)


def tie_heavy_instance(rng: np.random.Generator, m: int) -> rg.Instance:
    """Instance built to produce exact ties: py on a grid that includes
    gamma, px on a small integer grid with zero-mass values, and costs drawn
    from {0, 0.5, 1, 1.5, inf}."""
    gamma = float(rng.choice(TIE_GAMMAS))
    py = np.sort(rng.choice(TIE_PY, size=m))[::-1]
    px = rng.integers(0, 4, size=m).astype(float)
    if px.sum() == 0.0:
        px[0] = 1.0
    cost = rng.choice(TIE_COSTS, size=(m, m))
    np.fill_diagonal(cost, 0.0)
    return rg.make_instance(px / px.sum(), py, cost, gamma)


def graded_policy(rng: np.random.Generator, inst: rg.Instance) -> rg.Policy:
    """A stochastic policy that is rational and outcome monotonic, ties
    included: acceptance grows with py - gamma, from 0 to 1 at a drawn
    slope."""
    slope = rng.uniform(1.0, 3.0) / (1.0 - inst.gamma)
    return rg.Policy(np.clip(slope * (inst.py - inst.gamma), 0.0, 1.0))


def is_feasible(matroid: rg.PartitionMatroid, indices) -> bool:
    """True iff indices take at most each group's capacity from it."""
    chosen = set(indices)
    return all(
        len(chosen & set(g)) <= c for g, c in zip(matroid.groups, matroid.capacities)
    )


def equivalence_cases(tag: str, n: int = 200):
    """n seeded (instance, k) pairs with m in [4, 60]: every other one is
    tie-heavy, the rest come from the synthetic generator."""
    rng = rg.seeded_rng(rg.derive_seed(0, tag))
    for t in range(n):
        m = 4 + rng.integers(57)
        inst = tie_heavy_instance(rng, m) if t % 2 else random_instance(rng, m)
        yield inst, 1 + rng.integers(4)


def full_near(state) -> np.ndarray:
    """A marginal state's reach matrix over all m values, the form the
    references read: near's columns at the state's cols, False elsewhere."""
    m = state.value.size
    near = np.zeros((m, m), dtype=bool)
    near[:, state.cols] = state.near
    return near


# The per-candidate gain kernels that the batched one replaced, reading the
# merged state: compressed sums over the affected individuals only. Zero
# terms change the summation tree, so they agree with the batched kernel to
# a few ulp, not bit for bit.

def ref_fixed_gain(inst: rg.Instance, state, x: int) -> float:
    base = inst.py[x] - inst.gamma
    affected = full_near(state)[x] & state.rejected
    delta = np.where(
        state.moving, np.maximum(base - state.value, 0.0), base - state.value
    )
    return float(np.sum(inst.px[affected] * delta[affected]))


def ref_joint_gain(inst: rg.Instance, state, x: int) -> float:
    px, py = inst.px, inst.py
    base = py[x] - inst.gamma
    near = full_near(state)[x]
    flips = state.flippable & (py[x] > py) & near
    reachable = state.rejected & near
    reachable[x] = False
    gain = px[x] * (base - state.value[x])
    gain += float(np.sum(px[flips] * (base - state.value[flips])))
    delta = np.where(
        state.moving, np.maximum(base - state.value, 0.0), base - state.value
    )
    gain += float(np.sum(px[reachable] * delta[reachable]))
    return float(gain)


# The batched kernel before its masks became products: np.where fills the
# masked entries with +0.0. _gains must return the same bytes.

def ref_where_gains(inst: rg.Instance, state, xs) -> np.ndarray:
    px, py = inst.px, inst.py
    xs = np.asarray(xs, dtype=int)
    base = py[xs] - inst.gamma
    floor = np.where(state.moving, 0.0, -np.inf)
    term = px * np.maximum(base[:, None] - state.value, floor)
    near = full_near(state)[xs]
    gain = px[xs] * (base - state.value[xs])
    if state.flippable.any():
        flips = near & state.flippable & (py[xs, None] > py)
        gain += np.where(flips, term, 0.0).sum(axis=1)
    reach = near & state.rejected
    reach[np.arange(xs.size), xs] = False
    return gain + np.where(reach, term, 0.0).sum(axis=1)


def ref_where_coverage(inst: rg.Instance, state, xs) -> np.ndarray:
    """The coverage kernel on the full-width near: a zero-filled sum over
    all m values."""
    mask = full_near(state)[np.asarray(xs, dtype=int)] & state.rejected
    return np.where(mask & ~state.moving, inst.px, 0.0).sum(axis=1)


# The step before the joint reach matrix held the outcome order: its flip
# test compares outcomes itself. Read with the plain reach matrix
# cost.T <= 1, it must give what _advance gives on the joint state's.

def ref_ordered_advance(inst: rg.Instance, state, x: int):
    py = inst.py
    base = py[x] - inst.gamma
    near = full_near(state)[x]
    flips = near & state.flippable & (py[x] > py)
    takes = near & state.rejected & (~state.moving | (base > state.value))
    takes[x] = False
    value = np.where(flips | takes, base, state.value)
    moving = state.moving | flips | takes
    rejected = state.rejected | flips
    flippable = state.flippable & ~flips
    value[x], moving[x], rejected[x], flippable[x] = base, False, False, False
    return replace(
        state, rejected=rejected, flippable=flippable, value=value, moving=moving
    )


# The joint greedy's loop before the slot-first draw: each iteration pops
# the top k, then draws its slot. It scores gains through algorithms._gains,
# looked up per call, so a test can count its rows.

def ref_pop_k_joint_runs(inst: rg.Instance, k: int, rngs) -> list:
    start = joint_marginal_state(inst, rg.ExplanationSet())
    first_heap = [(-np.inf, x, -1) for x in rg.ground_set_viable(inst).indices]
    gains = partial(algorithms._gains, inst, start)
    for entry in algorithms._pop_best(first_heap, gains, 0, k):
        heapq.heappush(first_heap, entry)
    runs = []
    for rng in rngs:
        state, heap, A = start, list(first_heap), []
        for _ in range(k):
            gains = partial(algorithms._gains, inst, state)
            pool = algorithms._pop_best(heap, gains, len(A), k)
            slot = rng.integers(k)
            if slot < len(pool) and pool[slot][0] <= 0.0:
                pick = pool.pop(slot)[1]
                state = _advance(inst, state, pick)
                A.append(pick)
            for entry in pool:
                heapq.heappush(heap, entry)
        runs.append(algorithms._joint_solution(inst, tuple(A)))
    return runs


# The exhaustive oracles before they scored sets in batches: one utility()
# call per set, each size's sets in lexicographic order. The batched
# oracles must pick the same set or policy at the same utility bits.

def ref_best_subset(ground, k: int, score) -> tuple:
    best_u, best = -np.inf, ()
    for size in range(0, min(k, len(ground)) + 1):
        for combo in combinations(sorted(ground), size):
            u = score(rg.ExplanationSet(combo))
            if u > best_u or (u == best_u and combo < best):
                best_u, best = u, combo
    return rg.ExplanationSet(best), best_u


def ref_brute_force_fixed(inst: rg.Instance, policy, k: int) -> rg.ExplanationSet:
    ground = rg.ground_set_accepted(inst, policy).indices
    return ref_best_subset(ground, k, partial(rg.utility, inst, policy))[0]


def ref_brute_force_joint(inst: rg.Instance, k: int):
    ground = rg.ground_set_viable(inst).indices
    A, _ = ref_best_subset(ground, k, partial(rg.joint_objective, inst))
    return algorithms._joint_solution(inst, A.indices)


def ref_exhaustive_best_policy(inst: rg.Instance, A) -> tuple:
    def accepting(extra):
        pi = np.zeros(inst.m)
        pi[list(A.indices + extra.indices)] = 1.0
        return rg.Policy(pi)

    free = [i for i in range(inst.m) if i not in A]
    extra, best_u = ref_best_subset(
        free, len(free), lambda E: rg.utility(inst, accepting(E), A)
    )
    return accepting(extra), best_u


def assert_oracles_match_the_per_set_loop(inst: rg.Instance, policy, k: int, A) -> None:
    """The three batched oracles pick what their references pick, at the
    same utility bits."""
    got = rg.brute_force_fixed(inst, policy, k)
    assert got.indices == ref_brute_force_fixed(inst, policy, k).indices
    sol, ref = rg.brute_force_joint(inst, k), ref_brute_force_joint(inst, k)
    assert sol.explanations.indices == ref.explanations.indices
    assert sol.policy.pi.tobytes() == ref.policy.pi.tobytes()
    assert repr(sol.utility) == repr(ref.utility)
    (best, u), (ref_best, ref_u) = (
        rg.exhaustive_best_policy(inst, A),
        ref_exhaustive_best_policy(inst, A),
    )
    assert best.pi.tobytes() == ref_best.pi.tobytes()
    assert repr(u) == repr(ref_u)


# The closed form that the marginal states were once built from: everyone's
# best response at A, read off best_respond.

def ref_state(inst: rg.Instance, policy, A) -> tuple:
    """(near, rejected, flippable, value, moving) at A for utility(policy, ·),
    or, with policy None, for h under optimal_policy_for(A), whose near
    also holds the outcome order py[x] > py[i]. near is full_near's m x m
    form: at a fixed policy, False outside the rejected columns."""
    joint = policy is None
    if joint:
        policy = rg.optimal_policy_for(inst, A)
        near = (inst.cost.T <= 1.0) & (inst.py[:, None] > inst.py)
        flippable = policy.pi == 1.0
        flippable[list(A.indices)] = False
    else:
        near = adaptation_matrix(inst, policy).T & (policy.pi < 1.0)
        flippable = np.zeros(inst.m, dtype=bool)
    moved = rg.best_respond(inst, policy, A).moved
    value = policy.pi[moved] * (inst.py[moved] - inst.gamma)
    return near, policy.pi < 1.0, flippable, value, moved != np.arange(inst.m)


def column_set_cases(n: int = 40):
    """(name, instance, policy) on small instances, one of each set of
    columns that a fixed-policy state can hold: none (a policy that rejects
    nothing), every value (one that accepts nothing), rejected values that
    are not a suffix (accepts 0 and 2, rejects 1 and the rest) and the
    rejected values of a stochastic monotone policy. Every other instance
    is tie-heavy."""
    rng = rg.seeded_rng(rg.derive_seed(0, "column-sets"))
    for t in range(n):
        m = 3 + int(rng.integers(10))
        inst = tie_heavy_instance(rng, m) if t % 2 else random_instance(rng, m)
        # outcomes moved above gamma = 0.25: every value is viable
        viable = rg.make_instance(inst.px, 0.5 + inst.py / 2, inst.cost, 0.25)
        some = np.zeros(m)
        some[[0, 2]] = 1.0
        # one acceptance probability per outcome, 1 from top up, 0 below gamma
        top, gamma = (1.0 + inst.gamma) / 2, inst.gamma
        graded = 0.9 * (inst.py - gamma) / (top - gamma)
        graded = np.where(inst.py >= gamma, graded, 0.0)
        yield "rejects nothing", viable, rg.Policy(np.ones(m))
        yield "accepts nothing", inst, rg.Policy(np.zeros(m))
        yield "not a suffix", viable, rg.Policy(some)
        yield "stochastic", inst, rg.Policy(np.where(inst.py >= top, 1.0, graded))


# The per-individual leakage loops that the vectorized target table
# replaced: they agree with leakage_utility and leakage_utility_mc bit for
# bit.

def ref_preferred_target(inst: rg.Instance, policy: rg.Policy, i: int, options) -> int:
    pi, py, cost = policy.pi, inst.py, inst.cost
    best, best_key = i, None
    for j in options:
        if pi[j] - cost[i, j] >= pi[i]:
            key = (pi[j] - cost[i, j], -cost[i, j], py[j], -j)
            if best_key is None or key > best_key:
                best, best_key = j, key
    return best


def ref_leakage_utility(inst: rg.Instance, policy: rg.Policy, A, p_l: float) -> float:
    if len(A) == 0:
        return rg.utility(inst, policy, A)
    pi, py, px, gamma = policy.pi, inst.py, inst.px, inst.gamma
    assignment, _ = ref_assignment(inst, policy, A)
    a_idx = list(A.indices)

    def contribution(target: int) -> float:
        return pi[target] * (py[target] - gamma)

    value = np.empty(inst.m)
    for i in range(inst.m):
        if pi[i] == 1.0:
            value[i] = contribution(i)
            continue
        e = assignment[i]
        base_target = ref_preferred_target(inst, policy, i, [e])
        if p_l == 0.0:
            value[i] = contribution(base_target)
            continue
        targets = [ref_preferred_target(inst, policy, i, [e, x]) for x in a_idx]
        if all(t == base_target for t in targets):
            value[i] = contribution(base_target)
        else:
            mix = sum(contribution(t) for t in targets) / len(a_idx)
            value[i] = (1.0 - p_l) * contribution(base_target) + p_l * mix
    return float(np.sum(px * value))


def ref_leak_payoff(inst: rg.Instance, policy: rg.Policy, A) -> np.ndarray:
    """m x (1 + |A|) payoff table: column 0 for the assigned explanation
    only, column 1 + c for the assigned one plus leaked A[c]."""
    pi, py, gamma = policy.pi, inst.py, inst.gamma
    assignment, _ = ref_assignment(inst, policy, A)
    a_idx = list(A.indices)
    payoff = np.empty((inst.m, 1 + len(a_idx)))
    for i in range(inst.m):
        if pi[i] == 1.0:
            payoff[i, :] = pi[i] * (py[i] - gamma)
            continue
        e = assignment[i]
        t0 = ref_preferred_target(inst, policy, i, [e] if e >= 0 else [])
        payoff[i, 0] = pi[t0] * (py[t0] - gamma)
        for c, x in enumerate(a_idx):
            t = ref_preferred_target(inst, policy, i, [e, x])
            payoff[i, 1 + c] = pi[t] * (py[t] - gamma)
    return payoff


# The per-individual loop that the shared target pass replaced: who gets
# which explanation, and who follows it.

def ref_assignment(inst: rg.Instance, policy: rg.Policy, A) -> tuple[list, list]:
    """(explanation_of, moved). A rejected i is assigned the member of A in
    her region of adaptation with the largest (py[j], -cost[i, j], -j) and
    follows it; with none there she is assigned the one with the smallest
    (cost[i, j], j) and stays. Accepted individuals get none and stay."""
    pi, py, cost = policy.pi, inst.py, inst.cost
    explanation_of, moved = [], []
    for i in range(inst.m):
        reachable = [j for j in A if pi[j] - cost[i, j] >= pi[i]]
        if pi[i] == 1.0 or len(A) == 0:
            e = rg.NO_EXPLANATION
        elif reachable:
            e = max(reachable, key=lambda j: (py[j], -cost[i, j], -j))
        else:
            e = min(A, key=lambda j: (cost[i, j], j))
        explanation_of.append(e)
        moved.append(e if e in reachable else i)
    return explanation_of, moved


def ref_leak_targets(inst: rg.Instance, policy: rg.Policy, A) -> np.ndarray:
    """m x |A| table: i's target when she knows her assigned explanation
    and A[c]."""
    explanation_of, _ = ref_assignment(inst, policy, A)
    leaked = [
        [
            i if policy.pi[i] == 1.0
            else ref_preferred_target(inst, policy, i, [explanation_of[i], x])
            for x in A
        ]
        for i in range(inst.m)
    ]
    return np.array(leaked, dtype=int).reshape(inst.m, len(A))
