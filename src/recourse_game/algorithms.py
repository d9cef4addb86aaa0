"""Optimizers for explanation sets and decision policies.

Four solvers: plain greedy for a fixed policy (cardinality budget), its
partition-matroid variant, the closed-form utility-maximizing deterministic
policy for a given explanation set, and the randomized top-k greedy for the
joint problem (whose objective is submodular but non-monotone). Exhaustive
oracles back all of them at desk scale.
"""

from __future__ import annotations

import hashlib
import heapq
import warnings
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations, product

import numpy as np

from .behavior import (
    _fixed_gain,
    best_respond,
    fixed_marginal_state,
    marginal_gain_fixed,
    utility,
)
from .core import (
    ExplanationSet,
    Instance,
    PartitionMatroid,
    Policy,
    ground_set_accepted,
    ground_set_viable,
    is_outcome_monotonic,
    is_rational,
    sort_canonical,
)

# Dummy padding cost: strictly above the unit benefit gain, so dummies never
# enter a region of adaptation and never block an acceptance.
_PAD_COST = 2.0

BRUTE_FORCE_CAP = 20


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from arbitrary (stringified) components.

    Uses sha256, not Python's salted hash, so derived streams are identical
    across processes and platforms.
    """
    blob = "\x1f".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


@dataclass(eq=False)
class RngStream:
    """Seeded, portable random stream (PCG64). Same seed, same draws."""

    seed: int
    _gen: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        self._gen = np.random.Generator(np.random.PCG64(int(self.seed)))

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def integers(self, n: int) -> int:
        return int(self._gen.integers(n))

    def random(self, size=None):
        return self._gen.random(size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self._gen.normal(loc, scale, size)

    def derive(self, *parts) -> "RngStream":
        return RngStream(derive_seed(self.seed, *parts))


@dataclass(frozen=True, eq=False)
class JointSolution:
    """A deterministic policy, its explanation set, and the achieved utility."""

    policy: Policy
    explanations: ExplanationSet
    utility: float


def _check_greedy_policy(instance: Instance, policy: Policy) -> None:
    if not is_rational(instance, policy):
        raise ValueError("policy must reject every value with py < gamma")
    if not (policy.is_deterministic() or is_outcome_monotonic(instance, policy)):
        raise ValueError("stochastic policy must be outcome monotonic")


def _pop_current(heap: list, gain, stamp: int) -> tuple[float, int, int]:
    """Pop the entry (-gain, index, |A| at evaluation) with the largest current
    gain, ties to the lowest index. Stale entries met on the top are
    re-evaluated and pushed back (lazy evaluation, Minoux 1978): for a
    submodular objective a stale gain bounds the current one from above, so
    a current entry on top beats every candidate below it."""
    while heap[0][2] != stamp:
        x = heap[0][1]
        heapq.heapreplace(heap, (-gain(x), x, stamp))
    return heapq.heappop(heap)


def _lazy_greedy(
    instance: Instance, policy: Policy, group_of: dict[int, int], room: list[int]
) -> ExplanationSet:
    """Greedy over the accepted values whose group has room left (`room` is
    consumed in place); stops when no such value has positive gain."""
    state = fixed_marginal_state(instance, policy)
    heap = [
        (-_fixed_gain(instance, state, x), x, 0)
        for x in ground_set_accepted(instance, policy).indices
        if room[group_of[x]] > 0
    ]
    heapq.heapify(heap)
    A = ExplanationSet()
    while heap:
        gain = partial(_fixed_gain, instance, state)
        neg_gain, x, _ = _pop_current(heap, gain, len(A))
        if neg_gain >= 0.0:
            break
        _, state = marginal_gain_fixed(instance, policy, A, state, x)
        A = A.add(x)
        room[group_of[x]] -= 1
        if room[group_of[x]] == 0:
            heap = [e for e in heap if room[group_of[e[1]]] > 0]
            heapq.heapify(heap)
    return A


def greedy_fixed_policy(instance: Instance, policy: Policy, k: int) -> ExplanationSet:
    """Greedy utility maximization of the explanation set at a fixed policy.

    Runs at most k iterations, each adding the accepted value with the
    largest marginal utility (ties: lowest index), and stops early when no
    remaining candidate has positive gain. Gains are O(m) each and evaluated
    lazily: all m once, then only those whose stale bound reaches the top.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    _check_greedy_policy(instance, policy)
    return _lazy_greedy(instance, policy, dict.fromkeys(range(instance.m), 0), [k])


def greedy_matroid(
    instance: Instance, policy: Policy, matroid: PartitionMatroid
) -> ExplanationSet:
    """Greedy explanation selection under a partition-matroid constraint.

    Identical to greedy_fixed_policy except candidates that would exceed
    their group's capacity are skipped; stops when no feasible candidate has
    positive gain. 1/2 approximation for monotone submodular objectives.
    """
    _check_greedy_policy(instance, policy)
    if matroid.m != instance.m:
        raise ValueError("matroid must cover exactly the instance's values")
    for g, cap in zip(matroid.groups, matroid.capacities):
        if cap > len(g):
            warnings.warn(
                f"capacity {cap} exceeds group size {len(g)}; effectively capped",
                stacklevel=2,
            )
    group_of = {i: g for g, members in enumerate(matroid.groups) for i in members}
    return _lazy_greedy(instance, policy, group_of, list(matroid.capacities))


def optimal_policy_for(instance: Instance, A: ExplanationSet) -> Policy:
    """The deterministic policy maximizing utility among all policies that
    accept every member of A.

    Accepts x iff x is in A, or x is viable (py >= gamma) and no member of A
    offers a strictly better outcome at adaptation cost <= 1 (the benefit
    gained by moving from rejection to acceptance). Rejecting such an x is
    what pushes her to adapt upward.
    """
    py, cost, gamma = instance.py, instance.cost, instance.gamma
    viable = py >= gamma
    a_idx = np.fromiter(A.indices, dtype=int) if len(A) else np.empty(0, dtype=int)
    if np.any(~viable[a_idx]):
        raise ValueError("explanations must come from the viable set")
    if len(A):
        blocked = (
            (py[a_idx][None, :] > py[:, None]) & (cost[:, a_idx] <= 1.0)
        ).any(axis=1)
    else:
        blocked = np.zeros(instance.m, dtype=bool)
    pi = (viable & ~blocked).astype(float)
    pi[a_idx] = 1.0
    return Policy(pi)


def joint_objective(instance: Instance, A: ExplanationSet) -> float:
    """h(A): utility of A under its own optimal policy."""
    return utility(instance, optimal_policy_for(instance, A), A)


@dataclass(frozen=True, eq=False)
class JointMarginalState:
    """Per-individual cache for O(m) marginal differences of h at A."""

    pi: np.ndarray
    in_a: np.ndarray
    value: np.ndarray
    moving: np.ndarray


def joint_marginal_state(instance: Instance, A: ExplanationSet) -> JointMarginalState:
    policy = optimal_policy_for(instance, A)
    res = best_respond(instance, policy, A)
    value = policy.pi[res.moved] * (instance.py[res.moved] - instance.gamma)
    moving = res.moved != np.arange(instance.m)
    in_a = np.zeros(instance.m, dtype=bool)
    for a in A:
        in_a[a] = True
    return JointMarginalState(pi=policy.pi, in_a=in_a, value=value, moving=moving)


def _joint_masks(instance: Instance, state: JointMarginalState, x: int):
    py, cost = instance.py, instance.cost
    # Accepted values newly outranked by x flip to rejection and adapt to x.
    flips = (
        (state.pi == 1.0)
        & ~state.in_a
        & (py[x] > py)
        & (cost[:, x] <= 1.0)
    )
    reachable = (state.pi == 0.0) & (cost[:, x] <= 1.0)
    reachable[x] = False
    return flips, reachable


def _joint_gain(instance: Instance, state: JointMarginalState, x: int) -> float:
    px, py, gamma = instance.px, instance.py, instance.gamma
    base = py[x] - gamma
    flips, reachable = _joint_masks(instance, state, x)
    gain = px[x] * (base - state.value[x])
    gain += float(np.sum(px[flips] * (base - state.value[flips])))
    delta = np.where(
        state.moving, np.maximum(base - state.value, 0.0), base - state.value
    )
    gain += float(np.sum(px[reachable] * delta[reachable]))
    return float(gain)


def marginal_gain_joint(
    instance: Instance, A: ExplanationSet, state: JointMarginalState, x: int
) -> tuple[float, JointMarginalState]:
    """h(A ∪ {x}) - h(A) in O(m), plus the state for A ∪ {x}."""
    if x in A:
        raise ValueError(f"candidate {x} already in A")
    base = instance.py[x] - instance.gamma
    gain = _joint_gain(instance, state, x)
    flips, reachable = _joint_masks(instance, state, x)

    pi = state.pi.copy()
    pi[x] = 1.0
    pi[flips] = 0.0
    in_a = state.in_a.copy()
    in_a[x] = True
    value = state.value.copy()
    moving = state.moving.copy()
    value[x], moving[x] = base, False
    value[flips], moving[flips] = base, True
    takes = reachable & (~state.moving | (base > state.value))
    value[takes], moving[takes] = base, True
    return gain, JointMarginalState(pi=pi, in_a=in_a, value=value, moving=moving)


def _padded_instance(instance: Instance, k: int) -> tuple[Instance, np.ndarray]:
    """Append 2k zero-mass values with outcome exactly gamma and cost 2 in
    both directions, then re-sort canonically. Their marginal contribution to
    h is identically zero, which keeps the top-k candidate pool full."""
    m, pad = instance.m, 2 * k
    px = np.concatenate([instance.px, np.zeros(pad)])
    py = np.concatenate([instance.py, np.full(pad, instance.gamma)])
    cost = np.full((m + pad, m + pad), _PAD_COST)
    cost[:m, :m] = instance.cost
    np.fill_diagonal(cost, 0.0)
    return sort_canonical(px, py, cost, instance.gamma)


def randomized_joint(instance: Instance, k: int, rng: RngStream) -> JointSolution:
    """Randomized greedy for the joint policy/explanations problem.

    Each of the k iterations ranks remaining viable candidates (including the
    zero-marginal padding values) by marginal difference of h, ties broken by
    lowest index, and adds one drawn uniformly from the top k. Padding values
    are stripped from the result; the expected utility is within a factor
    1/e of optimal.

    h is submodular (though not monotone), so stale gains stay upper bounds
    and k lazy pops yield exactly the top k in (-gain, index) order: the draw
    picks what a full ranking would.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    aug, perm = _padded_instance(instance, k)
    A = ExplanationSet()
    state = joint_marginal_state(aug, A)
    heap = [
        (-_joint_gain(aug, state, x), x, 0)
        for x in np.flatnonzero(aug.py >= aug.gamma).tolist()
    ]
    heapq.heapify(heap)
    for _ in range(k):
        # the padding keeps at least k + 1 candidates in the heap
        gain = partial(_joint_gain, aug, state)
        pool = [_pop_current(heap, gain, len(A)) for _ in range(k)]
        pick = pool.pop(rng.integers(len(pool)))[1]
        for entry in pool:
            heapq.heappush(heap, entry)
        _, state = marginal_gain_joint(aug, A, state, pick)
        A = A.add(pick)

    original = [int(perm[a]) for a in A if int(perm[a]) < instance.m]
    result = ExplanationSet(tuple(original))
    policy = optimal_policy_for(instance, result)
    return JointSolution(
        policy=policy, explanations=result, utility=utility(instance, policy, result)
    )


def brute_force_fixed(instance: Instance, policy: Policy, k: int) -> ExplanationSet:
    """Exhaustive maximizer of utility over A ⊆ P_pi, |A| <= k.

    Verification oracle only; refuses ground sets above BRUTE_FORCE_CAP.
    Ties resolve to the lexicographically smallest index tuple.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    ground = sorted(ground_set_accepted(instance, policy).indices)
    if len(ground) > BRUTE_FORCE_CAP:
        raise ValueError(f"ground set too large for brute force (> {BRUTE_FORCE_CAP})")
    best_u, best = -np.inf, ()
    for size in range(0, min(k, len(ground)) + 1):
        for combo in combinations(ground, size):
            u = utility(instance, policy, ExplanationSet(combo))
            if u > best_u or (u == best_u and combo < best):
                best_u, best = u, combo
    return ExplanationSet(best)


def brute_force_joint(instance: Instance, k: int) -> JointSolution:
    """Exhaustive maximizer of h over A ⊆ viable set, |A| <= k.

    Only explanation sets are enumerated; the policy for each candidate A is
    the closed-form optimum, so this is a valid oracle for the joint problem.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    ground = sorted(ground_set_viable(instance).indices)
    if len(ground) > BRUTE_FORCE_CAP:
        raise ValueError(f"ground set too large for brute force (> {BRUTE_FORCE_CAP})")
    best_u, best = -np.inf, ()
    for size in range(0, min(k, len(ground)) + 1):
        for combo in combinations(ground, size):
            u = joint_objective(instance, ExplanationSet(combo))
            if u > best_u or (u == best_u and combo < best):
                best_u, best = u, combo
    A = ExplanationSet(best)
    return JointSolution(
        policy=optimal_policy_for(instance, A), explanations=A, utility=best_u
    )


def exhaustive_best_policy(
    instance: Instance, A: ExplanationSet
) -> tuple[Policy, float]:
    """Best deterministic policy accepting all of A, by full enumeration.

    2^(m - |A|) evaluations; oracle for validating optimal_policy_for.
    """
    free = np.array([i for i in range(instance.m) if i not in A], dtype=int)
    if free.size > BRUTE_FORCE_CAP:
        raise ValueError("too many free positions for exhaustive enumeration")
    base = np.zeros(instance.m)
    for a in A:
        base[a] = 1.0
    best_policy, best_u = None, -np.inf
    for bits in product((0.0, 1.0), repeat=free.size):
        pi = base.copy()
        pi[free] = bits
        cand = Policy(pi)
        u = utility(instance, cand, A)
        if u > best_u:
            best_policy, best_u = cand, u
    return best_policy, float(best_u)
