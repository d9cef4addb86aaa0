"""Optimizers for explanation sets and decision policies.

Four solvers: plain greedy for a fixed policy (cardinality budget), its
partition-matroid variant, the closed-form utility-maximizing deterministic
policy for a given explanation set, and the randomized top-k greedy for the
joint problem (whose objective is submodular but non-monotone). Exhaustive
oracles back all of them at desk scale.
"""

from __future__ import annotations

import heapq
import warnings
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from functools import partial
from itertools import chain, combinations, islice, repeat
from math import comb

import numpy as np

from .behavior import (  # marginal_gain_joint is re-exported for algorithms.*
    MarginalState,
    _advance,
    _check_drawn_from,
    _cost_to,
    _gains,
    _ix,
    _members,
    _responses,
    fixed_marginal_state,
    joint_marginal_state,
    marginal_gain_joint,
    utility,
)
from .core import (
    ExplanationSet,
    Instance,
    PartitionMatroid,
    Policy,
    _check_matroid_size,
    _counts,
    ground_set_accepted,
    ground_set_viable,
    is_outcome_monotonic,
    is_rational,
)

BRUTE_FORCE_CAP = 20

# Fewest candidates per kernel call in a refresh; 16 to 64 were fastest at
# m=200 and m=1000 (1 was 5x slower).
_GREEDY_BLOCK = 32

# Most sets per chunk of the exhaustive oracles, so their batch temporaries
# stay flat however many sets there are: a chunk's largest arrays hold this
# many times m x |members| values (2.5 MB in all at the cap, m=22, |A|=2).
_SUBSET_BLOCK = 1024


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


def _pop_best(heap: list, gains, stamp: int, n: int) -> list:
    """Pop the n entries (-gain, index, |A| at evaluation) with the largest
    current gains, in (-gain, index) order, or every entry if fewer remain.

    Lazy evaluation (Minoux 1978): a stale gain of a submodular objective
    bounds the current one from above, so a current entry on top beats all
    below it. A stale top triggers one `gains` call on the stale entries
    among the top max(n, _GREEDY_BLOCK), which changes no gain and so not
    the result. This is the one place where the lazy solvers score gains.
    """
    pool = []
    while heap and len(pool) < n:
        if heap[0][2] == stamp:
            pool.append(heapq.heappop(heap))
            continue
        width = min(max(n, _GREEDY_BLOCK), len(heap))
        top = [heapq.heappop(heap) for _ in range(width)]
        stale = [x for _, x, s in top if s != stamp]
        fresh = zip((-gains(stale)).tolist(), stale, repeat(stamp))
        for entry in chain((e for e in top if e[2] == stamp), fresh):
            heapq.heappush(heap, entry)
    return pool


def _lazy_greedy(
    instance: Instance, state: MarginalState, kernel, group_of, caps: tuple[int, ...]
) -> ExplanationSet:
    """Greedy from the marginal state at ∅ over the values x it does not reject, with
    room left in group group_of[x] (of caps[g] in group g), scored by kernel(instance,
    state, xs), which must not grow with A; stops when none has positive gain."""
    room = list(caps)
    ground = np.flatnonzero(~state.rejected).tolist()
    # every candidate stale at an infinite bound; in index order, a heap
    heap = [(-np.inf, x, -1) for x in ground if room[group_of[x]] > 0]
    A: list[int] = []
    while heap:
        gains = partial(kernel, instance, state)
        [(neg_gain, x, _)] = _pop_best(heap, gains, len(A), 1)
        if neg_gain >= 0.0:
            break
        state = _advance(instance, state, x)
        A.append(x)
        room[group_of[x]] -= 1
        if room[group_of[x]] == 0:
            heap = [e for e in heap if room[group_of[e[1]]] > 0]
            heapq.heapify(heap)
    return ExplanationSet(tuple(A))


def greedy_fixed_policy(instance: Instance, policy: Policy, k: int) -> ExplanationSet:
    """Greedy utility maximization of the explanation set at a fixed policy.

    Runs at most k iterations, each adding the accepted value with the
    largest marginal utility (ties: lowest index), and stops early when no
    remaining candidate has positive gain. Gains are O(m) each and evaluated
    lazily, in blocks: all m once, then those whose stale bound nears the top.
    """
    _check_greedy_policy(instance, policy)
    state = fixed_marginal_state(instance, policy)
    return _lazy_greedy(instance, state, _gains, [0] * instance.m, _counts([k], "k"))


def greedy_matroid(
    instance: Instance, policy: Policy, matroid: PartitionMatroid
) -> ExplanationSet:
    """Greedy explanation selection under a partition-matroid constraint.

    Identical to greedy_fixed_policy except candidates that would exceed
    their group's capacity are skipped; stops when no feasible candidate has
    positive gain. 1/2 approximation for monotone submodular objectives.
    """
    _check_greedy_policy(instance, policy)
    _check_matroid_size(matroid, instance.m)
    for g, cap in zip(matroid.groups, matroid.capacities):
        if cap > len(g):
            warnings.warn(
                f"capacity {cap} exceeds group size {len(g)}; effectively capped",
                stacklevel=2,
            )
    group_of = {i: g for g, members in enumerate(matroid.groups) for i in members}
    state = fixed_marginal_state(instance, policy)
    return _lazy_greedy(instance, state, _gains, group_of, matroid.capacities)


def optimal_policy_for(instance: Instance, A: ExplanationSet) -> Policy:
    """The deterministic policy maximizing utility among all policies that
    accept every member of A.

    Accepts x iff x is in A, or x is viable (py >= gamma) and no member of A
    offers a strictly better outcome at adaptation cost <= 1 (the benefit
    gained by moving from rejection to acceptance). Rejecting such an x is
    what pushes her to adapt upward.
    """
    return Policy(_optimal_pi(instance, _members(instance, A)))


def _optimal_pi(instance: Instance, a_idx: np.ndarray) -> np.ndarray:
    """optimal_policy_for's pi for members a_idx, (c,) or (B, c): one row of
    acceptance probabilities per set."""
    py, gamma = instance.py, instance.gamma
    viable = py >= gamma
    _check_drawn_from(a_idx, viable, "viable")
    better = py[a_idx][..., None, :] > py[:, None]
    blocked = (better & (_cost_to(instance, a_idx) <= 1.0)).any(axis=-1)
    pi = (viable & ~blocked).astype(float)
    pi[_ix(pi, a_idx)] = 1.0
    return pi


def joint_objective(instance: Instance, A: ExplanationSet) -> float:
    """h(A): utility of A under its own optimal policy."""
    return float(_joint_scores(instance, _members(instance, A)))


def _fixed_scores(instance: Instance, policy: Policy, a_idx: np.ndarray):
    """utility(policy, ·) of members a_idx, (c,) or (B, c): one per set."""
    return _responses(instance, policy.pi, a_idx)[1]


def _joint_scores(instance: Instance, a_idx: np.ndarray):
    """h of members a_idx, (c,) or (B, c), each set under its optimal policy."""
    return _responses(instance, _optimal_pi(instance, a_idx), a_idx)[1]


def _joint_solution(instance: Instance, picks: tuple[int, ...]) -> JointSolution:
    """The picks under their optimal policy, scored once."""
    A = ExplanationSet(picks)
    policy = optimal_policy_for(instance, A)
    return JointSolution(policy, A, utility(instance, policy, A))


def randomized_joint_runs(
    instance: Instance, k: int, rngs: Iterable[np.random.Generator]
) -> list[JointSolution]:
    """Randomized greedy for the joint policy/explanations problem, one run
    per stream in rngs.

    Each of the k iterations ranks the remaining viable candidates by
    marginal difference of h, ties broken by lowest index, and draws one of
    k slots uniformly; the expected utility is within a factor 1/e of
    optimal (Buchbinder, Feldman, Naor & Schwartz 2014). The slots hold the
    candidates with nonnegative gain in rank order; any slot left over holds
    one of the algorithm's 2k zero-gain dummy values, and drawing it adds
    nothing. The dummies stay virtual: a real candidate of gain 0 ranks
    ahead of them by index, and at least k + 1 of them remain, so a
    candidate of negative gain is never drawn.

    h is submodular (though not monotone), so stale gains stay upper bounds.
    Each iteration draws its slot first and pops only slot + 1 entries: the
    lazy pool is exactly the top slot + 1 in (-gain, index) order, so the
    draw picks what a full ranking would. A refresh scores the stale entries
    among the top max(slot + 1, _GREEDY_BLOCK) in one kernel call. Each run
    takes exactly k draws from its stream, so `seeded_rng(seed)` makes it
    reproducible; at k = 0 it builds no state and publishes ∅ under
    optimal_policy_for(∅), the threshold policy.

    A run's picks depend only on its k slots, so each stream draws all k
    first, streams in order, and every slot prefix that two or more streams
    drew is stepped once: a run resumes from a copy of the heap stored after
    its deepest such prefix, ∅ included (stored unscored, like any new heap),
    and a one-stream call stores nothing else. Runs that pick the same
    explanations in the same order share one JointSolution, scored once.
    """
    (k,) = _counts([k], "k")
    if k == 0:  # no state and no draws: every run publishes the empty set
        return [_joint_solution(instance, ())] * len(list(rngs))
    start = joint_marginal_state(instance, ExplanationSet())
    first_heap = [(-np.inf, x, -1) for x in np.flatnonzero(~start.rejected).tolist()]
    draws = [tuple(rng.integers(k, size=k).tolist()) for rng in rngs]
    shared = Counter(slots[:i] for slots in draws for i in range(1, k + 1))
    stepped = {(): (start, first_heap, ())}  # slot prefix -> (state, heap, picks)
    solved: dict[tuple[int, ...], JointSolution] = {}
    runs = []
    for slots in draws:
        depth = max(i for i in range(k + 1) if slots[:i] in stepped)
        state, heap, A = stepped[slots[:depth]]
        heap, A = list(heap), list(A)
        for i in range(depth, k):
            # only the ranks up to the drawn slot matter
            slot = slots[i]
            pool = _pop_best(heap, partial(_gains, instance, state), len(A), slot + 1)
            # entries hold -gain: a slot past the nonnegative gains is a dummy
            if slot < len(pool) and pool[slot][0] <= 0.0:
                pick = pool.pop(slot)[1]
                state = _advance(instance, state, pick)
                A.append(pick)
            for entry in pool:
                heapq.heappush(heap, entry)
            if shared[slots[: i + 1]] > 1:
                stepped[slots[: i + 1]] = (state, list(heap), tuple(A))
        picks = tuple(A)
        if picks not in solved:
            solved[picks] = _joint_solution(instance, picks)
        runs.append(solved[picks])
    return runs


def randomized_joint(
    instance: Instance, k: int, rng: np.random.Generator
) -> JointSolution:
    """One run of the randomized joint greedy (see randomized_joint_runs)."""
    return randomized_joint_runs(instance, k, [rng])[0]


def _subset_chunks(ground, k: int):
    """The subsets of ground with at most k members as (n, size) int arrays
    of at most _SUBSET_BLOCK sets of one size: sizes ascending, sets in
    lexicographic order within a size."""
    for size in range(min(k, len(ground)) + 1):
        sets, count = combinations(ground, size), comb(len(ground), size)
        for start in range(0, count, _SUBSET_BLOCK):
            n = min(_SUBSET_BLOCK, count - start)
            flat = chain.from_iterable(islice(sets, n))
            yield np.fromiter(flat, dtype=int, count=n * size).reshape(n, size)


def _best_subset(ground, k: int, score) -> tuple[ExplanationSet, float]:
    """Exhaustive maximizer of score over subsets of ground with at most k
    members, and its score. Refuses ground sets above BRUTE_FORCE_CAP; ties
    resolve to the lexicographically smallest index tuple.

    Evaluates every subset once, sum over sizes s <= k of C(|ground|, s),
    one array at a time (see _subset_chunks): score takes an (n, size)
    array and returns one score per row. An array is in lexicographic
    order, so its first argmax is its candidate, which meets the best so
    far under the per-set rule: a larger score, or an equal one and a
    smaller tuple, so (0, 5) beats (3,) at equal score.
    """
    (k,) = _counts([k], "k")
    ground = sorted(ground)
    if len(ground) > BRUTE_FORCE_CAP:
        raise ValueError(f"ground set too large for brute force (> {BRUTE_FORCE_CAP})")
    best_u, best = -np.inf, ()
    for sets in _subset_chunks(ground, k):
        scores = score(sets)
        i = np.argmax(scores)
        u, combo = float(scores[i]), tuple(sets[i].tolist())
        if u > best_u or (u == best_u and combo < best):
            best_u, best = u, combo
    return ExplanationSet(best), best_u


def brute_force_fixed(instance: Instance, policy: Policy, k: int) -> ExplanationSet:
    """Exhaustive maximizer of utility over A ⊆ P_pi, |A| <= k.

    Verification oracle only; refuses ground sets above BRUTE_FORCE_CAP.
    Ties resolve to the lexicographically smallest index tuple. Each chunk
    of sets is scored in one batched best-response pass.
    """
    ground = ground_set_accepted(instance, policy).indices
    return _best_subset(ground, k, partial(_fixed_scores, instance, policy))[0]


def brute_force_joint(instance: Instance, k: int) -> JointSolution:
    """Exhaustive maximizer of h over A ⊆ viable set, |A| <= k.

    Only explanation sets are enumerated; the policy for each candidate A is
    the closed-form optimum, so this is a valid oracle for the joint problem.
    Each chunk of sets gets its policies and utilities in one batched pass.
    """
    ground = ground_set_viable(instance).indices
    A, _ = _best_subset(ground, k, partial(_joint_scores, instance))
    return _joint_solution(instance, A.indices)


def exhaustive_best_policy(
    instance: Instance, A: ExplanationSet
) -> tuple[Policy, float]:
    """Best deterministic policy accepting all of A, by full enumeration.

    2^(m - |A|) evaluations: each chunk of policies, all accepting the same
    number of extra values, is one (B, m) block scored against A in one
    batched best-response pass.
    Oracle for validating optimal_policy_for. Refuses more than
    BRUTE_FORCE_CAP free values; ties resolve to the lexicographically
    smallest tuple of extra accepted values.
    """
    a_idx = _members(instance, A)

    def accepting(extra: np.ndarray) -> np.ndarray:
        pi = np.zeros((len(extra), instance.m))
        pi[_ix(pi, a_idx)] = 1.0
        pi[_ix(pi, extra)] = 1.0
        return pi

    def score(extra):
        return _responses(instance, accepting(extra), a_idx)[1]

    free = [i for i in range(instance.m) if i not in A]
    extra, best_u = _best_subset(free, len(free), score)
    return Policy(accepting(np.array([extra.indices], dtype=int))[0]), best_u
