"""Best-response simulation for a policy and a set of explanations.

An individual at feature value i may move to any j in her region of
adaptation R(x_i) = {j : pi(x_j) - cost[i, j] >= pi(x_i)}. Rejected
individuals (pi < 1) each receive one explanation from A and follow it iff it
lies inside their region; accepted individuals (pi = 1) never move. The
decision maker's utility is the expectation of pi(x) * (py[x] - gamma) over
the induced distribution.

All functions here are pure; the incremental marginal-gain state is a plain
value object owned by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ExplanationSet, Instance, Policy

# Assignment entry for individuals who receive no explanation.
NO_EXPLANATION = -1


def adaptation_matrix(instance: Instance, policy: Policy) -> np.ndarray:
    """Boolean matrix R with R[i, j] iff j is in the region of adaptation of i.

    The inequality is exact (>=); infinite costs compare as -inf and can never
    satisfy it, and the diagonal is always True because cost[i, i] = 0.
    """
    pi = policy.pi
    return pi[None, :] - instance.cost >= pi[:, None]


@dataclass(frozen=True, eq=False)
class Assignment:
    """explanation_of[i] is the explanation index given to individual i, or
    NO_EXPLANATION for accepted individuals and for an empty A."""

    explanation_of: np.ndarray


def _followed(instance: Instance, policy: Policy, A: ExplanationSet):
    """(a_idx, net, reach, moved): the members of A, the net benefit
    net[i, c] = pi[A[c]] - cost[i, A[c]], reach = net >= pi[i] on rejected
    rows (all False on accepted ones), and moved[i], the member of A that i
    follows, or i itself when reach[i] is empty.

    i follows the reachable member with the highest outcome (ties: lower
    cost from i, then lower index). This is the one place that decides it.
    """
    m, pi = instance.m, policy.pi
    a_idx = np.fromiter(A.indices, dtype=int, count=len(A))
    cost_a = instance.cost[:, a_idx]
    net = pi[a_idx] - cost_a
    reach = (net >= pi[:, None]) & (pi < 1.0)[:, None]

    py_masked = np.where(reach, instance.py[a_idx], -np.inf)
    best_py = py_masked.max(axis=1, initial=-np.inf)
    tie1 = reach & (py_masked == best_py[:, None])
    cost_masked = np.where(tie1, cost_a, np.inf)
    best_cost = cost_masked.min(axis=1, initial=np.inf)
    tie2 = tie1 & (cost_masked == best_cost[:, None])
    target = np.where(tie2, a_idx, m).min(axis=1, initial=m)
    return a_idx, net, reach, np.where(target < m, target, np.arange(m))


def assign_explanations(
    instance: Instance, policy: Policy, A: ExplanationSet
) -> Assignment:
    """Pick one explanation from A for every individual with pi(x_i) < 1.

    If A intersects the region of adaptation, the explanation maximizes the
    outcome probability there (ties: lower cost from i, then lower index).
    Otherwise any choice leaves the best response unchanged, and the minimum
    cost member of A is reported (ties: lower index).
    """
    m = instance.m
    if len(A) == 0:
        return Assignment(np.full(m, NO_EXPLANATION, dtype=int))
    a_idx, _, reach, moved = _followed(instance, policy, A)
    cost_a = instance.cost[:, a_idx]
    at_min = cost_a == cost_a.min(axis=1)[:, None]
    nearest = np.where(at_min, a_idx, m).min(axis=1)
    out = np.where(reach.any(axis=1), moved, nearest)
    return Assignment(np.where(policy.pi < 1.0, out, NO_EXPLANATION))


@dataclass(frozen=True, eq=False)
class BestResponseResult:
    """Realized moves, the induced feature distribution, and the utility.

    moved[i] == i means the individual stays; moved[i] == j != i means she
    adapts to j, which then satisfies j in A and pi[j] - cost[i, j] >= pi[i].
    """

    moved: np.ndarray
    induced_px: np.ndarray
    utility: float


def best_respond(
    instance: Instance, policy: Policy, A: ExplanationSet
) -> BestResponseResult:
    """Simulate every individual's best response to (policy, A)."""
    m = instance.m
    pi, py, gamma = policy.pi, instance.py, instance.gamma
    moved = _followed(instance, policy, A)[3]

    induced = np.bincount(moved, weights=instance.px, minlength=m)
    # Utility accumulated per individual in index order; equal to the
    # expectation over induced_px but numerically monotone under target
    # improvements, which keeps f(A) <= f(B) exact for A ⊆ B. The value
    # array is built exactly as in leakage_utility so the two agree bit for
    # bit when no leak changes any target.
    value = pi[moved] * (py[moved] - gamma)
    util = float(np.sum(instance.px * value))
    return BestResponseResult(moved=moved, induced_px=induced, utility=util)


def utility(instance: Instance, policy: Policy, A: ExplanationSet) -> float:
    """u(policy, A): decision-maker utility after best responses."""
    return best_respond(instance, policy, A).utility


@dataclass(frozen=True, eq=False)
class MarginalState:
    """Per-individual cache for O(m) marginal gains at A, for the joint
    objective and for a fixed policy, which is the joint case with pi frozen.

    near[x, i] says i can adapt to x once x is offered; it is built once per
    solver call and shared, read-only, by later states. rejected marks
    pi < 1, flippable the accepted values outside A that a better candidate
    within unit cost flips to rejection (none at a fixed policy), value[i]
    is i's current utility per unit mass, and moving[i] says whether i
    follows an explanation.
    """

    near: np.ndarray
    rejected: np.ndarray
    flippable: np.ndarray
    value: np.ndarray
    moving: np.ndarray


def _advanced(instance: Instance, pi, near, flippable, A) -> MarginalState:
    """The state at ∅ under pi (nobody moves, value = pi * (py - gamma)),
    advanced over A one member at a time."""
    value = pi * (instance.py - instance.gamma)
    moving = np.zeros(instance.m, dtype=bool)
    state = MarginalState(near, pi < 1.0, flippable, value, moving)
    for x in A.indices:
        state = _advance(instance, state, x)
    return state


def fixed_marginal_state(
    instance: Instance, policy: Policy, A: ExplanationSet = ExplanationSet()
) -> MarginalState:
    """Build the incremental state for utility(policy, ·) at A, whose
    members must be accepted (pi = 1)."""
    if np.any(policy.pi[list(A.indices)] != 1.0):
        raise ValueError("explanations must come from the accepted set")
    near = np.ascontiguousarray(adaptation_matrix(instance, policy).T)
    return _advanced(instance, policy.pi, near, np.zeros(instance.m, dtype=bool), A)


def joint_marginal_state(instance: Instance, A: ExplanationSet) -> MarginalState:
    """Build the incremental state for h at A, under A's optimal policy: the
    threshold policy with every viable value flippable, advanced over A."""
    viable = instance.py >= instance.gamma
    if not np.all(viable[list(A.indices)]):
        raise ValueError("explanations must come from the viable set")
    near = np.less_equal(instance.cost.T, 1.0, order="C")
    return _advanced(instance, viable.astype(float), near, viable, A)


def _gains(instance: Instance, state: MarginalState, xs) -> np.ndarray:
    """Marginal gains of the candidates xs (none in A) from one numpy pass
    over a len(xs) x m block: x's own mass, the values it flips (who then
    adapt to it), and the rejected values that reach it and do better there.

    Every term is a full-row masked sum, and a row sum of a C-contiguous
    block equals that row's 1-D sum, so a gain is bit-identical in any block.
    """
    px, py = instance.px, instance.py
    xs = np.asarray(xs, dtype=int)
    base = py[xs] - instance.gamma
    # movers only switch to a better target; max(diff, -inf) is diff exactly
    floor = np.where(state.moving, 0.0, -np.inf)
    term = px * np.maximum(base[:, None] - state.value, floor)
    near = state.near[xs]
    gain = px[xs] * (base - state.value[xs])
    if state.flippable.any():  # flippable values stay: term is px * diff
        flips = near & state.flippable & (py[xs, None] > py)
        gain += np.where(flips, term, 0.0).sum(axis=1)
    reach = near & state.rejected
    reach[np.arange(xs.size), xs] = False
    return gain + np.where(reach, term, 0.0).sum(axis=1)


def _coverage(instance: Instance, state: MarginalState, xs) -> np.ndarray:
    """Rejected mass that can adapt to each candidate in xs and follows no
    explanation yet: the diverse baseline's coverage gain. A zero-filled
    full-row sum, so bit-identical in any block and monotone as A grows."""
    mask = state.near[np.asarray(xs, dtype=int)] & state.rejected & ~state.moving
    return np.where(mask, instance.px, 0.0).sum(axis=1)


def _advance(instance: Instance, state: MarginalState, x: int) -> MarginalState:
    """The state at A ∪ {x}: x is accepted and stays, the values it flips
    adapt to it, and the rejected values that reach it take it when they
    stay today or do better there."""
    py = instance.py
    base = py[x] - instance.gamma
    flips = state.near[x] & state.flippable & (py[x] > py)
    takes = state.near[x] & state.rejected & (~state.moving | (base > state.value))
    takes[x] = False
    value = np.where(flips | takes, base, state.value)
    moving = state.moving | flips | takes
    rejected = state.rejected | flips
    flippable = state.flippable & ~flips
    value[x], moving[x], rejected[x], flippable[x] = base, False, False, False
    return MarginalState(state.near, rejected, flippable, value, moving)


def marginal_gain_fixed(
    instance: Instance,
    policy: Policy,
    A: ExplanationSet,
    state: MarginalState,
    x: int,
) -> tuple[float, MarginalState]:
    """Marginal utility of adding x to A at a fixed policy, plus the state
    for A ∪ {x}. Requires x not already in A; state must correspond to A."""
    if x in A:
        raise ValueError(f"candidate {x} already in A")
    return float(_gains(instance, state, [x])[0]), _advance(instance, state, x)


def marginal_gain_joint(
    instance: Instance, A: ExplanationSet, state: MarginalState, x: int
) -> tuple[float, MarginalState]:
    """h(A ∪ {x}) - h(A) in O(m), plus the state for A ∪ {x}."""
    if x in A:
        raise ValueError(f"candidate {x} already in A")
    return float(_gains(instance, state, [x])[0]), _advance(instance, state, x)


def transport_matrix(
    instance: Instance, policy: Policy, A: ExplanationSet, bins: int
) -> np.ndarray:
    """Mass moved between outcome bins by the best response.

    Cell (r, c) accumulates px[i] for every mover i -> j with py[i] in bin r
    and py[j] in bin c; bins split [0, 1] into equal widths with the top edge
    closed. Non-movers are not recorded, so the matrix total equals the total
    moved mass.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    res = best_respond(instance, policy, A)
    movers = np.flatnonzero(res.moved != np.arange(instance.m))
    out = np.zeros((bins, bins))
    src = np.minimum((instance.py[movers] * bins).astype(int), bins - 1)
    dst = np.minimum((instance.py[res.moved[movers]] * bins).astype(int), bins - 1)
    np.add.at(out, (src, dst), instance.px[movers])
    return out


def _leak_targets(instance: Instance, policy: Policy, A: ExplanationSet):
    """The (m, 1+|A|) target table: column 0 holds i's best-response target
    when she knows only her assigned explanation e, column 1+c her target
    when she also knows A[c].

    A rejected individual follows, among e and A[c] inside her region of
    adaptation, the one with the larger net benefit pi(.) - cost[i, .]; ties
    go to lower cost from i, then higher outcome, then lower index. If
    neither is reachable she stays at i, and accepted individuals never move.
    A reachable e already has the highest outcome among the reachable members
    of A, then the lowest cost, then the lowest index, so on equal net
    benefit only a lower cost lets A[c] beat it.
    """
    a_idx, net, reach, base = _followed(instance, policy, A)
    cost_e = instance.cost[np.arange(instance.m), base][:, None]
    net_e = policy.pi[base][:, None] - cost_e
    beats = (net > net_e) | (net == net_e) & (instance.cost[:, a_idx] < cost_e)
    return np.column_stack([base, np.where(reach & beats, a_idx, base[:, None])])


def leakage_utility(
    instance: Instance, policy: Policy, A: ExplanationSet, p_l: float
) -> float:
    """Utility when each rejected individual additionally learns, with
    probability p_l, one uniformly drawn member of A.

    The expectation over the |A| equally likely draws is computed exactly:
    with probability 1 - p_l she only knows her assigned explanation, with
    probability p_l / |A| she knows the assigned one plus x' and follows
    whichever reachable option benefits her most.
    """
    if not 0.0 <= p_l <= 1.0:
        raise ValueError("p_l must lie in [0, 1]")
    if len(A) == 0:
        return utility(instance, policy, A)

    targets = _leak_targets(instance, policy, A)
    payoff = (policy.pi * (instance.py - instance.gamma))[targets]
    # Individuals whose choice no draw can change keep the plain best-response
    # value, so p_l = 0 (and |A| = 1) reproduce utility() exactly rather than
    # within rounding.
    value = payoff[:, 0]
    if p_l > 0.0:
        changed = (targets[:, 1:] != targets[:, :1]).any(axis=1)
        mix = np.zeros(instance.m)
        for column in payoff[:, 1:].T:  # left to right, as sum() adds
            mix += column
        value = np.where(changed, (1.0 - p_l) * value + p_l * (mix / len(A)), value)
    return float(np.sum(instance.px * value))


def leakage_utility_mc(
    instance: Instance,
    policy: Policy,
    A: ExplanationSet,
    p_l: float,
    samples: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte-Carlo cross-check of leakage_utility.

    Returns (mean, standard error) over `samples` simulated populations.
    Exists only to validate the analytic expectation; experiments use the
    exact form.
    """
    if not 0.0 <= p_l <= 1.0:
        raise ValueError("p_l must lie in [0, 1]")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    m = instance.m
    targets = _leak_targets(instance, policy, A)
    payoff = (policy.pi * (instance.py - instance.gamma))[targets]

    if len(A) == 0:
        draws = np.zeros((samples, m), dtype=int)
    else:
        leak = rng.random((samples, m)) < p_l
        which = rng.integers(0, len(A), size=(samples, m))
        draws = np.where(leak, 1 + which, 0)
    px = instance.px
    per_sample = (payoff[np.arange(m)[None, :], draws] * px[None, :]).sum(axis=1)
    mean = float(per_sample.mean())
    stderr = float(per_sample.std(ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0
    return mean, stderr


def group_improvement(
    instance: Instance,
    policy: Policy,
    A: ExplanationSet,
    groups,
) -> np.ndarray:
    """Average outcome improvement of each group's rejected members.

    For group z: sum over rejected i in z of px[i] * (py[target(i)] - py[i]),
    divided by the rejected mass of z; stayers contribute zero improvement
    and a group with no rejected mass scores 0.
    """
    m = instance.m
    flat = [i for g in groups for i in g]
    if sorted(flat) != list(range(m)):
        raise ValueError("groups must partition 0..m-1")
    res = best_respond(instance, policy, A)
    gain = instance.px * (instance.py[res.moved] - instance.py)
    rejected = policy.pi < 1.0
    out = np.zeros(len(groups))
    for z, g in enumerate(groups):
        members = np.fromiter((int(i) for i in g), dtype=int)
        rej = members[rejected[members]]
        mass = float(instance.px[rej].sum())
        if mass > 0.0:
            out[z] = float(gain[rej].sum()) / mass
    return out
