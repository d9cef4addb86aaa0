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

from .core import (
    _ROW_BLOCK,
    ExplanationSet,
    Instance,
    Policy,
    _check_policy_length,
    _counts,
)

# Assignment entry for individuals who receive no explanation.
NO_EXPLANATION = -1

# Samples per block of leakage_utility_mc's integer draws and payoffs: at
# m=10 a block's draws and payoffs take 1.3 MB, 100,000 samples' 16 MB.
_MC_ROWS = 8192


def adaptation_matrix(instance: Instance, policy: Policy) -> np.ndarray:
    """Boolean matrix R with R[i, j] iff j is in the region of adaptation of i.

    The inequality is exact (>=); infinite costs compare as -inf and can never
    satisfy it, and the diagonal is always True because cost[i, i] = 0.
    """
    pi, cost, m = policy.pi, instance.cost, instance.m
    region = np.empty((m, m), dtype=bool)
    for s in range(0, m, _ROW_BLOCK):
        rows = slice(s, s + _ROW_BLOCK)
        np.greater_equal(pi - cost[rows], pi[rows, None], out=region[rows])
    return region


@dataclass(frozen=True, eq=False)
class Assignment:
    """explanation_of[i] is the explanation index given to individual i, or
    NO_EXPLANATION for accepted individuals and for an empty A."""

    explanation_of: np.ndarray


def _members(instance: Instance, A: ExplanationSet) -> np.ndarray:
    """The members of A as an int array, in A's order. The one range check
    of explanation indices (ExplanationSet already refuses negative ones),
    in plain Python: it runs once per utility call."""
    top = max(A.indices, default=-1)
    if top >= instance.m:
        raise ValueError(f"explanation index {top} outside 0..{instance.m - 1}")
    return np.fromiter(A.indices, dtype=int, count=len(A))


def _cost_to(instance: Instance, a_idx: np.ndarray) -> np.ndarray:
    """cost[i, a_idx[..., c]] as a (..., m, c) array; for one set (1-D
    a_idx) this is the plain column gather."""
    cost_a = instance.cost[:, a_idx]
    return cost_a if a_idx.ndim == 1 else cost_a.swapaxes(0, 1)


def _ix(a: np.ndarray, idx: np.ndarray):
    """The index that takes a[..., idx], row by row when both are batched
    (2-D): plain fancy indexing, several times cheaper than a[..., idx] or
    take_along_axis on a one-set call."""
    if a.ndim == 1:
        return idx
    if idx.ndim == 1:
        return slice(None), idx
    return np.arange(len(a))[:, None], idx


def _followed(instance: Instance, pi: np.ndarray, a_idx: np.ndarray):
    """(net, reach, moved) for acceptance probabilities pi and members
    a_idx: the net benefit net[..., i, c] = pi[a_idx[c]] - cost[i, a_idx[c]],
    reach = net >= pi[i] on rejected rows (all False on accepted ones), and
    moved[..., i], the member that i follows, or i itself when reach[..., i]
    is empty.

    i follows the reachable member with the highest outcome (ties: lower
    cost from i, then lower index). This is the one place that decides it.
    pi is (m,) or (B, m) and a_idx is (c,) or (B, c): a leading axis scores
    B sets (or B policies) at once, every row as its own one-set call would.
    """
    m, py = instance.m, instance.py
    _check_policy_length(instance, pi)
    cost_a = _cost_to(instance, a_idx)
    members = a_idx[..., None, :]
    net = pi[_ix(pi, a_idx)][..., None, :] - cost_a
    reach = (net >= pi[..., None]) & (pi < 1.0)[..., None]

    py_masked = np.where(reach, py[members], -np.inf)
    best_py = py_masked.max(axis=-1, initial=-np.inf)
    tie1 = reach & (py_masked == best_py[..., None])
    cost_masked = np.where(tie1, cost_a, np.inf)
    best_cost = cost_masked.min(axis=-1, initial=np.inf)
    tie2 = tie1 & (cost_masked == best_cost[..., None])
    target = np.where(tie2, members, m).min(axis=-1, initial=m)
    return net, reach, np.where(target < m, target, np.arange(m))


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
    _check_policy_length(instance, policy.pi)
    if len(A) == 0:
        return Assignment(np.full(m, NO_EXPLANATION, dtype=int))
    a_idx = _members(instance, A)
    _, reach, moved = _followed(instance, policy.pi, a_idx)
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


def _responses(instance: Instance, pi: np.ndarray, a_idx: np.ndarray):
    """(moved, utility) of _followed's arguments, with a leading batch axis
    when it has one: one utility per set (or policy).

    Utility sums px * value over individuals in a fixed order (numpy's
    pairwise sum, grouped by m alone), and IEEE rounding is monotone in each
    term, so f(A) <= f(B) holds exactly when B ⊇ A lowers no term. The value
    array is built as in leakage_utility, so the two agree bit for bit when no
    leak changes any target. A row sum of a C-contiguous block equals that
    row's 1-D sum, so each row is bit-identical to one set's.
    """
    moved = _followed(instance, pi, a_idx)[2]
    value = pi[_ix(pi, moved)] * (instance.py[moved] - instance.gamma)
    return moved, (instance.px * value).sum(axis=-1)


def best_respond(
    instance: Instance, policy: Policy, A: ExplanationSet
) -> BestResponseResult:
    """Simulate every individual's best response to (policy, A)."""
    moved, util = _responses(instance, policy.pi, _members(instance, A))
    induced = np.bincount(moved, weights=instance.px, minlength=instance.m)
    return BestResponseResult(moved=moved, induced_px=induced, utility=float(util))


def utility(instance: Instance, policy: Policy, A: ExplanationSet) -> float:
    """u(policy, A): decision-maker utility after best responses."""
    return float(_responses(instance, policy.pi, _members(instance, A))[1])


@dataclass(frozen=True, eq=False)
class MarginalState:
    """Per-individual cache for O(m) marginal gains at A, for the joint
    objective and for a fixed policy, which is the joint case with pi frozen.

    near[x, i] says i can adapt to x once x is offered; it is built once per
    solver call and shared, read-only, by later states. The joint near also
    holds py[x] > py[i]: for a viable x, a pair without it meets only a value
    that follows a higher outcome (gain term ±0, take test false). rejected
    marks pi < 1, flippable the accepted values outside A that a better
    candidate within unit cost flips to rejection (none at a fixed policy),
    value[i] is i's current utility per unit mass, and moving[i] says
    whether i follows an explanation.
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


def _check_drawn_from(a_idx: np.ndarray, allowed: np.ndarray, ground: str) -> None:
    """Refuse members a_idx (any shape) outside the ground set allowed."""
    if not allowed[a_idx].all():
        raise ValueError(f"explanations must come from the {ground} set")


def fixed_marginal_state(
    instance: Instance, policy: Policy, A: ExplanationSet = ExplanationSet()
) -> MarginalState:
    """Build the incremental state for utility(policy, ·) at A, whose
    members must be accepted (pi = 1)."""
    _check_policy_length(instance, policy.pi)
    _check_drawn_from(_members(instance, A), policy.pi == 1.0, "accepted")
    near = np.ascontiguousarray(adaptation_matrix(instance, policy).T)
    return _advanced(instance, policy.pi, near, np.zeros(instance.m, dtype=bool), A)


def joint_marginal_state(instance: Instance, A: ExplanationSet) -> MarginalState:
    """Build the incremental state for h at A, under A's optimal policy: the
    threshold policy with every viable value flippable, advanced over A."""
    py, m = instance.py, instance.m
    viable = py >= instance.gamma
    _check_drawn_from(_members(instance, A), viable, "viable")
    # py is nonincreasing: py[x] > py[i] iff i >= above[x] = #{j : py[j] >= py[x]}
    above = np.searchsorted(-py, -py, side="right").tolist()
    near = np.zeros((m, m), dtype=bool)
    for s in range(0, m, _ROW_BLOCK):  # row blocks, not a second m x m array
        e = min(s + _ROW_BLOCK, m)
        lo, top = above[s], above[e - 1]  # only lo:top needs the comparison
        np.less_equal(instance.cost.T[s:e, lo:], 1.0, out=near[s:e, lo:])
        near[s:e, lo:top] &= py[s:e, None] > py[lo:top]
    return _advanced(instance, viable.astype(float), near, viable, A)


def _gains(instance: Instance, state: MarginalState, xs) -> np.ndarray:
    """Marginal gains of the candidates xs (none in A) from one numpy pass
    over a len(xs) x m block: x's own mass, the values it flips (who then
    adapt to it), and the rejected values that reach it and do better there.

    Every term is a full-row masked sum, and a row sum of a C-contiguous
    block equals that row's 1-D sum, so a gain is bit-identical in any block.
    A mask is a product, not a branch per entry: a masked entry is +0.0 or
    -0.0, which changes no nonzero sum.
    """
    px = instance.px
    xs = np.asarray(xs, dtype=int)
    base = instance.py[xs] - instance.gamma
    # movers only switch to a better target; max(diff, -inf) is diff exactly
    floor = np.where(state.moving, 0.0, -np.inf)
    term = np.subtract.outer(base, state.value)
    np.maximum(term, floor, out=term)
    term *= px
    near = state.near[xs]  # a fancy-index copy, masked in place below
    gain = px[xs] * (base - state.value[xs])
    if state.flippable.any():  # flippable values stay: term is px * diff
        gain += (term * (near & state.flippable)).sum(axis=1)  # product mask
    near &= state.rejected
    near[np.arange(xs.size), xs] = False
    term *= near  # product mask, in place
    # a row of masked -0.0 entries sums to -0.0 where a sum starts from its
    # first entry (numpy 2.4 starts from +0.0); `+ 0.0` makes it +0.0 anyway
    return gain + term.sum(axis=1) + 0.0


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
    base = instance.py[x] - instance.gamma
    flips = state.near[x] & state.flippable  # near holds py[x] > py
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
    for A ∪ {x}. Requires an accepted x not in A; state must match A."""
    return _marginal_gain(instance, A, state, x, policy.pi == 1.0, "accepted")


def marginal_gain_joint(
    instance: Instance, A: ExplanationSet, state: MarginalState, x: int
) -> tuple[float, MarginalState]:
    """h(A ∪ {x}) - h(A) in O(m) for a viable x not in A, plus the new state."""
    viable = instance.py >= instance.gamma
    return _marginal_gain(instance, A, state, x, viable, "viable")


def _marginal_gain(instance, A, state, x, allowed, ground):
    """Both wrappers' one-candidate gain and step, after their checks of x."""
    if x in A:
        raise ValueError(f"candidate {x} already in A")
    _check_drawn_from(_members(instance, ExplanationSet((x,))), allowed, ground)
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
    (bins,) = _counts([bins], "bins", 1)
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
    a_idx = _members(instance, A)
    net, reach, base = _followed(instance, policy.pi, a_idx)
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
    return _leakage_utilities(instance, policy, A, (p_l,))[0]


def _leakage_utilities(instance, policy, A, pls) -> list[float]:
    """leakage_utility at each p_l in pls, from one target table."""
    if not all(0.0 <= p_l <= 1.0 for p_l in pls):
        raise ValueError("p_l must lie in [0, 1]")
    if len(A) == 0:
        return [utility(instance, policy, A)] * len(pls)
    targets = _leak_targets(instance, policy, A)
    payoff = (policy.pi * (instance.py - instance.gamma))[targets]
    # Individuals whose choice no draw can change keep the plain best-response
    # value, so p_l = 0 (and |A| = 1) reproduce utility() exactly rather than
    # within rounding.
    stay = payoff[:, 0]
    changed = (targets[:, 1:] != targets[:, :1]).any(axis=1)
    mix = sum(payoff[:, 1:].T) / len(A)  # left to right, not numpy's pairwise sum
    out = []
    for p_l in pls:
        value = np.where(changed, (1.0 - p_l) * stay + p_l * mix, stay) if p_l else stay
        out.append(float(np.sum(instance.px * value)))
    return out


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

    In sample s, individual i learns a leaked member when the (s, i)-th
    uniform is below p_l, and then member 1 + the (s, i)-th integer in
    [0, |A|). Every uniform is drawn first, straight into a boolean leak
    mask; the integers and payoffs follow in blocks of _MC_ROWS samples.
    Bounded integers take 32-bit words through the bit generator's own
    buffer, so the blocks draw what one-shot (samples, m) arrays would and
    leave the generator in the same state. The peak is the mask, the
    per-sample sums and one block.
    """
    if not 0.0 <= p_l <= 1.0:
        raise ValueError("p_l must lie in [0, 1]")
    (samples,) = _counts([samples], "samples", 1)
    targets = _leak_targets(instance, policy, A)
    payoff = (policy.pi * (instance.py - instance.gamma))[targets].ravel()
    offsets = np.arange(0, payoff.size, len(A) + 1)  # flat index of column 0

    blocks = [slice(s, s + _MC_ROWS) for s in range(0, samples, _MC_ROWS)]
    leak = np.zeros((samples, instance.m), dtype=bool)
    if len(A):
        for rows in blocks:
            block = leak[rows]
            np.less(rng.random(block.shape), p_l, out=block)
    per_sample = np.empty(samples)
    for rows in blocks:
        draws = leak[rows].astype(int)
        if len(A):
            draws *= rng.integers(1, len(A) + 1, size=draws.shape)
        draws += offsets
        gathered = payoff.take(draws)
        gathered *= instance.px
        # a row sum of the C-contiguous block equals that row's 1-D sum
        per_sample[rows] = gathered.sum(axis=1)
        del draws, gathered  # before the next block's draws
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
    groups = [_counts(g, "every group member") for g in groups]
    flat = [i for g in groups for i in g]
    if sorted(flat) != list(range(instance.m)):
        raise ValueError("groups must partition 0..m-1")
    res = best_respond(instance, policy, A)
    gain = instance.px * (instance.py[res.moved] - instance.py)
    rejected = policy.pi < 1.0
    out = np.zeros(len(groups))
    for z, g in enumerate(groups):
        members = np.array(g, dtype=int)
        rej = members[rejected[members]]
        mass = float(instance.px[rej].sum())
        if mass > 0.0:
            out[z] = float(gain[rej].sum()) / mass
    return out
