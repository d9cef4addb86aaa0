import numpy as np
import pytest

import recourse_game as rg
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
    return set_cover_witness(gamma=0.3)


@pytest.fixture
def two_group():
    """(instance, matroid) with nearly all rejected mass in group 1."""
    return two_group_witness()


def random_instance(rng: rg.RngStream, m: int, gamma: float | None = None) -> rg.Instance:
    g = gamma if gamma is not None else float(rng.uniform(0.15, 0.85))
    return rg.generate_synthetic(rg.SynthConfig(m=m, gamma=g, seed=rng.integers(2**62)))


def subset(rng: rg.RngStream, items, p: float = 0.5) -> tuple[int, ...]:
    return tuple(i for i in items if rng.random() < p)


def tie_heavy_instance(rng: rg.RngStream, m: int) -> rg.Instance:
    """Instance built to produce exact ties: py on a grid that includes
    gamma, px on a small integer grid with zero-mass values, and costs drawn
    from {0, 0.5, 1, 1.5, inf}."""
    gen = rng.generator
    gamma = float(gen.choice(TIE_GAMMAS))
    py = np.sort(gen.choice(TIE_PY, size=m))[::-1]
    px = gen.integers(0, 4, size=m).astype(float)
    if px.sum() == 0.0:
        px[0] = 1.0
    cost = gen.choice(TIE_COSTS, size=(m, m))
    np.fill_diagonal(cost, 0.0)
    return rg.make_instance(px / px.sum(), py, cost, gamma)


def equivalence_cases(tag: str, n: int = 200):
    """n seeded (instance, k) pairs with m in [4, 60]: every other one is
    tie-heavy, the rest come from the synthetic generator."""
    rng = rg.RngStream(rg.derive_seed(0, tag))
    for t in range(n):
        m = 4 + rng.integers(57)
        inst = tie_heavy_instance(rng, m) if t % 2 else random_instance(rng, m)
        yield inst, 1 + rng.integers(4)


# The per-candidate gain kernels that the batched one replaced, reading the
# merged state: compressed sums over the affected individuals only. Zero
# terms change the summation tree, so they agree with the batched kernel to
# a few ulp, not bit for bit.

def ref_fixed_gain(inst: rg.Instance, state, x: int) -> float:
    base = inst.py[x] - inst.gamma
    affected = state.near[x] & state.rejected
    delta = np.where(
        state.moving, np.maximum(base - state.value, 0.0), base - state.value
    )
    return float(np.sum(inst.px[affected] * delta[affected]))


def ref_joint_gain(inst: rg.Instance, state, x: int) -> float:
    px, py = inst.px, inst.py
    base = py[x] - inst.gamma
    flips = state.flippable & (py[x] > py) & state.near[x]
    reachable = state.rejected & state.near[x]
    reachable[x] = False
    gain = px[x] * (base - state.value[x])
    gain += float(np.sum(px[flips] * (base - state.value[flips])))
    delta = np.where(
        state.moving, np.maximum(base - state.value, 0.0), base - state.value
    )
    gain += float(np.sum(px[reachable] * delta[reachable]))
    return float(gain)


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
    assignment = rg.assign_explanations(inst, policy, A).explanation_of
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
    assignment = rg.assign_explanations(inst, policy, A).explanation_of
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
