"""Verification suite behind the `check` command.

Each criterion is a standalone function returning a CheckResult; `run_all`
executes the full battery. Detail strings are deterministic (timings are
reported separately) so the report itself is reproducible byte for byte.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .algorithms import (
    brute_force_fixed,
    brute_force_joint,
    exhaustive_best_policy,
    greedy_fixed_policy,
    greedy_matroid,
    joint_marginal_state,
    joint_objective,
    marginal_gain_joint,
    optimal_policy_for,
    randomized_joint,
    randomized_joint_runs,
)
from .behavior import (
    fixed_marginal_state,
    group_improvement,
    leakage_utility,
    leakage_utility_mc,
    marginal_gain_fixed,
    utility,
)
from .baselines import (
    black_box_utility,
    diverse_explanations,
    min_cost_explanations,
    threshold_policy,
)
from .core import (
    ExplanationSet,
    Instance,
    PartitionMatroid,
    Policy,
    ground_set_accepted,
    ground_set_viable,
    make_instance,
)
from .datagen import SynthConfig, derive_seed, generate_synthetic, seeded_rng

E_INV = 1.0 / np.e
ONE_MINUS_E_INV = 1.0 - 1.0 / np.e


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


# ---------------------------------------------------------------------------
# Witness instances shared by the checks and the test suite.
# ---------------------------------------------------------------------------

def nonmonotone_witness() -> Instance:
    """Three-value instance where offering a second explanation strictly
    lowers the joint objective (the non-monotonicity witness)."""
    return make_instance(
        px=[0.1, 0.8, 0.1],
        py=[1.0, 0.5, 0.4],
        cost=[[0.0, 0.2, 0.3], [0.3, 0.0, 0.7], [0.4, 0.5, 0.0]],
        gamma=0.1,
    )


def set_cover_witness(gamma: float = 0.3) -> tuple[Instance, Policy]:
    """Set-cover reduction instance: 2 elements, sets S1={u1,u2}, S2={u2}.

    Indices 0,1 are the set values (outcome 1, zero mass, accepted), indices
    2,3 the element values (outcome gamma, uniform mass, rejected). Moving
    from an element to a set costs 0 iff the element belongs to the set.
    """
    cost = np.full((4, 4), 2.0)
    np.fill_diagonal(cost, 0.0)
    cost[2, 0] = 0.0
    cost[3, 0] = 0.0
    cost[3, 1] = 0.0
    instance = make_instance(
        px=[0.0, 0.0, 0.5, 0.5],
        py=[1.0, 1.0, gamma, gamma],
        cost=cost,
        gamma=gamma,
    )
    return instance, Policy([1.0, 1.0, 0.0, 0.0])


def two_group_witness() -> tuple[Instance, PartitionMatroid]:
    """Instance with two population groups where almost all rejected mass
    sits in group 1, so an unconstrained greedy serves only that group."""
    cost = np.full((6, 6), 2.0)
    np.fill_diagonal(cost, 0.0)
    cost[3, 0] = 0.2
    cost[4, 1] = 0.2
    cost[5, 2] = 0.2
    instance = make_instance(
        px=[0.05, 0.05, 0.05, 0.45, 0.35, 0.05],
        py=[0.9, 0.85, 0.8, 0.4, 0.35, 0.3],
        cost=cost,
        gamma=0.5,
    )
    matroid = PartitionMatroid(groups=((0, 1, 3, 4), (2, 5)), capacities=(1, 1))
    return instance, matroid


# ---------------------------------------------------------------------------
# Random sampling helpers (all driven by one seeded Generator per criterion).
# ---------------------------------------------------------------------------

def _sample_instance(
    rng: np.random.Generator,
    m_lo: int,
    m_hi: int,
    min_viable: int = 0,
    gamma_lo: float = 0.15,
    gamma_hi: float = 0.85,
) -> Instance:
    while True:
        m = m_lo + rng.integers(m_hi - m_lo + 1)
        gamma = float(rng.uniform(gamma_lo, gamma_hi))
        inst = generate_synthetic(
            SynthConfig(m=m, gamma=gamma, seed=rng.integers(2**62))
        )
        if int(np.sum(inst.py >= inst.gamma)) >= min_viable:
            return inst


def _random_monotone_policy(rng: np.random.Generator, instance: Instance) -> Policy:
    """Random rational, outcome-monotonic policy with a nonempty certain-
    acceptance prefix. Outcomes of synthetic instances are distinct almost
    surely, so nonincreasing acceptance suffices for monotonicity."""
    n_viable = int(np.sum(instance.py >= instance.gamma))
    pi = np.zeros(instance.m)
    if n_viable == 0:
        return Policy(pi)
    r = 1 + rng.integers(n_viable)
    pi[:r] = 1.0
    if n_viable > r and rng.random() < 0.5:
        tail = np.sort(rng.uniform(0.0, 0.95, n_viable - r))[::-1]
        pi[r:n_viable] = tail
    return Policy(pi)


def _subset(rng: np.random.Generator, items, p: float = 0.5) -> tuple[int, ...]:
    return tuple(i for i in items if rng.random() < p)


# ---------------------------------------------------------------------------
# Criteria.
# ---------------------------------------------------------------------------

def check_nonmonotone_fixture(base_seed: int = 0) -> CheckResult:
    """Joint objective and optimal policy on the non-monotonicity witness."""
    t0 = time.perf_counter()
    inst = nonmonotone_witness()
    a1, a2 = ExplanationSet((0,)), ExplanationSet((0, 1))
    h1, h2 = joint_objective(inst, a1), joint_objective(inst, a2)
    p1 = optimal_policy_for(inst, a1).pi
    p2 = optimal_policy_for(inst, a2).pi
    ok = (
        abs(h1 - 0.9) <= 1e-12
        and abs(h2 - 0.5) <= 1e-12
        and np.array_equal(p1, [1.0, 0.0, 0.0])
        and np.array_equal(p2, [1.0, 1.0, 0.0])
    )
    detail = (
        f"h(x0)={h1!r}, h(x0,x1)={h2!r}, "
        f"policies {p1.astype(int).tolist()} / {p2.astype(int).tolist()}"
    )
    return CheckResult("nonmonotone_fixture", ok, detail, time.perf_counter() - t0)


def check_set_cover_fixture(base_seed: int = 0) -> CheckResult:
    """Greedy and diverse both pick the covering set and earn 1 - gamma."""
    t0 = time.perf_counter()
    inst, policy = set_cover_witness(gamma=0.3)
    expected = 1.0 - inst.gamma
    a_greedy = greedy_fixed_policy(inst, policy, 1)
    a_div = diverse_explanations(inst, policy, 1)
    u_greedy = utility(inst, policy, a_greedy)
    u_div = utility(inst, policy, a_div)
    ok = (
        a_greedy.indices == (0,)
        and a_div.indices == (0,)
        and u_greedy == expected
        and u_div == expected
    )
    detail = (
        f"greedy={a_greedy.indices}, diverse={a_div.indices}, "
        f"utilities {u_greedy!r} / {u_div!r}, expected {expected!r}"
    )
    return CheckResult("set_cover_fixture", ok, detail, time.perf_counter() - t0)


def check_policy_oracle_equivalence(base_seed: int = 0) -> CheckResult:
    """Closed-form policy beats every deterministic policy containing A."""
    t0 = time.perf_counter()
    rng = seeded_rng(derive_seed(base_seed, "policy-oracle"))
    violations, worst = 0, 0.0
    for _ in range(200):
        inst = _sample_instance(rng, 2, 10)
        A = ExplanationSet(_subset(rng, ground_set_viable(inst).indices))
        u_star = utility(inst, optimal_policy_for(inst, A), A)
        _, u_best = exhaustive_best_policy(inst, A)
        gap = u_best - u_star
        worst = max(worst, gap)
        if gap > 1e-12:
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 60.0
    detail = f"200 instances, violations={violations}, worst gap={worst:.3e}"
    return CheckResult("policy_oracle_equivalence", ok, detail, elapsed)


def check_fixed_objective_properties(base_seed: int = 0) -> CheckResult:
    """Non-negativity, monotonicity, submodularity of the fixed-policy
    objective over 1000 random draws."""
    t0 = time.perf_counter()
    rng = seeded_rng(derive_seed(base_seed, "fixed-properties"))
    neg = mono = sub = 0
    for _ in range(1000):
        # value 0 is viable, so the policy accepts it: accepted is nonempty
        inst = _sample_instance(rng, 4, 10, min_viable=1)
        policy = _random_monotone_policy(rng, inst)
        accepted = ground_set_accepted(inst, policy).indices
        x = accepted[rng.integers(len(accepted))]
        B = _subset(rng, [i for i in accepted if i != x])
        A = _subset(rng, B)
        fa = utility(inst, policy, ExplanationSet(A))
        fb = utility(inst, policy, ExplanationSet(B))
        fax = utility(inst, policy, ExplanationSet(A + (x,)))
        fbx = utility(inst, policy, ExplanationSet(B + (x,)))
        if fa < 0.0 or fb < 0.0 or fax < 0.0 or fbx < 0.0:
            neg += 1
        if fa > fb:
            mono += 1
        if (fax - fa) < (fbx - fb) - 1e-12:
            sub += 1
    ok = neg == 0 and mono == 0 and sub == 0
    detail = f"1000 draws, negativity={neg}, monotonicity={mono}, submodularity={sub}"
    return CheckResult(
        "fixed_objective_properties", ok, detail, time.perf_counter() - t0
    )


def check_joint_objective_submodularity(base_seed: int = 0) -> CheckResult:
    """Non-negativity and submodularity of the joint objective; its
    non-monotonicity is witnessed by the fixture criterion."""
    t0 = time.perf_counter()
    rng = seeded_rng(derive_seed(base_seed, "joint-properties"))
    neg = sub = 0
    for _ in range(1000):
        inst = _sample_instance(rng, 4, 10, min_viable=2)
        viable = ground_set_viable(inst).indices
        x = viable[rng.integers(len(viable))]
        B = _subset(rng, [i for i in viable if i != x])
        A = _subset(rng, B)
        ha = joint_objective(inst, ExplanationSet(A))
        hb = joint_objective(inst, ExplanationSet(B))
        hax = joint_objective(inst, ExplanationSet(A + (x,)))
        hbx = joint_objective(inst, ExplanationSet(B + (x,)))
        if ha < 0.0 or hb < 0.0 or hax < 0.0 or hbx < 0.0:
            neg += 1
        if (hax - ha) < (hbx - hb) - 1e-12:
            sub += 1
    ok = neg == 0 and sub == 0
    detail = (
        f"1000 draws, negativity={neg}, submodularity={sub}; "
        "non-monotonicity witnessed by nonmonotone_fixture"
    )
    return CheckResult(
        "joint_objective_submodularity", ok, detail, time.perf_counter() - t0
    )


def check_greedy_guarantee(base_seed: int = 0) -> CheckResult:
    """Greedy reaches at least (1 - 1/e) of the exhaustive optimum."""
    t0 = time.perf_counter()
    rng = seeded_rng(derive_seed(base_seed, "greedy-guarantee"))
    violations, ratios = 0, []
    for _ in range(100):
        inst = _sample_instance(rng, 4, 12, min_viable=1)
        policy = threshold_policy(inst)
        k = 1 + rng.integers(3)
        f_greedy = utility(inst, policy, greedy_fixed_policy(inst, policy, k))
        f_opt = utility(inst, policy, brute_force_fixed(inst, policy, k))
        if f_greedy < ONE_MINUS_E_INV * f_opt - 1e-12:
            violations += 1
        ratios.append(f_greedy / f_opt if f_opt > 0 else 1.0)
    ok = violations == 0
    detail = (
        f"100 instances, violations={violations}, "
        f"mean ratio={float(np.mean(ratios)):.6f}"
    )
    return CheckResult("greedy_guarantee", ok, detail, time.perf_counter() - t0)


def check_randomized_joint_guarantee(base_seed: int = 0) -> CheckResult:
    """Mean randomized-greedy utility reaches 1/e of the joint optimum."""
    t0 = time.perf_counter()
    rng = seeded_rng(derive_seed(base_seed, "randomized-guarantee"))
    violations, ratios = 0, []
    for t in range(20):
        inst = _sample_instance(rng, 4, 10, min_viable=1)
        k = 1 + rng.integers(3)
        opt = brute_force_joint(inst, k).utility
        runs = randomized_joint_runs(
            inst,
            k,
            [seeded_rng(derive_seed(base_seed, "rj-run", t, r)) for r in range(200)],
        )
        mean = float(np.mean([sol.utility for sol in runs]))
        if mean < E_INV * opt - 1e-12:
            violations += 1
        ratios.append(mean / opt if opt > 0 else 1.0)
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 300.0
    detail = (
        f"20 instances x 200 runs, violations={violations}, "
        f"mean ratio={float(np.mean(ratios)):.6f}"
    )
    return CheckResult("randomized_joint_guarantee", ok, detail, elapsed)


def check_marginal_consistency(base_seed: int = 0) -> CheckResult:
    """O(m) marginal gains equal full recomputation to 1e-12."""
    t0 = time.perf_counter()
    rng = seeded_rng(derive_seed(base_seed, "marginals"))
    worst_fixed = worst_joint = 0.0
    for _ in range(1000):
        inst = _sample_instance(rng, 4, 10, min_viable=1)
        policy = threshold_policy(inst)

        accepted = ground_set_accepted(inst, policy).indices
        x = accepted[rng.integers(len(accepted))]
        A = ExplanationSet(_subset(rng, [i for i in accepted if i != x]))
        state = fixed_marginal_state(inst, policy, A)
        gain, _ = marginal_gain_fixed(inst, policy, A, state, x)
        exact = utility(inst, policy, A.add(x)) - utility(inst, policy, A)
        worst_fixed = max(worst_fixed, abs(gain - exact))

        viable = ground_set_viable(inst).indices
        xj = viable[rng.integers(len(viable))]
        Aj = ExplanationSet(_subset(rng, [i for i in viable if i != xj]))
        jstate = joint_marginal_state(inst, Aj)
        jgain, _ = marginal_gain_joint(inst, Aj, jstate, xj)
        jexact = joint_objective(inst, Aj.add(xj)) - joint_objective(inst, Aj)
        worst_joint = max(worst_joint, abs(jgain - jexact))
    ok = worst_fixed <= 1e-12 and worst_joint <= 1e-12
    detail = (
        f"1000 draws, worst |fixed|={worst_fixed:.3e}, "
        f"worst |joint|={worst_joint:.3e}"
    )
    return CheckResult("marginal_consistency", ok, detail, time.perf_counter() - t0)


def check_leakage_analytics(base_seed: int = 0) -> CheckResult:
    """Analytic leakage matches Monte Carlo within 3 standard errors and
    reduces exactly to plain utility at zero leakage probability."""
    t0 = time.perf_counter()
    rng = seeded_rng(derive_seed(base_seed, "leakage"))
    mc_fail = zero_fail = 0
    for _ in range(20):
        # value 0 is viable, so the policy accepts it: accepted is nonempty
        inst = _sample_instance(rng, 4, 10, min_viable=1)
        policy = threshold_policy(inst)
        accepted = ground_set_accepted(inst, policy).indices
        size = 1 + rng.integers(min(3, len(accepted)))
        order = list(accepted)
        picks = []
        for _ in range(size):
            picks.append(order.pop(rng.integers(len(order))))
        A = ExplanationSet(tuple(picks))
        p_l = float(rng.uniform(0.0, 1.0))
        analytic = leakage_utility(inst, policy, A, p_l)
        mc, se = leakage_utility_mc(inst, policy, A, p_l, samples=100_000, rng=rng)
        if abs(analytic - mc) > 3.0 * se + 1e-12:
            mc_fail += 1
        if leakage_utility(inst, policy, A, 0.0) != utility(inst, policy, A):
            zero_fail += 1
    ok = mc_fail == 0 and zero_fail == 0
    detail = f"20 instances, mc mismatches={mc_fail}, p_l=0 mismatches={zero_fail}"
    return CheckResult("leakage_analytics", ok, detail, time.perf_counter() - t0)


def check_synthetic_trend(base_seed: int = 0) -> CheckResult:
    """At the synthetic preset (m=200, k=20, gamma=0.3, 20 repetitions) the
    mean utilities order as alg2 >= alg1 >= every baseline, with alg1
    strictly above black box."""
    t0 = time.perf_counter()
    sums = {r: 0.0 for r in ("black_box", "min_cost", "diverse", "alg1", "alg2")}
    reps = 20
    for rep in range(reps):
        inst = generate_synthetic(
            SynthConfig(m=200, gamma=0.3, seed=derive_seed(base_seed, "preset", rep))
        )
        policy = threshold_policy(inst)
        k = 20
        sums["black_box"] += black_box_utility(inst)
        sums["min_cost"] += utility(
            inst, policy, min_cost_explanations(inst, policy, k)
        )
        sums["diverse"] += utility(
            inst, policy, diverse_explanations(inst, policy, k)
        )
        sums["alg1"] += utility(inst, policy, greedy_fixed_policy(inst, policy, k))
        sums["alg2"] += randomized_joint(
            inst, k, seeded_rng(derive_seed(base_seed, "preset-alg2", rep))
        ).utility
    means = {r: s / reps for r, s in sums.items()}
    baseline_best = max(means["black_box"], means["min_cost"], means["diverse"])
    elapsed = time.perf_counter() - t0
    ok = (
        means["alg2"] >= means["alg1"]
        and means["alg1"] >= baseline_best
        and means["alg1"] > means["black_box"]
        and elapsed < 120.0
    )
    detail = ", ".join(f"{r}={means[r]:.6f}" for r in sums)
    return CheckResult("synthetic_trend", ok, detail, elapsed)


def check_matroid_balance(base_seed: int = 0) -> CheckResult:
    """On the two-group witness the matroid greedy serves both groups and
    strictly improves the starved group."""
    t0 = time.perf_counter()
    inst, matroid = two_group_witness()
    policy = threshold_policy(inst)
    k = matroid.k
    a_card = greedy_fixed_policy(inst, policy, k)
    a_mat = greedy_matroid(inst, policy, matroid)
    rejected = policy.pi < 1.0
    rej_mass = [float(inst.px[[i for i in g if rejected[i]]].sum()) for g in matroid.groups]
    counts_card = [len(a_card.as_set() & set(g)) for g in matroid.groups]
    counts_mat = [len(a_mat.as_set() & set(g)) for g in matroid.groups]
    impr_card = group_improvement(inst, policy, a_card, matroid.groups)
    impr_mat = group_improvement(inst, policy, a_mat, matroid.groups)
    share1 = rej_mass[0] / sum(rej_mass)
    ok = (
        share1 > 0.9
        and counts_card[0] == k
        and counts_card[1] == 0
        and counts_mat == list(matroid.capacities)
        and impr_mat[1] > impr_card[1]
    )
    detail = (
        f"group-1 rejected share={share1:.3f}, counts cardinality={counts_card}, "
        f"matroid={counts_mat}, group-2 improvement "
        f"{impr_card[1]:.4f} -> {impr_mat[1]:.4f}"
    )
    return CheckResult("matroid_balance", ok, detail, time.perf_counter() - t0)


def check_determinism(base_seed: int = 0) -> CheckResult:
    """Every seeded command writes byte-identical files on a rerun."""
    from . import harness

    t0 = time.perf_counter()
    mismatches = []
    with tempfile.TemporaryDirectory() as tmp:
        outdir = Path(tmp) / "out"
        synth = SynthConfig(m=30, gamma=0.3, seed=11)
        matroid = PartitionMatroid(
            groups=(tuple(range(15)), tuple(range(15, 30))), capacities=(2, 1)
        )
        config = harness.ExperimentConfig(
            experiment="determinism-probe",
            outdir=str(outdir),
            synthetic=synth,
            k=3,
            k_sweep=(3,),
            alpha_sweep=(1.0,),
            pl_sweep=(0.0, 0.5),
            repetitions=2,
            base_seed=base_seed,
            bins=5,
            matroid=matroid,
        )
        commands = {
            "generate": harness.run_generate,
            "compare": harness.run_compare,
            "leakage": harness.run_leakage,
            "transport": harness.run_transport,
            "matroid": harness.run_matroid,
        }
        for name, fn in commands.items():
            paths = fn(config)
            paths = paths if isinstance(paths, list) else [paths]
            first = {p: Path(p).read_bytes() for p in paths}
            # fresh files: rewritten ones stall each later unlink on ext4
            for p in first:
                Path(p).unlink()
            paths2 = fn(config)
            paths2 = paths2 if isinstance(paths2, list) else [paths2]
            for p in dict.fromkeys([*paths2, *first]):
                if not Path(p).is_file() or Path(p).read_bytes() != first.get(p):
                    mismatches.append(f"{name}:{Path(p).name}")
    ok = not mismatches
    detail = "all command outputs byte-identical" if ok else (
        "mismatched outputs: " + ", ".join(mismatches)
    )
    return CheckResult("determinism", ok, detail, time.perf_counter() - t0)


ALL_CHECKS = (
    check_nonmonotone_fixture,
    check_set_cover_fixture,
    check_policy_oracle_equivalence,
    check_fixed_objective_properties,
    check_joint_objective_submodularity,
    check_greedy_guarantee,
    check_randomized_joint_guarantee,
    check_marginal_consistency,
    check_leakage_analytics,
    check_synthetic_trend,
    check_matroid_balance,
    check_determinism,
)


def run_all(base_seed: int = 0) -> list[CheckResult]:
    return [fn(base_seed) for fn in ALL_CHECKS]
