"""Verification suite behind the `check` command.

Each criterion `check_<name>(base_seed)` returns a CheckResult. Its body
returns only `(ok, detail)`; the `_criterion` wrapper times it, names the
result `<name>` and, for a criterion with a wall-clock bound, fails it once
the body takes that many seconds. `run_all` executes the full battery and
`run_check` prints its report. The regime comparison and the group balance
are the harness's own (`harness.regime_solution`, `harness.group_balance`),
not copies. Detail strings are deterministic (timings are reported
separately) so the report itself is reproducible byte for byte.
"""

from __future__ import annotations

import sys
import tempfile
import time
from dataclasses import dataclass
from functools import partial, wraps
from pathlib import Path

import numpy as np

from . import harness
from .algorithms import (
    brute_force_fixed,
    brute_force_joint,
    exhaustive_best_policy,
    greedy_fixed_policy,
    joint_objective,
    optimal_policy_for,
    randomized_joint_runs,
)
from .behavior import (
    fixed_marginal_state,
    joint_marginal_state,
    leakage_utility,
    leakage_utility_mc,
    marginal_gain_fixed,
    marginal_gain_joint,
    utility,
)
from .baselines import diverse_explanations, threshold_policy
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


def _criterion(bound: float | None = None):
    """Wrap a criterion body `check_<name>(base_seed) -> (ok, detail)` into
    one returning CheckResult `<name>`, timed, and failed at a runtime of
    `bound` seconds or more."""

    def wrap(body):
        name = body.__name__.removeprefix("check_")

        @wraps(body)
        def run(base_seed: int = 0) -> CheckResult:
            t0 = time.perf_counter()
            ok, detail = body(base_seed)
            elapsed = time.perf_counter() - t0
            passed = ok and (bound is None or elapsed < bound)
            return CheckResult(name, passed, detail, elapsed)

        return run

    return wrap


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


def set_cover_witness() -> tuple[Instance, Policy]:
    """Set-cover reduction instance: 2 elements, sets S1={u1,u2}, S2={u2}.

    Indices 0,1 are the set values (outcome 1, zero mass, accepted), indices
    2,3 the element values (outcome gamma = 0.3, uniform mass, rejected).
    Moving from an element to a set costs 0 iff the element belongs to it.
    """
    cost = np.full((4, 4), 2.0)
    np.fill_diagonal(cost, 0.0)
    cost[2, 0] = 0.0
    cost[3, 0] = 0.0
    cost[3, 1] = 0.0
    instance = make_instance(
        px=[0.0, 0.0, 0.5, 0.5],
        py=[1.0, 1.0, 0.3, 0.3],
        cost=cost,
        gamma=0.3,
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
    rng: np.random.Generator, m_lo: int, m_hi: int, min_viable: int = 0
) -> Instance:
    while True:
        m = m_lo + rng.integers(m_hi - m_lo + 1)
        gamma = float(rng.uniform(0.15, 0.85))
        inst = generate_synthetic(
            SynthConfig(m=m, gamma=gamma, seed=rng.integers(2**62))
        )
        if np.count_nonzero(inst.py >= inst.gamma) >= min_viable:
            return inst


def _random_monotone_policy(rng: np.random.Generator, instance: Instance) -> Policy:
    """Random rational, outcome-monotonic policy with a nonempty certain-
    acceptance prefix. Outcomes of synthetic instances are distinct almost
    surely, so nonincreasing acceptance suffices for monotonicity."""
    n_viable = np.count_nonzero(instance.py >= instance.gamma)
    pi = np.zeros(instance.m)
    if n_viable == 0:
        return Policy(pi)
    r = 1 + rng.integers(n_viable)
    pi[:r] = 1.0
    if n_viable > r and rng.random() < 0.5:
        tail = np.sort(rng.uniform(0.0, 0.95, n_viable - r))[::-1]
        pi[r:n_viable] = tail
    return Policy(pi)


def _subset(rng: np.random.Generator, items) -> tuple[int, ...]:
    return tuple(i for i in items if rng.random() < 0.5)


def _draw_candidate(rng: np.random.Generator, ground) -> tuple[int, tuple[int, ...]]:
    """x uniform from ground, then a uniform subset of ground - {x}."""
    x = ground[rng.integers(len(ground))]
    return x, _subset(rng, [i for i in ground if i != x])


def _draw_violations(rng: np.random.Generator, ground, f) -> tuple[bool, bool, bool]:
    """Draw x and A ⊆ B ⊆ ground - {x}; report whether f is negative at
    A, B, A+x or B+x, whether f(A) > f(B), and whether the gain of x at A
    falls short of its gain at B."""
    x, B = _draw_candidate(rng, ground)
    A = _subset(rng, B)
    fa, fb, fax, fbx = (f(ExplanationSet(S)) for S in (A, B, A + (x,), B + (x,)))
    negative = fa < 0.0 or fb < 0.0 or fax < 0.0 or fbx < 0.0
    return negative, fa > fb, (fax - fa) < (fbx - fb) - 1e-12


# ---------------------------------------------------------------------------
# Criteria.
# ---------------------------------------------------------------------------

@_criterion()
def check_nonmonotone_fixture(base_seed: int) -> tuple[bool, str]:
    """Joint objective and optimal policy on the non-monotonicity witness."""
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
    return ok, detail


@_criterion()
def check_set_cover_fixture(base_seed: int) -> tuple[bool, str]:
    """Greedy and diverse both pick the covering set and earn 1 - gamma."""
    inst, policy = set_cover_witness()
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
    return ok, detail


@_criterion(bound=60.0)
def check_policy_oracle_equivalence(base_seed: int) -> tuple[bool, str]:
    """Closed-form policy beats every deterministic policy containing A."""
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
    detail = f"200 instances, violations={violations}, worst gap={worst:.3e}"
    return violations == 0, detail


@_criterion()
def check_fixed_objective_properties(base_seed: int) -> tuple[bool, str]:
    """Non-negativity, monotonicity, submodularity of the fixed-policy
    objective over 1000 random draws."""
    rng = seeded_rng(derive_seed(base_seed, "fixed-properties"))
    neg = mono = sub = 0
    for _ in range(1000):
        # value 0 is viable, so the policy accepts it: accepted is nonempty
        inst = _sample_instance(rng, 4, 10, min_viable=1)
        policy = _random_monotone_policy(rng, inst)
        accepted = ground_set_accepted(inst, policy).indices
        n, mo, su = _draw_violations(rng, accepted, partial(utility, inst, policy))
        neg, mono, sub = neg + n, mono + mo, sub + su
    ok = neg == 0 and mono == 0 and sub == 0
    detail = f"1000 draws, negativity={neg}, monotonicity={mono}, submodularity={sub}"
    return ok, detail


@_criterion()
def check_joint_objective_submodularity(base_seed: int) -> tuple[bool, str]:
    """Non-negativity and submodularity of the joint objective; its
    non-monotonicity is witnessed by the fixture criterion."""
    rng = seeded_rng(derive_seed(base_seed, "joint-properties"))
    neg = sub = 0
    for _ in range(1000):
        inst = _sample_instance(rng, 4, 10, min_viable=2)
        viable = ground_set_viable(inst).indices
        n, _, su = _draw_violations(rng, viable, partial(joint_objective, inst))
        neg, sub = neg + n, sub + su
    detail = (
        f"1000 draws, negativity={neg}, submodularity={sub}; "
        "non-monotonicity witnessed by nonmonotone_fixture"
    )
    return neg == 0 and sub == 0, detail


@_criterion()
def check_greedy_guarantee(base_seed: int) -> tuple[bool, str]:
    """Greedy reaches at least (1 - 1/e) of the exhaustive optimum."""
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
    detail = (
        f"100 instances, violations={violations}, "
        f"mean ratio={float(np.mean(ratios)):.6f}"
    )
    return violations == 0, detail


@_criterion(bound=300.0)
def check_randomized_joint_guarantee(base_seed: int) -> tuple[bool, str]:
    """Mean randomized-greedy utility reaches 1/e of the joint optimum."""
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
    detail = (
        f"20 instances x 200 runs, violations={violations}, "
        f"mean ratio={float(np.mean(ratios)):.6f}"
    )
    return violations == 0, detail


@_criterion()
def check_marginal_consistency(base_seed: int) -> tuple[bool, str]:
    """O(m) marginal gains equal full recomputation to 1e-12."""
    rng = seeded_rng(derive_seed(base_seed, "marginals"))
    worst_fixed = worst_joint = 0.0
    for _ in range(1000):
        inst = _sample_instance(rng, 4, 10, min_viable=1)
        policy = threshold_policy(inst)

        x, rest = _draw_candidate(rng, ground_set_accepted(inst, policy).indices)
        A = ExplanationSet(rest)
        state = fixed_marginal_state(inst, policy, A)
        gain, _ = marginal_gain_fixed(inst, policy, A, state, x)
        exact = utility(inst, policy, A.add(x)) - utility(inst, policy, A)
        worst_fixed = max(worst_fixed, abs(gain - exact))

        xj, rest = _draw_candidate(rng, ground_set_viable(inst).indices)
        Aj = ExplanationSet(rest)
        jstate = joint_marginal_state(inst, Aj)
        jgain, _ = marginal_gain_joint(inst, Aj, jstate, xj)
        jexact = joint_objective(inst, Aj.add(xj)) - joint_objective(inst, Aj)
        worst_joint = max(worst_joint, abs(jgain - jexact))
    ok = worst_fixed <= 1e-12 and worst_joint <= 1e-12
    detail = (
        f"1000 draws, worst |fixed|={worst_fixed:.3e}, "
        f"worst |joint|={worst_joint:.3e}"
    )
    return ok, detail


@_criterion()
def check_leakage_analytics(base_seed: int) -> tuple[bool, str]:
    """Analytic leakage matches Monte Carlo within 3 standard errors and
    reduces exactly to plain utility at zero leakage probability."""
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
    detail = f"20 instances, mc mismatches={mc_fail}, p_l=0 mismatches={zero_fail}"
    return mc_fail == 0 and zero_fail == 0, detail


@_criterion(bound=120.0)
def check_synthetic_trend(base_seed: int) -> tuple[bool, str]:
    """At the synthetic preset (m=200, k=20, gamma=0.3, 20 repetitions) the
    mean utilities order as alg2 >= alg1 >= every baseline, with alg1
    strictly above black box."""
    sums = dict.fromkeys(harness.REGIMES, 0.0)
    reps = 20
    for rep in range(reps):
        inst = generate_synthetic(
            SynthConfig(m=200, gamma=0.3, seed=derive_seed(base_seed, "preset", rep))
        )
        rng = seeded_rng(derive_seed(base_seed, "preset-alg2", rep))
        for regime in sums:
            solution = harness.regime_solution(regime, inst, 20, rng)
            sums[regime] += utility(inst, *solution)
    means = {r: s / reps for r, s in sums.items()}
    baseline_best = max(means["black_box"], means["min_cost"], means["diverse"])
    ok = (
        means["alg2"] >= means["alg1"]
        and means["alg1"] >= baseline_best
        and means["alg1"] > means["black_box"]
    )
    return ok, ", ".join(f"{r}={means[r]:.6f}" for r in sums)


@_criterion()
def check_matroid_balance(base_seed: int) -> tuple[bool, str]:
    """On the two-group witness the matroid greedy serves both groups and
    strictly improves the starved group."""
    inst, matroid = two_group_witness()
    rej_mass, counts_card, counts_mat, impr_card, impr_mat = (
        list(column) for column in zip(*harness.group_balance(inst, matroid))
    )
    share1 = rej_mass[0] / sum(rej_mass)
    ok = (
        share1 > 0.9
        and counts_card[0] == matroid.k
        and counts_card[1] == 0
        and counts_mat == list(matroid.capacities)
        and impr_mat[1] > impr_card[1]
    )
    detail = (
        f"group-1 rejected share={share1:.3f}, counts cardinality={counts_card}, "
        f"matroid={counts_mat}, group-2 improvement "
        f"{impr_card[1]:.4f} -> {impr_mat[1]:.4f}"
    )
    return ok, detail


@_criterion()
def check_determinism(base_seed: int) -> tuple[bool, str]:
    """Every seeded command writes byte-identical files on a rerun."""
    mismatches = []
    with tempfile.TemporaryDirectory() as tmp:
        outdir = Path(tmp) / "out"
        matroid = PartitionMatroid(
            groups=(tuple(range(15)), tuple(range(15, 30))), capacities=(2, 1)
        )
        config = harness.ExperimentConfig(
            experiment="determinism-probe",
            outdir=str(outdir),
            synthetic=SynthConfig(m=30, gamma=0.3, seed=11),
            k_sweep=(3,),
            pl_sweep=(0.0, 0.5),
            repetitions=2,
            base_seed=base_seed,
            bins=5,
            matroid=matroid,
        )
        for name in harness.COMMANDS:
            fn = getattr(harness, f"run_{name}")
            first = {p: p.read_bytes() for p in fn(config)}
            # fresh files: rewritten ones stall each later unlink on ext4
            for p in first:
                p.unlink()
            for p in dict.fromkeys([*fn(config), *first]):
                if not p.is_file() or p.read_bytes() != first.get(p):
                    mismatches.append(f"{name}:{p.name}")
    ok = not mismatches
    detail = "all command outputs byte-identical" if ok else (
        "mismatched outputs: " + ", ".join(mismatches)
    )
    return ok, detail


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


def run_check(base_seed: int = 0) -> bool:
    """Run the acceptance battery; one PASS/FAIL line per criterion.

    The report on stdout is deterministic; per-criterion runtimes go to
    stderr.
    """
    results = run_all(base_seed)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name}: {r.detail}")
        print(f"    {r.name}: {r.seconds:.2f}s", file=sys.stderr)
    ok = all(r.passed for r in results)
    print(f"{sum(r.passed for r in results)}/{len(results)} criteria passed")
    return ok
