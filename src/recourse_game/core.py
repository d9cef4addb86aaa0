"""Problem instances, decision policies, explanation sets and matroids.

All containers are immutable after construction and safe to share across
workers. Feature values are indexed 0..m-1 with outcome probabilities sorted
nonincreasing; `sort_canonical` produces that ordering from raw inputs.
Infinite adaptation cost is represented by IEEE infinity (`numpy.inf`) and
never by a large finite surrogate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np

# Tolerance on sum(px) == 1 for an already-constructed instance.
PROB_SUM_TOL = 1e-9
# Raw inputs whose mass is within this window of 1 are normalized; anything
# further off is rejected as a real error rather than format rounding.
NORMALIZE_WINDOW = 1e-6

INFINITE_COST = np.inf


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Instance:
    """One game between the decision maker and the population.

    px[i] is the population mass at feature value i, py[i] the probability of
    a positive outcome there, cost[i, j] the adaptation cost from i to j
    (np.inf = unreachable), and gamma the decision maker's per-acceptance
    cost. The raw constructor performs no invariant checking so that
    `validate` can be exercised on broken data; use `make_instance` to build
    checked instances.
    """

    px: np.ndarray
    py: np.ndarray
    cost: np.ndarray
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "px", _readonly(self.px))
        object.__setattr__(self, "py", _readonly(self.py))
        object.__setattr__(self, "cost", _readonly(self.cost))
        object.__setattr__(self, "gamma", float(self.gamma))

    @property
    def m(self) -> int:
        return self.px.shape[0]


@dataclass(frozen=True, eq=False)
class Policy:
    """Per-feature-value acceptance probabilities pi(x) in [0, 1]."""

    pi: np.ndarray

    def __post_init__(self):
        pi = _readonly(self.pi)
        if pi.ndim != 1:
            raise ValueError("policy must be a vector")
        if np.any(np.isnan(pi)) or np.any(pi < 0.0) or np.any(pi > 1.0):
            raise ValueError("policy entries must lie in [0, 1]")
        object.__setattr__(self, "pi", pi)

    @property
    def m(self) -> int:
        return self.pi.shape[0]

    def is_deterministic(self) -> bool:
        return bool(np.all((self.pi == 0.0) | (self.pi == 1.0)))


@dataclass(frozen=True)
class ExplanationSet:
    """Ordered duplicate-free set of feature-value indices offered as targets.

    Order is insertion order (greedy algorithms add best-first), membership is
    set semantics.
    """

    indices: Tuple[int, ...] = ()

    def __post_init__(self):
        # A list, not a generator: tuple(<generator>) builds by resizing, which
        # skips CPython's per-length tuple free lists on allocation but refills
        # them on release, so resident memory crept with every solver call.
        idx = tuple([int(i) for i in self.indices])
        if any(i < 0 for i in idx):
            raise ValueError("explanation indices must be nonnegative")
        if len(set(idx)) != len(idx):
            raise ValueError("duplicate explanation index")
        object.__setattr__(self, "indices", idx)

    def __iter__(self):
        return iter(self.indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __contains__(self, i) -> bool:
        return int(i) in set(self.indices)

    def as_set(self) -> frozenset:
        return frozenset(self.indices)

    def add(self, i: int) -> "ExplanationSet":
        return ExplanationSet(self.indices + (int(i),))

    def sorted(self) -> Tuple[int, ...]:
        return tuple(sorted(self.indices))


@dataclass(frozen=True)
class PartitionMatroid:
    """Disjoint groups covering [m] with per-group capacities d_i.

    A set A is feasible iff |A ∩ groups[g]| <= capacities[g] for every g.
    """

    groups: Tuple[Tuple[int, ...], ...]
    capacities: Tuple[int, ...]

    def __post_init__(self):
        groups = tuple(tuple(int(i) for i in g) for g in self.groups)
        caps = tuple(int(c) for c in self.capacities)
        if len(groups) != len(caps):
            raise ValueError("groups and capacities must have equal length")
        if any(c < 0 for c in caps):
            raise ValueError("capacities must be nonnegative")
        flat = [i for g in groups for i in g]
        if len(set(flat)) != len(flat):
            raise ValueError("groups must be pairwise disjoint")
        if set(flat) != set(range(len(flat))):
            raise ValueError("groups must cover exactly 0..m-1")
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "capacities", caps)

    @property
    def m(self) -> int:
        return sum(len(g) for g in self.groups)

    @property
    def k(self) -> int:
        return sum(self.capacities)

    def group_of(self, i: int) -> int:
        for g, members in enumerate(self.groups):
            if i in members:
                return g
        raise KeyError(i)

    def is_feasible(self, indices: Iterable[int]) -> bool:
        chosen = set(int(i) for i in indices)
        return all(
            len(chosen & set(g)) <= c
            for g, c in zip(self.groups, self.capacities)
        )


def validate(instance: Instance) -> str | None:
    """Return the first violated instance invariant, or None if all hold.

    Reports rather than raises so callers can surface the message; checked
    constructors raise on a non-None report.
    """
    px, py, cost, gamma = instance.px, instance.py, instance.cost, instance.gamma
    m = px.shape[0]
    if px.ndim != 1 or py.ndim != 1 or py.shape[0] != m:
        return "px and py must be vectors of equal length"
    if cost.shape != (m, m):
        return f"cost must be {m}x{m}, got {cost.shape}"
    if np.any(np.isnan(px)) or np.any(px < 0.0):
        bad = int(np.flatnonzero(np.isnan(px) | (px < 0.0))[0])
        return f"px[{bad}] is negative or NaN"
    total = float(px.sum())
    if abs(total - 1.0) > PROB_SUM_TOL:
        return f"px sums to {total:g}"
    if np.any(np.isnan(py)) or np.any(py < 0.0) or np.any(py > 1.0):
        bad = int(np.flatnonzero(np.isnan(py) | (py < 0.0) | (py > 1.0))[0])
        return f"py[{bad}] outside [0, 1]"
    drop = np.flatnonzero(py[:-1] < py[1:])
    if drop.size:
        return f"py not nonincreasing at index {int(drop[0])}"
    if np.any(np.isnan(cost)) or np.any(cost < 0.0):
        i, j = np.argwhere(np.isnan(cost) | (cost < 0.0))[0]
        return f"cost[{int(i)}][{int(j)}] is negative or NaN"
    diag = np.flatnonzero(np.diagonal(cost) != 0.0)
    if diag.size:
        return f"cost[{int(diag[0])}][{int(diag[0])}] must be 0"
    if not (0.0 < gamma < 1.0):
        return f"gamma must lie strictly in (0, 1), got {gamma:g}"
    return None


def make_instance(px, py, cost, gamma: float) -> Instance:
    """Checked constructor: normalizes px within the rounding window and
    raises ValueError on any invariant violation."""
    px = np.asarray(px, dtype=float).copy()
    total = float(px.sum())
    if abs(total - 1.0) <= NORMALIZE_WINDOW and total > 0.0:
        px = px / total
    instance = Instance(px=px, py=py, cost=cost, gamma=gamma)
    report = validate(instance)
    if report is not None:
        raise ValueError(report)
    return instance


def sort_canonical(px, py, cost, gamma: float) -> Tuple[Instance, np.ndarray]:
    """Reindex feature values so py is nonincreasing (ties keep original
    order) and return the checked instance plus the permutation used.

    perm[new] = old, i.e. instance.py == py[perm]; callers map results back
    with perm.
    """
    px = np.asarray(px, dtype=float)
    py = np.asarray(py, dtype=float)
    cost = np.asarray(cost, dtype=float)
    m = px.shape[0]
    if py.shape[0] != m or cost.shape != (m, m):
        raise ValueError("dimension mismatch between px, py and cost")
    perm = np.argsort(-py, kind="stable")
    instance = make_instance(px[perm], py[perm], cost[np.ix_(perm, perm)], gamma)
    return instance, perm


def ground_set_accepted(instance: Instance, policy: Policy) -> ExplanationSet:
    """Indices accepted with probability one: {i : pi(x_i) = 1} exactly."""
    return ExplanationSet(tuple(np.flatnonzero(policy.pi == 1.0)))


def ground_set_viable(instance: Instance) -> ExplanationSet:
    """Indices whose outcome clears the decision cost: {i : py[i] >= gamma}."""
    return ExplanationSet(tuple(np.flatnonzero(instance.py >= instance.gamma)))


def is_rational(instance: Instance, policy: Policy) -> bool:
    """True iff pi(x) = 0 wherever py[x] < gamma."""
    return bool(np.all(policy.pi[instance.py < instance.gamma] == 0.0))


def is_outcome_monotonic(instance: Instance, policy: Policy) -> bool:
    """True iff py[i] >= py[j] <=> pi[i] >= pi[j] for all pairs.

    With py canonically sorted this reduces to pi nonincreasing plus equal
    acceptance on equal outcomes.
    """
    pi, py = policy.pi, instance.py
    if np.any(pi[:-1] < pi[1:]):
        return False
    ties = py[:-1] == py[1:]
    return bool(np.all(pi[:-1][ties] == pi[1:][ties]))
