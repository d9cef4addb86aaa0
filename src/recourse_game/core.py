"""Problem instances, decision policies, explanation sets and matroids.

All containers are immutable after construction and safe to share across
workers. Feature values are indexed 0..m-1 with outcome probabilities sorted
nonincreasing; `sort_canonical` produces that ordering from raw inputs.
Infinite adaptation cost is represented by IEEE infinity (`numpy.inf`) and
never by a large finite surrogate.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Tuple

import numpy as np

# Tolerance on sum(px) == 1 for an already-constructed instance.
PROB_SUM_TOL = 1e-9
# Raw inputs whose mass misses 1 by more than PROB_SUM_TOL but stays within
# this window are rescaled; anything further off is rejected as a real error
# rather than format rounding.
NORMALIZE_WINDOW = 1e-6

INFINITE_COST = np.inf

# Rows per block wherever an m x m array is filled in row blocks, so a float
# temporary spans 64 rows, not m: at m=1000 generation's two live blocks are
# 13% of the cost matrix.
_ROW_BLOCK = 64


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float).view()
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Instance:
    """One game between the decision maker and the population.

    px[i] is the population mass at feature value i, py[i] the probability of
    a positive outcome there, cost[i, j] the adaptation cost from i to j
    (np.inf = unreachable), and gamma the decision maker's per-acceptance
    cost. Construction checks every invariant and raises ValueError naming
    the first one broken; `make_instance` also absorbs px rounding in
    outside data. The fields are read-only views that alias the caller's
    float arrays, which stay writeable: writing to them afterwards changes
    the instance without a check.
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
        _check(self)

    @property
    def m(self) -> int:
        return self.px.shape[0]


def _check(instance: Instance) -> None:
    """Raise ValueError naming the first violated instance invariant."""
    px, py, cost, gamma = instance.px, instance.py, instance.cost, instance.gamma
    m = px.shape[0]
    if px.ndim != 1 or py.ndim != 1 or py.shape[0] != m:
        raise ValueError("px and py must be vectors of equal length")
    if cost.shape != (m, m):
        raise ValueError(f"cost must be {m}x{m}, got {cost.shape}")
    # each gate is one reduction; the offender is located only on failure
    if not px.min(initial=0.0) >= 0.0:  # NaN fails too
        bad = np.flatnonzero(~(px >= 0.0))
        raise ValueError(f"px[{bad[0]}] is negative or NaN")
    total = float(px.sum())
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"px sums to {total:g}")
    if not (py.min(initial=0.0) >= 0.0 and py.max(initial=1.0) <= 1.0):
        bad = np.flatnonzero(~((py >= 0.0) & (py <= 1.0)))
        raise ValueError(f"py[{bad[0]}] outside [0, 1]")
    drop = py[:-1] < py[1:]
    if drop.any():
        raise ValueError(f"py not nonincreasing at index {drop.argmax()}")
    if not cost.min(initial=0.0) >= 0.0:
        i, j = np.argwhere(~(cost >= 0.0))[0]
        raise ValueError(f"cost[{i}][{j}] is negative or NaN")
    if cost.diagonal().any():  # -0.0 passes, as 0.0
        i = np.flatnonzero(cost.diagonal())[0]
        raise ValueError(f"cost[{i}][{i}] must be 0")
    _check_gamma(gamma)


def _check_gamma(gamma: float) -> None:
    if not (0.0 < gamma < 1.0):  # NaN fails too
        raise ValueError(f"gamma must lie strictly in (0, 1), got {gamma:g}")


def _counts(values, what: str, low: int | None = 0) -> Tuple[int, ...]:
    """The one count rule: plain ints, each >= low unless low is None, or a
    ValueError "<what> must be an integer" or "<what> must be >= <low>".
    index, not int (which truncates 1.7 to 1), so a NumPy integer passes."""
    # A list, not a generator: tuple(<generator>) builds by resizing, which
    # skips CPython's per-length tuple free lists on allocation but refills
    # them on release, so resident memory crept with every solver call.
    try:
        out = tuple([index(v) for v in values])
    except TypeError:
        raise ValueError(f"{what} must be an integer") from None
    if low is not None and out and min(out) < low:
        raise ValueError(f"{what} must be >= {low}")
    return out


@dataclass(frozen=True, eq=False)
class Policy:
    """Per-feature-value acceptance probabilities pi(x) in [0, 1]; pi is a
    read-only view that aliases the caller's float array."""

    pi: np.ndarray

    def __post_init__(self):
        pi = _readonly(self.pi)
        if pi.ndim != 1:
            raise ValueError("policy must be a vector")
        if not ((pi >= 0.0) & (pi <= 1.0)).all():  # NaN fails both
            raise ValueError("policy entries must lie in [0, 1]")
        object.__setattr__(self, "pi", pi)

    @property
    def m(self) -> int:
        return self.pi.shape[0]

    def is_deterministic(self) -> bool:
        return bool(((self.pi == 0.0) | (self.pi == 1.0)).all())


@dataclass(frozen=True)
class ExplanationSet:
    """Ordered duplicate-free set of feature-value indices offered as targets.

    Order is insertion order (greedy algorithms add best-first), membership is
    set semantics.
    """

    indices: Tuple[int, ...] = ()

    def __post_init__(self):
        idx = _counts(self.indices, "every explanation index")
        if len(set(idx)) != len(idx):
            raise ValueError("duplicate explanation index")
        object.__setattr__(self, "indices", idx)

    def __iter__(self):
        return iter(self.indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __contains__(self, i) -> bool:
        return i in self.indices  # by value: 1.7 is not 1

    def as_set(self) -> frozenset:
        return frozenset(self.indices)

    def add(self, i: int) -> "ExplanationSet":
        return ExplanationSet(self.indices + (i,))


@dataclass(frozen=True)
class PartitionMatroid:
    """Disjoint groups covering [m] with per-group capacities d_i.

    A set A is feasible iff |A ∩ groups[g]| <= capacities[g] for every g.
    """

    groups: Tuple[Tuple[int, ...], ...]
    capacities: Tuple[int, ...]

    def __post_init__(self):
        groups = tuple(_counts(g, "every matroid group member") for g in self.groups)
        caps = _counts(self.capacities, "every matroid capacity")
        if len(groups) != len(caps):
            raise ValueError("groups and capacities must have equal length")
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


def make_instance(px, py, cost, gamma: float) -> Instance:
    """Checked constructor for outside data: a px whose sum misses 1 by more
    than PROB_SUM_TOL but by no more than NORMALIZE_WINDOW is rescaled; any
    other px is stored bit for bit. Raises ValueError on a broken invariant."""
    px = np.array(px, dtype=float)
    total = float(px.sum())
    if PROB_SUM_TOL < abs(total - 1.0) <= NORMALIZE_WINDOW:
        px /= total
    return Instance(px=px, py=py, cost=cost, gamma=gamma)


def _canonical_order(py: np.ndarray) -> np.ndarray:
    """perm with py[perm] nonincreasing; ties keep their original order."""
    return np.argsort(-py, kind="stable")


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
    perm = _canonical_order(py)
    instance = make_instance(px[perm], py[perm], cost[np.ix_(perm, perm)], gamma)
    return instance, perm


def _check_policy_length(instance: Instance, pi: np.ndarray) -> None:
    if pi.shape[-1] != instance.m:
        raise ValueError(
            f"policy has {pi.shape[-1]} values but the instance has {instance.m}"
        )


def ground_set_accepted(instance: Instance, policy: Policy) -> ExplanationSet:
    """Indices accepted with probability one: {i : pi(x_i) = 1} exactly."""
    _check_policy_length(instance, policy.pi)
    return ExplanationSet(tuple(np.flatnonzero(policy.pi == 1.0).tolist()))


def ground_set_viable(instance: Instance) -> ExplanationSet:
    """Indices whose outcome clears the decision cost: {i : py[i] >= gamma}."""
    return ExplanationSet(tuple(np.flatnonzero(instance.py >= instance.gamma).tolist()))


def is_rational(instance: Instance, policy: Policy) -> bool:
    """True iff pi(x) = 0 wherever py[x] < gamma."""
    _check_policy_length(instance, policy.pi)
    return bool((policy.pi[instance.py < instance.gamma] == 0.0).all())


def is_outcome_monotonic(instance: Instance, policy: Policy) -> bool:
    """True iff py[i] >= py[j] <=> pi[i] >= pi[j] for all pairs.

    With py canonically sorted this reduces to pi nonincreasing plus equal
    acceptance on equal outcomes.
    """
    pi, py = policy.pi, instance.py
    _check_policy_length(instance, pi)
    if (pi[:-1] < pi[1:]).any():
        return False
    ties = py[:-1] == py[1:]
    return bool((pi[:-1][ties] == pi[1:][ties]).all())
