"""Instance containers, validation, canonical ordering and ground sets."""

import numpy as np
import pytest

import recourse_game as rg
from conftest import is_feasible, random_instance, traced_peak

BASIC = dict(
    px=[0.5, 0.5],
    py=[0.9, 0.1],
    cost=[[0.0, 1.0], [1.0, 0.0]],
    gamma=0.3,
)


def test_validate_ok_on_consistent_instance():
    inst = rg.Instance(**BASIC)
    assert inst.m == 2
    assert inst.px.tolist() == BASIC["px"]


def _rejects(change, message):
    # construction itself rejects broken data, with or without make_instance
    # in front
    for build in (rg.Instance, rg.make_instance):
        with pytest.raises(ValueError) as err:
            build(**{**BASIC, **change})
        assert str(err.value) == message


def test_validate_reports_py_ordering():
    _rejects({"py": [0.1, 0.9]}, "py not nonincreasing at index 0")
    _rejects({"py": [1.5, 0.1]}, "py[0] outside [0, 1]")
    _rejects({"py": [0.9]}, "px and py must be vectors of equal length")
    # each gate passes as one reduction and locates a failure afterwards
    _rejects({"py": [np.nan, 0.1]}, "py[0] outside [0, 1]")
    _rejects({"py": [0.9, np.nan]}, "py[1] outside [0, 1]")
    three = dict(px=[0.5, 0.25, 0.25], cost=np.zeros((3, 3)))
    _rejects({**three, "py": [0.9, 0.1, 0.5]}, "py not nonincreasing at index 1")


def test_validate_reports_px_sum():
    _rejects({"px": [0.5, 0.6]}, "px sums to 1.1")
    _rejects({"px": [1.5, -0.5]}, "px[1] is negative or NaN")
    _rejects({"px": [np.nan, 0.5]}, "px[0] is negative or NaN")


def test_validate_reports_bad_gamma_and_diagonal():
    _rejects({"gamma": 1.0}, "gamma must lie strictly in (0, 1), got 1")
    _rejects({"gamma": 0.0}, "gamma must lie strictly in (0, 1), got 0")
    _rejects({"cost": [[0.0, 1.0], [1.0, 0.5]]}, "cost[1][1] must be 0")
    # the cost gate runs before the diagonal's, and -0.0 is a zero cost
    _rejects({"cost": [[0.0, 1.0], [1.0, np.nan]]}, "cost[1][1] is negative or NaN")
    assert rg.Instance(**{**BASIC, "cost": [[-0.0, 1.0], [1.0, -0.0]]}).m == 2
    _rejects({"cost": [[0.0, 1.0]]}, "cost must be 2x2, got (1, 2)")


@pytest.mark.parametrize("gamma", [True, False, np.True_, "0.3", None, 0.3 + 0j])
def test_gamma_must_be_a_number(gamma):
    # bool and str are refused, not read as 1.0 or parsed
    _rejects({"gamma": gamma}, "gamma must be a number")
    with pytest.raises(ValueError, match="^gamma must be a number$"):
        rg.SynthConfig(m=6, gamma=gamma)


@pytest.mark.parametrize("gamma", [0.25, np.float32(0.25), np.float64(0.25)])
def test_gamma_is_stored_as_a_plain_float(gamma):
    for holder in (rg.Instance(**{**BASIC, "gamma": gamma}),
                   rg.SynthConfig(m=6, gamma=gamma)):
        assert type(holder.gamma) is float and holder.gamma == 0.25


@pytest.mark.parametrize("first, second", [(-0.5, np.nan), (np.nan, -0.5)])
def test_validate_reports_the_first_bad_cost_in_row_major_order(first, second):
    cost = np.ones((3, 3))
    np.fill_diagonal(cost, 0.0)
    cost[1, 2], cost[2, 0] = first, second
    with pytest.raises(ValueError, match=r"^cost\[1\]\[2\] is negative or NaN$"):
        rg.Instance([0.5, 0.25, 0.25], [0.9, 0.5, 0.1], cost, 0.3)


def test_validate_makes_no_m_by_m_temporary():
    inst = random_instance(rg.seeded_rng(0), 1000, gamma=0.3)
    peak = traced_peak(lambda: rg.Instance(inst.px, inst.py, inst.cost, inst.gamma))
    assert peak < inst.cost.nbytes / 100


def test_validate_accepts_infinite_cost():
    inst = rg.Instance(**{**BASIC, "cost": [[0.0, np.inf], [1.0, 0.0]]})
    assert inst.cost[0, 1] == np.inf


def test_make_instance_keeps_a_passing_px_bit_for_bit():
    # sums to 1 - 2**-53: within PROB_SUM_TOL, so nothing is rescaled
    px = np.array([0.1, 0.2, 0.7 - 2**-53])
    assert px.sum() != 1.0
    inst = rg.make_instance(px, [0.9, 0.5, 0.1], np.zeros((3, 3)), 0.3)
    assert inst.px.tobytes() == px.tobytes()
    again = rg.make_instance(inst.px, inst.py, inst.cost, 0.3)
    assert again.px.tobytes() == px.tobytes()


def test_make_instance_normalizes_within_window():
    raw = np.array(BASIC["px"]) * (1 + 5e-7)
    inst = rg.make_instance(raw, BASIC["py"], BASIC["cost"], BASIC["gamma"])
    assert abs(inst.px.sum() - 1.0) <= 1e-9


def test_make_instance_rejects_gross_mass_error():
    with pytest.raises(ValueError, match="px sums"):
        rg.make_instance([0.5, 0.6], BASIC["py"], BASIC["cost"], BASIC["gamma"])


def test_instance_arrays_are_immutable():
    inst = rg.make_instance(**BASIC)
    with pytest.raises(ValueError):
        inst.px[0] = 0.2


def test_construction_leaves_the_callers_arrays_writeable():
    px, py = np.array([0.5, 0.5]), np.array([0.9, 0.1])
    cost, pi = np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, 0.0])
    inst = rg.Instance(px, py, cost, 0.3)
    made = rg.make_instance(px, py, cost, 0.3)
    policy = rg.Policy(pi)
    owned = (inst.px, inst.py, inst.cost, made.px, made.py, made.cost, policy.pi)
    for a in owned:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]
    assert px.flags.writeable and py.flags.writeable
    assert cost.flags.writeable and pi.flags.writeable
    cost[0, 1], py[1], pi[1] = 1.0, 0.1, 0.0
    # the instance aliases the caller's float arrays: no copy is made
    assert np.shares_memory(inst.cost, cost) and np.shares_memory(made.cost, cost)


def test_sort_canonical_example():
    py = [0.4, 1.0, 0.5]
    cost = np.arange(9.0).reshape(3, 3)
    np.fill_diagonal(cost, 0.0)
    inst, perm = rg.sort_canonical([0.2, 0.3, 0.5], py, cost, 0.3)
    assert perm.tolist() == [1, 2, 0]
    assert inst.py.tolist() == [1.0, 0.5, 0.4]
    assert inst.px.tolist() == [0.3, 0.5, 0.2]
    # both axes permuted: cost'[i, j] = cost[perm[i], perm[j]]
    assert inst.cost[0, 2] == cost[1, 0]


def test_sort_canonical_identity_and_idempotence():
    inst, perm = rg.sort_canonical(**BASIC)
    assert perm.tolist() == [0, 1]
    again, perm2 = rg.sort_canonical(inst.px, inst.py, inst.cost, inst.gamma)
    assert perm2.tolist() == [0, 1]
    assert np.array_equal(again.py, inst.py)


def test_sort_canonical_stable_ties():
    _, perm = rg.sort_canonical(
        [0.3, 0.3, 0.4], [0.5, 0.7, 0.5], np.zeros((3, 3)), 0.2
    )
    assert perm.tolist() == [1, 0, 2]


def test_sort_canonical_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        rg.sort_canonical([1.0], [0.5, 0.5], np.zeros((2, 2)), 0.3)


def test_sort_canonical_of_random_inputs_validates():
    rng = rg.seeded_rng(rg.derive_seed(0, "core-sort"))
    for _ in range(25):
        m = 2 + rng.integers(9)
        px = rng.uniform(size=m)
        px /= px.sum()
        py = rng.uniform(size=m)
        cost = rng.uniform(size=(m, m))
        cost[rng.random((m, m)) < 0.2] = np.inf
        np.fill_diagonal(cost, 0.0)
        # construction checks the invariants, so sorting alone must pass them
        inst, _ = rg.sort_canonical(px, py, cost, float(rng.uniform(0.05, 0.95)))
        twice, perm = rg.sort_canonical(inst.px, inst.py, inst.cost, inst.gamma)
        assert perm.tolist() == list(range(m))
        assert np.array_equal(twice.cost, inst.cost)


def test_ground_set_accepted_examples():
    inst = rg.make_instance([0.2, 0.3, 0.5], [0.9, 0.8, 0.7], np.zeros((3, 3)), 0.3)
    assert rg.ground_set_accepted(inst, rg.Policy([1.0, 0.5, 0.0])).indices == (0,)
    assert rg.ground_set_accepted(inst, rg.Policy([0.0, 0.0, 0.0])).indices == ()
    assert rg.ground_set_accepted(inst, rg.Policy([1.0, 1.0, 1.0])).indices == (0, 1, 2)


def test_ground_set_viable_examples(nonmono):
    assert rg.ground_set_viable(nonmono).indices == (0, 1, 2)
    high = rg.make_instance([1.0], [0.9], [[0.0]], 0.99)
    assert rg.ground_set_viable(high).indices == ()
    boundary = rg.make_instance([1.0], [0.3], [[0.0]], 0.3)
    assert rg.ground_set_viable(boundary).indices == (0,)


def test_accepted_subset_of_viable_for_rational_policies():
    rng = rg.seeded_rng(rg.derive_seed(0, "core-rational"))
    for _ in range(50):
        inst = random_instance(rng, 3 + rng.integers(8))
        viable = frozenset(rg.ground_set_viable(inst))
        pi = np.where(inst.py >= inst.gamma, (rng.random(inst.m) > 0.5) * 1.0, 0.0)
        policy = rg.Policy(pi)
        assert rg.is_rational(inst, policy)
        assert frozenset(rg.ground_set_accepted(inst, policy)) <= viable


def test_policy_validation_and_determinism_flag():
    with pytest.raises(ValueError):
        rg.Policy([1.2, 0.0])
    with pytest.raises(ValueError):
        rg.Policy([-0.1, 0.0])
    with pytest.raises(ValueError, match=r"^policy entries must lie in \[0, 1\]$"):
        rg.Policy([1.0, np.nan])
    assert rg.Policy([1.0, 0.0]).is_deterministic()
    assert not rg.Policy([1.0, 0.5]).is_deterministic()


@pytest.mark.parametrize(
    "pi", [0.5, [[1.0, 0.0]], np.zeros((2, 2))], ids=["scalar", "nested", "matrix"]
)
def test_policy_must_be_a_vector(pi):
    with pytest.raises(ValueError, match="^policy must be a vector$"):
        rg.Policy(pi)


def test_outcome_monotonicity_detection():
    inst = rg.make_instance([0.5, 0.5], [0.9, 0.8], np.zeros((2, 2)), 0.3)
    assert rg.is_outcome_monotonic(inst, rg.Policy([0.7, 0.4]))
    assert not rg.is_outcome_monotonic(inst, rg.Policy([0.4, 0.7]))
    tied = rg.make_instance([0.5, 0.5], [0.8, 0.8], np.zeros((2, 2)), 0.3)
    assert not rg.is_outcome_monotonic(tied, rg.Policy([1.0, 0.5]))
    assert rg.is_outcome_monotonic(tied, rg.Policy([0.5, 0.5]))


def test_explanation_set_semantics():
    a = rg.ExplanationSet((3, 1))
    assert list(a) == [3, 1]
    assert tuple(sorted(a)) == (1, 3)
    assert 1 in a and 2 not in a
    # order is insertion order: a member appended goes last
    assert rg.ExplanationSet(a.indices + (2,)).indices == (3, 1, 2)
    with pytest.raises(ValueError):
        rg.ExplanationSet((1, 1))
    for negative in ((-1,), (2, 0, -1)):
        with pytest.raises(ValueError, match="^every explanation index must be >= 0$"):
            rg.ExplanationSet(negative)


def test_explanation_set_refuses_non_integral_indices():
    message = "^every explanation index must be an integer$"
    # a bool is refused too, though operator.index reads True as 1
    for bad in ((1.7, 2.2), (2, 1.0), (np.float64(3.0),), ("1",), (True,), (0, False)):
        with pytest.raises(ValueError, match=message):
            rg.ExplanationSet(bad)
    with pytest.raises(ValueError, match="must be an integer"):
        rg.ExplanationSet((3, 1.7))
    numpy_ints = rg.ExplanationSet(tuple(np.array([4, 0], dtype=np.int64)))
    assert numpy_ints.indices == (4, 0)
    assert all(type(i) is int for i in numpy_ints.indices)
    assert rg.ExplanationSet((1, np.int32(2))).indices == (1, 2)
    # membership compares by value, without truncating
    assert 1.7 not in rg.ExplanationSet((1,))
    assert np.int64(1) in rg.ExplanationSet((1,))


def test_partition_matroid_validation():
    m = rg.PartitionMatroid(groups=((0, 1), (2,)), capacities=(1, 1))
    assert m.m == 3 and m.k == 2
    assert is_feasible(m, (0, 2))
    assert not is_feasible(m, (0, 1))
    with pytest.raises(ValueError, match="disjoint"):
        rg.PartitionMatroid(groups=((0, 1), (1, 2)), capacities=(1, 1))
    with pytest.raises(ValueError, match="cover"):
        rg.PartitionMatroid(groups=((0, 1), (3,)), capacities=(1, 1))
    with pytest.raises(ValueError, match="length"):
        rg.PartitionMatroid(groups=((0,),), capacities=(1, 1))


def test_partition_matroid_refuses_non_integer_members_and_capacities():
    # refused, not truncated to ((0, 1), (2,)) and (1, 1)
    member = "^every matroid group member must be an integer$"
    for groups in (((0, 1.7), (2,)), ((0, 1), (np.float64(2.0),)), ((0, "1"), (2,))):
        with pytest.raises(ValueError, match=member):
            rg.PartitionMatroid(groups=groups, capacities=(1, 1))
    capacity = "^every matroid capacity must be an integer$"
    for caps in ((1, 1.9), (1.0, 1), (1, "1")):
        with pytest.raises(ValueError, match=capacity):
            rg.PartitionMatroid(groups=((0, 1), (2,)), capacities=caps)
    with pytest.raises(ValueError, match="^every matroid capacity must be >= 0$"):
        rg.PartitionMatroid(groups=((0, 1), (2,)), capacities=(1, -1))
    m = rg.PartitionMatroid(
        groups=(np.array([0, 1]), (np.int32(2),)), capacities=np.array([2, 1])
    )
    assert m.groups == ((0, 1), (2,)) and m.capacities == (2, 1)
    assert all(type(i) is int for g in m.groups for i in g)
    assert all(type(c) is int for c in m.capacities)
