"""Synthetic generation, percentile-shift cost matrices, file round trips."""

import hashlib

import numpy as np
import pytest

import recourse_game as rg
from conftest import traced_peak
from recourse_game.datagen import (
    KIND_ACTIONABLE,
    KIND_ACTIONABLE_UP,
    KIND_DISCRETE,
    _weighted_ecdf,
)


# -- synthetic generator -------------------------------------------------------

def test_same_seed_same_instance():
    cfg = rg.SynthConfig(m=20, gamma=0.3, seed=42)
    a, b = rg.generate_synthetic(cfg), rg.generate_synthetic(cfg)
    assert np.array_equal(a.px, b.px)
    assert np.array_equal(a.py, b.py)
    assert np.array_equal(a.cost, b.cost)


def test_different_seed_different_instance():
    a = rg.generate_synthetic(rg.SynthConfig(m=20, seed=1))
    b = rg.generate_synthetic(rg.SynthConfig(m=20, seed=2))
    assert not np.array_equal(a.py, b.py)


def test_generated_instance_validates():
    for seed in range(10):
        inst = rg.generate_synthetic(rg.SynthConfig(m=15, gamma=0.3, seed=seed))
        # a rebuild runs every invariant check again and changes no bit
        again = rg.Instance(inst.px, inst.py, inst.cost.copy(), inst.gamma)
        assert again.px.tobytes() == inst.px.tobytes()


def test_finite_cost_fraction_concentrates():
    inst = rg.generate_synthetic(rg.SynthConfig(m=40, gamma=0.3, seed=7))
    off = ~np.eye(40, dtype=bool)
    frac = float(np.mean(inst.cost[off] != 2.0))
    assert abs(frac - 0.5) <= 0.03  # 1560 draws, ~2.4 sigma


def test_unreachable_entries_use_configured_constant():
    # every off-diagonal cost is the unreachable 2.0 or uniform on [0, 1]
    inst = rg.generate_synthetic(rg.SynthConfig(m=12, seed=3))
    off = ~np.eye(12, dtype=bool)
    finite = inst.cost[off][inst.cost[off] != 2.0]
    assert np.all((finite >= 0.0) & (finite <= 1.0))


@pytest.mark.parametrize(
    "m, seed, digest",
    [
        pytest.param(
            50, 3,
            "e10d85cd79617ec9d3f820230996771d1acf031b847f9eeb1f275413dacb3ca9",
            id="m50",
        ),
        pytest.param(
            129, 5,
            "c0f6e3f23e8d8c959c13e03bd841dbb797cda951d57b1cf1106ddf1f26c765ac",
            id="m129",
        ),
        pytest.param(
            1000, 7,
            "8e8f0f5d9604ea9d105608a7709a018c4fd49850b743fd1816d7d8f4b90b8c6f",
            id="m1000",
        ),
    ],
)
def test_generator_bytes_are_pinned(m, seed, digest):
    # the generator's constants and its order of draws from the stream; the
    # larger sizes span several row blocks
    inst = rg.generate_synthetic(rg.SynthConfig(m=m, gamma=0.3, seed=seed))
    blob = inst.px.tobytes() + inst.py.tobytes() + inst.cost.tobytes()
    assert hashlib.sha256(blob).hexdigest() == digest


def test_generation_peaks_near_one_cost_matrix():
    # the cost matrix, the boolean coins and two row blocks: no permuted copy
    rg.generate_synthetic(rg.SynthConfig(m=2))  # numpy imports lazily on a first draw
    cfg = rg.SynthConfig(m=1000, gamma=0.3, seed=7)
    peak = traced_peak(lambda: rg.generate_synthetic(cfg))
    assert peak <= 1.35 * 1000 * 1000 * np.dtype(float).itemsize


def test_synth_config_validation():
    with pytest.raises(ValueError, match="m must be >= 2"):
        rg.SynthConfig(m=1)
    with pytest.raises(ValueError, match="m must be an integer"):
        rg.SynthConfig(m=12.5)
    assert rg.SynthConfig(m=np.int64(4)).m == 4


@pytest.mark.parametrize("seed", [1.5, 2.0, "3", None])
def test_synth_config_refuses_a_non_integer_seed(seed):
    with pytest.raises(ValueError, match="^seed must be an integer$"):
        rg.SynthConfig(m=6, seed=seed)


def test_synth_config_refuses_a_negative_seed():
    with pytest.raises(ValueError, match="^seed must be >= 0$"):
        rg.SynthConfig(m=6, seed=-1)
    assert rg.SynthConfig(m=6, seed=np.uint64(2**64 - 1)).seed == 2**64 - 1


# -- weighted empirical CDF and cost matrices ----------------------------------

def test_ecdf_properties():
    rng = rg.seeded_rng(rg.derive_seed(0, "datagen-ecdf"))
    values = rng.uniform(size=30)
    weights = rng.uniform(size=30)
    weights /= weights.sum()
    q = _weighted_ecdf(values, weights)
    order = np.argsort(values)
    assert np.all(np.diff(q[order]) >= -1e-15)
    assert q[order[-1]] == pytest.approx(1.0, abs=1e-12)
    # ties share a percentile
    tied = _weighted_ecdf(np.array([1.0, 2.0, 1.0]), np.array([0.25, 0.5, 0.25]))
    assert tied[0] == tied[2] == pytest.approx(0.5)


def test_cost_matrix_hand_value():
    table = rg.FeatureTable(
        names=("score",),
        kinds=(KIND_ACTIONABLE,),
        columns=(np.array([1.0, 2.0, 3.0]),),
    )
    cost = rg.build_cost_matrix(table)
    assert cost[0, 2] == pytest.approx(1.0 - 1.0 / 3.0, abs=1e-12)
    assert cost[0, 2] == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_cost_matrix_identical_rows_cost_zero():
    table = rg.FeatureTable(
        names=("a", "b"),
        kinds=(KIND_ACTIONABLE, KIND_DISCRETE),
        columns=(np.array([1.0, 1.0, 2.0]), np.array(["x", "x", "x"], dtype=object)),
    )
    cost = rg.build_cost_matrix(table)
    assert cost[0, 1] == 0.0 and cost[1, 0] == 0.0


def test_cost_matrix_discrete_mismatch_infinite():
    table = rg.FeatureTable(
        names=("a", "grp"),
        kinds=(KIND_ACTIONABLE, KIND_DISCRETE),
        columns=(np.array([1.0, 2.0]), np.array(["x", "y"], dtype=object)),
    )
    cost = rg.build_cost_matrix(table)
    assert np.isinf(cost[0, 1]) and np.isinf(cost[1, 0])
    assert cost[0, 0] == 0.0


def test_cost_matrix_monotone_up_blocks_decrease():
    table = rg.FeatureTable(
        names=("overdue",),
        kinds=(KIND_ACTIONABLE_UP,),
        columns=(np.array([0.0, 2.0]),),
    )
    cost = rg.build_cost_matrix(table)
    assert np.isfinite(cost[0, 1])  # increasing the percentile is allowed
    assert np.isinf(cost[1, 0])  # erasing history is not
    # finite entries never hide a monotone violation
    q = _weighted_ecdf(np.asarray(table.columns[0], dtype=float), np.full(2, 0.5))
    finite = np.isfinite(cost)
    for i in range(2):
        for j in range(2):
            if finite[i, j]:
                assert q[j] >= q[i]


def test_cost_matrix_px_weighting_changes_percentiles():
    table = rg.FeatureTable(
        names=("v",),
        kinds=(KIND_ACTIONABLE,),
        columns=(np.array([1.0, 2.0, 3.0]),),
    )
    uniform = rg.build_cost_matrix(table)
    skewed = rg.build_cost_matrix(table, px=[0.8, 0.1, 0.1])
    assert uniform[0, 1] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert skewed[0, 1] == pytest.approx(0.1, abs=1e-12)


def test_cost_matrix_rejects_bad_weights():
    table = rg.FeatureTable(
        names=("v",),
        kinds=(KIND_ACTIONABLE,),
        columns=(np.array([1.0, 2.0, 3.0]),),
    )
    for px in ([0.0, 0.0, 0.0], [-1.0, 1.0, 1.0], [np.nan, 1.0, 1.0]):
        with pytest.raises(ValueError, match="px weights"):
            rg.build_cost_matrix(table, px=px)


def test_cost_matrix_warns_without_actionable_columns():
    table = rg.FeatureTable(
        names=("grp",),
        kinds=(KIND_DISCRETE,),
        columns=(np.array(["x", "x"], dtype=object),),
    )
    with pytest.warns(UserWarning, match="actionable"):
        cost = rg.build_cost_matrix(table)
    assert cost[0, 1] == 0.0


def _mixed_table(m: int, seed: int) -> rg.FeatureTable:
    """Actionable, never-decreasing (with tied values) and discrete columns."""
    rng = rg.seeded_rng(rg.derive_seed(seed, "datagen-mixed-table"))
    return rg.FeatureTable(
        names=("a", "up", "b", "tied_up", "grp"),
        kinds=(
            KIND_ACTIONABLE, KIND_ACTIONABLE_UP, KIND_ACTIONABLE,
            KIND_ACTIONABLE_UP, KIND_DISCRETE,
        ),
        columns=(
            rng.normal(size=m),
            rng.normal(size=m),
            rng.integers(0, 4, size=m).astype(float),
            rng.integers(0, 4, size=m).astype(float),
            np.array([f"g{v}" for v in rng.integers(0, 3, size=m)], dtype=object),
        ),
    )


def test_cost_matrix_matches_the_broadcast_formula():
    # the in-place build against one full m x m difference per column
    for seed, m in enumerate((2, 7, 40, 130)):
        table = _mixed_table(m, seed)
        px = rg.seeded_rng(seed).uniform(size=m) if seed % 2 else None
        w = np.full(m, 1.0 / m) if px is None else px / px.sum()
        shift = np.zeros((m, m))
        blocked = np.zeros((m, m), dtype=bool)
        for kind, col in zip(table.kinds, table.columns):
            if kind == KIND_DISCRETE:
                blocked |= col[:, None] != col[None, :]
                continue
            q = _weighted_ecdf(col, w)
            delta = q[None, :] - q[:, None]
            np.maximum(shift, np.abs(delta), out=shift)
            if kind == KIND_ACTIONABLE_UP:
                blocked |= delta < 0.0
        expected = np.where(blocked, np.inf, shift)
        np.fill_diagonal(expected, 0.0)
        cost = rg.build_cost_matrix(table, px)
        assert np.isinf(cost).any() and cost.tobytes() == expected.tobytes()


def test_cost_matrix_keeps_one_difference_buffer():
    # the result, one difference buffer and the blocked mask with one
    # comparison; not a difference, its abs and the np.where copy as well
    table = _mixed_table(1000, 0)
    peak = traced_peak(lambda: rg.build_cost_matrix(table))
    assert peak <= 2.3 * 1000 * 1000 * np.dtype(float).itemsize


def test_feature_table_validation():
    with pytest.raises(ValueError, match="kind"):
        rg.FeatureTable(("a",), ("weird",), (np.array([1.0]),))


# -- instance files ------------------------------------------------------------

def test_instance_round_trip(tmp_path):
    inst = rg.generate_synthetic(rg.SynthConfig(m=12, gamma=0.35, seed=9))
    values, costs = tmp_path / "v.csv", tmp_path / "c.csv"
    rg.save_instance(inst, values, costs)
    back = rg.load_instance(values, costs, gamma=inst.gamma)
    assert np.array_equal(back.px, inst.px)
    assert np.array_equal(back.py, inst.py)
    assert np.array_equal(back.cost, inst.cost)
    assert back.gamma == inst.gamma


def test_px_round_trips_bit_for_bit(tmp_path):
    # a px that already sums to 1 within PROB_SUM_TOL is never rescaled
    values, costs = tmp_path / "v.csv", tmp_path / "c.csv"
    for seed in range(300):
        inst = rg.generate_synthetic(rg.SynthConfig(m=12, gamma=0.3, seed=seed))
        rg.save_instance(inst, values, costs)
        back = rg.load_instance(values, costs, gamma=inst.gamma)
        assert back.px.tobytes() == inst.px.tobytes(), seed


def test_load_instance_parses_costs_in_place(tmp_path):
    # one float row at a time into the cost matrix, no list of m * m floats
    inst = rg.generate_synthetic(rg.SynthConfig(m=300, gamma=0.3, seed=4))
    values, costs = tmp_path / "v.csv", tmp_path / "c.csv"
    rg.save_instance(inst, values, costs)
    rg.load_instance(values, costs, gamma=inst.gamma)  # warm up lazy imports
    peak = traced_peak(lambda: rg.load_instance(values, costs, gamma=inst.gamma))
    assert peak <= 1.5 * inst.cost.nbytes


def test_instance_files_use_inf_token(tmp_path):
    inst = rg.make_instance(
        [0.5, 0.5], [0.9, 0.4], [[0.0, rg.INFINITE_COST], [0.3, 0.0]], 0.5
    )
    values, costs = tmp_path / "v.csv", tmp_path / "c.csv"
    rg.save_instance(inst, values, costs)
    assert "inf" in costs.read_text()
    back = rg.load_instance(values, costs, gamma=0.5)
    assert np.isinf(back.cost[0, 1])


def test_load_instance_errors_name_the_line(tmp_path):
    values, costs = tmp_path / "v.csv", tmp_path / "c.csv"
    values.write_text("px,py\n0.5,0.9\n0.5\n")
    costs.write_text("0.0,1.0\n1.0,0.0\n")
    with pytest.raises(ValueError, match="line 3"):
        rg.load_instance(values, costs, gamma=0.3)
    values.write_text("px,py\n0.5,0.9\n0.5,oops\n")
    with pytest.raises(ValueError, match="line 3.*oops"):
        rg.load_instance(values, costs, gamma=0.3)
    values.write_text("wrong,header\n0.5,0.9\n")
    with pytest.raises(ValueError, match="line 1"):
        rg.load_instance(values, costs, gamma=0.3)
    values.write_text("px,py\n0.5,0.9\n0.5,0.4\n")
    for text, line in [
        ("0.0,1.0\n1.0,oops\n", 2),
        ("0.0,\n1.0,0.0\n", 1),
        ("0.0,1.0\n1.0,0.0\n1.0,oops\n", 3),  # a surplus row is still parsed
    ]:
        costs.write_text(text)
        with pytest.raises(ValueError, match=f"c.csv: line {line}: bad float"):
            rg.load_instance(values, costs, gamma=0.3)


def test_load_instance_checks_cost_dimensions(tmp_path):
    values, costs = tmp_path / "v.csv", tmp_path / "c.csv"
    values.write_text("px,py\n0.5,0.9\n0.5,0.4\n")
    costs.write_text("0.0,1.0\n")
    with pytest.raises(ValueError, match="expected 2 rows"):
        rg.load_instance(values, costs, gamma=0.3)
    costs.write_text("0.0,1.0,2.0\n0.0,1.0,2.0\n")
    with pytest.raises(ValueError, match="expected 2 fields"):
        rg.load_instance(values, costs, gamma=0.3)
    costs.write_text("0.0,1.0\n1.0,0.0\n1.0,0.0\n")
    with pytest.raises(ValueError, match="expected 2 rows, got 3"):
        rg.load_instance(values, costs, gamma=0.3)


def test_load_instance_validates_invariants(tmp_path):
    values, costs = tmp_path / "v.csv", tmp_path / "c.csv"
    values.write_text("px,py\n0.5,0.4\n0.5,0.9\n")  # py increasing
    costs.write_text("0.0,1.0\n1.0,0.0\n")
    with pytest.raises(ValueError, match="nonincreasing"):
        rg.load_instance(values, costs, gamma=0.3)


def test_feature_table_round_trip(tmp_path):
    table = rg.FeatureTable(
        names=("bill", "group"),
        kinds=(KIND_ACTIONABLE_UP, KIND_DISCRETE),
        columns=(np.array([10.0, 20.0]), np.array(["a", "b"], dtype=object)),
    )
    path = tmp_path / "table.csv"
    rg.save_feature_table(table, path)
    back = rg.load_feature_table(path)
    assert back.names == table.names
    assert back.kinds == table.kinds
    assert np.array_equal(back.columns[0], table.columns[0])
    assert list(back.columns[1]) == list(table.columns[1])
