"""Synthetic generation, percentile-shift cost matrices, file round trips."""

import tracemalloc

import numpy as np
import pytest

import recourse_game as rg
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
        assert rg.validate(inst) is None


def test_finite_cost_fraction_concentrates():
    inst = rg.generate_synthetic(rg.SynthConfig(m=40, gamma=0.3, seed=7))
    off = ~np.eye(40, dtype=bool)
    frac = float(np.mean(inst.cost[off] != 2.0))
    assert abs(frac - 0.5) <= 0.03  # 1560 draws, ~2.4 sigma


def test_unreachable_entries_use_configured_constant():
    inst = rg.generate_synthetic(rg.SynthConfig(m=12, seed=3, unreachable_cost=5.0))
    off = ~np.eye(12, dtype=bool)
    finite = inst.cost[off][inst.cost[off] != 5.0]
    assert np.all((finite >= 0.0) & (finite <= 1.0))


def test_symmetric_mode():
    inst = rg.generate_synthetic(rg.SynthConfig(m=10, seed=5, symmetric=True))
    assert np.array_equal(inst.cost, inst.cost.T)
    plain = rg.generate_synthetic(rg.SynthConfig(m=10, seed=5))
    assert not np.array_equal(plain.cost, plain.cost.T)


def test_generation_peaks_near_two_cost_matrices():
    # the cost matrix and sort_canonical's permuted copy, not the coin draws too
    tracemalloc.start()
    try:
        inst = rg.generate_synthetic(rg.SynthConfig(m=1000, gamma=0.3, seed=7))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * inst.cost.nbytes


def test_synth_config_validation():
    with pytest.raises(ValueError):
        rg.SynthConfig(m=1)
    with pytest.raises(ValueError):
        rg.SynthConfig(m=5, finite_cost_fraction=1.5)
    # with no positive weight possible, generation would redraw forever
    for mean, std in ((0.0, 0.0), (-0.5, 0.0), (0.5, -0.1)):
        with pytest.raises(ValueError, match="weight"):
            rg.SynthConfig(m=4, weight_mean=mean, weight_std=std)


def test_zero_weight_std_gives_uniform_px():
    inst = rg.generate_synthetic(rg.SynthConfig(m=6, weight_std=0.0, seed=3))
    assert np.all(inst.px == inst.px[0])
    assert inst.px.sum() == pytest.approx(1.0, abs=1e-12)


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


def test_load_instance_checks_cost_dimensions(tmp_path):
    values, costs = tmp_path / "v.csv", tmp_path / "c.csv"
    values.write_text("px,py\n0.5,0.9\n0.5,0.4\n")
    costs.write_text("0.0,1.0\n")
    with pytest.raises(ValueError, match="expected 2 rows"):
        rg.load_instance(values, costs, gamma=0.3)
    costs.write_text("0.0,1.0,2.0\n0.0,1.0,2.0\n")
    with pytest.raises(ValueError, match="expected 2 fields"):
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
    assert back.monotone_up_only == ("bill",)
