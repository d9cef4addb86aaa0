"""Experiment runners, CSV determinism, config plumbing and the CLI."""

import csv
import json
import re
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import recourse_game as rg
from conftest import traced_peak
from recourse_game import checks, cli, harness
from recourse_game.harness import (
    ExperimentConfig,
    run_compare,
    run_generate,
    run_leakage,
    run_matroid,
    run_transport,
)


def small_config(outdir, **overrides) -> ExperimentConfig:
    base = dict(
        experiment="test",
        outdir=str(outdir),
        synthetic=rg.SynthConfig(m=18, gamma=0.3, seed=0),
        k=2,
        k_sweep=(2,),
        alpha_sweep=(1.0,),
        pl_sweep=(0.0, 0.5),
        repetitions=2,
        base_seed=5,
        bins=4,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def read_rows(path):
    with open(path) as f:
        provenance = f.readline()
        return provenance, list(csv.DictReader(f))


# -- determinism and provenance -------------------------------------------------

def test_compare_rerun_is_byte_identical(tmp_path):
    config = small_config(tmp_path)
    first = [p.read_bytes() for p in run_compare(config)]
    second = [p.read_bytes() for p in run_compare(config)]
    assert first == second


def test_determinism_check_fails_when_a_rerun_writes_nothing(monkeypatch):
    from recourse_game import checks, harness

    real, written = harness.run_transport, []

    def writes_once(config):
        # the rerun reports the same files but writes none of them
        if not written:
            written.extend(real(config))
        return list(written)

    monkeypatch.setattr(harness, "run_transport", writes_once)
    result = checks.check_determinism(0)
    assert not result.passed
    assert "transport:transport_alg1.csv" in result.detail


def test_provenance_header(tmp_path):
    (path,) = run_compare(small_config(tmp_path))
    provenance, rows = read_rows(path)
    assert provenance.startswith("# recourse-game 0.1.0 ")
    assert "base_seed=5" in provenance
    assert '"m": 18' in provenance
    assert rows, "no data rows"


def test_compare_rows_cover_all_regimes(tmp_path):
    _, rows = read_rows(*run_compare(small_config(tmp_path)))
    regimes = {r["regime"] for r in rows}
    assert regimes == {"black_box", "min_cost", "diverse", "alg1", "alg2"}
    assert len(rows) == 5 * 2  # five regimes, two repetitions


def test_compare_k_zero_collapses_to_black_box(tmp_path):
    _, rows = read_rows(*run_compare(small_config(tmp_path, k=0, k_sweep=(0,))))
    by_rep = {}
    for r in rows:
        by_rep.setdefault(r["repetition"], set()).add(r["utility"])
    for utilities in by_rep.values():
        assert len(utilities) == 1


def test_compare_without_viable_values_gives_black_box_everywhere(tmp_path):
    # gamma above every sampled outcome: the threshold policy accepts nothing
    config = small_config(
        tmp_path, synthetic=rg.SynthConfig(m=3, gamma=0.95), k=2, k_sweep=(2,),
        repetitions=1, base_seed=1,
    )
    _, rows = read_rows(*run_compare(config))
    utility = {r["regime"]: r["utility"] for r in rows}
    assert set(utility) == {"black_box", "min_cost", "diverse", "alg1", "alg2"}
    assert set(utility.values()) == {utility["black_box"]}


def test_leakage_k_zero_rows_equal_black_box(tmp_path):
    # nothing is published at k=0, so no p_l moves anyone
    config = small_config(tmp_path, k=0, k_sweep=(0, 2))
    _, compare_rows = read_rows(*run_compare(config))
    _, leak_rows = read_rows(*run_leakage(config))
    black_box = {
        r["repetition"]: r["utility"]
        for r in compare_rows
        if r["regime"] == "black_box" and r["k"] == "0"
    }
    zero = [(r["repetition"], r["utility"]) for r in leak_rows if r["k"] == "0"]
    assert len(zero) == config.repetitions * len(config.pl_sweep)
    assert all(u == black_box[rep] for rep, u in zero)


def test_leakage_zero_probability_matches_compare_alg2(tmp_path):
    config = small_config(tmp_path)
    _, compare_rows = read_rows(*run_compare(config))
    _, leak_rows = read_rows(*run_leakage(config))
    alg2 = {
        r["repetition"]: r["utility"] for r in compare_rows if r["regime"] == "alg2"
    }
    zero = {r["repetition"]: r["utility"] for r in leak_rows if r["p_l"] == "0.0"}
    assert zero == alg2


def test_leakage_singleton_budget_constant_in_pl(tmp_path):
    config = small_config(tmp_path, k=1, k_sweep=(1,), pl_sweep=(0.0, 0.3, 0.9))
    _, rows = read_rows(*run_leakage(config))
    by_rep = {}
    for r in rows:
        by_rep.setdefault(r["repetition"], set()).add(r["utility"])
    for utilities in by_rep.values():
        assert len(utilities) == 1


def test_transport_outputs(tmp_path):
    config = small_config(tmp_path)
    paths = run_transport(config)
    assert sorted(p.name for p in paths) == ["transport_alg1.csv", "transport_alg2.csv"]
    for path in paths:
        with open(path) as f:
            f.readline()
            reader = list(csv.reader(f))
        header, rows = reader[0], reader[1:]
        assert len(header) == config.bins + 1
        assert len(rows) == config.bins
        total = sum(float(v) for row in rows for v in row[1:])
        assert 0.0 <= total <= 1.0 + 1e-9


def test_transport_k_zero_writes_zero_matrices(tmp_path):
    # nobody receives an explanation at k=0, so nobody moves
    rc = cli.main(["transport", "--m", "20", "--k", "0", "--outdir", str(tmp_path)])
    assert rc == 0
    for regime in ("alg1", "alg2"):
        with open(tmp_path / f"transport_{regime}.csv") as f:
            f.readline()
            rows = list(csv.reader(f))[1:]
        assert len(rows) == 10
        assert all(float(v) == 0.0 for row in rows for v in row[1:])


def test_regime_solution_is_what_compare_scores(tmp_path):
    config = small_config(tmp_path, k_sweep=(0, 2))
    _, rows = read_rows(*run_compare(config))
    assert len(rows) == 2 * 2 * len(harness.REGIMES)
    points = harness._points(config, "compare")
    for i, row in enumerate(rows):
        if i % len(harness.REGIMES) == 0:  # the rows follow the points
            alpha, k, rep, inst, rng = next(points)
        assert [row["alpha"], int(row["k"]), int(row["repetition"])] == [
            rg.datagen._fmt(alpha), k, rep
        ]
        regime = row["regime"]
        before = rng.bit_generator.state
        policy, A = harness.regime_solution(regime, inst, k, rng)
        assert row["utility"] == rg.datagen._fmt(rg.utility(inst, policy, A))
        # only alg2 draws, so the regimes of one instance can share a stream
        assert (rng.bit_generator.state == before) == (regime != "alg2" or k == 0)
        if regime == "black_box" or k == 0:
            assert A.indices == ()
        if regime != "alg2" or k == 0:
            assert np.array_equal(policy.pi, rg.threshold_policy(inst).pi)
        else:
            assert len(A) <= k


def test_group_balance_is_what_matroid_writes(tmp_path):
    matroid = rg.PartitionMatroid(
        groups=(tuple(range(9)), tuple(range(9, 18))), capacities=(2, 1)
    )
    config = small_config(tmp_path, matroid=matroid)
    _, rows = read_rows(*run_matroid(config))
    seeded_at_budget = replace(config, k_sweep=(matroid.k,))
    alpha, k, rep, inst, _ = next(harness._points(seeded_at_budget, "matroid"))
    assert (alpha, k, rep) == (1.0, matroid.k, 0)
    table = harness.group_balance(inst, matroid)
    fmt = rg.datagen._fmt
    assert [list(r.values()) for r in rows] == [
        [str(g), fmt(mass), str(n_card), str(n_mat), fmt(i_card), fmt(i_mat)]
        for g, (mass, n_card, n_mat, i_card, i_mat) in enumerate(table)
    ]
    small = rg.PartitionMatroid(groups=((0, 1), (2,)), capacities=(1, 1))
    with pytest.raises(ValueError, match="matroid covers 3 values"):
        harness.group_balance(inst, small)


def test_matroid_uniform_reproduces_cardinality(tmp_path):
    matroid = rg.PartitionMatroid(groups=(tuple(range(18)),), capacities=(2,))
    config = small_config(tmp_path, matroid=matroid)
    _, rows = read_rows(*run_matroid(config))
    assert len(rows) == 1
    assert rows[0]["count_cardinality"] == rows[0]["count_matroid"]
    assert rows[0]["improvement_cardinality"] == rows[0]["improvement_matroid"]


def test_matroid_counts_respect_capacities(tmp_path):
    matroid = rg.PartitionMatroid(
        groups=(tuple(range(9)), tuple(range(9, 18))), capacities=(1, 1)
    )
    config = small_config(tmp_path, matroid=matroid)
    _, rows = read_rows(*run_matroid(config))
    for row, cap in zip(rows, matroid.capacities):
        assert int(row["count_matroid"]) <= cap


def test_matroid_requires_matroid_block(tmp_path):
    with pytest.raises(ValueError, match="matroid"):
        run_matroid(small_config(tmp_path))


def test_matroid_two_group_witness_through_csv(tmp_path):
    from recourse_game.checks import two_group_witness

    inst, matroid = two_group_witness()
    values, costs = tmp_path / "v.csv", tmp_path / "c.csv"
    rg.save_instance(inst, values, costs)
    config = ExperimentConfig(
        experiment="matroid",
        outdir=str(tmp_path / "out"),
        values_path=str(values),
        cost_path=str(costs),
        gamma=inst.gamma,
        matroid=matroid,
        base_seed=1,
    )
    _, rows = read_rows(*run_matroid(config))
    counts_card = [int(r["count_cardinality"]) for r in rows]
    counts_mat = [int(r["count_matroid"]) for r in rows]
    assert counts_card == [2, 0]  # unconstrained greedy serves only group 1
    assert counts_mat == [1, 1]
    assert float(rows[1]["improvement_matroid"]) > float(
        rows[1]["improvement_cardinality"]
    )


def test_alpha_sweep_scales_costs(tmp_path):
    # finite costs 0.5: reachable at alpha=1, out of reach at alpha=3, so all
    # explanation regimes collapse onto black box at the higher alpha
    cost = np.full((4, 4), 0.5)
    np.fill_diagonal(cost, 0.0)
    inst = rg.make_instance(
        [0.1, 0.1, 0.4, 0.4], [0.9, 0.8, 0.3, 0.2], cost, 0.5
    )
    values, costs = tmp_path / "v.csv", tmp_path / "c.csv"
    rg.save_instance(inst, values, costs)
    config = ExperimentConfig(
        experiment="compare",
        outdir=str(tmp_path / "out"),
        values_path=str(values),
        cost_path=str(costs),
        gamma=inst.gamma,
        k=2,
        k_sweep=(2,),
        alpha_sweep=(1.0, 3.0),
        repetitions=1,
        base_seed=1,
    )
    _, rows = read_rows(*run_compare(config))
    by_alpha = {}
    for r in rows:
        by_alpha.setdefault(r["alpha"], {})[r["regime"]] = float(r["utility"])
    assert by_alpha["1.0"]["black_box"] == by_alpha["3.0"]["black_box"]
    assert by_alpha["1.0"]["alg1"] > by_alpha["1.0"]["black_box"]
    assert by_alpha["3.0"]["alg1"] == by_alpha["3.0"]["black_box"]
    assert by_alpha["3.0"]["diverse"] == by_alpha["3.0"]["black_box"]
    # with nothing reachable the joint optimum degenerates to the threshold
    # policy as well
    assert by_alpha["3.0"]["alg2"] == by_alpha["3.0"]["black_box"]


def _with_unreachable_pairs(m: int, seed: int) -> rg.Instance:
    inst = rg.generate_synthetic(rg.SynthConfig(m=m, gamma=0.3, seed=seed))
    cost = inst.cost.copy()
    cost[cost == 2.0] = np.inf
    return rg.make_instance(inst.px, inst.py, cost, inst.gamma)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0, np.inf])
def test_scale_costs_matches_the_masked_formula(alpha):
    inst = _with_unreachable_pairs(40, 3)
    expected = inst.cost.copy()
    finite = np.isfinite(expected) & ~np.eye(inst.m, dtype=bool)
    expected[finite] *= alpha
    scaled = harness._scale_costs(inst, alpha)
    assert np.isinf(inst.cost).any()
    assert scaled.cost.tobytes() == expected.tobytes()


def test_compare_off_alpha_one_holds_only_the_scaled_copy(tmp_path):
    # at alpha != 1 a run holds one more cost matrix than at alpha = 1, the
    # scaled copy; an unscaled draw kept past its point would add another
    def peak(alpha):
        config = small_config(tmp_path, synthetic=rg.SynthConfig(m=600),
                              alpha_sweep=(alpha,), k_sweep=(1,), repetitions=3)
        return traced_peak(lambda: run_compare(config))

    peak(1.0)  # lazy imports and first-call caches
    assert peak(2.0) - peak(1.0) <= 600 * 600 * np.dtype(float).itemsize


def test_scale_costs_makes_one_copy():
    # the scaled copy and a boolean mask; no eye, isfinite and masked gather
    inst = _with_unreachable_pairs(1000, 7)
    peak = traced_peak(lambda: harness._scale_costs(inst, 2.0))
    assert peak <= 1.2 * inst.cost.nbytes


def _tied_rows_instance() -> rg.Instance:
    # rows 0 and 1 share every percentile, so their costs to each other are 0
    table = rg.FeatureTable(
        names=("score",), kinds=("actionable",),
        columns=(np.array([3.0, 3.0, 2.0, 1.0]),),
    )
    return rg.make_instance(
        [0.25] * 4, [0.9, 0.8, 0.4, 0.2], rg.build_cost_matrix(table), 0.5
    )


def test_scale_costs_keeps_zero_costs_at_infinite_alpha():
    inst = _tied_rows_instance()
    assert inst.cost[0, 1] == inst.cost[1, 0] == 0.0
    scaled = harness._scale_costs(inst, np.inf)  # RuntimeWarnings are errors here
    assert scaled.cost[0, 1] == scaled.cost[1, 0] == 0.0
    assert np.array_equal(np.diagonal(scaled.cost), np.zeros(4))
    assert np.isinf(scaled.cost[inst.cost > 0.0]).all()


def test_cli_compare_at_infinite_alpha_on_tied_rows(tmp_path):
    values, costs = tmp_path / "v.csv", tmp_path / "c.csv"
    rg.save_instance(_tied_rows_instance(), values, costs)
    rc = cli.main([
        "compare", "--values", str(values), "--costs", str(costs),
        "--gamma", "0.5", "--k", "1", "--alpha", "1,inf",
        "--outdir", str(tmp_path / "out"),
    ])
    assert rc == 0
    _, rows = read_rows(tmp_path / "out" / "compare.csv")
    assert {r["alpha"] for r in rows} == {"1.0", "inf"}


def _file_config(tmp_path, synth: ExperimentConfig) -> ExperimentConfig:
    """synth's sweep, read from the files that `generate` writes for it."""
    values, costs = run_generate(replace(synth, outdir=str(tmp_path / "gen")))
    return replace(
        synth, outdir=str(tmp_path / "file"), synthetic=None,
        values_path=str(values), cost_path=str(costs), gamma=synth.synthetic.gamma,
    )


def test_file_compare_matches_the_synthetic_run(tmp_path):
    # the loaded instance is the generated one bit for bit, so every row agrees
    for seed in range(40):
        synth = ExperimentConfig(
            experiment="compare", outdir=str(tmp_path / "synth"),
            synthetic=rg.SynthConfig(m=12), k=2, k_sweep=(2,), base_seed=seed,
        )
        _, want = read_rows(*run_compare(synth))
        _, got = read_rows(*run_compare(_file_config(tmp_path, synth)))
        assert got == want, seed


def test_file_compare_loads_the_instance_once(tmp_path, monkeypatch):
    synth = small_config(
        tmp_path, k_sweep=(1, 2), alpha_sweep=(1.0, 2.0), repetitions=3
    )
    config = _file_config(tmp_path, synth)
    calls = []

    def counting(*args):
        calls.append(args)
        return rg.load_instance(*args)

    monkeypatch.setattr(harness, "load_instance", counting)
    _, rows = read_rows(*run_compare(config))
    assert len(rows) == 2 * 2 * 3 * len(harness.REGIMES)
    assert len(calls) == 1


def test_generate_writes_loadable_instance(tmp_path):
    config = small_config(tmp_path)
    values, costs = run_generate(config)
    inst = rg.load_instance(values, costs, gamma=0.3)
    assert inst.m == 18
    # loading checked every invariant; the bytes are the generated instance's
    alpha, k, rep, want, _ = next(harness._points(config, "compare"))
    assert (alpha, k, rep) == (1.0, 2, 0)
    for name in ("px", "py", "cost"):
        assert getattr(inst, name).tobytes() == getattr(want, name).tobytes()


def test_generate_writes_the_first_sweep_instance(tmp_path):
    # compare's instance at (alpha, first k, rep 0), also with no k given
    config = ExperimentConfig(
        experiment="generate", outdir=str(tmp_path),
        synthetic=rg.SynthConfig(m=12), k_sweep=(10, 20),
    )
    values, costs = run_generate(config)
    want = tmp_path / "want_values.csv", tmp_path / "want_cost.csv"
    alpha, k, rep, inst, _ = next(harness._points(config, "compare"))
    assert (alpha, k, rep) == (1.0, 10, 0)
    rg.save_instance(inst, *want)
    assert values.read_bytes() == want[0].read_bytes()
    assert costs.read_bytes() == want[1].read_bytes()


def test_file_based_config_round_trip(tmp_path):
    synth = small_config(tmp_path / "gen")
    values, costs = run_generate(synth)
    config = ExperimentConfig(
        experiment="compare",
        outdir=str(tmp_path / "out"),
        values_path=str(values),
        cost_path=str(costs),
        gamma=0.3,
        k=2,
        k_sweep=(2,),
        repetitions=1,
        base_seed=5,
    )
    _, rows = read_rows(*run_compare(config))
    assert len(rows) == 5


def test_numpy_integer_counts_are_stored_as_int(tmp_path):
    # NumPy integers pass every count rule and are stored as int, which the
    # provenance echo can serialise
    np_config = ExperimentConfig(
        experiment="compare",
        outdir=str(tmp_path),
        synthetic=rg.SynthConfig(m=np.int64(8), seed=np.int32(1)),
        k_sweep=(np.int64(2), np.int32(0)),
        repetitions=np.int64(2),
        base_seed=np.int64(5),
        bins=np.int16(3),
    )
    counts = (
        np_config.synthetic.m,
        np_config.synthetic.seed,
        np_config.k,
        *np_config.k_sweep,
        np_config.repetitions,
        np_config.base_seed,
        np_config.bins,
    )
    assert counts == (8, 1, 2, 2, 0, 2, 5, 3)
    assert all(type(n) is int for n in counts)
    plain = replace(
        np_config,
        synthetic=rg.SynthConfig(m=8, seed=1),
        k_sweep=(2, 0),
        repetitions=2,
        base_seed=5,
        bins=3,
    )
    [path] = run_compare(np_config)
    got = path.read_bytes()
    assert path.name == "compare.csv"
    assert got == run_compare(plain)[0].read_bytes()


def test_config_validation():
    with pytest.raises(ValueError, match="repetitions"):
        small_config("x", repetitions=0)
    with pytest.raises(ValueError, match="synthetic block"):
        ExperimentConfig(experiment="compare", outdir="x")
    with pytest.raises(ValueError, match="gamma"):
        ExperimentConfig(
            experiment="compare", outdir="x", values_path="v", cost_path="c"
        )


@pytest.mark.parametrize(
    "files",
    [
        dict(values_path="v", cost_path="c", gamma=0.9),
        dict(values_path="v"),
        dict(cost_path="c"),
        dict(gamma=0.9),
    ],
)
def test_config_takes_one_instance_source(files):
    with pytest.raises(ValueError, match="synthetic config takes no instance files"):
        ExperimentConfig(
            experiment="compare", outdir="x", synthetic=rg.SynthConfig(m=6), **files
        )


@pytest.mark.parametrize(
    "overrides, message",
    [
        (dict(k=-1, k_sweep=None), "k and every k_sweep"),
        (dict(k_sweep=(2, -1)), "k and every k_sweep"),
        (dict(pl_sweep=(0.0, 1.5)), "p_l"),
        (dict(pl_sweep=(-0.1,)), "p_l"),
        (dict(bins=0), "bins"),
        (dict(alpha_sweep=(1.0, -0.5)), "alpha"),
        (dict(alpha_sweep=(float("nan"), -1.0)), "alpha"),
    ],
)
def test_config_rejects_bad_sweep_values(overrides, message):
    with pytest.raises(ValueError, match=message):
        small_config("x", **overrides)


def test_config_dict_round_trip(tmp_path):
    matroid = rg.PartitionMatroid(groups=((0, 1), (2,)), capacities=(1, 1))
    config = ExperimentConfig(
        experiment="matroid",
        outdir=str(tmp_path),
        synthetic=rg.SynthConfig(m=3, gamma=0.4, seed=1),
        matroid=matroid,
    )
    echoed = json.loads(json.dumps(asdict(config), sort_keys=True))
    assert echoed["matroid"]["groups"] == [[0, 1], [2]]
    assert echoed["synthetic"]["m"] == 3


# -- CLI -------------------------------------------------------------------------

def test_cli_compare_smoke(tmp_path, capsys):
    rc = cli.main(
        [
            "compare",
            "--m", "12",
            "--gamma", "0.3",
            "--k", "2",
            "--repetitions", "1",
            "--seed", "3",
            "--outdir", str(tmp_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "compare.csv" in out
    assert (tmp_path / "compare.csv").exists()
    assert (tmp_path / "compare_timings.csv").exists()


def test_cli_config_file_with_overrides(tmp_path):
    cfg = {
        "instance": {"m": 10, "gamma": 0.3},
        "k_sweep": [1],
        "repetitions": 1,
        "base_seed": 2,
        "outdir": str(tmp_path / "from_config"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = cli.main(
        ["leakage", "--config", str(cfg_path), "--pl", "0.0,0.5",
         "--outdir", str(tmp_path / "cli_override")]
    )
    assert rc == 0
    assert (tmp_path / "cli_override" / "leakage.csv").exists()
    assert not (tmp_path / "from_config").exists()


def test_cli_generate_and_file_reuse(tmp_path):
    gen_dir = tmp_path / "gen"
    assert cli.main(["generate", "--m", "10", "--seed", "4", "--outdir", str(gen_dir)]) == 0
    rc = cli.main(
        [
            "compare",
            "--values", str(gen_dir / "instance_values.csv"),
            "--costs", str(gen_dir / "instance_cost.csv"),
            "--gamma", "0.3",
            "--k", "1",
            "--repetitions", "1",
            "--outdir", str(tmp_path / "filecmp"),
        ]
    )
    assert rc == 0


def test_cli_check_prints_the_battery_report(monkeypatch, capsys):
    verdict = [True]

    @checks._criterion()
    def check_first(base_seed):
        return True, f"seed {base_seed}"

    @checks._criterion()
    def check_second(base_seed):
        return verdict[0], "second detail"

    monkeypatch.setattr(checks, "ALL_CHECKS", (check_first, check_second))
    assert cli.main(["check", "--seed", "4"]) == 0
    out, err = capsys.readouterr()
    assert out == (
        "[PASS] first: seed 4\n[PASS] second: second detail\n2/2 criteria passed\n"
    )
    # timings go to stderr only
    assert re.fullmatch(r"    first: \d+\.\d\ds\n    second: \d+\.\d\ds\n", err)
    verdict[0] = False
    assert cli.main(["check"]) == 1
    out = capsys.readouterr().out
    assert "[PASS] first: seed 0\n[FAIL] second: second detail\n" in out
    assert out.endswith("1/2 criteria passed\n")


def test_cli_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["compare", "--k", "notanumber"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["compare", "--repetitions", "0"])
    assert exc.value.code == 2


def test_readme_json_configs_run_every_command(tmp_path):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```json\n(.*?)```", readme.read_text(), re.S)
    assert len(blocks) >= 2
    ran_matroid = False
    for b, block in enumerate(blocks):
        path = tmp_path / f"readme{b}.json"
        path.write_text(block)
        has_matroid = "matroid" in json.loads(block)
        for name in harness.COMMANDS:
            if name == "matroid" and not has_matroid:
                continue
            ran_matroid |= name == "matroid"
            outdir = tmp_path / f"out{b}-{name}"
            argv = [name, "--config", str(path), "--repetitions", "1"]
            assert cli.main([*argv, "--outdir", str(outdir)]) == 0, (b, name)
    assert ran_matroid


def test_readme_lists_the_synthetic_instance_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sentence = re.search(r"The synthetic `instance` block takes [^.]*\.", readme, re.S)
    listed = set(re.findall(r"`(\w+)`", sentence.group(0))) - {"instance"}
    assert listed == set(cli._SYNTH_KEYS)


def test_cli_matroid_missing_block_fails(tmp_path, capsys):
    rc = cli.main(["matroid", "--m", "6", "--outdir", str(tmp_path)])
    assert rc == 1
    assert "matroid" in capsys.readouterr().err


# -- CLI config merge --------------------------------------------------------------

FULL_CONFIG = {
    "instance": {"m": 200, "gamma": 0.3},
    "k_sweep": [5, 10, 20],
    "alpha_sweep": [1.0],
    "pl_sweep": [0.0, 0.5],
    "repetitions": 20,
    "base_seed": 7,
    "bins": 10,
    "matroid": {"groups": [[0, 1, 2], [3, 4]], "capacities": [2, 1]},
    "outdir": "results",
}
FULL_EXPECTED = dict(
    outdir="results",
    synthetic=rg.SynthConfig(m=200, gamma=0.3),
    k_sweep=(5, 10, 20),
    alpha_sweep=(1.0,),
    pl_sweep=(0.0, 0.5),
    repetitions=20,
    base_seed=7,
    bins=10,
    matroid=rg.PartitionMatroid(groups=((0, 1, 2), (3, 4)), capacities=(2, 1)),
)
FILE_CONFIG = {
    "instance": {"values": "v.csv", "costs": "c.csv", "gamma": 0.4},
    "k_sweep": [3],
}
FILE_EXPECTED = dict(
    outdir="results", values_path="v.csv", cost_path="c.csv", gamma=0.4,
    k_sweep=(3,),
)


@pytest.fixture
def cli_config(tmp_path, monkeypatch):
    """Run the CLI in tmp_path with every runner replaced by a recorder, and
    return the ExperimentConfig the runner received (or the exit code)."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(FULL_CONFIG))
    (tmp_path / "file.json").write_text(json.dumps(FILE_CONFIG))
    seen = []
    for name in harness.COMMANDS:
        monkeypatch.setattr(harness, f"run_{name}", lambda c: seen.append(c) or [])

    def run(argv, config=None):
        if config is not None:
            (tmp_path / "own.json").write_text(json.dumps(config))
            argv = [*argv, "--config", "own.json"]
        try:
            assert cli.main(argv) == 0
        except SystemExit as exc:
            assert not seen, "a runner ran before the input was rejected"
            return exc.code
        return seen.pop()

    return run


@pytest.mark.parametrize(
    "argv, env, expected",
    [
        pytest.param(
            "compare --m 200 --gamma 0.3 --k 10,20 --repetitions 20 --seed 7 "
            "--outdir results",
            None,
            dict(outdir="results", synthetic=rg.SynthConfig(m=200, gamma=0.3),
                 k=10, k_sweep=(10, 20), repetitions=20, base_seed=7),
            id="readme-compare",
        ),
        pytest.param(
            "leakage --m 200 --k 20 --pl 0.0,0.25,0.5,1.0 --seed 7 --outdir results",
            None,
            dict(outdir="results", synthetic=rg.SynthConfig(m=200), k=20,
                 k_sweep=(20,), pl_sweep=(0.0, 0.25, 0.5, 1.0), base_seed=7),
            id="readme-leakage",
        ),
        pytest.param(
            "generate --m 50 --seed 3 --outdir instance",
            None,
            dict(outdir="instance", synthetic=rg.SynthConfig(m=50), base_seed=3),
            id="readme-generate",
        ),
        pytest.param(
            "compare --values instance/instance_values.csv "
            "--costs instance/instance_cost.csv --gamma 0.3 --k 5 --outdir results",
            None,
            dict(outdir="results", values_path="instance/instance_values.csv",
                 cost_path="instance/instance_cost.csv", gamma=0.3, k=5,
                 k_sweep=(5,)),
            id="readme-file-instance",
        ),
        pytest.param("compare --config cfg.json", None, FULL_EXPECTED,
                     id="json-config"),
        pytest.param(
            "compare --config cfg.json --m 20 --gamma 0.2 --k 3,4 --alpha 0.5,2 "
            "--pl 0.1 --seed 1 --repetitions 2 --bins 3 --outdir o",
            None,
            {**FULL_EXPECTED, **dict(
                outdir="o", synthetic=rg.SynthConfig(m=20, gamma=0.2),
                k=3, k_sweep=(3, 4), alpha_sweep=(0.5, 2.0), pl_sweep=(0.1,),
                base_seed=1, repetitions=2, bins=3)},
            id="json-config-with-overrides",
        ),
        pytest.param("compare --config file.json", None, FILE_EXPECTED,
                     id="file-config"),
        pytest.param("compare --config file.json --gamma 0.6", None,
                     {**FILE_EXPECTED, "gamma": 0.6}, id="file-config-gamma"),
        pytest.param(
            "compare --config cfg.json --values a.csv --costs b.csv",
            None,
            {**FULL_EXPECTED, **dict(synthetic=None, values_path="a.csv",
                                       cost_path="b.csv", gamma=0.3)},
            id="files-replace-json-synthetic",
        ),
        pytest.param("compare", None,
                     dict(outdir="results", synthetic=rg.SynthConfig(m=50)),
                     id="defaults"),
        # the CLI reads no environment, so an outdir variable is ignored
        pytest.param("compare", "env_out",
                     dict(outdir="results", synthetic=rg.SynthConfig(m=50)),
                     id="env-outdir"),
        pytest.param("compare --config cfg.json", "env_out", FULL_EXPECTED,
                     id="json-outdir-over-env"),
        pytest.param("compare --outdir flag_out", "env_out",
                     dict(outdir="flag_out", synthetic=rg.SynthConfig(m=50)),
                     id="flag-outdir-over-env"),
    ],
)
def test_cli_builds_config(cli_config, monkeypatch, argv, env, expected):
    if env is not None:
        monkeypatch.setenv("RECOURSE_GAME_OUTDIR", env)
    command, *flags = argv.split()
    built = cli_config([command, *flags])
    assert built == ExperimentConfig(experiment=command, **expected)


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["compare", "--m", "10"], FILE_CONFIG, "file-based instance key(s): m"),
        (["compare", "--values", "v.csv", "--costs", "c.csv", "--m", "10"], None,
         "file-based instance key(s): m"),
        (["compare"], {"repetition": 20}, "unknown config key(s): repetition"),
        (["compare"], {"synthetic": {"m": 10}}, "unknown config key(s): synthetic"),
        (["compare"], {"instance": {"values_path": "v", "cost_path": "c"}},
         "synthetic instance key(s): cost_path, values_path"),
        (["compare"], {"instance": {"values": "v", "cost_path": "c", "gamma": 0.3}},
         "file-based instance key(s): cost_path"),
        (["compare"], {"instance": {"m": 10, "n": 3}},
         "synthetic instance key(s): n"),
        # each repetition derives its instance seed from base_seed
        (["compare"], {"instance": {"m": 10, "seed": 7}},
         "synthetic instance key(s): seed"),
        # the generator's constants are not settable
        (["compare"], {"instance": {"m": 10, "symmetric": True, "weight_std": 0.2}},
         "synthetic instance key(s): symmetric, weight_std"),
    ],
)
def test_cli_rejects_unknown_keys(cli_config, capsys, argv, config, message):
    assert cli_config(argv, config) == 2
    assert message in capsys.readouterr().err


K_INTEGER = "k and every k_sweep entry must be an integer"


@pytest.mark.parametrize("command", ["compare", "transport"])
@pytest.mark.parametrize(
    "config, message",
    [
        pytest.param({"instance": {"m": 12.5}}, "m must be an integer", id="m"),
        pytest.param({"k_sweep": [2.5]}, K_INTEGER, id="k"),
        pytest.param(
            {"repetitions": 1.5}, "repetitions must be an integer", id="repetitions"
        ),
        pytest.param({"k_sweep": [2, 3.5]}, K_INTEGER, id="k_sweep"),
        pytest.param({"bins": 2.5}, "bins must be an integer", id="bins"),
        pytest.param(
            {"base_seed": 1.5}, "base_seed must be an integer", id="base_seed"
        ),
    ],
)
def test_cli_rejects_non_integer_counts(cli_config, capsys, command, config, message):
    assert cli_config([command], config) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--k", ","], "argument --k: empty list"),
        (["--alpha", ","], "argument --alpha: empty list"),
        (["--pl", ","], "argument --pl: empty list"),
        (["--k", "-1"], "k and every k_sweep entry must be >= 0"),
        (["--k", "2,-1"], "k and every k_sweep entry must be >= 0"),
        (["--pl", "0,1.5"], "every p_l must lie in [0, 1]"),
        (["--alpha", "-1"], "every alpha must be >= 0"),
        (["--bins", "0"], "bins must be >= 1"),
        (["--alpha", "1,nan"], "every alpha must be >= 0"),
        (["--alpha", "nan,-1"], "every alpha must be >= 0"),
    ],
)
def test_cli_rejects_bad_values_before_any_run(cli_config, capsys, flags, message):
    assert cli_config(["compare", *flags]) == 2
    assert message in capsys.readouterr().err


SIX = {
    "instance": {"m": 6},
    "matroid": {"groups": [[0, 1, 2], [3, 4, 5]], "capacities": [2, 1]},
}


@pytest.mark.parametrize(
    "matroid, message",
    [
        pytest.param(
            {"groups": [[0, 1, 2], [3, 4, 5]], "capacities": [1.5, 1]},
            "every matroid capacity must be an integer",
            id="capacity",
        ),
        pytest.param(
            {"groups": [[0, 1.5, 2], [3, 4, 5]], "capacities": [2, 1]},
            "every matroid group member must be an integer",
            id="member",
        ),
    ],
)
def test_cli_refuses_non_integer_matroid_counts(cli_config, capsys, matroid, message):
    # refused, not run at the truncated [1, 1] or [0, 1, 2]
    assert cli_config(["matroid"], {**SIX, "matroid": matroid}) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, config, sweep",
    [
        pytest.param(["transport", "--m", "10", "--k", "2,3"], None, "k_sweep",
                     id="transport-k"),
        pytest.param(["transport", "--m", "10", "--alpha", "1,2"], None, "alpha_sweep",
                     id="transport-alpha"),
        pytest.param(["generate", "--m", "10", "--alpha", "1,2"], None, "alpha_sweep",
                     id="generate-alpha"),
        pytest.param(["generate", "--m", "10", "--k", "2,3"], None, "k_sweep",
                     id="generate-k"),
        pytest.param(["matroid"], {**SIX, "k_sweep": [2, 3]}, "k_sweep",
                     id="matroid-k"),
        pytest.param(["matroid"], {**SIX, "alpha_sweep": [1.0, 2.0]}, "alpha_sweep",
                     id="matroid-alpha"),
        pytest.param(["leakage", "--m", "10", "--alpha", "1,2"], None, "alpha_sweep",
                     id="leakage-alpha"),
    ],
)
def test_one_point_commands_refuse_a_second_sweep_entry(
    cli_config, capsys, argv, config, sweep
):
    assert cli_config(argv, config) == 2
    # leakage sweeps k but runs at one alpha
    at = "one alpha" if argv[0] == "leakage" else "one point"
    want = f"{argv[0]} runs at {at}: {sweep} needs one entry"
    assert want in capsys.readouterr().err


def _bodies(paths) -> list[str]:
    """Each file's text below its provenance line, if it has one."""
    texts = [Path(p).read_text() for p in paths]
    return [t.split("\n", 1)[1] if t.startswith("#") else t for t in texts]


@pytest.mark.parametrize("command", list(harness.COMMANDS))
def test_a_sweep_a_command_does_not_read_runs_at_its_first_entry(tmp_path, command):
    matroid = rg.PartitionMatroid(groups=(tuple(range(9)), tuple(range(9, 18))),
                                  capacities=(2, 1))
    first = small_config(tmp_path / "first", alpha_sweep=(2.0,), k_sweep=(2,),
                         repetitions=1, matroid=matroid)
    wide = dict(alpha_sweep=(2.0, 3.0), k_sweep=(2, 3), repetitions=2)
    reads = harness.SWEEPS.get(command, ())
    widened = replace(
        first, outdir=str(tmp_path / "widened"),
        **{sweep: v for sweep, v in wide.items() if sweep not in reads},
    )
    run = getattr(harness, f"run_{command}")
    assert _bodies(run(widened)) == _bodies(run(first))


# -- one budget setting and the gamma rule ----------------------------------------

def test_k_is_the_first_entry_of_k_sweep():
    base = dict(experiment="compare", outdir="o", synthetic=rg.SynthConfig(m=6))
    assert ExperimentConfig(**base).k_sweep == (1,)
    assert ExperimentConfig(**base, k=3).k_sweep == (3,)
    config = ExperimentConfig(**base, k=9, k_sweep=(2, 4))
    assert (config.k, config.k_sweep) == (2, (2, 4))


def test_k_flag_and_json_k_sweep_build_equal_configs(cli_config):
    by_flag = cli_config(["compare", "--k", "5,10"])
    by_json = cli_config(["compare"], {"k_sweep": [5, 10]})
    assert by_flag == by_json
    assert (by_flag.k, by_flag.k_sweep) == (5, (5, 10))


@pytest.mark.parametrize(
    "config, message",
    [
        pytest.param({"k": 2}, "unknown config key(s): k", id="k-key"),
        pytest.param({"k": 5, "k_sweep": [10]}, "unknown config key(s): k",
                     id="k-beside-k_sweep"),
        pytest.param({"k_sweep": []}, "k_sweep must be nonempty", id="empty-k_sweep"),
    ],
)
def test_cli_has_one_budget_setting(cli_config, capsys, config, message):
    assert cli_config(["compare"], config) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [["--m", "10"], ["--values", "v.csv", "--costs", "c.csv"]],
    ids=["synthetic", "file-based"],
)
def test_gamma_outside_the_unit_interval_is_a_usage_error(
    tmp_path, monkeypatch, capsys, flags
):
    def no_instance(*args):
        raise AssertionError("an instance was drawn or read")

    monkeypatch.setattr(harness, "generate_synthetic", no_instance)
    monkeypatch.setattr(harness, "load_instance", no_instance)
    with pytest.raises(SystemExit) as exc:
        cli.main(["compare", *flags, "--gamma", "1.5", "--outdir", str(tmp_path)])
    assert exc.value.code == 2
    assert "gamma must lie strictly in (0, 1), got 1.5" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("gamma", [0.0, 1.0, float("nan")])
def test_configs_refuse_gamma_outside_the_unit_interval(gamma):
    with pytest.raises(ValueError, match="gamma must lie strictly in"):
        rg.SynthConfig(m=6, gamma=gamma)
    with pytest.raises(ValueError, match="gamma must lie strictly in"):
        ExperimentConfig(
            experiment="compare", outdir="o", values_path="v", cost_path="c",
            gamma=gamma,
        )
