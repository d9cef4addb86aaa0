"""Experiment runners, CSV determinism, config plumbing and the CLI."""

import csv
import json

import numpy as np
import pytest

import recourse_game as rg
from recourse_game import cli
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
    first = run_compare(config).read_bytes()
    second = run_compare(config).read_bytes()
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
    path = run_compare(small_config(tmp_path))
    provenance, rows = read_rows(path)
    assert provenance.startswith("# recourse-game 0.1.0 ")
    assert "base_seed=5" in provenance
    assert '"m": 18' in provenance
    assert rows, "no data rows"


def test_compare_rows_cover_all_regimes(tmp_path):
    _, rows = read_rows(run_compare(small_config(tmp_path)))
    regimes = {r["regime"] for r in rows}
    assert regimes == {"black_box", "min_cost", "diverse", "alg1", "alg2"}
    assert len(rows) == 5 * 2  # five regimes, two repetitions


def test_compare_k_zero_collapses_to_black_box(tmp_path):
    _, rows = read_rows(run_compare(small_config(tmp_path, k=0, k_sweep=(0,))))
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
    _, rows = read_rows(run_compare(config))
    utility = {r["regime"]: r["utility"] for r in rows}
    assert set(utility) == {"black_box", "min_cost", "diverse", "alg1", "alg2"}
    assert set(utility.values()) == {utility["black_box"]}


def test_leakage_k_zero_warns_and_writes_header_only(tmp_path):
    config = small_config(tmp_path, k=0, k_sweep=(0,))
    with pytest.warns(UserWarning, match="k=0"):
        path = run_leakage(config)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# recourse-game")
    assert lines[1:] == ["k,p_l,repetition,utility"]


def test_leakage_zero_probability_matches_compare_alg2(tmp_path):
    config = small_config(tmp_path)
    _, compare_rows = read_rows(run_compare(config))
    _, leak_rows = read_rows(run_leakage(config))
    alg2 = {
        r["repetition"]: r["utility"] for r in compare_rows if r["regime"] == "alg2"
    }
    zero = {r["repetition"]: r["utility"] for r in leak_rows if r["p_l"] == "0.0"}
    assert zero == alg2


def test_leakage_singleton_budget_constant_in_pl(tmp_path):
    config = small_config(tmp_path, k=1, k_sweep=(1,), pl_sweep=(0.0, 0.3, 0.9))
    _, rows = read_rows(run_leakage(config))
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


def test_matroid_uniform_reproduces_cardinality(tmp_path):
    matroid = rg.PartitionMatroid(groups=(tuple(range(18)),), capacities=(2,))
    config = small_config(tmp_path, matroid=matroid)
    _, rows = read_rows(run_matroid(config))
    assert len(rows) == 1
    assert rows[0]["count_cardinality"] == rows[0]["count_matroid"]
    assert rows[0]["improvement_cardinality"] == rows[0]["improvement_matroid"]


def test_matroid_counts_respect_capacities(tmp_path):
    matroid = rg.PartitionMatroid(
        groups=(tuple(range(9)), tuple(range(9, 18))), capacities=(1, 1)
    )
    config = small_config(tmp_path, matroid=matroid)
    _, rows = read_rows(run_matroid(config))
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
    _, rows = read_rows(run_matroid(config))
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
    _, rows = read_rows(run_compare(config))
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


def test_generate_writes_loadable_instance(tmp_path):
    config = small_config(tmp_path)
    values, costs = run_generate(config)
    inst = rg.load_instance(values, costs, gamma=0.3)
    assert inst.m == 18
    assert rg.validate(inst) is None


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
    _, rows = read_rows(run_compare(config))
    assert len(rows) == 5


def test_config_validation():
    with pytest.raises(ValueError, match="repetitions"):
        small_config("x", repetitions=0)
    with pytest.raises(ValueError, match="synthetic block"):
        ExperimentConfig(experiment="compare", outdir="x")
    with pytest.raises(ValueError, match="gamma"):
        ExperimentConfig(
            experiment="compare", outdir="x", values_path="v", cost_path="c"
        )


def test_config_dict_round_trip(tmp_path):
    matroid = rg.PartitionMatroid(groups=((0, 1), (2,)), capacities=(1, 1))
    config = ExperimentConfig(
        experiment="matroid",
        outdir=str(tmp_path),
        synthetic=rg.SynthConfig(m=3, gamma=0.4, seed=1),
        matroid=matroid,
    )
    echoed = json.loads(json.dumps(config.to_dict(), sort_keys=True))
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
        "instance": {"m": 10, "gamma": 0.3, "seed": 1},
        "k": 1,
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


def test_cli_env_var_overrides_config_not_flags(tmp_path, monkeypatch):
    env_dir = tmp_path / "env_out"
    monkeypatch.setenv(cli.OUTDIR_ENV, str(env_dir))
    rc = cli.main(["compare", "--m", "10", "--k", "1", "--repetitions", "1"])
    assert rc == 0
    assert (env_dir / "compare.csv").exists()
    flag_dir = tmp_path / "flag_out"
    rc = cli.main(
        ["compare", "--m", "10", "--k", "1", "--repetitions", "1",
         "--outdir", str(flag_dir)]
    )
    assert rc == 0
    assert (flag_dir / "compare.csv").exists()


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


def test_cli_matroid_missing_block_fails(tmp_path, capsys):
    rc = cli.main(["matroid", "--m", "6", "--outdir", str(tmp_path)])
    assert rc == 1
    assert "matroid" in capsys.readouterr().err
