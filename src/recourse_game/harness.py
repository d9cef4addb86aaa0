"""Experiment drivers: seeded sweeps writing CSV result tables.

Every primary CSV starts with a provenance comment line (tool version, full
config echo, base seed) and is byte-identical across reruns of the same
config. Wall-clock timings are inherently nondeterministic and therefore go
to a `*_timings.csv` sidecar that is excluded from the determinism contract.

Seed derivation never includes the experiment name, only the purpose tag and
the sweep coordinates, so e.g. the leakage table at p_l=0 reproduces the
compare table's alg2 column exactly, and adding sweep points never perturbs
existing rows.
"""

from __future__ import annotations

import csv
import json
import sys
import time
import warnings
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .algorithms import greedy_fixed_policy, greedy_matroid, randomized_joint
from .baselines import (
    black_box_utility,
    diverse_explanations,
    min_cost_explanations,
    threshold_policy,
)
from .behavior import group_improvement, leakage_utility, transport_matrix, utility
from .core import Instance, PartitionMatroid, make_instance
from .datagen import (
    SynthConfig,
    derive_seed,
    generate_synthetic,
    load_instance,
    save_instance,
    seeded_rng,
)

TOOL_VERSION = "0.1.0"

REGIMES = ("black_box", "min_cost", "diverse", "alg1", "alg2")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs: instance source, sweeps, seeds, output."""

    experiment: str
    outdir: str
    synthetic: SynthConfig | None = None
    values_path: str | None = None
    cost_path: str | None = None
    gamma: float | None = None
    k: int = 1
    k_sweep: tuple[int, ...] = ()
    alpha_sweep: tuple[float, ...] = (1.0,)
    pl_sweep: tuple[float, ...] = (0.0,)
    repetitions: int = 1
    base_seed: int = 0
    bins: int = 10
    matroid: PartitionMatroid | None = None

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.synthetic is None and (
            self.values_path is None or self.cost_path is None
        ):
            raise ValueError("config needs a synthetic block or instance file paths")
        if self.synthetic is None and self.gamma is None:
            raise ValueError("file-based instances need gamma in the config")
        if not self.alpha_sweep:
            raise ValueError("alpha_sweep must be nonempty")
        if not self.pl_sweep:
            raise ValueError("pl_sweep must be nonempty")

    @property
    def effective_k_sweep(self) -> tuple[int, ...]:
        return self.k_sweep if self.k_sweep else (self.k,)

    def to_dict(self) -> dict:
        d = asdict(self)
        if self.matroid is not None:
            d["matroid"] = {
                "groups": [list(g) for g in self.matroid.groups],
                "capacities": list(self.matroid.capacities),
            }
        return d

    @staticmethod
    def from_dict(d: dict, experiment: str) -> "ExperimentConfig":
        d = dict(d)
        synthetic = d.pop("instance", None) or d.pop("synthetic", None)
        synth_cfg, values_path, cost_path, gamma = None, None, None, None
        if isinstance(synthetic, dict):
            if "values" in synthetic or "values_path" in synthetic:
                values_path = synthetic.get("values") or synthetic.get("values_path")
                cost_path = synthetic.get("costs") or synthetic.get("cost_path")
                gamma = synthetic.get("gamma")
            else:
                synth_cfg = SynthConfig(**synthetic)
        matroid = d.pop("matroid", None)
        if isinstance(matroid, dict):
            matroid = PartitionMatroid(
                groups=tuple(tuple(g) for g in matroid["groups"]),
                capacities=tuple(matroid["capacities"]),
            )
        known = {
            "k",
            "k_sweep",
            "alpha_sweep",
            "pl_sweep",
            "repetitions",
            "base_seed",
            "bins",
            "outdir",
        }
        kwargs = {key: d[key] for key in known if key in d}
        for seq in ("k_sweep", "alpha_sweep", "pl_sweep"):
            if seq in kwargs:
                kwargs[seq] = tuple(kwargs[seq])
        return ExperimentConfig(
            experiment=experiment,
            synthetic=synth_cfg,
            values_path=values_path,
            cost_path=cost_path,
            gamma=gamma,
            matroid=matroid,
            **{"outdir": kwargs.pop("outdir", "results"), **kwargs},
        )


def _fmt(v: float) -> str:
    return repr(float(v))


def _provenance(config: ExperimentConfig) -> str:
    echo = json.dumps(config.to_dict(), sort_keys=True)
    return (
        f"# recourse-game {TOOL_VERSION} | base_seed={config.base_seed} "
        f"| config={echo}"
    )


def _write_csv(path: Path, provenance: str, header: list[str], rows) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        f.write(provenance + "\n")
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _scale_costs(instance: Instance, alpha: float) -> Instance:
    if alpha == 1.0:
        return instance
    cost = instance.cost.copy()
    off = ~np.eye(instance.m, dtype=bool)
    finite = np.isfinite(cost) & off
    cost[finite] *= alpha
    return make_instance(instance.px, instance.py, cost, instance.gamma)


def _instance_for(
    config: ExperimentConfig, alpha: float, k: int, rep: int
) -> Instance:
    if config.synthetic is not None:
        seed = derive_seed(config.base_seed, "instance", alpha, k, rep)
        inst = generate_synthetic(replace(config.synthetic, seed=seed))
    else:
        inst = load_instance(config.values_path, config.cost_path, config.gamma)
    return _scale_costs(inst, alpha)


def _alg2_stream(
    config: ExperimentConfig, alpha: float, k: int, rep: int
) -> np.random.Generator:
    return seeded_rng(derive_seed(config.base_seed, "alg2", alpha, k, rep))


def _regime_solutions(config, inst, k, alpha, rep):
    """Explanation set and evaluation policy per regime, with timings."""
    policy = threshold_policy(inst)
    out = {}
    for regime in REGIMES:
        t0 = time.perf_counter()
        if k == 0 or regime == "black_box":
            u = black_box_utility(inst)
        elif regime == "min_cost":
            u = utility(inst, policy, min_cost_explanations(inst, policy, k))
        elif regime == "diverse":
            u = utility(inst, policy, diverse_explanations(inst, policy, k))
        elif regime == "alg1":
            u = utility(inst, policy, greedy_fixed_policy(inst, policy, k))
        else:
            u = randomized_joint(inst, k, _alg2_stream(config, alpha, k, rep)).utility
        out[regime] = (u, (time.perf_counter() - t0) * 1000.0)
    return out


def run_generate(config: ExperimentConfig) -> list[Path]:
    """Write the configured instance to instance_values.csv / instance_cost.csv."""
    outdir = Path(config.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    inst = _instance_for(config, config.alpha_sweep[0], config.k, 0)
    values = outdir / "instance_values.csv"
    costs = outdir / "instance_cost.csv"
    save_instance(inst, values, costs)
    return [values, costs]


def run_compare(config: ExperimentConfig) -> Path:
    """Utility of the five regimes per sweep point and repetition."""
    rows, timing_rows = [], []
    for alpha in config.alpha_sweep:
        for k in config.effective_k_sweep:
            for rep in range(config.repetitions):
                inst = _instance_for(config, alpha, k, rep)
                for regime, (u, ms) in _regime_solutions(
                    config, inst, k, alpha, rep
                ).items():
                    rows.append([_fmt(alpha), k, rep, regime, _fmt(u)])
                    timing_rows.append([_fmt(alpha), k, rep, regime, f"{ms:.3f}"])
    prov = _provenance(config)
    _write_csv(
        Path(config.outdir) / "compare_timings.csv",
        prov,
        ["alpha", "k", "repetition", "regime", "runtime_ms"],
        timing_rows,
    )
    return _write_csv(
        Path(config.outdir) / "compare.csv",
        prov,
        ["alpha", "k", "repetition", "regime", "utility"],
        rows,
    )


def run_leakage(config: ExperimentConfig) -> Path:
    """Utility of the jointly optimized solution under explanation leakage."""
    alpha = config.alpha_sweep[0]
    if 0 in config.effective_k_sweep:
        warnings.warn("leakage skips k=0: the joint optimizer needs k >= 1")
    rows = []
    for k in config.effective_k_sweep:
        if k == 0:
            continue
        for rep in range(config.repetitions):
            inst = _instance_for(config, alpha, k, rep)
            sol = randomized_joint(inst, k, _alg2_stream(config, alpha, k, rep))
            for p_l in config.pl_sweep:
                u = leakage_utility(inst, sol.policy, sol.explanations, p_l)
                rows.append([k, _fmt(p_l), rep, _fmt(u)])
    return _write_csv(
        Path(config.outdir) / "leakage.csv",
        _provenance(config),
        ["k", "p_l", "repetition", "utility"],
        rows,
    )


def _bin_labels(bins: int) -> list[str]:
    edges = np.linspace(0.0, 1.0, bins + 1)
    out = []
    for b in range(bins):
        close = "]" if b == bins - 1 else ")"
        out.append(f"[{edges[b]:.3g},{edges[b + 1]:.3g}{close}")
    return out


def run_transport(config: ExperimentConfig) -> list[Path]:
    """Moved-mass matrices between outcome bins for alg1 and alg2."""
    alpha = config.alpha_sweep[0]
    k = config.effective_k_sweep[0]
    rep = 0
    inst = _instance_for(config, alpha, k, rep)
    policy = threshold_policy(inst)

    solutions = {
        "alg1": (policy, greedy_fixed_policy(inst, policy, k)),
    }
    sol = randomized_joint(inst, k, _alg2_stream(config, alpha, k, rep))
    solutions["alg2"] = (sol.policy, sol.explanations)

    labels = _bin_labels(config.bins)
    paths = []
    for regime, (pol, A) in solutions.items():
        matrix = transport_matrix(inst, pol, A, config.bins)
        rows = [
            [labels[r]] + [_fmt(v) for v in matrix[r]] for r in range(config.bins)
        ]
        paths.append(
            _write_csv(
                Path(config.outdir) / f"transport_{regime}.csv",
                _provenance(config),
                ["initial_outcome\\final_outcome"] + labels,
                rows,
            )
        )
    return paths


def run_matroid(config: ExperimentConfig) -> Path:
    """Group balance of cardinality- vs matroid-constrained explanations."""
    if config.matroid is None:
        raise ValueError("matroid experiment needs a matroid block in the config")
    matroid = config.matroid
    alpha = config.alpha_sweep[0]
    k = matroid.k
    inst = _instance_for(config, alpha, k, 0)
    if matroid.m != inst.m:
        raise ValueError(
            f"matroid covers {matroid.m} values but the instance has {inst.m}"
        )
    policy = threshold_policy(inst)
    a_card = greedy_fixed_policy(inst, policy, k)
    a_mat = greedy_matroid(inst, policy, matroid)
    impr_card = group_improvement(inst, policy, a_card, matroid.groups)
    impr_mat = group_improvement(inst, policy, a_mat, matroid.groups)
    rejected = policy.pi < 1.0

    rows = []
    for g, members in enumerate(matroid.groups):
        idx = [i for i in members if rejected[i]]
        rows.append(
            [
                g,
                _fmt(float(inst.px[idx].sum())),
                len(a_card.as_set() & set(members)),
                len(a_mat.as_set() & set(members)),
                _fmt(impr_card[g]),
                _fmt(impr_mat[g]),
            ]
        )
    return _write_csv(
        Path(config.outdir) / "matroid.csv",
        _provenance(config),
        [
            "group",
            "rejected_mass",
            "count_cardinality",
            "count_matroid",
            "improvement_cardinality",
            "improvement_matroid",
        ],
        rows,
    )


def run_check(base_seed: int = 0, stream=None) -> bool:
    """Run the acceptance battery; one PASS/FAIL line per criterion.

    The report on `stream` (default stdout) is deterministic; per-criterion
    runtimes go to stderr.
    """
    from .checks import run_all

    stream = stream if stream is not None else sys.stdout
    results = run_all(base_seed)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        stream.write(f"[{status}] {r.name}: {r.detail}\n")
        print(f"    {r.name}: {r.seconds:.2f}s", file=sys.stderr)
    ok = all(r.passed for r in results)
    stream.write(
        f"{sum(r.passed for r in results)}/{len(results)} criteria passed\n"
    )
    return ok
