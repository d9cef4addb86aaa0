"""Experiment drivers: seeded sweeps writing CSV result tables.

Every primary CSV starts with a provenance comment line (tool version, full
config echo, base seed) and is byte-identical across reruns of the same
config. Wall-clock timings are inherently nondeterministic and therefore go
to a `*_timings.csv` sidecar that is excluded from the determinism contract.

Every command takes its sweep points from one generator, `_points`, which
reads the `SWEEPS` table. Seed derivation never includes the experiment
name, only the purpose tag and the sweep coordinates, so e.g. the leakage
table at p_l=0 reproduces the compare table's alg2 column exactly, and
adding sweep points never perturbs existing rows.
"""

from __future__ import annotations

import json
import time
from dataclasses import InitVar, dataclass, replace
from itertools import product
from pathlib import Path
from typing import Iterator

import numpy as np

from .algorithms import greedy_fixed_policy, greedy_matroid, randomized_joint
from .baselines import diverse_explanations, min_cost_explanations, threshold_policy
from .behavior import _leakage_utilities, group_improvement, transport_matrix, utility
from .core import (
    _GAMMA,
    _ROW_BLOCK,
    ExplanationSet,
    Instance,
    PartitionMatroid,
    Policy,
    _bin_edges,
    _check_matroid_size,
    _counts,
    _paths,
    _reals,
)
from .datagen import (
    SynthConfig,
    _fmt,
    _write_rows,
    derive_seed,
    generate_synthetic,
    load_instance,
    save_instance,
    seeded_rng,
)

TOOL_VERSION = "0.1.0"

REGIMES = ("black_box", "min_cost", "diverse", "alg1", "alg2")

# The commands that run one ExperimentConfig, each through `run_<name>`.
COMMANDS = {
    "generate": "write a synthetic instance to CSV files",
    "compare": "utility of all regimes across sweeps",
    "leakage": "jointly optimized utility under explanation leakage",
    "transport": "moved-mass matrices between outcome bins",
    "matroid": "group balance under a partition-matroid constraint",
}
# The sweeps each command reads, alpha outermost. Every other sweep runs at its
# first entry (one repetition), and the CLI refuses a second alpha or k there.
SWEEPS = {
    "compare": ("alpha_sweep", "k_sweep", "repetitions"),
    "leakage": ("k_sweep", "repetitions"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs: instance source, sweeps, seeds, output. Paths
    may be strings or pathlib paths and are stored as strings."""

    experiment: str
    outdir: str
    synthetic: SynthConfig | None = None
    values_path: str | None = None
    cost_path: str | None = None
    gamma: float | None = None
    k: InitVar[int | None] = None  # read into k_sweep, never stored
    k_sweep: tuple[int, ...] | None = None
    alpha_sweep: tuple[float, ...] = (1.0,)
    pl_sweep: tuple[float, ...] = (0.0,)
    repetitions: int = 1
    base_seed: int = 0
    bins: int = 10
    matroid: PartitionMatroid | None = None

    def __post_init__(self, k):
        # the one budget setting is k_sweep: a k given beside it must be its
        # first entry
        if self.k_sweep is None:
            object.__setattr__(self, "k_sweep", (1 if k is None else k,))
        for sweep in ("k_sweep", "alpha_sweep", "pl_sweep"):
            try:  # iter() refuses a number, and a 0-d array, with a TypeError
                object.__setattr__(self, sweep, tuple(getattr(self, sweep)))
            except TypeError:
                raise ValueError(f"{sweep} must be a list") from None
            if not getattr(self, sweep):
                raise ValueError(f"{sweep} must be nonempty")
        ks = _counts(self.k_sweep, "k and every k_sweep entry")
        if k is not None and _counts([k], "k")[0] != ks[0]:
            raise ValueError(f"k={k} is not the first entry of k_sweep={ks}")
        object.__setattr__(self, "k_sweep", ks)
        alphas = _reals(self.alpha_sweep, "every alpha", 0.0, np.inf)
        pls = _reals(self.pl_sweep, "every p_l", 0.0, 1.0)
        object.__setattr__(self, "alpha_sweep", alphas)
        object.__setattr__(self, "pl_sweep", pls)
        for name, low in (("repetitions", 1), ("base_seed", None), ("bins", 1)):
            object.__setattr__(self, name, *_counts([getattr(self, name)], name, low))
        object.__setattr__(self, "outdir", *_paths([self.outdir], "outdir"))
        if self.synthetic is None:
            for name, key in (("values_path", "values"), ("cost_path", "costs")):
                if getattr(self, name) is None:
                    raise ValueError(f"config needs a synthetic block or a {key} file")
                object.__setattr__(self, name, *_paths([getattr(self, name)], name))
            if self.gamma is None:
                raise ValueError("file-based instances need gamma in the config")
            object.__setattr__(self, "gamma", *_reals([self.gamma], *_GAMMA))
        elif (self.values_path, self.cost_path, self.gamma) != (None, None, None):
            raise ValueError("a synthetic config takes no instance files or gamma")
        elif self.matroid is not None and self.experiment == "matroid":
            # only `matroid` reads the block; a file instance's m is known once read
            _check_matroid_size(self.matroid, self.synthetic.m)
        if self.matroid is None and self.experiment == "matroid":
            raise ValueError("matroid experiment needs a matroid block in the config")


def _write_csv(config: ExperimentConfig, name: str, header: list[str], rows) -> Path:
    """Write outdir/name: the provenance line, then the header and rows."""
    # vars, not asdict, which deep-copies every field (a matroid's m indices)
    echo = json.dumps(config, default=vars, sort_keys=True)
    provenance = (
        f"# recourse-game {TOOL_VERSION} | base_seed={config.base_seed} "
        f"| config={echo}\n"
    )
    return _write_rows(Path(config.outdir) / name, [header, *rows], provenance)


def _scale_costs(instance: Instance, alpha: float) -> Instance:
    """Multiply every positive finite cost by alpha; zero costs (the diagonal
    among them) stay 0 and infinite ones stay infinite at every alpha."""
    if alpha == 1.0:
        return instance
    cost = instance.cost.copy()
    for s in range(0, instance.m, _ROW_BLOCK):  # a mask block, not an m x m mask
        rows = cost[s : s + _ROW_BLOCK]
        np.multiply(rows, alpha, out=rows, where=(rows > 0.0) & (rows < np.inf))
    return replace(instance, cost=cost)


def _points(config: ExperimentConfig, command: str) -> Iterator[tuple]:
    """The (alpha, k, rep, instance, alg2 stream) points `command` runs, in
    CSV row order. A file instance is read once per command and rescaled per
    point; a synthetic one is drawn per point from its own seed."""
    reads = SWEEPS.get(command, ())
    alphas = config.alpha_sweep if "alpha_sweep" in reads else config.alpha_sweep[:1]
    ks = config.k_sweep if "k_sweep" in reads else config.k_sweep[:1]
    reps = config.repetitions if "repetitions" in reads else 1
    base = None
    if config.synthetic is None:
        base = load_instance(config.values_path, config.cost_path, config.gamma)
    for alpha, k, rep in product(alphas, ks, range(reps)):
        inst = base
        if inst is None:
            seed = derive_seed(config.base_seed, "instance", alpha, k, rep)
            inst = generate_synthetic(replace(config.synthetic, seed=seed))
        # rebound at once: no unscaled draw is held while the next is drawn
        inst = _scale_costs(inst, alpha)
        rng = seeded_rng(derive_seed(config.base_seed, "alg2", alpha, k, rep))
        yield alpha, k, rep, inst, rng


def regime_solution(
    regime: str, inst: Instance, k: int, rng: np.random.Generator
) -> tuple[Policy, ExplanationSet]:
    """The policy and explanation set a regime publishes at budget k.

    black_box publishes the threshold policy with no explanations; alg2
    publishes its joint solution, drawn from rng, which no other regime
    reads. Every solver returns the empty set at k=0.
    """
    policy = threshold_policy(inst)
    if regime == "black_box":
        return policy, ExplanationSet()
    if regime == "alg2":
        sol = randomized_joint(inst, k, rng)
        return sol.policy, sol.explanations
    solver = {
        "min_cost": min_cost_explanations,
        "diverse": diverse_explanations,
        "alg1": greedy_fixed_policy,
    }[regime]
    return policy, solver(inst, policy, k)


def run_generate(config: ExperimentConfig) -> list[Path]:
    """Write compare's instance at the first alpha and k, repetition 0, to CSV."""
    inst = next(_points(config, "generate"))[3]
    paths = [Path(config.outdir) / f"instance_{n}.csv" for n in ("values", "cost")]
    save_instance(inst, *paths)
    return paths


def run_compare(config: ExperimentConfig) -> list[Path]:
    """Utility of the five regimes per sweep point and repetition."""
    rows, timing_rows = [], []
    for alpha, k, rep, inst, rng in _points(config, "compare"):
        for regime in REGIMES:
            t0 = time.perf_counter()
            u = utility(inst, *regime_solution(regime, inst, k, rng))
            ms = (time.perf_counter() - t0) * 1000.0
            rows.append([_fmt(alpha), k, rep, regime, _fmt(u)])
            timing_rows.append([_fmt(alpha), k, rep, regime, f"{ms:.3f}"])
    _write_csv(
        config,
        "compare_timings.csv",
        ["alpha", "k", "repetition", "regime", "runtime_ms"],
        timing_rows,
    )
    header = ["alpha", "k", "repetition", "regime", "utility"]
    return [_write_csv(config, "compare.csv", header, rows)]


def run_leakage(config: ExperimentConfig) -> list[Path]:
    """Utility of the jointly optimized solution under explanation leakage."""
    rows = []
    for _, k, rep, inst, rng in _points(config, "leakage"):
        policy, A = regime_solution("alg2", inst, k, rng)
        utilities = _leakage_utilities(inst, policy, A, config.pl_sweep)
        for p_l, u in zip(config.pl_sweep, utilities):
            rows.append([k, _fmt(p_l), rep, _fmt(u)])
    header = ["k", "p_l", "repetition", "utility"]
    return [_write_csv(config, "leakage.csv", header, rows)]


def _bin_labels(bins: int) -> list[str]:
    edges = _bin_edges(bins)
    out = []
    for b in range(bins):
        close = "]" if b == bins - 1 else ")"
        out.append(f"[{edges[b]:.3g},{edges[b + 1]:.3g}{close}")
    return out


def run_transport(config: ExperimentConfig) -> list[Path]:
    """Moved-mass matrices between outcome bins for alg1 and alg2."""
    _, k, _, inst, rng = next(_points(config, "transport"))
    labels = _bin_labels(config.bins)
    paths = []
    for regime in ("alg1", "alg2"):
        matrix = transport_matrix(
            inst, *regime_solution(regime, inst, k, rng), config.bins
        )
        rows = [
            [labels[r]] + [_fmt(v) for v in matrix[r]] for r in range(config.bins)
        ]
        paths.append(
            _write_csv(
                config,
                f"transport_{regime}.csv",
                ["initial_outcome\\final_outcome"] + labels,
                rows,
            )
        )
    return paths


def group_balance(
    inst: Instance, matroid: PartitionMatroid
) -> list[tuple[float, int, int, float, float]]:
    """One row per group of matroid: (rejected mass, explanation count under
    the cardinality constraint k = matroid.k, count under the matroid,
    group improvement under each), all at the threshold policy."""
    policy = threshold_policy(inst)
    chosen = [
        greedy_fixed_policy(inst, policy, matroid.k),
        greedy_matroid(inst, policy, matroid),
    ]
    impr = [group_improvement(inst, policy, A, matroid.groups) for A in chosen]
    rejected = policy.pi < 1.0
    return [
        (
            float(inst.px[[i for i in members if rejected[i]]].sum()),
            *(len(set(A) & set(members)) for A in chosen),
            *(gains[g] for gains in impr),
        )
        for g, members in enumerate(matroid.groups)
    ]


def run_matroid(config: ExperimentConfig) -> list[Path]:
    """Group balance of cardinality- vs matroid-constrained explanations."""
    if config.matroid is None:  # a config built for `matroid` never gets here
        raise ValueError("matroid experiment needs a matroid block in the config")
    # the budget is the matroid's, so its instance is seeded, and its
    # provenance line written, at matroid.k
    config = replace(config, k_sweep=(config.matroid.k,))
    inst = next(_points(config, "matroid"))[3]
    rows = [
        [g, _fmt(mass), n_card, n_mat, _fmt(impr_card), _fmt(impr_mat)]
        for g, (mass, n_card, n_mat, impr_card, impr_mat) in enumerate(
            group_balance(inst, config.matroid)
        )
    ]
    header = [
        "group",
        "rejected_mass",
        "count_cardinality",
        "count_matroid",
        "improvement_cardinality",
        "improvement_matroid",
    ]
    return [_write_csv(config, "matroid.csv", header, rows)]
