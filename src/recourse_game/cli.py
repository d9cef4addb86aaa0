"""Command-line entry point: one subcommand per entry of `harness.COMMANDS`,
each running `harness.run_<name>` on one ExperimentConfig, plus `check`.

A run reads one JSON config (--config, in the README's format). Precedence:
flags > JSON > defaults (synthetic instance, m=50, outdir `results`).
--m/--gamma/--values/--costs write the `instance` block, and --values/--costs
make it file-based. Unknown keys, non-integer counts, flags that conflict
with the instance (--m with files) and a second alpha or k entry that the
command would not read (`harness.SWEEPS`) are errors.

Exit codes: 0 ok, 1 check failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from . import checks, harness
from .core import PartitionMatroid
from .datagen import SynthConfig

_TOP_KEYS = (
    "k_sweep", "alpha_sweep", "pl_sweep", "repetitions", "base_seed", "bins",
    "outdir", "instance", "matroid",
)
# every repetition derives its own instance seed from base_seed
_SYNTH_KEYS = tuple(f.name for f in fields(SynthConfig) if f.name != "seed")
_FILE_KEYS = ("values", "costs", "gamma")


def _comma_list(cast):
    def parse(text):
        items = tuple(cast(tok) for tok in text.split(",") if tok != "")
        if not items:
            raise argparse.ArgumentTypeError(f"empty list: {text!r}")
        return items

    return parse


def _add_common(sub: argparse.ArgumentParser) -> None:
    """Each flag's dest is the config key it sets."""
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--outdir", help="output directory")
    sub.add_argument("--m", type=int, help="number of feature values (synthetic)")
    sub.add_argument("--gamma", type=float, help="decision cost constant")
    sub.add_argument("--seed", dest="base_seed", type=int, help="base seed")
    sub.add_argument(
        "--k", dest="k_sweep", type=_comma_list(int),
        help="explanation budget(s), comma separated",
    )
    sub.add_argument(
        "--alpha", dest="alpha_sweep", type=_comma_list(float),
        help="cost scale(s), comma separated",
    )
    sub.add_argument(
        "--pl", dest="pl_sweep", type=_comma_list(float),
        help="leakage probabilities, comma separated",
    )
    sub.add_argument("--repetitions", type=int, help="repetitions per sweep point")
    sub.add_argument("--bins", type=int, help="outcome bins for transport matrices")
    sub.add_argument("--values", help="instance values CSV (file-based runs)")
    sub.add_argument("--costs", help="instance cost CSV (file-based runs)")


def _reject_unknown(block: dict, known, where: str) -> None:
    unknown = sorted(set(block) - set(known))
    if unknown:
        raise ValueError(f"unknown {where} key(s): {', '.join(unknown)}")


def _config_from_dict(d: dict, experiment: str) -> harness.ExperimentConfig:
    """Read the README's JSON config format into an ExperimentConfig."""
    _reject_unknown(d, _TOP_KEYS, "config")
    inst = d.pop("instance")
    if "values" in inst or "costs" in inst:
        _reject_unknown(inst, _FILE_KEYS, "file-based instance")
        d.update(
            values_path=inst.get("values"),
            cost_path=inst.get("costs"),
            gamma=inst.get("gamma"),
        )
    else:
        _reject_unknown(inst, _SYNTH_KEYS, "synthetic instance")
        d["synthetic"] = SynthConfig(**inst)
    if "matroid" in d:
        d["matroid"] = PartitionMatroid(**d["matroid"])
    d.setdefault("outdir", "results")
    config = harness.ExperimentConfig(experiment=experiment, **d)
    reads = harness.SWEEPS.get(experiment, ())
    for sweep in ("alpha_sweep", "k_sweep"):
        if sweep not in reads and len(getattr(config, sweep)) > 1:
            at = f"one {sweep.removesuffix('_sweep')}" if reads else "one point"
            raise ValueError(f"{experiment} runs at {at}: {sweep} needs one entry")
    return config


def _build_config(flags: dict, experiment: str) -> harness.ExperimentConfig:
    """Merge the given flags into the JSON config."""
    raw = {}
    if "config" in flags:
        with open(flags.pop("config")) as f:
            raw = json.load(f)
        if not isinstance(raw, dict):
            raise ValueError("the config must be a JSON object")
    inst = raw["instance"] = dict(raw.get("instance", {"m": 50}))
    if "values" in flags or "costs" in flags:
        for key in set(_SYNTH_KEYS) - set(_FILE_KEYS):
            inst.pop(key, None)
    for key, value in flags.items():
        # --m, --gamma, --values and --costs are instance keys
        (inst if key in _SYNTH_KEYS + _FILE_KEYS else raw)[key] = value
    return _config_from_dict(raw, experiment)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="recourse-game",
        description=(
            "Strategic counterfactual explanations: best-response simulation, "
            "submodular optimizers, and seeded experiment sweeps."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in harness.COMMANDS.items():
        # flags the user did not give stay out of the namespace
        _add_common(
            sub.add_parser(name, help=desc, argument_default=argparse.SUPPRESS)
        )
    check = sub.add_parser("check", help="run the acceptance criteria battery")
    check.add_argument("--seed", type=int, default=0, help="base seed")

    flags = vars(parser.parse_args(argv))
    command = flags.pop("command")

    if command == "check":
        return 0 if checks.run_check(base_seed=flags["seed"]) else 1

    try:
        config = _build_config(flags, command)
    except (ValueError, TypeError, OSError) as exc:
        parser.error(str(exc))

    try:
        paths = getattr(harness, f"run_{command}")(config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for p in paths:
        print(p)
    return 0


if __name__ == "__main__":
    sys.exit(main())
