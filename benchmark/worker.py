"""One benchmark process: set up, run a workload's harness commands in passes
until the time budget is spent, and write the raw measurements as JSON.

run.py starts this script in a fresh single-threaded interpreter with
`PYTHONPATH` pointing at the checkout's `src`; it is not meant to be run by
hand. Every pass writes its primary CSVs to its own `pass<N>` directory so
run.py can verify each pass. Machine speed is sampled throughout (see
speed.py). With `--trace 1` passes alternate between untraced and traced,
and the traced ones record spans (see tracer.py).

    python3 benchmark/worker.py --workload paper --seed 0 --seconds 30 \
        --trace 0 --outdir .bench_out/paper --result result.json
"""

from __future__ import annotations

import argparse
import csv
import json
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

# Solver regimes timed per instance in compare_timings.csv (black_box is a
# single utility evaluation and has no solver).
SOLVER_REGIMES = ("min_cost", "diverse", "alg1", "alg2")

# Criteria the smoke battery runs: the fast, fixture-sized ones.
SMOKE_CHECKS = (
    "check_nonmonotone_fixture",
    "check_set_cover_fixture",
    "check_matroid_balance",
)


def build_commands(workload: str, seed: int, smoke: bool):
    """The workload's harness commands as (name, run(outdir), ops) triples.

    `ops` is the number of operations one call attempts: one per
    (instance, regime) solve, leakage point, matroid run or criterion.
    """
    from recourse_game import checks, harness
    from recourse_game.core import PartitionMatroid
    from recourse_game.datagen import SynthConfig

    def sweep(config, command):
        # Look the runner up at call time so a traced pass goes through the
        # tracer's wrapper.
        return lambda outdir: getattr(harness, command)(
            replace(config, outdir=str(outdir))
        )

    if workload == "battery":
        if not smoke:
            return [("check", lambda outdir: checks.run_all(seed), len(checks.ALL_CHECKS))]
        fns = [fn for fn in checks.ALL_CHECKS if fn.__name__ in SMOKE_CHECKS]
        return [("check", lambda outdir: [fn(seed) for fn in fns], len(fns))]

    if workload == "paper":
        m, ks, reps = (20, (2, 4), 2) if smoke else (200, (10, 20), 20)
        matroid = None
    elif workload == "scale":
        m, ks, reps = (30, (5,), 1) if smoke else (1000, (50,), 1)
        size, groups = m // 5, 5
        matroid = PartitionMatroid(
            groups=tuple(tuple(range(g * size, (g + 1) * size)) for g in range(groups)),
            capacities=(ks[0] // groups,) * groups,
        )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    pl = (0.0, 0.25, 0.5, 1.0)
    config = harness.ExperimentConfig(
        experiment=workload,
        outdir="",
        synthetic=SynthConfig(m=m, gamma=0.3),
        k=ks[0],
        k_sweep=ks,
        pl_sweep=pl,
        repetitions=reps,
        base_seed=seed,
        matroid=matroid,
    )
    commands = [
        ("compare", sweep(config, "run_compare"), len(ks) * reps * 5),
        ("leakage", sweep(config, "run_leakage"), len(ks) * reps * len(pl)),
    ]
    if matroid is not None:
        commands.append(("matroid", sweep(config, "run_matroid"), 1))
    return commands


def run_pass(commands, outdir: Path, speed) -> dict:
    """Run every command once; record times, machine speed, solver timings
    and errors.

    Outputs stay in `outdir` for run.py to verify.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    record = {"seconds": {}, "kernel_s": {}, "errors": {}, "solver_ms": {}, "checks": {}}
    for name, run, _ in commands:
        t0 = time.perf_counter()
        try:
            result = run(outdir)
        except Exception as exc:  # an operation that raises counts as failed
            record["errors"][name] = f"{type(exc).__name__}: {exc}"
            continue
        record["seconds"][name], record["kernel_s"][name] = speed.span(
            t0, time.perf_counter()
        )
        if name == "check":
            # The same deterministic report `recourse-game check` prints.
            record["checks"] = {r.name: [bool(r.passed), r.seconds] for r in result}
            (outdir / "check.txt").write_text(
                "".join(
                    f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}\n"
                    for r in result
                )
            )
        elif name == "compare":
            with open(outdir / "compare_timings.csv", newline="") as f:
                rows = list(csv.reader(f))[2:]
            for _, _, _, regime, ms in rows:
                if regime in SOLVER_REGIMES:
                    record["solver_ms"].setdefault(regime, []).append(float(ms))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--outdir", type=Path)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    # Set-up: importing the package and building the workload's configs.
    t0 = time.perf_counter()
    import numpy
    import recourse_game

    commands = build_commands(args.workload, args.seed, args.smoke)
    setup_s = time.perf_counter() - t0

    from speed import Speedometer

    speed = Speedometer()
    out = {
        "setup_s": setup_s,
        "setup_kernel_s": speed.settled_kernel_s(),
        "package": recourse_game.__file__,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    }
    if not args.setup_only:
        with speed:
            out.update(measure(args, commands, speed))
    args.result.write_text(json.dumps(out))
    return 0


def measure(args, commands, speed) -> dict:
    """Run passes until the budget is spent: at least one, and with tracing
    at least one untraced and one traced, alternating so both see the same
    machine state."""
    from tracer import Tracer

    tracer = Tracer() if args.trace else None
    passes = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.start_pass()
        t0 = time.perf_counter()
        record = run_pass(commands, args.outdir / f"pass{len(passes)}", speed)
        record["wall_s"] = time.perf_counter() - t0
        if traced:
            tracer.stop_pass()
        record["traced"] = traced
        passes.append(record)

        # Stop before a pass that would overrun the budget, going by the
        # median of earlier passes of the same kind.
        next_traced = tracer is not None and len(passes) % 2 == 1
        if next_traced and not any(p["traced"] for p in passes):
            continue
        same = sorted(p["wall_s"] for p in passes if p["traced"] == next_traced)
        if time.perf_counter() - start + same[len(same) // 2] > args.seconds:
            break

    result = {
        "ops": {name: ops for name, _, ops in commands},
        "passes": passes,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        tracer.write(args.outdir / "spans.npz")
        result["layers"] = tracer.summary()
        result["absent"] = tracer.absent
    return result


if __name__ == "__main__":
    sys.exit(main())
