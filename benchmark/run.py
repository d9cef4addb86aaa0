"""Layered benchmark for the recourse_game harness.

    python3 benchmark/run.py --workload paper --seed 0 --seconds 30 --trace 0

Run from anywhere inside a checkout that holds `src/recourse_game`. Each run
measures set-up in several fresh interpreters, then starts one
single-threaded worker (worker.py) that runs the workload's harness commands
in passes for `--seconds`. Every pass's outputs are verified here: against
the golden body hashes in golden.json at the default seed, and against
invariants that hold for every seed. The report lines come first; the last
line of stdout is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
worker alternates untraced and traced passes and the metrics are per-layer
(see README.md). `--smoke` shrinks every workload to a few seconds, for
selftest.py.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("paper", "scale", "battery")
DEFAULT_SEED = 0
# Wall-clock limit for one whole run, set-up probes included.
RUN_LIMIT_S = 170.0
# Fresh interpreters that only set up, besides the worker itself.
SETUP_PROBES = 4
# Nominal time of one speed.Speedometer kernel run, about what it takes on a
# quiet 2-vCPU Xeon guest. Reported times are scaled to this speed.
KERNEL_REF_S = 0.0018

# Where each command leaves its primary output in a pass directory; CSVs
# are hashed without their provenance line, which echoes the output path.
OUTPUTS = {
    "compare": "compare.csv",
    "leakage": "leakage.csv",
    "matroid": "matroid.csv",
    "check": "check.txt",
}

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MiB"}

# The acceptance battery's criteria, in run order.
CRITERIA = (
    "nonmonotone_fixture",
    "set_cover_fixture",
    "policy_oracle_equivalence",
    "fixed_objective_properties",
    "joint_objective_submodularity",
    "greedy_guarantee",
    "randomized_joint_guarantee",
    "marginal_consistency",
    "leakage_analytics",
    "synthetic_trend",
    "matroid_balance",
    "determinism",
)


def body_sha256(path: Path) -> str:
    data = path.read_bytes()
    if path.suffix == ".csv":
        data = data[data.index(b"\n") + 1 :]
    return hashlib.sha256(data).hexdigest()


def read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as f:
        return [row for row in csv.reader(f) if not row[0].startswith("#")][1:]


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


def invariant_failures(command: str, pass_dir: Path) -> int:
    """Operations of `command` whose output breaks an invariant that holds at
    every seed."""
    if command == "compare":
        # Every regime earns at least the black-box utility of its own
        # (alpha, k, repetition).
        rows = read_rows(pass_dir / "compare.csv")
        black_box = {tuple(r[:3]): float(r[4]) for r in rows if r[3] == "black_box"}
        return sum(
            1 for r in rows if tuple(r[:3]) not in black_box
            or float(r[4]) < black_box[tuple(r[:3])]
        )
    if command == "leakage":
        # Leakage at p_l = 0 reproduces compare's alg2 column bit for bit.
        alg2 = {
            (r[1], r[2]): r[4]
            for r in read_rows(pass_dir / "compare.csv")
            if r[3] == "alg2" and float(r[0]) == 1.0
        }
        return sum(
            1 for k, p_l, rep, u in read_rows(pass_dir / "leakage.csv")
            if float(p_l) == 0.0 and alg2.get((k, rep)) != u
        )
    if command == "check":
        return sum(
            1 for line in (pass_dir / "check.txt").read_text().splitlines()
            if not line.startswith("[PASS]")
        )
    return 0


def verify(worker: dict, outdir: Path, golden: dict | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, notes) over every pass of a worker run.

    An operation fails when its command raised, when its output's body hash
    differs from the golden (or, with no golden, from the first pass), or
    when it breaks an invariant.
    """
    attempted = failed = 0
    notes = []
    reference = dict(golden or {})
    for i, record in enumerate(worker["passes"]):
        pass_dir = outdir / f"pass{i}"
        for command, ops in worker["ops"].items():
            attempted += ops
            if command in record["errors"]:
                failed += ops
                notes.append(f"pass{i} {command} raised {record['errors'][command]}")
                continue
            digest = body_sha256(pass_dir / OUTPUTS[command])
            expected = reference.setdefault(OUTPUTS[command], digest)
            if digest != expected:
                failed += ops
                notes.append(f"pass{i} {OUTPUTS[command]} body hash {digest} != {expected}")
                continue
            bad = min(ops, invariant_failures(command, pass_dir))
            if bad:
                failed += bad
                notes.append(f"pass{i} {command}: {bad} operation(s) break an invariant")
    return attempted, failed, notes


def golden_for(workload: str, seed: int, smoke: bool) -> dict | None:
    table = json.loads((HERE / "golden.json").read_text())
    if seed != table["seed"]:
        return None
    return table["smoke" if smoke else "full"].get(workload)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def scaled_seconds(p: dict, command: str) -> float:
    """A command's time in pass `p` at reference speed: its time without the
    speed sampler's, times KERNEL_REF_S over the kernel time sampled while it
    ran (see speed.py)."""
    return p["seconds"][command] * KERNEL_REF_S / p["kernel_s"][command]


def end_to_end(worker: dict, setups: list[tuple[float, float]]) -> tuple[dict, list[str]]:
    """Gated metrics plus report lines for the per-command and per-solver
    times, which not every workload has.

    Times are at reference speed (see scaled_seconds); report lines give
    the raw median next to the scaled one.
    """
    passes = worker["passes"]

    raw = {
        "setup_s": [s for s, _ in setups],
        "pass_s": [sum(p["seconds"].values()) for p in passes],
    }
    scaled = {
        "setup_s": [s * KERNEL_REF_S / k for s, k in setups],
        "pass_s": [sum(scaled_seconds(p, c) for c in p["seconds"]) for p in passes],
    }
    for command in worker["ops"]:
        done = [p for p in passes if command in p["seconds"]]
        raw[f"{command}_s"] = [p["seconds"][command] for p in done]
        scaled[f"{command}_s"] = [scaled_seconds(p, command) for p in done]
    for regime in ("alg1", "alg2", "min_cost", "diverse"):
        done = [p for p in passes if regime in p["solver_ms"]]
        if done:
            raw[f"{regime}_ms"] = [ms for p in done for ms in p["solver_ms"][regime]]
            scaled[f"{regime}_ms"] = [
                ms * KERNEL_REF_S / p["kernel_s"]["compare"]
                for p in done
                for ms in p["solver_ms"][regime]
            ]
    lines = []
    for name, vals in scaled.items():
        if not vals:
            continue
        q1, med, q3 = quartiles(vals)
        unit = "ms" if name.endswith("_ms") else "s"
        lines.append(
            f"{name:<12} {med:11.4f} {unit:<3} q1 {q1:.4f} q3 {q3:.4f} n={len(vals)}"
            f"  (raw median {statistics.median(raw[name]):.4f})"
        )
    lines.append(f"{'peak_rss_mb':<12} {worker['peak_rss_mb']:11.4f} MiB")
    scaled["peak_rss_mb"] = [worker["peak_rss_mb"]]
    metrics = {
        name: {"value": quartiles(scaled[name])[1], "unit": unit}
        for name, unit in END_TO_END.items()
    }
    return metrics, lines


def per_layer(worker: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics: medians over traced passes, battery criteria over
    untraced ones, and the tracing overhead at reference speed."""
    traced = [p for p in worker["passes"] if p["traced"]]
    plain = [p for p in worker["passes"] if not p["traced"]]
    metrics = {}
    for name in worker["layers"][0]:
        for key in worker["layers"][0][name]:
            unit = {"calls": "count", "computed_mb": "MiB"}.get(key, "ms")
            vals = [layers[name][key] for layers in worker["layers"]]
            # Call counts repeat exactly from pass to pass; keep them whole.
            mid = statistics.median_low(vals) if key == "calls" else statistics.median(vals)
            metrics[f"{name}.{key}"] = {"value": mid, "unit": unit}
    for criterion in CRITERIA:
        vals = [p["checks"][criterion][1] for p in plain if criterion in p["checks"]]
        metrics[f"checks.{criterion}_s"] = {
            "value": statistics.median(vals) if vals else 0.0,
            "unit": "s",
        }
    lines = []
    for command in OUTPUTS:
        on = [scaled_seconds(p, command) for p in traced if command in p["seconds"]]
        off = [scaled_seconds(p, command) for p in plain if command in p["seconds"]]
        overhead = statistics.median(on) - statistics.median(off) if on and off else 0.0
        metrics[f"overhead.{command}_s"] = {"value": overhead, "unit": "s"}
        if on and off:
            lines.append(
                f"{command}_s untraced {statistics.median(off):.4f} s, traced "
                f"{statistics.median(on):.4f} s, overhead {overhead:.4f} s"
            )
    if worker["absent"]:
        lines.append("absent (not in the package): " + ", ".join(worker["absent"]))
    return metrics, lines


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


def child_env(tmpdir: Path) -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        # tempfile (used by the determinism criterion) writes inside the checkout.
        TMPDIR=str(tmpdir),
    )
    return env


def start_worker(args, outdir: Path, result: Path, deadline: float, extra=()) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--outdir", str(outdir),
        "--result", str(result),
        *(["--smoke"] if args.smoke else []),
        *extra,
    ]
    proc = subprocess.Popen(cmd, env=child_env(outdir / "tmp"), stdout=sys.stderr)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit("benchmark worker ran out of time")
    finally:
        # Also reached on SIGTERM (see main): never leave the worker behind.
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise SystemExit(f"benchmark worker exited with code {code}")
    data = json.loads(result.read_text())
    package = Path(data["package"]).resolve()
    if SRC.resolve() not in package.parents:
        raise SystemExit(f"worker imported recourse_game from {package}, not {SRC}")
    return data


def metadata(worker: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    source_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((SRC / "recourse_game").glob("*.py"))
    )
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": worker["python"],
        "numpy": worker["numpy"],
        "commit": commit,
        "source_lines": source_lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for selftest.py")
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_LIMIT_S
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "recourse_game" / "__init__.py").is_file():
        print(f"error: no recourse_game package under {SRC}", file=sys.stderr)
        return 2

    outdir = OUT / args.workload
    shutil.rmtree(outdir, ignore_errors=True)
    (outdir / "tmp").mkdir(parents=True)

    def probe(i: int) -> tuple[float, float]:
        path = outdir / f"setup{i}.json"
        data = start_worker(args, outdir, path, deadline, ["--setup-only"])
        return data["setup_s"], data["setup_kernel_s"]

    # Half the set-up probes run before the worker and half after, so they
    # sample the machine at two moments. A traced run reports no set-up.
    probes = 0 if args.trace else SETUP_PROBES
    setups = [probe(i) for i in range(probes // 2)]
    worker = start_worker(args, outdir, outdir / "result.json", deadline)
    setups.append((worker["setup_s"], worker["setup_kernel_s"]))
    setups += [probe(i) for i in range(probes // 2, probes)]

    golden = golden_for(args.workload, args.seed, args.smoke)
    attempted, failed, notes = verify(worker, outdir, golden)
    if args.trace:
        metrics, lines = per_layer(worker)
    else:
        metrics, lines = end_to_end(worker, setups)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}"
          f"{' smoke' if args.smoke else ''}: {len(worker['passes'])} passes")
    print("meta " + json.dumps(metadata(worker), sort_keys=True))
    for command in worker["ops"]:
        path = outdir / "pass0" / OUTPUTS[command]
        if path.exists():
            print(f"body sha256 {OUTPUTS[command]} {body_sha256(path)}")
    for line in lines + notes:
        print(line)
    print(f"outputs checked against {'golden hashes' if golden else 'invariants'}; "
          f"failed_frac {failed / attempted:.4f} ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
