"""Self-test of the benchmark at smoke size (about a minute).

    python3 benchmark/selftest.py

Checks that:
- every workload emits every end-to-end and per-layer metric named in
  BENCHMARK.json, with its unit, and verifies clean at the default seed;
- a corrupted CSV body is caught as failed operations, both by the golden
  hashes (default seed) and by the invariants (any other seed);
- in a directory holding only BENCHMARK.json and the benchmark, run.py exits
  non-zero without printing a result.
Exits non-zero on the first broken expectation.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmark" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def result_of(workload: str, seed: int, trace: int) -> dict:
    done = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    if done.returncode != 0:
        sys.exit(f"{workload} trace {trace}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def expect(ok: bool, message: str) -> None:
    if not ok:
        sys.exit(f"FAIL: {message}")
    print(f"ok: {message}")


def check_metrics() -> None:
    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = result_of(workload, run.DEFAULT_SEED, trace)
            wanted = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == wanted, f"{workload} trace {trace} emits every {key} metric")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{workload} trace {trace} verifies clean")


def corrupt(path: Path) -> None:
    """Set the first alg2 utility to -1.0: below black box, unlike leakage."""
    lines = path.read_text().splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if ",alg2," in line)
    lines[i] = lines[i].rsplit(",", 1)[0] + ",-1.0\n"
    path.write_text("".join(lines))


def check_corruption() -> None:
    for seed, golden_expected in ((run.DEFAULT_SEED, True), (7, False)):
        result_of("paper", seed, 0)
        outdir = run.OUT / "paper"
        worker = json.loads((outdir / "result.json").read_text())
        worker["passes"] = worker["passes"][:1]
        golden = run.golden_for("paper", seed, smoke=True)
        expect((golden is not None) == golden_expected,
               f"seed {seed} is checked against {'golden hashes' if golden_expected else 'invariants'}")
        _, failed, _ = run.verify(worker, outdir, golden)
        expect(failed == 0, f"seed {seed} outputs verify clean before corruption")
        corrupt(outdir / "pass0" / "compare.csv")
        attempted, failed, notes = run.verify(worker, outdir, golden)
        expect(failed > 0, f"seed {seed} corrupted compare.csv body counts "
                           f"{failed}/{attempted} failed operations ({notes[0]})")


def check_bare_directory() -> None:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "paper", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=bare)
    printed_result = any(line.startswith("{") for line in done.stdout.splitlines())
    expect(done.returncode != 0 and not printed_result,
           f"bare directory exits {done.returncode} without a result")
    shutil.rmtree(bare)


if __name__ == "__main__":
    check_metrics()
    check_corruption()
    check_bare_directory()
    print("selftest passed")
