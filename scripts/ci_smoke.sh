#!/usr/bin/env bash
# The CI smoke, agreement, pinned-report and golden-hash steps, runnable
# anywhere:
#
#     scripts/ci_smoke.sh recourse-game
#     scripts/ci_smoke.sh "python -m recourse_game.cli"
#
# The first argument is the CLI command, split into words. Outputs go to a
# temporary directory that is removed on exit; src/ is put on PYTHONPATH so
# a checkout runs without an install.
set -euo pipefail

if [ "$#" -ne 1 ]; then
  echo "usage: $0 CLI-COMMAND" >&2
  exit 2
fi
read -r -a cli <<< "$1"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$work"

echo "== Console script smoke test"
"${cli[@]}" generate --m 10 --seed 3 --outdir smoke/instance
"${cli[@]}" compare --values smoke/instance/instance_values.csv \
  --costs smoke/instance/instance_cost.csv --gamma 0.3 --k 2 \
  --outdir smoke/results
test -s smoke/results/compare.csv
"${cli[@]}" leakage --m 20 --k 0,2 --pl 0,0.5 --outdir smoke/leakage
grep -q '^0,' smoke/leakage/leakage.csv
"${cli[@]}" transport --m 20 --k 0 --outdir smoke/transport
test -s smoke/transport/transport_alg1.csv
test -s smoke/transport/transport_alg2.csv
echo '{"instance": {"m": 6, "gamma": 0.3},
  "matroid": {"groups": [[0, 1, 2], [3, 4, 5]], "capacities": [2, 1]}}' \
  > smoke/matroid.json
"${cli[@]}" matroid --config smoke/matroid.json --outdir smoke/matroid
test -s smoke/matroid/matroid.csv
echo '{"repetition": 20}' > smoke/unknown-key.json
echo '{"instance": {"m": 6, "symmetric": true}}' > smoke/removed-key.json
echo '{"instance": {"m": 6}, "k_sweep": [2.5]}' > smoke/non-integer.json
echo '{"instance": {"m": 6}, "k": 2}' > smoke/bare-k.json
# a second alpha or k that the command would not read is refused
echo '{"instance": {"m": 6, "gamma": 0.3}, "k_sweep": [2, 3],
  "matroid": {"groups": [[0, 1, 2], [3, 4, 5]], "capacities": [2, 1]}}' \
  > smoke/matroid-sweep.json
# a non-integer capacity or group member is refused, not truncated
echo '{"instance": {"m": 6, "gamma": 0.3},
  "matroid": {"groups": [[0, 1, 2], [3, 4, 5]], "capacities": [1.5, 1]}}' \
  > smoke/matroid-capacity.json
echo '{"instance": {"m": 6, "gamma": 0.3},
  "matroid": {"groups": [[0, 1.5, 2], [3, 4, 5]], "capacities": [2, 1]}}' \
  > smoke/matroid-member.json
for bad in "compare --config smoke/unknown-key.json" \
  "compare --config smoke/removed-key.json" \
  "compare --config smoke/non-integer.json" \
  "compare --config smoke/bare-k.json" "compare --m 10 --k 2 --alpha nan" \
  "compare --m 10 --gamma 1.5" "transport --m 10 --k 2,3" \
  "generate --m 10 --alpha 1,2" "matroid --config smoke/matroid-sweep.json" \
  "leakage --m 10 --alpha 1,2" "matroid --config smoke/matroid-capacity.json" \
  "matroid --config smoke/matroid-member.json"; do
  rc=0
  # shellcheck disable=SC2086  # $bad holds a command and several flags
  "${cli[@]}" $bad --outdir smoke/rejected || rc=$?
  test "$rc" -eq 2 || { echo "$bad: exit $rc, expected 2"; exit 1; }
done
test ! -e smoke/rejected  # no rejected command wrote anything

echo "== File and synthetic compare agree"
"${cli[@]}" generate --m 12 --k 2 --seed 2 --outdir agree/instance
"${cli[@]}" compare --values agree/instance/instance_values.csv \
  --costs agree/instance/instance_cost.csv --gamma 0.3 --k 2 --seed 2 \
  --outdir agree/file
"${cli[@]}" compare --m 12 --k 2 --seed 2 --outdir agree/synthetic
tail -n +2 agree/file/compare.csv > agree/file.body
tail -n +2 agree/synthetic/compare.csv > agree/synthetic.body
cmp agree/file.body agree/synthetic.body

echo "== Leakage at p_l=0 is compare's alg2"
# every p_l=0 row of leakage.csv holds the alg2 utility that compare.csv
# holds at the same (k, repetition), string for string
"${cli[@]}" compare --m 30 --k 3,5 --repetitions 2 --outdir leak0/compare
"${cli[@]}" leakage --m 30 --k 3,5 --repetitions 2 --pl 0,0.5,1 \
  --outdir leak0/leakage
tail -n +3 leak0/compare/compare.csv \
  | awk -F, '$4 == "alg2" { print $2 "," $3 "," $5 }' > leak0/alg2.rows
tail -n +3 leak0/leakage/leakage.csv \
  | awk -F, '$2 == "0.0" { print $1 "," $3 "," $4 }' > leak0/pl0.rows
test "$(wc -l < leak0/alg2.rows)" -eq 4
cmp leak0/alg2.rows leak0/pl0.rows

echo "== Acceptance battery report is pinned"
# sha256 of `check --seed S` stdout; a change that moves any reported digit
# shows here and must say why before these are updated. stderr holds the
# per-criterion runtimes and, last, the run's peak RSS, which a wrapper
# reads from its finished child; stdout passes through it untouched. Each
# run's peak RSS and seed 0's runtimes are printed once the reports match.
# They are informational and bound nothing.
peak_rss() {
  python3 -c '
import resource, subprocess, sys
rc = subprocess.call(sys.argv[1:])
kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # KiB on Linux
print(f"peak RSS {kib / 1024:.1f} MiB", file=sys.stderr)
sys.exit(rc)' "$@"
}
for pin in \
  "0 6b44944c6e4c0b30a83947d899da8377f686faced3cc935467099e7984dfe77a" \
  "1 bd2da963551cf1f8d6bd772db6fa622622fcd05ac196e10071989138c859aca9" \
  "2 12534b6e813b43ff0127fe5a0b9034346b86d19ae17b302cc8951b4fffd11080"; do
  read -r seed want <<< "$pin"
  got="$(peak_rss "${cli[@]}" check --seed "$seed" 2>"check-$seed.err" | sha256sum)" \
    || { echo "check --seed $seed failed"; cat "check-$seed.err"; exit 1; }
  test "${got%% *}" = "$want" \
    || { echo "check --seed $seed: sha256 ${got%% *}, expected $want"; exit 1; }
done
for seed in 0 1 2; do
  echo "check --seed $seed $(tail -n 1 "check-$seed.err")" >&2
done
echo "check --seed 0 runtimes:"
sed '$d' check-0.err  # all but the peak RSS line

echo "== Full-size golden hashes"
for w in paper scale battery; do
  python3 "$root/benchmark/run.py" --workload "$w" --seed 0 --seconds 1 \
    --trace 0 > "bench-$w.txt"
  tail -n 1 "bench-$w.txt" | python3 -c \
    'import json, sys; sys.exit(json.load(sys.stdin).get("correct") is not True)' \
    || { echo "$w: outputs differ from the golden hashes"; exit 1; }
done
echo "ci_smoke: all steps passed"
