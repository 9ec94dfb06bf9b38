#!/usr/bin/env bash
# A perf claim as one command: the benchmark's contract run of one workload,
# the working tree against BASE-REV, alternated run for run.
#
# Exports BASE-REV with `git archive` into target/ab/<sha> (kept for the next
# run against the same commit), builds the benchmark there and in the
# working tree (into target/ab/tree, so benchmark/ is left as it is), then
# runs the two binaries PAIRS times in ABBA order — base first in even pairs,
# the change first in odd ones — each `--workload W --seconds S`, one JSON
# line per run. Prints the CHANGES.md table: per end-to-end metric of
# BENCHMARK.json, both medians, the base's interquartile range and the
# pairs the change won, then each pair's `op_p50_us` as base/change in run
# order, where a host switching speed modes mid-run shows. Each trial pins
# itself to one CPU, as in the benchmark's own runs; judge a claim on an
# otherwise idle machine. A SEED is passed to both sides as `--seed` (the
# benchmark's default seed without one), so a claim's held-out-seed run is
# the same command with one more argument.
#
#   scripts/ab.sh <base-rev> <workload> [pairs] [seconds] [seed]   (default 10 pairs of 4 s)
#
# The runs land in target/ab/runs.*: one JSON line per run (`base.<i>.json`,
# `change.<i>.json`) and `summary.json`, the table's numbers and each pair's
# `op_p50_us`. CI smoke-tests the script with `scripts/ab.sh HEAD null_rmi 1 1`.
set -euo pipefail
usage="usage: scripts/ab.sh <base-rev> <workload> [pairs] [seconds] [seed]"
base=${1:?$usage}
workload=${2:?$usage}
pairs=${3:-10}
seconds=${4:-4}
seed=${5:-}
seed_args=()
[ -z "$seed" ] || seed_args=(--seed "$seed")
cd "$(git rev-parse --show-toplevel)"

sha=$(git rev-parse --verify --quiet "$base^{commit}") || { echo "no commit $base" >&2; exit 2; }
tree=$PWD/target/ab/$sha
if [ ! -e "$tree/.exported" ]; then
    rm -rf "$tree"
    mkdir -p "$tree"
    git archive "$sha" | tar -x -C "$tree"
    touch "$tree/.exported"
fi
build() {
    CARGO_TARGET_DIR=$2 cargo build --release --offline --quiet --manifest-path "$1/benchmark/Cargo.toml"
}
build "$tree" "$tree/benchmark/target"
build "$PWD" "$PWD/target/ab/tree"
declare -A bin=(
    [base]=$tree/benchmark/target/release/oopp-benchmark
    [change]=$PWD/target/ab/tree/release/oopp-benchmark
)

runs=$(mktemp -d "$PWD/target/ab/runs.XXXXXX")
for ((i = 0; i < pairs; i++)); do
    order=(base change)
    ((i % 2 == 0)) || order=(change base)
    for side in "${order[@]}"; do
        "${bin[$side]}" --workload "$workload" --seconds "$seconds" "${seed_args[@]}" >"$runs/$side.$i.json"
    done
done

dirty=$(git status --porcelain --untracked-files=no | grep -q . && echo ", uncommitted changes" || true)
python3 - "$runs" "$pairs" "$workload" "$seconds" "${sha:0:7}" "$(git rev-parse --short HEAD)$dirty" "$seed" <<'EOF'
import json, statistics, sys

runs, pairs, workload, seconds, base, change, seed = sys.argv[1:]
pairs = int(pairs)
better = {m["name"]: m["better"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
read = lambda side, i: json.load(open(f"{runs}/{side}.{i}.json"))
sides = {s: [read(s, i) for i in range(pairs)] for s in ("base", "change")}
for side, results in sides.items():
    for r in results:
        if not r.get("correct", False) or r.get("failed", 0):
            print(f"warning: a {side} run was incorrect or failed ops: {r}", file=sys.stderr)

command = f"scripts/ab.sh {base} {workload} {pairs} {seconds}" + (f" {seed}" if seed else "")
print(f"`{command}`: base {base}, change {change}, {pairs} pairs of {seconds} s in ABBA order, "
      f"seed {seed or 'the benchmark default'}\n")
print("| metric | base median | change median | change / base | base IQR | change wins |")
print("|---|---|---|---|---|---|")
table = []
for name, direction in better.items():
    values = {s: [r["metrics"][name]["value"] for r in rs] for s, rs in sides.items()}
    unit = sides["base"][0]["metrics"][name]["unit"]
    b, c = values["base"], values["change"]
    mb, mc = statistics.median(b), statistics.median(c)
    q = statistics.quantiles(b, n=4, method="inclusive") if len(b) > 1 else [mb, mb, mb]
    wins = sum((y < x) if direction == "lower" else (y > x) for x, y in zip(b, c))
    ratio = mc / mb if mb else float("nan")
    print(f"| {name} ({unit}) | {mb:.4g} | {mc:.4g} | {ratio:.3f} | {q[2] - q[0]:.3g} | {wins}/{pairs} |")
    table.append({"metric": name, "unit": unit, "better": direction, "base_median": mb,
                  "change_median": mc, "change_over_base": ratio, "base_iqr": q[2] - q[0],
                  "change_wins": wins})
p50 = lambda side, i: sides[side][i]["metrics"]["op_p50_us"]["value"]
print("\nop_p50_us by pair, base/change, in run order: "
      + ", ".join(f"{p50('base', i):.4g}/{p50('change', i):.4g}" for i in range(pairs)))
summary = {"command": command, "base": base, "change": change, "workload": workload,
           "pairs": pairs, "seconds": float(seconds), "seed": int(seed) if seed else None,
           "metrics": table,
           "op_p50_us_pairs": [{"base": p50("base", i), "change": p50("change", i)}
                               for i in range(pairs)]}
with open(f"{runs}/summary.json", "w") as f:
    json.dump(summary, f, indent=1)
    f.write("\n")
print(f"\nruns: {runs}")
EOF
