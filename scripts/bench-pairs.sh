#!/bin/sh
# Alternated benchmark pairs of two checkouts, judged by `benchmark compare`.
# Usage: bench-pairs.sh <parent-checkout> <change-checkout> <workload> <pairs> [seconds]
#
# Each checkout's `dne-benchmark` is built once into its own
# benchmark/target and run from its own directory (temporary files land in
# <checkout>/benchmark/out). Which side goes first alternates pair by pair,
# so a drifting host loads both sides alike. Both lines of every run are
# appended to parent.jsonl / change.jsonl under $BENCH_PAIRS_OUT (default:
# the current directory), so successive calls for different workloads fill
# one run set; <workload> `all` runs the four of BENCHMARK.json per side.
# `compare` judges a set once it holds every workload and says which one is
# missing until then. Pass the same checkout twice for a parent-vs-parent
# noise set.
set -eu
[ $# -ge 4 ] || { sed -n '2,3p' "$0"; exit 2; }
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=$4
seconds=${5:-15}
out=${BENCH_PAIRS_OUT:-.}
mkdir -p "$out"
out=$(cd "$out" && pwd)

for side in "$parent" "$change"; do
    (cd "$side" && cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done
[ "$workload" = all ] && select="" || select="--workload $workload"
run() { # <checkout> <result file>
    # shellcheck disable=SC2086 # $select is zero or two words
    (cd "$1" && ./benchmark/target/release/dne-benchmark run $select \
        --seed 42 --seconds "$seconds" --trace 0) >>"$2"
}
a="$out/parent.jsonl"
b="$out/change.jsonl"
i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        run "$parent" "$a"
        run "$change" "$b"
    else
        run "$change" "$b"
        run "$parent" "$a"
    fi
    echo "pair $i/$pairs done" >&2
    i=$((i + 1))
done
"$change/benchmark/target/release/dne-benchmark" compare "$a" "$b"
