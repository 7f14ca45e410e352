#!/usr/bin/env bash
# Regenerates every figure/table of the paper into results/.
# Fails fast on the first broken binary and ends with a table of
# per-binary wall times (10 ms resolution) and their total.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p results
BINS="fig2 fig4 memory_feasibility fig5_placement fig6_nonaligned fig7_routing fig9 fig10 fig11 table4 scaling ep_alltoall fault_sweep cluster_sweep snapshot_sweep"
# Build everything up front so per-binary times measure the run, not the build.
cargo build --release -q -p fred-bench

# Microseconds since the epoch (bash 5's EPOCHREALTIME without its
# locale-dependent decimal point).
micros() { echo "${EPOCHREALTIME//[^0-9]/}"; }
# Microseconds as seconds with two decimals.
secs() { local cs=$((($1 + 5000) / 10000)); printf '%d.%02d' $((cs / 100)) $((cs % 100)); }

names=()
times=()
total=0
# run <name> <binary args...>: runs one binary, tees its stdout to
# results/<name>.txt and records its wall time.
run() {
  local name=$1
  shift
  echo "== $name =="
  local start
  start=$(micros)
  "./target/release/$name" "$@" | tee "results/$name.txt"
  local us=$(($(micros) - start))
  echo "== $name done in $(secs $us)s =="
  names+=("$name")
  times+=("$us")
  total=$((total + us))
}

for b in $BINS; do
  run "$b"
done
# The full capacity-planning sweep.
run dse_sweep --full --report results/BENCH_dse.json --dashboard results/dse-pareto.html

echo
printf '%-20s %8s\n' binary seconds
for i in "${!names[@]}"; do
  printf '%-20s %8s\n' "${names[$i]}" "$(secs "${times[$i]}")"
done
printf '%-20s %8s\n' total "$(secs $total)"
echo "All experiment outputs written to results/."
