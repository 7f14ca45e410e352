#!/usr/bin/env bash
# Regenerates every figure/table of the paper into results/.
# Fails fast on the first broken binary and reports per-binary wall time.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p results
BINS="fig2 fig4 memory_feasibility fig5_placement fig6_nonaligned fig7_routing fig9 fig10 fig11 table4 scaling ep_alltoall solver_bench fault_sweep cluster_sweep"
# Build everything up front so per-binary times measure the run, not the build.
cargo build --release -q -p fred-bench
total_start=$SECONDS
for b in $BINS; do
  echo "== $b =="
  start=$SECONDS
  cargo run --release -q -p fred-bench --bin "$b" | tee "results/$b.txt"
  echo "== $b done in $((SECONDS - start))s =="
done
echo "== dse_sweep (full capacity-planning sweep) =="
start=$SECONDS
cargo run --release -q -p fred-bench --bin dse_sweep -- --full \
  --report results/BENCH_dse.json --dashboard results/dse-pareto.html \
  | tee "results/dse_sweep.txt"
echo "== dse_sweep done in $((SECONDS - start))s =="
echo "All experiment outputs written to results/ in $((SECONDS - total_start))s."
