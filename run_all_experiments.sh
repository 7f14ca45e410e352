#!/usr/bin/env bash
# Regenerates every figure/table of the paper into results/.
# Runs the whole set three times, each results/<name>.txt keeping the
# last round's stdout. Fails fast on the first broken binary and ends
# with a table of per-binary wall times over the three rounds (median
# and min-max, in milliseconds) and the same for the round totals.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p results
BINS="fig2 fig4 memory_feasibility fig5_placement fig6_nonaligned fig7_routing fig9 fig10 fig11 table4 scaling ep_alltoall fault_sweep cluster_sweep snapshot_sweep"
ROUNDS=3
# Build everything up front so per-binary times measure the run, not the build.
cargo build --release -q -p fred-bench

# Microseconds since the epoch (bash 5's EPOCHREALTIME without its
# locale-dependent decimal point).
micros() { echo "${EPOCHREALTIME//[^0-9]/}"; }
# Microseconds as milliseconds with one decimal.
millis() { local t=$((($1 + 50) / 100)); printf '%d.%d' $((t / 10)) $((t % 10)); }
# "median min-max" of the microsecond arguments, in milliseconds.
spread() {
  local sorted
  mapfile -t sorted < <(printf '%s\n' "$@" | sort -n)
  local n=${#sorted[@]}
  printf '%10s %21s' "$(millis "${sorted[$((n / 2))]}")" \
    "$(millis "${sorted[0]}")-$(millis "${sorted[$((n - 1))]}")"
}

names=()
# times[<name>] and totals: one space-separated entry per round, in
# microseconds.
declare -A times=()
totals=()
round_total=0
# run <name> <binary args...>: runs one binary, tees its stdout to
# results/<name>.txt and records its wall time.
run() {
  local name=$1
  shift
  echo "== $name (round $round of $ROUNDS) =="
  local start
  start=$(micros)
  "./target/release/$name" "$@" | tee "results/$name.txt"
  local us=$(($(micros) - start))
  echo "== $name done in $(millis $us) ms =="
  if [ "$round" -eq 1 ]; then
    names+=("$name")
  fi
  times[$name]+="$us "
  round_total=$((round_total + us))
}

for round in $(seq "$ROUNDS"); do
  round_total=0
  for b in $BINS; do
    run "$b"
  done
  # The full capacity-planning sweep.
  run dse_sweep --full --report results/BENCH_dse.json --dashboard results/dse-pareto.html
  totals+=("$round_total")
done

echo
printf '%-20s %10s %21s\n' binary "median ms" "min-max ms"
for name in "${names[@]}"; do
  # shellcheck disable=SC2086 # one word per round
  printf '%-20s %s\n' "$name" "$(spread ${times[$name]})"
done
printf '%-20s %s\n' total "$(spread "${totals[@]}")"
echo "All experiment outputs written to results/ (stdout of round $ROUNDS)."
