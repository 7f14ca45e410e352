#!/usr/bin/env bash
# Runs every fredbench workload N times back to back, with seeds 1..N,
# and prints for each end-to-end metric its median over the runs, the
# spread between runs as a share of that median, and the metric's bound
# from BENCHMARK.json. Run it from anywhere in the repository:
#
#   fredbench/repeat.sh [N] [seconds]
#
# N defaults to 2 and seconds to BENCHMARK.json's run_seconds. The
# spread is the interquartile range over the median (Python's
# statistics.quantiles, n=4) and, beside it, the full range over the
# median. A metric is marked WIDE when its interquartile spread exceeds
# its bound. The `host` columns give the same spreads for the unscaled
# host times (see README.md). Each run's output is kept in
# fredbench/out/repeat/.
set -euo pipefail

cd "$(dirname "$0")/.."
n=${1:-2}
seconds=${2:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

cargo build --release --offline --quiet --manifest-path fredbench/Cargo.toml
bin="${CARGO_TARGET_DIR:-fredbench/target}/release/fredbench"
out=fredbench/out/repeat
rm -rf "$out"
mkdir -p "$out"

for ((i = 1; i <= n; i++)); do
    for w in $workloads; do
        start=$(date +%s%N)
        "$bin" --workload "$w" --seed "$i" --seconds "$seconds" >"$out/$w.$i.out" || true
        end=$(date +%s%N)
        echo "$(((end - start) / 1000000))" >"$out/$w.$i.ms"
    done
done

python3 - "$out" "$n" "$workloads" <<'EOF'
import json, statistics, sys

out, n, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3].split()
bench = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

def spreads(vals):
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
    return med, (q3 - q1) / med, (max(vals) - min(vals)) / med

print(f"{'workload':<18} {'metric':<14} {'median':>12} {'iqr/med':>8} {'range/med':>9} {'bound':>6}"
      f"      {'host iqr':>8} {'host range':>10}")
for w in workloads:
    runs, host = [], []
    for i in range(1, n + 1):
        lines = open(f"{out}/{w}.{i}.out").read().splitlines()
        runs.append(json.loads(lines[-1]))
        host.append({l.split()[1]: float(l.split()[2]) for l in lines if l.startswith("metric host_")})
    secs = [int(open(f"{out}/{w}.{i}.ms").read()) / 1e3 for i in range(1, n + 1)]
    bad = sum(not r["correct"] for r in runs)
    print(f"{w}: {n} runs of {statistics.mean(secs):.1f} s on average, {bad} incorrect")
    for name, bound in bounds.items():
        med, iqr, rng = spreads([r["metrics"][name]["value"] for r in runs])
        flag = "WIDE" if iqr > bound else "    "
        line = f"{'':<18} {name:<14} {med:>12.6g} {iqr:>8.3f} {rng:>9.3f} {bound:>6} {flag}"
        if f"host_{name}" in host[0]:
            _, hiqr, hrng = spreads([h[f"host_{name}"] for h in host])
            line += f" {hiqr:>8.3f} {hrng:>10.3f}"
        print(line)
EOF
