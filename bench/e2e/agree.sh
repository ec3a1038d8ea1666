#!/usr/bin/env bash
# Run-to-run agreement check for bench_e2e: two sets of N invocations of the
# same build must agree within the benchmark's own bounds.
#
#   bench/e2e/agree.sh [N] [workload ...]      (default N = 5, all workloads)
#
# Invocation i of each set uses seed i; which set runs first alternates from
# one i to the next, so a slow drift of the machine hits both sets alike.
# For every workload and every end-to-end metric of BENCHMARK.json the
# script prints both sets' medians and fails (exit 1) when they differ by
# more than the metric's bound, as a share of the first set's median. It
# also fails when any invocation reports an incorrect result. Raw result
# lines are kept under .bench_build/agree/.
set -euo pipefail

cd "$(dirname "$0")/../.."
n=${1:-5}
shift || true
if [ $# -gt 0 ]; then
  workloads=("$@")
else
  mapfile -t workloads < <(python3 -c \
    'import json; print("\n".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
fi
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
out=.bench_build/agree
mkdir -p "$out"

run() {  # workload set seed; a failed invocation still leaves a line
  python3 bench/e2e/run.py --workload "$1" --seed "$3" --seconds "$seconds" \
    --trace 0 2>/dev/null | tail -n 1 >> "$out/$1.$2.jsonl" || true
}

for w in "${workloads[@]}"; do
  rm -f "$out/$w.a.jsonl" "$out/$w.b.jsonl"
  for i in $(seq 1 "$n"); do
    if [ $((i % 2)) -eq 1 ]; then
      run "$w" a "$i"; run "$w" b "$i"
    else
      run "$w" b "$i"; run "$w" a "$i"
    fi
  done
done

python3 - "$out" "$n" "${workloads[@]}" <<'EOF'
import json, statistics, sys

out, n, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
spec = json.load(open("BENCHMARK.json"))
ok = True
print(f"{'workload':16} {'metric':18} {'median A':>14} {'median B':>14} {'diff':>8} {'bound':>6}")
for w in workloads:
    sets = []
    for s in "ab":
        rows = []
        for line in open(f"{out}/{w}.{s}.jsonl"):
            try:
                rows.append(json.loads(line))
            except ValueError:
                pass
        bad = [r for r in rows if not r["correct"]]
        if len(rows) != n or bad:
            print(f"{w}: set {s} has {n - len(rows)} invocations without a "
                  f"result and {len(bad)} incorrect ones")
            sys.exit(1)
        sets.append(rows)
    for m in spec["end_to_end"]:
        a, b = (statistics.median(r["metrics"][m["name"]]["value"] for r in rows)
                for rows in sets)
        diff = abs(b - a) / a
        verdict = "ok" if diff <= m["bound"] else "FAIL"
        ok = ok and diff <= m["bound"]
        print(f"{w:16} {m['name']:18} {a:14.6g} {b:14.6g} {100 * diff:7.2f}% "
              f"{100 * m['bound']:5.0f}% {verdict}")
sys.exit(0 if ok else 1)
EOF
