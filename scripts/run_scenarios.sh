#!/usr/bin/env bash
# Scenario smoke: executes every bundled scenario file through mpiv_run in
# quick mode and fails on parse/validation errors, crashes, or malformed
# JSON output. CI's scenario-smoke job runs this; it is also the fastest
# way to sanity-check the whole scenario surface locally.
#
# It checks only what needs the command-line binaries: mpiv_run on every
# file, the two mpiv_trace smokes (pinned to tests/expected/mpiv_trace), an
# mpiv_stat rerun diff and --jobs byte identity. What the reports say (the
# paper's observations, the chaos, split-brain, family-race and metrics
# invariants) is checked in process by tests/test_report_digests.cpp on the
# same quick grids.
#
# Usage: scripts/run_scenarios.sh [--build-dir DIR] [--out-dir DIR] [--full]
#                                 [--jobs N]
#   --build-dir  build tree containing mpiv_run (default: build)
#   --out-dir    where the per-scenario JSON reports land (default: temp dir)
#   --full       run without --quick (the real paper sweeps; slow)
#   --jobs       fan sweep points across N forked workers (default: 1);
#                reports are byte-identical either way — the equivalence
#                leg at the end pins that on every run
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=build
OUT_DIR=""
QUICK=1
JOBS=1
while [[ $# -gt 0 ]]; do
  case "$1" in
    --build-dir) BUILD_DIR=$2; shift ;;
    --out-dir) OUT_DIR=$2; shift ;;
    --full) QUICK=0 ;;
    --jobs) JOBS=$2; shift ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
  shift
done

if [[ ! -x "$BUILD_DIR/mpiv_run" || ! -x "$BUILD_DIR/mpiv_trace" ||
      ! -x "$BUILD_DIR/mpiv_stat" ]]; then
  echo "error: $BUILD_DIR/mpiv_run, mpiv_trace or mpiv_stat not found — build first:" >&2
  echo "  cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j --target mpiv_run mpiv_trace mpiv_stat" >&2
  exit 1
fi

if [[ -z $OUT_DIR ]]; then
  OUT_DIR=$(mktemp -d)
  trap 'rm -rf "$OUT_DIR"' EXIT
fi
mkdir -p "$OUT_DIR"

# ${FLAGS[@]+...} keeps the empty-array expansion safe under set -u on
# bash < 4.4 (macOS stock 3.2).
FLAGS=(--jobs "$JOBS")
[[ $QUICK -eq 1 ]] && FLAGS+=(--quick)

# mpiv_run exits 0 on a clean grid and 3 on a degraded one (abandoned or
# failed points — chaos_soak abandons some corners by design). Both leave a
# complete, valid report; anything else is a crash.
run_ok() {
  local rc=0
  "$@" || rc=$?
  [[ $rc -eq 0 || $rc -eq 3 ]]
}

# JSON validation: python3 where available, otherwise the driver's own
# exit status plus a non-emptiness check.
validate_json() {
  if command -v python3 > /dev/null 2>&1; then
    python3 -m json.tool "$1" > /dev/null
  else
    [[ -s "$1" ]]
  fi
}

fail=0
for scn in scenarios/*.scn; do
  name=$(basename "$scn" .scn)
  out="$OUT_DIR/$name.json"
  start=$(date +%s%N)
  if run_ok "$BUILD_DIR/mpiv_run" ${FLAGS[@]+"${FLAGS[@]}"} --out "$out" "$scn" 2> "$OUT_DIR/$name.log"; then
    if validate_json "$out"; then
      status=ok
    else
      status=bad-json
      fail=1
    fi
  else
    status=error
    fail=1
  fi
  end=$(date +%s%N)
  printf '%-28s %8d ms  %s\n' "$name" $(( (end - start) / 1000000 )) "$status"
  if [[ $status != ok ]]; then
    sed 's/^/  | /' "$OUT_DIR/$name.log" >&2 || true
  fi
done

if [[ $fail -ne 0 ]]; then
  echo "scenario smoke FAILED" >&2
  exit 1
fi

# Trace smokes: mpiv_trace re-runs the shard-failover campaign and the
# split-brain grid with trace lanes and the reference twin on. Its whole
# stdout (victim, stable watermark, first replayed reception, first
# reconciled duplicate, replay-equivalence verdict) must match the
# checked-in expected file byte for byte, so any change to the analysis
# shows up as a diff. After a deliberate change, regenerate the file with
#   ./build/mpiv_trace --quick scenarios/<name>.scn \
#       > tests/expected/mpiv_trace/<name>.quick.txt
for name in fault_campaign split_brain; do
  expected="tests/expected/mpiv_trace/$name.quick.txt"
  actual="$OUT_DIR/$name.trace.txt"
  rc=0
  "$BUILD_DIR/mpiv_trace" --quick "scenarios/$name.scn" > "$actual" \
      2> "$OUT_DIR/$name.trace.log" || rc=$?
  if [[ $rc -ne 0 ]]; then
    echo "trace smoke FAILED: mpiv_trace exited $rc on $name.scn" >&2
    sed 's/^/  | /' "$OUT_DIR/$name.trace.log" >&2
    exit 1
  fi
  if ! diff -u "$expected" "$actual" >&2; then
    echo "trace smoke FAILED: mpiv_trace output on $name.scn differs from" \
         "$expected" >&2
    exit 1
  fi
  echo "trace smoke OK ($name matches $expected)"
done

# Family race: fold the grid into the per-family completion-probability /
# recovery-time table and print it; a --full run re-emits it into
# docs/BENCHMARKS.md between the family-race markers. The per-point family
# invariants are asserted by tests/test_report_digests.cpp.
FR_JSON="$OUT_DIR/family_race.json"
if [[ -f "$FR_JSON" ]] && command -v python3 > /dev/null 2>&1; then
  python3 - "$FR_JSON" "$QUICK" <<'EOF'
import json, sys

rep = json.load(open(sys.argv[1]))
full = sys.argv[2] == "0"

fams = {}  # variant -> aggregate, in sweep order
for r in rep["runs"]:
    if r.get("skipped") or r["outcome"] == "skipped":
        continue
    variant = dict(r["axes"])["variant"]
    # What a crash costs: a promotion for replica, a repair for ulfm, a
    # restart/replay (or rollback) recovery for everything else.
    recs = {"replica": r.get("promotions"), "ulfm": r.get("repairs")}.get(
        variant, r.get("recoveries")) or []
    key = "promote_ms" if variant == "replica" else "total_ms"
    f = fams.setdefault(variant, {"n": 0, "done": 0, "crashes": 0,
                                  "times": []})
    f["n"] += 1
    f["crashes"] += r["faults"]["rank_crashes"]
    if r["outcome"] != "abandoned":
        f["done"] += 1
    f["times"] += [rec[key] for rec in recs if rec["complete"]]

rows = []
for variant, f in fams.items():
    mean = (f"{sum(f['times']) / len(f['times']):.2f}" if f["times"]
            else "—")
    rows.append((variant, f["n"], f["crashes"],
                 f"{f['done'] / f['n']:.2f}", mean))

print("family-race per-family results (completion probability, mean "
      "per-crash recovery/promotion/repair time):")
print(f"  {'family':<14} {'points':>6} {'crashes':>8} {'P(complete)':>12} "
      f"{'mean rec (ms)':>14}")
for v, n, c, p, m in rows:
    print(f"  {v:<14} {n:>6} {c:>8} {p:>12} {m:>14}")

if full:
    path = "docs/BENCHMARKS.md"
    begin, end = "<!-- family-race:begin -->", "<!-- family-race:end -->"
    try:
        text = open(path).read()
    except OSError:
        sys.exit(0)
    if begin in text and end in text:
        table = ["| family | points | crashes | completion probability | mean recovery (ms) |",
                 "|---|---|---|---|---|"]
        table += [f"| `{v}` | {n} | {c} | {p} | {m} |" for v, n, c, p, m in rows]
        head, rest = text.split(begin, 1)
        _, tail = rest.split(end, 1)
        open(path, "w").write(head + begin + "\n" + "\n".join(table) + "\n"
                              + end + tail)
        print(f"family-race table re-emitted into {path}")
EOF
fi

# Rerun smoke: the determinism contract through the CLI. A second
# identical-seed scale-probe run (metrics on) diffed against the first
# through mpiv_stat must show zero drift (exit 0) — the simulator is
# deterministic, so any drift is a real change.
SP_JSON="$OUT_DIR/scale_probe.json"
SP_JSON2="$OUT_DIR/scale_probe.rerun.json"
if ! run_ok "$BUILD_DIR/mpiv_run" ${FLAGS[@]+"${FLAGS[@]}"} --out "$SP_JSON2" \
    scenarios/scale_probe.scn 2> "$OUT_DIR/scale_probe.rerun.log"; then
  echo "rerun smoke FAILED: scale_probe rerun crashed" >&2
  sed 's/^/  | /' "$OUT_DIR/scale_probe.rerun.log" >&2
  exit 1
fi
if DIFF_OUT=$("$BUILD_DIR/mpiv_stat" --diff "$SP_JSON" "$SP_JSON2"); then
  echo "rerun smoke OK ($(echo "$DIFF_OUT" | head -1); zero drift across reruns)"
else
  echo "rerun smoke FAILED: identical-seed reports drifted" >&2
  echo "$DIFF_OUT" | sed 's/^/  | /' >&2
  exit 1
fi

# Persisted reference traces: with lanes on and trace.dir set, every point
# that ran writes its own stream and its rank-fault-free twin's. Both rank
# fault rates of one chaos corner strip to the same twin, which runs once
# and is shared, so their .reference.trace files must be byte-identical.
RT_DIR="$OUT_DIR/chaos_soak.traces"
RT_JSON="$OUT_DIR/chaos_soak.traces.json"
RT_OUT="$OUT_DIR/chaos_soak.traces.txt"
if ! run_ok "$BUILD_DIR/mpiv_run" --quick --set trace.enabled=true \
    --set "trace.dir=$RT_DIR" --set faults.rank_rate=60,120 \
    --out "$RT_JSON" scenarios/chaos_soak.scn 2> "$RT_JSON.log"; then
  echo "reference-trace smoke FAILED: mpiv_run crashed" >&2
  sed 's/^/  | /' "$RT_JSON.log" >&2
  exit 1
fi
if command -v python3 > /dev/null 2>&1; then
  if ! python3 - "$RT_JSON" "$RT_DIR" > "$RT_OUT" <<'EOF'
import filecmp, json, os, sys

rep = json.load(open(sys.argv[1]))
names = os.listdir(sys.argv[2])
ran = [r for r in rep["runs"] if r["outcome"] != "skipped"]
problems = []
refs = [n for n in names if n.endswith(".reference.trace")]
own = [n for n in names
       if n.endswith(".trace") and not n.endswith(".reference.trace")]
if len(refs) != len(ran) or len(own) != len(ran):
    problems.append(f"{len(ran)} points ran but {len(own)} .trace and "
                    f"{len(refs)} .reference.trace files were written")
twins = {}  # the point's axes but the rank fault rate -> reference files
for r in ran:
    trace = r.get("trace", {})
    for field in ("path", "reference_path"):
        if not os.path.isfile(trace.get(field, "")):
            problems.append(f"{r['label']}: no {field} file")
    corner = tuple((k, v) for k, v in r["axes"].items()
                   if k != "faults.rank_rate")
    twins.setdefault(corner, []).append(trace.get("reference_path", ""))
shared = [paths for paths in twins.values() if len(paths) > 1]
if not shared:
    problems.append("no two points share a twin")
for paths in shared:
    for other in paths[1:]:
        if os.path.isfile(other) and not filecmp.cmp(paths[0], other,
                                                     shallow=False):
            problems.append(f"{other} differs from {paths[0]}")
print("\n".join(problems) if problems else
      f"{len(ran)} points, {len(shared)} shared twins")
sys.exit(1 if problems else 0)
EOF
  then
    echo "reference-trace smoke FAILED:" >&2
    sed 's/^/  | /' "$RT_OUT" >&2
    exit 1
  fi
  echo "reference-trace smoke OK ($(cat "$RT_OUT"), shared twins byte-identical)"
fi

# Parallel-equivalence: the forked worker pool must be invisible in the
# report. Run the chaos grid serially and under --jobs 4 and require the
# two reports byte-identical (cmp) and drift-free (mpiv_stat --diff) —
# point ordering, goldens, tallies and all.
PE_SER="$OUT_DIR/chaos_soak.jobs1.json"
PE_PAR="$OUT_DIR/chaos_soak.jobs4.json"
for pe in "1:$PE_SER" "4:$PE_PAR"; do
  jobs="${pe%%:*}"; out="${pe#*:}"
  if ! run_ok "$BUILD_DIR/mpiv_run" --quick --jobs "$jobs" --out "$out" \
      scenarios/chaos_soak.scn 2> "$out.log"; then
    echo "parallel-equivalence FAILED: mpiv_run --jobs $jobs crashed" >&2
    sed 's/^/  | /' "$out.log" >&2
    exit 1
  fi
done
if ! cmp -s "$PE_SER" "$PE_PAR"; then
  echo "parallel-equivalence FAILED: --jobs 4 report differs from serial" >&2
  diff "$PE_SER" "$PE_PAR" | head -20 >&2 || true
  exit 1
fi
if DIFF_OUT=$("$BUILD_DIR/mpiv_stat" --diff "$PE_SER" "$PE_PAR"); then
  echo "parallel-equivalence OK (serial vs --jobs 4 byte-identical, zero drift)"
else
  echo "parallel-equivalence FAILED: mpiv_stat --diff reported drift" >&2
  echo "$DIFF_OUT" | sed 's/^/  | /' >&2
  exit 1
fi

# Bounded memory: a sweep keeps one summary per finished point (its JSON
# stanza and outcome), not the full results, so a serial grid's peak memory
# does not grow with every point's trace captures and metrics snapshots.
# The full fault_soak_chaos grid (192 points, trace lanes and metrics on)
# peaks at about 25 MB run serially; keeping every full result peaked at
# 61 MB. The 40 MB bound sits between the two, with room for allocator and
# platform noise. Sanitized builds are skipped: ASan's shadow memory and
# quarantine alone exceed the bound.
if grep -q '^MPIV_SANITIZE:BOOL=ON' "$BUILD_DIR/CMakeCache.txt" 2> /dev/null; then
  echo "bounded-memory smoke skipped (sanitized build)"
elif command -v python3 > /dev/null 2>&1; then
  if ! RSS_OUT=$(python3 - "$BUILD_DIR/mpiv_run" \
      bench/e2e/workloads/fault_soak_chaos.scn "$OUT_DIR" <<'EOF'
import resource, subprocess, sys

LIMIT_MB = 40
binary, scn, out_dir = sys.argv[1:4]
with open(out_dir + "/fault_soak_chaos.full.log", "w") as log:
    rc = subprocess.run([binary, "--jobs", "1", "--out",
                         out_dir + "/fault_soak_chaos.full.json", scn],
                        stderr=log).returncode
# ru_maxrss is in KiB on Linux and in bytes on macOS.
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
peak_mb = peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)
print(f"serial fault_soak_chaos peak RSS {peak_mb:.1f} MB "
      f"(bound {LIMIT_MB} MB, mpiv_run exit {rc})")
sys.exit(0 if rc in (0, 3) and peak_mb <= LIMIT_MB else 1)
EOF
  ); then
    echo "bounded-memory smoke FAILED: $RSS_OUT" >&2
    exit 1
  fi
  echo "bounded-memory smoke OK ($RSS_OUT)"
fi

echo "all scenarios OK (reports in $OUT_DIR)"
