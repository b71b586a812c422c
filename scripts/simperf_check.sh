#!/usr/bin/env bash
# Simulator-performance regression gate: re-run the bench/simperf ISS
# throughput benchmarks and compare instr/s against the checked-in
# baseline (BENCH_simperf.json, captured by scripts/simperf_baseline.sh).
# Fails when a benchmark's throughput drops more than the threshold
# (default 20%) below the baseline. Wired up as `make simperf-check`.
#
# Usage: scripts/simperf_check.sh [baseline.json]
#   SIMPERF_THRESHOLD_PCT=20   allowed regression in percent
#   SIMPERF_PROFILE_OFF_THRESHOLD_PCT   tighter gate for the profile-off
#       ISS rows (BM_HostIssLoop/BM_ClusterIssLoop). Defaults to
#       SIMPERF_THRESHOLD_PCT; set to 2 on quiet reference hardware to
#       pin the profiler's disabled-mode overhead (the dispatch loops
#       compile the bracket code out entirely when not collecting, so
#       any delta there is a real hot-path regression).
#   SIMPERF_TELEMETRY_OFF_THRESHOLD_PCT   same idea for the telemetry
#       spans: the plain ISS rows also run with telemetry disabled, so
#       this tightens their gate to whatever is smaller. Telemetry
#       collecting-mode overhead (BM_HostIssLoopTelemetry) is printed
#       informationally like the *Profile rows.
#   SIMPERF_SERVE_OBS_OFF_THRESHOLD_PCT   tighter gate for the serve
#       daemon's cached-point row (BM_ServePointCached, points/s): the
#       tracing-off request path (StageClock == nullptr) must not pay
#       for the DESIGN.md §17 observability plane. The tracing-on
#       overhead (BM_ServePointCachedObs) is printed informationally.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${BUILD_DIR:-$repo_root/build}"
baseline="${1:-$repo_root/BENCH_simperf.json}"
threshold="${SIMPERF_THRESHOLD_PCT:-20}"
profile_off_threshold="${SIMPERF_PROFILE_OFF_THRESHOLD_PCT:-$threshold}"
telemetry_off_threshold="${SIMPERF_TELEMETRY_OFF_THRESHOLD_PCT:-$profile_off_threshold}"
serve_obs_off_threshold="${SIMPERF_SERVE_OBS_OFF_THRESHOLD_PCT:-$threshold}"

if [ ! -f "$baseline" ]; then
  echo "error: baseline $baseline not found." >&2
  echo "Capture one with scripts/simperf_baseline.sh and commit it." >&2
  exit 1
fi
if [ ! -x "$build_dir/bench/simperf" ]; then
  echo "error: $build_dir/bench/simperf not found. Build first:" >&2
  echo "  cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

fresh="$(mktemp /tmp/simperf_check.XXXXXX.json)"
trap 'rm -f "$fresh"' EXIT

# Same shape as the baseline run: medians over 3 repetitions, filtered
# to the ISS throughput loops (the benches this gate guards).
"$build_dir/bench/simperf" \
  --benchmark_filter='BM_((Host|Cluster)IssLoop|ServePointCached)' \
  --benchmark_out="$fresh" \
  --benchmark_out_format=json \
  --benchmark_repetitions=3 \
  --benchmark_report_aggregates_only=true > /dev/null

python3 - "$baseline" "$fresh" "$threshold" "$profile_off_threshold" \
  "$telemetry_off_threshold" "$serve_obs_off_threshold" << 'EOF'
import json
import sys

baseline_path, fresh_path = sys.argv[1], sys.argv[2]
threshold, profile_off_threshold = float(sys.argv[3]), float(sys.argv[4])
telemetry_off_threshold = float(sys.argv[5])
serve_obs_off_threshold = float(sys.argv[6])

# Profile-off ISS rows: gated by the (optionally tighter) profile-off
# threshold — these are the rows the cycle profiler must not slow down
# while disabled.
PROFILE_OFF_ROWS = ("BM_HostIssLoop", "BM_ClusterIssLoop")

# The serve daemon's tracing-off cached-point row (points/s): gated by
# the (optionally tighter) serve-obs-off threshold.
SERVE_OBS_OFF_ROW = "BM_ServePointCached"

def instr_rates(path):
    """{benchmark name: median rate} from a google-benchmark JSON.

    The rate is "instr/s" for the ISS rows, "points/s" for the serve
    rows — each benchmark exports exactly one of the two.
    """
    with open(path) as f:
        data = json.load(f)
    rates = {}
    for run in data.get("benchmarks", []):
        if run.get("aggregate_name", "") not in ("", "median"):
            continue
        rate = run.get("instr/s", run.get("points/s"))
        if rate is None:
            continue
        name = run["run_name"] if "run_name" in run else run["name"]
        # Prefer the median aggregate over any raw repetition rows.
        if run.get("aggregate_name") == "median" or name not in rates:
            rates[name] = rate
    return rates

base = instr_rates(baseline_path)
fresh = instr_rates(fresh_path)
if not base:
    sys.exit(f"no instr/s entries in baseline {baseline_path}")

status = 0
for name, base_rate in sorted(base.items()):
    if name not in fresh:
        continue  # bench filtered out of this check run
    fresh_rate = fresh[name]
    delta_pct = (fresh_rate / base_rate - 1.0) * 100.0
    # The plain ISS rows run with both the profiler and telemetry
    # disabled: both off-mode gates apply — take the tighter one.
    if name in PROFILE_OFF_ROWS:
        allowed = min(profile_off_threshold, telemetry_off_threshold)
    elif name == SERVE_OBS_OFF_ROW:
        allowed = serve_obs_off_threshold
    else:
        allowed = threshold
    verdict = "ok"
    if delta_pct < -allowed:
        verdict = f"REGRESSION (allowed -{allowed:.0f}%)"
        status = 1
    unit = "points/s" if name.startswith(SERVE_OBS_OFF_ROW) else "instr/s"
    print(f"{name}: baseline {base_rate:,.0f} {unit}, "
          f"now {fresh_rate:,.0f} {unit} ({delta_pct:+.1f}%) {verdict}")

# Collecting-mode overhead (informational — profiling and telemetry are
# both opt-in): the *Profile/*Telemetry variants run the same workloads
# with the respective collector attached.
for name in PROFILE_OFF_ROWS:
    for suffix in ("Profile", "Telemetry"):
        variant = name + suffix
        if name in fresh and variant in fresh and fresh[name] > 0:
            overhead = (1.0 - fresh[variant] / fresh[name]) * 100.0
            print(f"{variant}: {fresh[variant]:,.0f} instr/s "
                  f"({overhead:.1f}% collecting overhead vs {name})")

# Serve tracing-on overhead (informational — tracing is on by default
# but the per-request cost is the point of the row): the Obs variant
# runs the same cache-hit path with a StageClock attached.
obs_row = SERVE_OBS_OFF_ROW + "Obs"
if SERVE_OBS_OFF_ROW in fresh and obs_row in fresh and \
        fresh[SERVE_OBS_OFF_ROW] > 0:
    overhead = (1.0 - fresh[obs_row] / fresh[SERVE_OBS_OFF_ROW]) * 100.0
    print(f"{obs_row}: {fresh[obs_row]:,.0f} points/s "
          f"({overhead:.1f}% tracing overhead vs {SERVE_OBS_OFF_ROW})")

if status:
    print("simperf_check: FAILED")
else:
    print("simperf_check: OK")
sys.exit(status)
EOF
