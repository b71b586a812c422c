#!/usr/bin/env bash
# Full CI gate, runnable locally: configure + build the plain and the
# ASan/UBSan trees, run the tier-1 test suite in both, check the hot
# functions' placement, smoke-run the tools, and lint. No step compares
# a timing: the repository benchmark (perfbench, BENCHMARK.json) is the
# one performance gate, and the tier-1 observation_off_test pins that
# observation off costs nothing.
#
# Usage: scripts/ci.sh [--fast]
#   --fast           skip the sanitized (ASan/UBSan, TSan) trees
#   JOBS=N           build/test parallelism (default: nproc)
#
# Build trees (kept out of the source tree, see .gitignore):
#   build/        plain RelWithDebInfo — tests, benches, tools
#   build-asan/   address+undefined sanitizers — memory-safety gate
#   build-tsan/   thread sanitizer — batch job-queue race gate
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
jobs="${JOBS:-$(nproc)}"
fast=0
for arg in "$@"; do
  case "$arg" in
    --fast) fast=1 ;;
    *) echo "usage: scripts/ci.sh [--fast]" >&2; exit 2 ;;
  esac
done

step() { echo; echo "== ci: $* =="; }

configure_and_build() {
  local dir="$1" sanitize="$2"
  cmake -S "$repo_root" -B "$dir" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
    -DHULKV_SANITIZE="$sanitize" > /dev/null
  cmake --build "$dir" -j "$jobs"
}

step "build (plain)"
configure_and_build "$repo_root/build" ""

step "test (plain, tier1)"
ctest --test-dir "$repo_root/build" -L tier1 -j "$jobs" \
  --output-on-failure --no-tests=error

step "placement (hot ISS functions start at 0 mod 64)"
"$repo_root/scripts/check_placement.sh" "$repo_root/build/bench/fig6_speedup"

if [ "$fast" -eq 0 ]; then
  step "build (ASan/UBSan)"
  configure_and_build "$repo_root/build-asan" "address;undefined"

  step "test (ASan/UBSan, tier1)"
  ctest --test-dir "$repo_root/build-asan" -L tier1 -j "$jobs" \
    --output-on-failure --no-tests=error
fi

step "analyze-corpus (hulkv-analyze over every built-in program)"
analyze_out="$(mktemp -u /tmp/ci_analyze.XXXXXX.json)"
# The tool exits 1 when any program has an error-severity finding,
# which fails the step under `set -e`; the golden diff pins every
# program's diagnostics and counts, so a silent analysis regression
# fails here.
"$repo_root/build/tools/hulkv-analyze" --corpus --json > "$analyze_out"
if ! diff -u "$repo_root/tests/golden/analyze_corpus.json" "$analyze_out"; then
  echo "ci: analyze-corpus FAILED — whole-corpus diagnostics drifted from" \
       "tests/golden/analyze_corpus.json (regenerate via" \
       "HULKV_REGEN_GOLDEN=1 build/tests/analysis_test" \
       "--gtest_filter=Corpus.JsonMatchesGolden if intended)" >&2
  exit 1
fi
rm -f "$analyze_out"

if [ "$fast" -eq 0 ]; then
  step "build (TSan)"
  configure_and_build "$repo_root/build-tsan" "thread"

  step "test (TSan: batch job queue, serve daemon, determinism under worker pools)"
  ctest --test-dir "$repo_root/build-tsan" -j "$jobs" \
    -R '^(RunJobs|SweepEngine|SocSnapshot|Determinism|Threaded|Serve)' \
    --output-on-failure --no-tests=error
fi

step "profiler smoke (fig8 --profile, conservation checked in-process)"
profile_out="$(mktemp -u /tmp/ci_profile.XXXXXX)"
BUILD_DIR="$repo_root/build" "$repo_root/scripts/profile.sh" \
  fig8_llc_effect "$profile_out" > /dev/null
for ext in folded annotated.txt; do
  if [ ! -s "$profile_out.$ext" ]; then
    echo "ci: profiler smoke FAILED — empty or missing $profile_out.$ext" >&2
    exit 1
  fi
done
rm -f "$profile_out.folded" "$profile_out.annotated.txt"

step "telemetry smoke (fig8 --telemetry, manifest schema-checked)"
telemetry_dir="$(mktemp -d /tmp/ci_telemetry.XXXXXX)"
"$repo_root/build/bench/fig8_llc_effect" \
  --telemetry="$telemetry_dir" > /dev/null
if ! "$repo_root/build/tools/hulkv-stats" check \
    "$telemetry_dir/fig8_llc_effect.jsonl" \
    --schema "$repo_root/scripts/manifest_schema.json"; then
  echo "ci: telemetry smoke FAILED — run manifest does not match" \
       "scripts/manifest_schema.json" >&2
  exit 1
fi
rm -rf "$telemetry_dir"

step "serve smoke (daemon + loadgen burst, manifest schema-checked)"
serve_dir="$(mktemp -d /tmp/ci_serve.XXXXXX)"
"$repo_root/build/tools/hulkv-serve" \
  --socket "$serve_dir/serve.sock" --workers 2 \
  --telemetry="$serve_dir/runs" &
serve_pid=$!
for _ in $(seq 50); do
  [ -S "$serve_dir/serve.sock" ] && break
  sleep 0.1
done
# Two identical bursts: the second one must hit the result cache.
for _ in 1 2; do
  "$repo_root/build/tools/hulkv-loadgen" \
    --socket "$serve_dir/serve.sock" --connections 2 --requests 4 \
    --type run > "$serve_dir/loadgen.json"
done

step "metrics-plane smoke (kMetrics scrape x2 monotonic, kTrace parses)"
# Two successive scrapes while the daemon is up: every counter must be
# monotonic, the gauges sane, the stage histograms must have counted
# exactly the completed simulation requests, and the kTrace drain must
# be valid Perfetto JSON with the clock anchor.
# A request's trace publishes just after its response bytes, so wait
# for the final burst response to land in the counters before pinning
# exact values.
for _ in $(seq 50); do
  "$repo_root/build/tools/hulkv-stats" scrape \
    --socket "$serve_dir/serve.sock" > "$serve_dir/scrape1.txt"
  grep -q 'hulkv_serve_responses_total{outcome="ok"} 16' \
    "$serve_dir/scrape1.txt" && break
  sleep 0.05
done
"$repo_root/build/tools/hulkv-stats" scrape \
  --socket "$serve_dir/serve.sock" > "$serve_dir/scrape2.txt"
"$repo_root/build/tools/hulkv-stats" trace \
  --socket "$serve_dir/serve.sock" > "$serve_dir/trace.json"
python3 - "$serve_dir" <<'EOF'
import json, sys

def parse(path):
    out = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.rpartition(" ")
            out[key] = float(value)
    return out

d = sys.argv[1]
m1, m2 = parse(d + "/scrape1.txt"), parse(d + "/scrape2.txt")
assert m1 and set(m1) == set(m2), "scrapes expose different sample sets"
for key, value in m1.items():
    if "_total" in key:
        assert m2[key] >= value, f"counter went backwards: {key}"
assert m2["hulkv_serve_metrics_scrapes_total"] == \
    m1["hulkv_serve_metrics_scrapes_total"] + 1, "scrape not self-counted"
assert m1["hulkv_serve_requests_admitted_total"] == 16, m1
assert m1["hulkv_serve_responses_total{outcome=\"ok\"}"] == 16, m1
assert m1["hulkv_serve_workers"] == 2, m1
assert 0 <= m1["hulkv_serve_utilization"] <= 1, m1
assert m1["hulkv_serve_uptime_seconds"] > 0, m1
for stage in ("admission", "queue_wait", "cache_lookup", "warm_fork",
              "execute", "response_write"):
    count = m1[f'hulkv_serve_stage_latency_ns_count{{stage="{stage}"}}']
    assert count == 16, f"stage {stage} counted {count} != 16 requests"

with open(d + "/trace.json") as f:
    trace = json.load(f)
events = trace["traceEvents"]
anchors = [e for e in events if e.get("name") == "clock_anchor"]
assert len(anchors) == 1 and "wall_epoch_ns" in anchors[0]["args"], anchors
slices = [e for e in events if e.get("ph") == "X"]
assert len(slices) >= 16, f"only {len(slices)} request slices drained"
EOF
kill -TERM "$serve_pid"
if ! wait "$serve_pid"; then
  echo "ci: serve smoke FAILED — daemon did not exit cleanly on SIGTERM" >&2
  exit 1
fi
if ! "$repo_root/build/tools/hulkv-stats" check \
    "$serve_dir/runs/hulkv_serve.jsonl" \
    --schema "$repo_root/scripts/manifest_schema.json"; then
  echo "ci: serve smoke FAILED — serve manifest does not match" \
       "scripts/manifest_schema.json" >&2
  exit 1
fi
python3 - "$serve_dir/runs/hulkv_serve.jsonl" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    manifest = json.loads(f.readline())
metrics = manifest["metrics"]
assert manifest["kind"] == "serve", manifest["kind"]
assert metrics["serve.cache_hits"]["value"] > 0, "no cache hits on repeat burst"
assert metrics["serve.responses_ok"]["value"] == 16, metrics["serve.responses_ok"]
assert metrics["serve.internal_errors"]["value"] == 0
# Request latency comes from the observability plane's request
# histogram (arrival to response written); no telemetry phase times a
# request.
latency = [metrics[k]["value"]
           for k in ("serve.p50_ns", "serve.p99_ns", "serve.p999_ns")]
assert 0 < latency[0] <= latency[1] <= latency[2], latency
for phase in ("serve_request", "serve_point"):
    assert phase not in manifest["phases"], manifest["phases"]
EOF
rm -rf "$serve_dir"

step "lint"
"$repo_root/scripts/lint.sh"

echo
echo "ci: OK"
