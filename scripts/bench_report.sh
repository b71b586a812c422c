#!/usr/bin/env bash
# Machine-readable bench reports: run the two headline benches (Fig. 6
# speedup/efficiency, Fig. 8 LLC effect) with --json and verify that the
# reports carry the required headline metric keys. CI-friendly: exits
# non-zero when a bench fails or a key is missing.
#
# Usage: scripts/bench_report.sh [output-dir]
#   (default: $BUILD_DIR/bench_report, inside the build tree that
#   .gitignore already covers; BUILD_DIR defaults to build/)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${BUILD_DIR:-$repo_root/build}"
out_dir="${1:-$build_dir/bench_report}"
mkdir -p "$out_dir"
# Absolutize: the benches receive this path, and a relative one would
# silently depend on the caller's working directory.
out_dir="$(cd "$out_dir" && pwd)"

if [ ! -d "$build_dir/bench" ]; then
  echo "error: $build_dir/bench not found. Build first:" >&2
  echo "  cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

# required_keys <report.json> <key>...
# The report schema is {"metrics":{"<key>":{"value":...}}}; a fixed-format
# grep keeps the checker dependency-free (no jq/python needed in CI).
required_keys() {
  local json="$1"
  shift
  local status=0
  for key in "$@"; do
    if ! grep -q "\"$key\":{\"value\":" "$json"; then
      echo "MISSING METRIC: $key in $json" >&2
      status=1
    fi
  done
  return "$status"
}

status=0

echo "== fig6_speedup -> $out_dir/BENCH_fig6.json =="
"$build_dir/bench/fig6_speedup" --json "$out_dir/BENCH_fig6.json"
required_keys "$out_dir/BENCH_fig6.json" \
  max_speedup_x1000 max_pmca_gops_w || status=1

echo
echo "== fig8_llc_effect -> $out_dir/BENCH_fig8.json =="
"$build_dir/bench/fig8_llc_effect" --json "$out_dir/BENCH_fig8.json"
required_keys "$out_dir/BENCH_fig8.json" \
  worst_gap_pct || status=1

echo
if [ "$status" -ne 0 ]; then
  echo "bench_report: FAILED (missing metric keys)"
  exit "$status"
fi
echo "bench_report: OK ($out_dir/BENCH_fig6.json, $out_dir/BENCH_fig8.json)"
