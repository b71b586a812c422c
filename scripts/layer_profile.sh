#!/usr/bin/env bash
# Split one perfbench workload's host time into the simulator's layers
# with gprof (ROADMAP aim 1).
#
# Usage: scripts/layer_profile.sh <workload> [seconds] [seed]
#   <workload>  iot_host | offload_dsp | serve_mixed
#   [seconds]   run length (default 10)
#   [seed]      perfbench input seed (default 0)
#
# Builds the perfbench binary with -pg into build-gprof/ (a separate
# build tree; perfbench/ itself is only read), runs it there, and
# buckets gprof's flat-profile self time by function name into:
#
#   dispatch/handlers  ISS dispatch and slice loops
#                      (Cva6Core::dispatch, PmcaCore::slice),
#                      handlers, traps. gprof books a loop that GCC
#                      turned into a local clone (.isra) under the
#                      global function before it, e.g. Cva6Core::trap
#   block lookup       BlockCache probes/translation, lowering, decode
#   scheduler          CoreScheduler, Cluster::run_kernel, envcalls,
#                      event unit
#   TCDM               Tcdm banks and the cluster DMA. A one-word
#                      access to a free bank is inlined into the PMCA
#                      load/store handlers (dispatch/handlers); this
#                      row holds bank conflicts, accesses that straddle
#                      two words, and the DMA.
#   L1/LLC/DRAM        cache models, LLC, external memories, the bus.
#                      The host's L1 hit path is inlined into the
#                      load/store handlers and Cva6Core::fetch_new_line,
#                      so gprof books it under dispatch/handlers; this
#                      row holds the L1 miss path, the LLC and the
#                      devices.
#   snapshot and wire  snapshot archive/digest, serve protocol/socket
#   other              everything else (allocator, libc, perfbench)
#
# gprof samples only the main thread and -pg inflates small functions,
# so read the shares as coarse; compare two trees on the same machine
# in the same phase. -pg also puts an mcount call in every out-of-line
# function, which serialises the CPU there: it cannot show two cluster
# slices overlapping, so time the scheduler with traced perfbench
# (cluster.ns_per_instr) and not with this table. Prints one table row per layer and the top
# functions of each.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="$repo_root/build-gprof"

if [ "$#" -lt 1 ]; then
  echo "usage: scripts/layer_profile.sh <workload> [seconds] [seed]" >&2
  exit 2
fi
workload="$1"
seconds="${2:-10}"
seed="${3:-0}"
case "$workload" in
  iot_host|offload_dsp|serve_mixed) ;;
  *) echo "error: unknown workload '$workload'" >&2; exit 2 ;;
esac
command -v gprof >/dev/null || { echo "error: gprof not found" >&2; exit 1; }

generator=()
command -v ninja >/dev/null && generator=(-G Ninja)
if [ ! -f "$build_dir/CMakeCache.txt" ]; then
  cmake -S "$repo_root/perfbench" -B "$build_dir" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS=-pg -DCMAKE_EXE_LINKER_FLAGS=-pg >&2
fi
cmake --build "$build_dir" --target perfbench -j "$(nproc)" >&2

# gmon.out lands in the working directory; a short relative --out-dir
# keeps serve_mixed's socket path short.
rm -f "$build_dir/gmon.out"
(cd "$build_dir" && ./perfbench --workload "$workload" --seed "$seed" \
   --seconds "$seconds" --trace 0 --out-dir . >/dev/null)

gprof -b -p "$build_dir/perfbench" "$build_dir/gmon.out" | python3 -c '
import re, sys

# Matched against the qualified name without its parameter list, in
# this order (the first match wins).
LAYERS = [
    ("snapshot and wire", r"hulkv::snapshot::|hulkv::serve::|::serialize$|"
                          r"::state_digest$"),
    ("scheduler", r"CoreScheduler::|Cluster::run_kernel$|"
                  r"Cluster::handle_envcall$|Cluster::release_barrier$|"
                  r"EventUnit::"),
    ("block lookup", r"BlockCache::|threaded::lower$|isa::decode$|"
                     r"(_Hashtable|_Map_base)<.*DecodedBlock"),
    ("TCDM", r"Tcdm::|ClusterDma::"),
    ("L1/LLC/DRAM", r"^hulkv::mem::|ClusterIcache::"),
    ("dispatch/handlers", r"ThreadedPmca::|ThreadedHost::|PmcaCore::|"
                          r"Cva6Core::|^hulkv::host::"),
]
ROW = re.compile(r"^\s*[\d.]+\s+[\d.]+\s+([\d.]+)\s+(?:\d+\s+[\d.]+\s+[\d.]+\s+)?(.+)$")

totals = {name: 0.0 for name, _ in LAYERS}
totals["other"] = 0.0
top = {name: [] for name in totals}
for line in sys.stdin:
    m = ROW.match(line)
    if not m:
        continue
    self_s, func = float(m.group(1)), m.group(2).strip()
    name = re.sub(r"^(void|bool|unsigned long|int) ", "", func.split("(")[0])
    layer = next((n for n, pat in LAYERS if re.search(pat, name)), "other")
    totals[layer] += self_s
    top[layer].append((self_s, func))

total = sum(totals.values()) or 1.0
order = ["dispatch/handlers", "block lookup", "scheduler", "TCDM",
         "L1/LLC/DRAM", "snapshot and wire", "other"]
print("| layer | self s | share |")
print("|---|---:|---:|")
for name in order:
    print("| %s | %.2f | %.1f %% |" % (name, totals[name],
                                      100.0 * totals[name] / total))
print("| total | %.2f | 100.0 %% |" % total)
print()
for name in order:
    ranked = sorted(top[name], reverse=True)[:3]
    if not ranked:
        continue
    print("%s:" % name)
    for self_s, func in ranked:
        print("  %6.2f s  %s" % (self_s, func[:110]))
'
