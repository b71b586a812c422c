#!/usr/bin/env bash
# Check that the simulator's hot functions start at 0 mod 64 in a linked
# binary (DESIGN.md §15.5). They carry HULKV_HOT_CODE
# ([[gnu::aligned(64)]]), so an edit elsewhere cannot move them across
# cache lines and blur an A/B timing. The check reads addresses with nm:
# it fails on the code, not on a timing.
#
# Usage: scripts/check_placement.sh <binary>
#   <binary>  a linked binary that holds the host and cluster ISSs
#             (scripts/ci.sh passes build/bench/fig6_speedup)
#
# Compiler clones of a function (.isra, .constprop) must be aligned
# too; the .cold parts GCC splits off are not checked.
set -euo pipefail

if [ "$#" -ne 1 ]; then
  echo "usage: scripts/check_placement.sh <binary>" >&2
  exit 2
fi
binary="$1"
[ -f "$binary" ] || { echo "error: no such binary: $binary" >&2; exit 2; }

nm -C "$binary" | python3 -c '
import sys

HOT = [
    "hulkv::host::Cva6Core::dispatch<false, false>",
    "hulkv::host::Cva6Core::dispatch<false, true>",
    "hulkv::host::Cva6Core::dispatch<true, false>",
    "hulkv::host::Cva6Core::dispatch<true, true>",
    "hulkv::cluster::PmcaCore::slice<false>",
    "hulkv::host::Cva6Core::fetch_new_line",
    "hulkv::mem::CacheModel::miss",
] + ["hulkv::host::ThreadedHost::" + op for op in (
    "lb", "lh", "lw", "lbu", "lhu", "lwu", "ld", "sb", "sh", "sw", "sd",
    "flw", "fld", "fsw", "fsd")]

found = {name: [] for name in HOT}
for line in sys.stdin:
    parts = line.rstrip("\n").split(" ", 2)
    if len(parts) < 3 or parts[1] not in "tTwW" or "[clone .cold]" in line:
        continue
    for name in HOT:
        at = parts[2].find(name + "(")
        # Skip entities nested in the function (its lambdas, statics).
        if at >= 0 and ")::" not in parts[2][at:]:
            found[name].append((int(parts[0], 16), parts[2]))

bad = 0
for name in HOT:
    if not found[name]:
        print(f"placement: {name} not found", file=sys.stderr)
        bad += 1
    for addr, full in found[name]:
        if addr % 64 != 0:
            print(f"placement: {full} at {addr:#x} is {addr % 64} mod 64",
                  file=sys.stderr)
            bad += 1
if bad:
    sys.exit(1)
count = sum(len(v) for v in found.values())
print(f"placement: {count} hot symbols start at 0 mod 64")
'
