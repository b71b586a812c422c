// IoT CPU-centric benchmarks (paper sections VI-B/C, Figs. 7-9).
//
// The paper evaluates the memory hierarchy on "five IoT CPU-centric
// benchmarks" it does not name, a synthetic cache-stress benchmark it
// describes precisely, and Dhrystone. Our five (DESIGN.md section 1)
// span the memory-behaviour axis the figures explore:
//
//   crc32      - byte-stream + table lookups (streaming reads)
//   fir        - dense compute over a sliding window (host_fir_i32)
//   sort       - shell sort (strided, data-dependent accesses)
//   histogram  - streaming reads + scattered read-modify-writes
//   strsearch  - text scan with short inner loops (branchy)
//
// All run on the CVA6 ISS against the full memory hierarchy, so their
// L1/LLC/DRAM behaviour is real, not synthetic. iot_benchmarks() holds
// their Fig. 8 inputs: fig8_llc_effect and the golden host digests run
// it at scale 1, the serve catalogue (serve/workload.hpp) at scale 4.
#pragma once

#include <span>
#include <vector>

#include "kernels/kernel.hpp"

namespace hulkv::kernels {

/// A benchmark's program and argument registers, its inputs written.
struct IotSetup {
  KernelProgram program;
  std::vector<u64> args;
};

/// One Fig. 8 benchmark. `scale` divides Fig. 8's input sizes (the FIR
/// taps and the strsearch needle keep theirs); the input seeds are 1-5
/// in table order.
struct IotBenchmark {
  const char* name;
  KernelProgram (*program)(u32 scale);
  /// Write the inputs from core::layout::kSharedBase; return
  /// {program(scale), args}.
  IotSetup (*setup)(core::HulkVSoc& soc, u32 scale);
};

/// crc32, fir, sort, histogram, strsearch. The index is the serve
/// workload id, so the table is append-only.
std::span<const IotBenchmark> iot_benchmarks();

/// CRC-32 over `n` bytes. Args: a0=data, a1=crc table (256 u32),
/// a2=address for the resulting u32.
KernelProgram host_crc32(u32 n);

/// Shell sort of `n` int32 (same gap sequence as golden::shell_sort).
/// Args: a0=data.
KernelProgram host_shell_sort(u32 n);

/// 256-bin byte histogram over `n` bytes (bins zeroed by the program).
/// Args: a0=data, a1=bins (256 u32).
KernelProgram host_histogram(u32 n);

/// Count occurrences of an `m`-byte needle in an `n`-byte haystack.
/// Args: a0=haystack, a1=needle, a2=address for the resulting u32.
KernelProgram host_strsearch(u32 n, u32 m);

/// Dhrystone-style integer mix: string copy + compare + arithmetic +
/// calls over small buffers, `iters` iterations. Args: a0=buf1, a1=buf2
/// (>= 64 B each).
KernelProgram host_dhrystone_mix(u32 iters);

/// Fig. 7 synthetic cache-stress benchmark: `rounds` rounds of `count`
/// word reads with byte stride `stride` over a `count*stride`-byte
/// buffer. The footprint (count*stride) sweeps the access stream across
/// the L1 -> LLC -> DRAM capacity boundaries, producing a controllable
/// L1 miss ratio exactly as described in section VI-B. Args: a0=buffer.
KernelProgram host_stride_reads(u32 stride, u32 count, u32 rounds);

/// Fig. 7 companion with a *dialled* L1 miss ratio: of every 16 reads,
/// `miss_slots` walk a large thrashing window (one new cache line each,
/// always an L1 miss) and the rest hit a resident 2 kB window — the
/// paper's "reads can either be in the 0th way, causing either a miss or
/// a hit, or in a different cache way and hit". Both paths execute the
/// same instruction count, so timing differences are purely the memory
/// system's. `footprint` (power of two) sizes the thrash window.
/// Args: a0=resident 4 kB buffer, a1=thrash buffer.
KernelProgram host_mixed_reads(u32 miss_slots, u32 footprint, u32 count,
                               u32 rounds);

/// Pointer chase: `count` dependent loads through a pre-built cycle of
/// pointers (every load's address comes from the previous load), the
/// canonical measurement of load-to-use latency of a memory level.
/// The caller must have written the pointer ring (u64 absolute addresses)
/// beforehand. Args: a0 = address of the first pointer.
KernelProgram host_pointer_chase(u32 count);

}  // namespace hulkv::kernels
