// hulkv::snapshot: container format, archive traversal, Soc::save /
// restore / state_digest.
//
// The load-bearing guarantee (DESIGN.md section 11): restore is exact.
// A SoC restored from a mid-run snapshot continues cycle-identically —
// same per-segment cycle counts, same trace events, same final state
// digest — as the uninterrupted run.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <functional>
#include <sstream>
#include <vector>

#include "batch/batch.hpp"
#include "core/soc.hpp"
#include "isa/assembler.hpp"
#include "isa/instr.hpp"
#include "kernels/cluster_kernels.hpp"
#include "kernels/iot_benchmarks.hpp"
#include "kernels/kernel.hpp"
#include "runtime/offload.hpp"
#include "snapshot/archive.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/trace.hpp"

namespace {

using namespace hulkv;

/// Minimal cluster kernel: every core writes hartid+arg[0] to
/// tcdm[0x400+4*hart], then exits.
std::vector<u32> stamp_kernel() {
  using namespace isa::reg;
  isa::Assembler a(0, false);
  a.lw(s1, 0, a0);  // args[0]
  a.ri(isa::Op::kCsrrs, t0, 0, isa::csr::kMhartid);
  a.add(t1, t0, s1);
  a.slli(t2, t0, 2);
  a.li(t3, mem::map::kTcdmBase + 0x400);
  a.add(t2, t2, t3);
  a.sw(t1, 0, t2);
  a.li(a7, cluster::envcall::kExit);
  a.ecall();
  return a.assemble();
}

// ---------------------------------------------------------------- archive

TEST(Archive, PodRoundTrip) {
  std::vector<u8> bytes;
  {
    snapshot::Archive ar = snapshot::Archive::saver(&bytes);
    u64 a = 0x1122334455667788ull;
    u32 b = 42;
    bool c = true;
    ar.pod(a);
    ar.pod(b);
    ar.pod(c);
  }
  snapshot::Archive ar = snapshot::Archive::loader(bytes.data(),
                                                   bytes.size());
  u64 a = 0;
  u32 b = 0;
  bool c = false;
  ar.pod(a);
  ar.pod(b);
  ar.pod(c);
  EXPECT_EQ(a, 0x1122334455667788ull);
  EXPECT_EQ(b, 42u);
  EXPECT_TRUE(c);
  EXPECT_EQ(ar.remaining(), 0u);
}

TEST(Archive, StringVectorAndBoolVectorRoundTrip) {
  std::vector<u8> bytes;
  {
    snapshot::Archive ar = snapshot::Archive::saver(&bytes);
    std::string s = "hulk-v";
    std::vector<u32> v = {1, 2, 3, 0xFFFFFFFFu};
    std::vector<bool> b = {true, false, true, true};
    ar.str(s);
    ar.pod_vec(v);
    ar.bool_vec(b);
  }
  snapshot::Archive ar = snapshot::Archive::loader(bytes.data(),
                                                   bytes.size());
  std::string s;
  std::vector<u32> v;
  std::vector<bool> b;
  ar.str(s);
  ar.pod_vec(v);
  ar.bool_vec(b);
  EXPECT_EQ(s, "hulk-v");
  EXPECT_EQ(v, (std::vector<u32>{1, 2, 3, 0xFFFFFFFFu}));
  EXPECT_EQ(b, (std::vector<bool>{true, false, true, true}));
}

TEST(Archive, LoaderThrowsOnTruncation) {
  std::vector<u8> bytes = {1, 2, 3};
  snapshot::Archive ar = snapshot::Archive::loader(bytes.data(),
                                                   bytes.size());
  u64 v = 0;
  EXPECT_THROW(ar.pod(v), SimError);
}

TEST(Archive, CountBeyondBytesLeftIsTruncation) {
  // A count of 2^40 with 8 bytes behind it: every container visitor
  // must refuse it before sizing anything.
  std::vector<u8> bytes(16, 0);
  const u64 huge = u64{1} << 40;
  std::memcpy(bytes.data(), &huge, sizeof(huge));
  const auto expect_truncated =
      [&](const std::function<void(snapshot::Archive&)>& visit) {
        snapshot::Archive ar =
            snapshot::Archive::loader(bytes.data(), bytes.size());
        try {
          visit(ar);
          ADD_FAILURE() << "loader accepted a count of 2^40";
        } catch (const SimError& e) {
          EXPECT_NE(std::string(e.what()).find("truncated"),
                    std::string::npos)
              << e.what();
        }
      };
  expect_truncated([](snapshot::Archive& ar) {
    std::string s;
    ar.str(s);
  });
  expect_truncated([](snapshot::Archive& ar) {
    std::vector<u32> v;
    ar.pod_vec(v);
  });
  expect_truncated([](snapshot::Archive& ar) {
    std::vector<bool> v;
    ar.bool_vec(v);
  });
}

TEST(Archive, HashDistinguishesValues) {
  const auto digest = [](u64 value) {
    snapshot::Archive ar = snapshot::Archive::hasher();
    ar.pod(value);
    return ar.hash();
  };
  EXPECT_EQ(digest(7), digest(7));
  EXPECT_NE(digest(7), digest(8));
}

// -------------------------------------------------------------- container

TEST(SnapshotContainer, WriterReaderRoundTrip) {
  std::ostringstream os(std::ios::binary);
  {
    snapshot::Writer w(os);
    w.section(snapshot::kMeta, [](snapshot::Archive& ar) {
      u64 v = 0xABCDu;
      ar.pod(v);
    });
    w.finish();
  }
  const std::string blob = os.str();
  const snapshot::Reader r(reinterpret_cast<const u8*>(blob.data()),
                           blob.size());
  ASSERT_TRUE(r.has(snapshot::kMeta));
  u64 v = 0;
  r.section(snapshot::kMeta, [&](snapshot::Archive& ar) { ar.pod(v); });
  EXPECT_EQ(v, 0xABCDu);
}

TEST(SnapshotContainer, UnknownSectionsAreSkippable) {
  // A reader from this build must tolerate sections written by a future
  // build: ids it does not ask for are simply never consumed.
  constexpr u32 kFutureId = 0x7F00;
  std::ostringstream os(std::ios::binary);
  {
    snapshot::Writer w(os);
    w.section(kFutureId, [](snapshot::Archive& ar) {
      u64 junk = 0xDEAD;
      ar.pod(junk);
    });
    w.section(snapshot::kMeta, [](snapshot::Archive& ar) {
      u64 v = 1;
      ar.pod(v);
    });
    w.finish();
  }
  const std::string blob = os.str();
  const snapshot::Reader r(reinterpret_cast<const u8*>(blob.data()),
                           blob.size());
  EXPECT_TRUE(r.has(kFutureId));
  u64 v = 0;
  r.section(snapshot::kMeta, [&](snapshot::Archive& ar) { ar.pod(v); });
  EXPECT_EQ(v, 1u);
}

TEST(SnapshotContainer, PartiallyConsumedSectionIsAnError) {
  std::ostringstream os(std::ios::binary);
  {
    snapshot::Writer w(os);
    w.section(snapshot::kMeta, [](snapshot::Archive& ar) {
      u64 a = 1, b = 2;
      ar.pod(a);
      ar.pod(b);
    });
    w.finish();
  }
  const std::string blob = os.str();
  const snapshot::Reader r(reinterpret_cast<const u8*>(blob.data()),
                           blob.size());
  u64 a = 0;
  EXPECT_THROW(
      r.section(snapshot::kMeta,
                [&](snapshot::Archive& ar) { ar.pod(a); }),
      SimError);
}

// ------------------------------------------------------- error rejection

std::string saved_soc_bytes(core::HulkVSoc& soc) {
  std::ostringstream os(std::ios::binary);
  soc.save(os);
  return os.str();
}

void expect_restore_error(const std::string& bytes,
                          const std::string& needle) {
  core::SocConfig cfg;
  core::HulkVSoc soc(cfg);
  std::istringstream is(bytes, std::ios::binary);
  try {
    soc.restore(is);
    FAIL() << "restore accepted a corrupt snapshot (wanted error with '"
           << needle << "')";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual error: " << e.what();
  }
}

/// Where a section sits in a saved blob (found by walking the section
/// headers after the 8-byte file header).
struct RawSection {
  size_t header = 0;   // offset of the u32 id
  size_t payload = 0;  // offset of the first payload byte
  u64 length = 0;
};

RawSection raw_section(const std::string& blob, u32 id) {
  size_t pos = 8;
  while (pos + 12 <= blob.size()) {
    RawSection s;
    u32 sid = 0;
    std::memcpy(&sid, blob.data() + pos, sizeof(sid));
    std::memcpy(&s.length, blob.data() + pos + 4, sizeof(s.length));
    s.header = pos;
    s.payload = pos + 12;
    if (sid == id) return s;
    if (sid == snapshot::kEndMarker) break;
    pos = s.payload + s.length;
  }
  ADD_FAILURE() << "no section " << id << " in the blob";
  return {};
}

/// Recompute the checksum trailer of a blob edited in place, so that
/// only the edit itself can make restore fail.
void reseal(std::string& blob) {
  const RawSection end = raw_section(blob, snapshot::kEndMarker);
  const u64 sum =
      snapshot::fnv1a(snapshot::kFnvOffset, blob.data() + 8, end.header - 8);
  std::memcpy(blob.data() + end.payload, &sum, sizeof(sum));
}

TEST(SnapshotErrors, BadMagicRejected) {
  core::HulkVSoc soc;
  std::string bytes = saved_soc_bytes(soc);
  bytes[0] = 'X';
  expect_restore_error(bytes, "bad magic");
}

TEST(SnapshotErrors, UnsupportedVersionRejected) {
  core::HulkVSoc soc;
  std::string bytes = saved_soc_bytes(soc);
  bytes[4] = 99;  // version field follows the 4-byte magic
  expect_restore_error(bytes, "unsupported format version");
}

TEST(SnapshotErrors, TruncatedFileRejected) {
  core::HulkVSoc soc;
  const std::string bytes = saved_soc_bytes(soc);
  expect_restore_error(bytes.substr(0, bytes.size() / 2), "truncated");
  expect_restore_error(bytes.substr(0, 6), "truncated");
  expect_restore_error("", "truncated");
}

TEST(SnapshotErrors, FlippedPayloadByteFailsChecksum) {
  core::HulkVSoc soc;
  std::string bytes = saved_soc_bytes(soc);
  bytes[bytes.size() / 2] ^= 0x40;
  expect_restore_error(bytes, "checksum mismatch");
}

TEST(SnapshotErrors, ConfigMismatchRejected) {
  core::SocConfig cfg;
  cfg.enable_llc = false;
  core::HulkVSoc soc(cfg);
  // Restore into the default (LLC-enabled) config must be refused via
  // the kMeta fingerprint before any component state is touched.
  expect_restore_error(saved_soc_bytes(soc), "configuration mismatch");
}

TEST(SnapshotErrors, SectionLengthBeyondFileRejected) {
  // 20 bytes: the header and one section header claiming 2^40 payload
  // bytes. The claim is checked against the bytes left, never allocated.
  std::string bytes(20, '\0');
  const u32 magic = snapshot::kMagic;
  const u32 version = snapshot::kFormatVersion;
  const u32 id = snapshot::kMeta;
  const u64 length = u64{1} << 40;
  std::memcpy(bytes.data(), &magic, sizeof(magic));
  std::memcpy(bytes.data() + 4, &version, sizeof(version));
  std::memcpy(bytes.data() + 8, &id, sizeof(id));
  std::memcpy(bytes.data() + 12, &length, sizeof(length));
  expect_restore_error(bytes, "truncated");
}

TEST(SnapshotErrors, StringLengthBeyondSectionRejected) {
  // The uart section is one length-prefixed string; claim 2^40 chars
  // under a valid checksum.
  core::HulkVSoc soc;
  std::string bytes = saved_soc_bytes(soc);
  const RawSection uart = raw_section(bytes, snapshot::kUart);
  const u64 huge = u64{1} << 40;
  std::memcpy(bytes.data() + uart.payload, &huge, sizeof(huge));
  reseal(bytes);
  expect_restore_error(bytes, "truncated");
}

TEST(SnapshotErrors, TcdmBankTableSizeMismatchRejected) {
  // A cluster section whose TCDM bank table holds 1 entry instead of
  // the configured 16, under a valid checksum: an access to bank 15
  // would index past the table.
  core::HulkVSoc soc;
  std::string bytes = saved_soc_bytes(soc);
  cluster::Tcdm& tcdm = soc.cluster().tcdm();
  std::vector<u8> own;
  snapshot::Archive ar = snapshot::Archive::saver(&own);
  tcdm.serialize(ar);
  // The TCDM's traversal is its storage, then the bank table and the
  // rest: find the tail, and check that the storage precedes it.
  const size_t storage = tcdm.storage().size();
  const std::string mine(own.begin(), own.end());
  const std::string tail = mine.substr(storage);
  const RawSection cluster = raw_section(bytes, snapshot::kCluster);
  size_t table = std::string::npos;
  for (size_t at = bytes.find(tail, cluster.payload + storage);
       at != std::string::npos; at = bytes.find(tail, at + 1)) {
    if (bytes.compare(at - storage, storage, mine, 0, storage) == 0) {
      table = at;
      break;
    }
  }
  ASSERT_NE(table, std::string::npos);
  u64 banks = 0;
  std::memcpy(&banks, bytes.data() + table, sizeof(banks));
  ASSERT_EQ(banks, soc.config().cluster.tcdm.num_banks);
  // Keep the count (now 1) and entry 0; drop entries 1..15.
  const u64 one = 1;
  std::memcpy(bytes.data() + table, &one, sizeof(one));
  bytes.erase(table + 2 * sizeof(u64), (banks - 1) * sizeof(u64));
  const u64 length = cluster.length - (banks - 1) * sizeof(u64);
  std::memcpy(bytes.data() + cluster.header + 4, &length, sizeof(length));
  reseal(bytes);
  expect_restore_error(bytes, "tcdm bank table");
}

// -------------------------------------------------- mid-run round trips

/// Start (but do not finish) a host program, exactly as
/// kernels::run_host_program sets it up.
void start_host_program(core::HulkVSoc& soc, const std::vector<u32>& words,
                        std::span<const u64> args) {
  soc.load_program(core::layout::kHostCodeBase, words);
  auto& host = soc.host();
  for (size_t i = 0; i < args.size(); ++i) {
    host.set_reg(static_cast<u8>(isa::reg::a0 + i), args[i]);
  }
  host.set_reg(isa::reg::sp, core::layout::kHostStackTop - 64);
  host.set_pc(core::layout::kHostCodeBase);
}

TEST(SnapshotRoundTrip, MidHostProgramContinuesCycleIdentically) {
  core::SocConfig cfg;
  core::HulkVSoc a(cfg);
  const std::array<u64, 1> args = {core::layout::kSharedBase};
  const auto program = kernels::host_stride_reads(64, 256, 4).words;

  start_host_program(a, program, args);
  const auto partial = a.host().run(/*max_instructions=*/300);
  ASSERT_FALSE(partial.exited) << "program too short for a mid-run save";

  core::HulkVSoc b(cfg);
  {
    std::ostringstream os(std::ios::binary);
    a.save(os);
    std::istringstream is(os.str(), std::ios::binary);
    b.restore(is);
  }
  ASSERT_EQ(a.state_digest(), b.state_digest());

  const auto rest_a = a.host().run();
  const auto rest_b = b.host().run();
  EXPECT_TRUE(rest_a.exited);
  EXPECT_TRUE(rest_b.exited);
  EXPECT_EQ(rest_a.cycles, rest_b.cycles);
  EXPECT_EQ(rest_a.instret, rest_b.instret);
  EXPECT_EQ(rest_a.exit_code, rest_b.exit_code);
  EXPECT_EQ(a.state_digest(), b.state_digest());
}

TEST(SnapshotRoundTrip, MidHostProgramTraceIsIdentical) {
  // Tracing is observational (no timing model consults the sink), so
  // the continuation of a restored SoC must emit the exact same event
  // stream as the uninterrupted run.
  core::SocConfig cfg;
  core::HulkVSoc a(cfg);
  const std::array<u64, 1> args = {core::layout::kSharedBase};
  const auto program = kernels::host_stride_reads(64, 256, 4).words;
  start_host_program(a, program, args);
  ASSERT_FALSE(a.host().run(300).exited);

  core::HulkVSoc b(cfg);
  {
    std::ostringstream os(std::ios::binary);
    a.save(os);
    std::istringstream is(os.str(), std::ios::binary);
    b.restore(is);
  }

  struct Recorded {
    std::string track;
    trace::Ev type;
    Cycles ts, dur;
    u64 value, arg;
    bool operator==(const Recorded&) const = default;
  };
  const auto traced_run = [&](core::HulkVSoc& soc) {
    auto& sink = trace::sink();
    sink.clear();
    sink.enable();
    soc.host().run();
    std::vector<Recorded> out;
    out.reserve(sink.events().size());
    for (const trace::Event& e : sink.events()) {
      out.push_back({sink.track_names()[e.track], e.type, e.ts, e.dur,
                     e.value, e.arg});
    }
    sink.disable();
    sink.clear();
    return out;
  };
  const std::vector<Recorded> trace_a = traced_run(a);
  const std::vector<Recorded> trace_b = traced_run(b);
  ASSERT_FALSE(trace_a.empty());
  EXPECT_EQ(trace_a, trace_b);
}

TEST(SnapshotRoundTrip, MidHardwareLoopContinuesIdentically) {
  // Step a PMCA core into the body of an Xpulp hardware loop, snapshot
  // with the loop live, and check the restored core walks the remaining
  // iterations in lockstep with the original.
  core::SocConfig cfg;
  core::HulkVSoc a(cfg);

  isa::Assembler as(mem::map::kL2Base, /*rv64=*/false);
  as.li(isa::reg::t0, 50);
  as.lp_setup(0, isa::reg::t0, "done");
  as.addi(isa::reg::a0, isa::reg::a0, 1);
  as.addi(isa::reg::a1, isa::reg::a1, 3);
  as.label("done");
  as.addi(isa::reg::a2, isa::reg::a2, 7);
  const std::vector<u32> words = as.assemble();
  a.load_program(mem::map::kL2Base, words);

  auto& core_a = a.cluster().core(0);
  core_a.reset_for_run(mem::map::kL2Base);
  // One instruction per slice: inside the loop body after 21.
  const auto step = [](cluster::PmcaCore& core) {
    core.run_slice(cluster::CoreScheduler::kIdle, 1);
  };
  for (int i = 0; i < 21; ++i) step(core_a);
  ASSERT_EQ(core_a.state(), cluster::PmcaCore::State::kRunning);

  core::HulkVSoc b(cfg);
  b.load_program(mem::map::kL2Base, words);  // same code in both L2s
  {
    std::ostringstream os(std::ios::binary);
    a.save(os);
    std::istringstream is(os.str(), std::ios::binary);
    b.restore(is);
  }
  ASSERT_EQ(a.state_digest(), b.state_digest());

  auto& core_b = b.cluster().core(0);
  ASSERT_EQ(core_a.pc(), core_b.pc());
  for (int i = 0; i < 60; ++i) {
    step(core_a);
    step(core_b);
    ASSERT_EQ(core_a.pc(), core_b.pc()) << "diverged at step " << i;
    ASSERT_EQ(core_a.now(), core_b.now()) << "diverged at step " << i;
  }
  EXPECT_EQ(core_a.reg(isa::reg::a0), core_b.reg(isa::reg::a0));
  EXPECT_EQ(core_a.reg(isa::reg::a1), core_b.reg(isa::reg::a1));
  EXPECT_EQ(a.state_digest(), b.state_digest());
}

TEST(SnapshotRoundTrip, MidDmaTransferContinuesIdentically) {
  core::SocConfig cfg;
  core::HulkVSoc a(cfg);
  std::vector<u8> payload(2048);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<u8>(i * 7 + 3);
  }
  a.write_mem(core::layout::kSharedBase, payload.data(), payload.size());

  // Issue the transfer and snapshot while its completion time is still
  // in the future — the outstanding-job list is live state.
  const u32 job = a.cluster().dma().start_1d(
      /*now=*/100, mem::map::kTcdmBase + 0x400, core::layout::kSharedBase,
      static_cast<u32>(payload.size()));
  const Cycles finish_a = a.cluster().dma().finish_time(job);
  ASSERT_GT(finish_a, 100u);

  core::HulkVSoc b(cfg);
  {
    std::ostringstream os(std::ios::binary);
    a.save(os);
    std::istringstream is(os.str(), std::ios::binary);
    b.restore(is);
  }
  EXPECT_EQ(a.state_digest(), b.state_digest());
  EXPECT_EQ(b.cluster().dma().finish_time(job), finish_a);
  EXPECT_EQ(b.cluster().dma().finish_all(), a.cluster().dma().finish_all());

  std::vector<u8> got(payload.size());
  b.read_mem(mem::map::kTcdmBase + 0x400, got.data(), got.size());
  EXPECT_EQ(got, payload);
}

TEST(SnapshotRoundTrip, OffloadSequenceSplitsExactly) {
  // Save between two offloads (runtime state live: resident image,
  // consumed arenas) and check the second offload costs exactly the
  // same on the restored pair as on the uninterrupted one.
  core::SocConfig cfg;

  core::HulkVSoc a(cfg);
  runtime::OffloadRuntime rt_a(&a);
  const auto handle = rt_a.register_kernel("stamp", stamp_kernel());
  const auto first = rt_a.offload(handle, std::array<u32, 1>{5});

  core::HulkVSoc b(cfg);
  runtime::OffloadRuntime rt_b(&b);
  {
    std::ostringstream os(std::ios::binary);
    rt_a.save(os);
    std::istringstream is(os.str(), std::ios::binary);
    rt_b.restore(is);
  }
  ASSERT_EQ(rt_a.state_digest(), rt_b.state_digest());

  // The restored runtime's kernel table came from the snapshot; the
  // handle is just an index and is valid on both sides.
  const auto second_a = rt_a.offload(handle, std::array<u32, 1>{6});
  const auto second_b = rt_b.offload(handle, std::array<u32, 1>{6});
  EXPECT_EQ(second_a.total, second_b.total);
  EXPECT_EQ(second_a.kernel, second_b.kernel);
  EXPECT_EQ(second_a.code_load, second_b.code_load);
  EXPECT_EQ(second_a.cluster_instret, second_b.cluster_instret);
  // Image already resident on both sides: no lazy code load.
  EXPECT_EQ(second_a.code_load, 0u);
  EXPECT_NE(first.code_load, 0u);
  EXPECT_EQ(rt_a.state_digest(), rt_b.state_digest());
}

TEST(SnapshotRoundTrip, BatchSocSnapshotMatchesStreamPath) {
  core::SocConfig cfg;
  core::HulkVSoc a(cfg);
  const std::array<u64, 1> args = {core::layout::kSharedBase};
  kernels::run_host_program(
      a, kernels::host_stride_reads(64, 128, 2).words, args);

  const batch::SocSnapshot snap = batch::SocSnapshot::capture(a);
  EXPECT_GT(snap.size_bytes(), 0u);
  core::HulkVSoc b(cfg);
  snap.restore_into(b);
  EXPECT_EQ(a.state_digest(), b.state_digest());
}

}  // namespace
