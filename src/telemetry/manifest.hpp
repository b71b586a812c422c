// Cross-run manifests (hulkv::telemetry, DESIGN.md §14).
//
// A run manifest is one JSON line capturing everything needed to
// compare a bench run against past and future runs of the same bench:
// what ran (config fingerprints and guest-program digests from the
// snapshot kMeta/kHash machinery), where it ran (host context), what
// came out (the report's headline metrics verbatim — same digits as
// the --json file) and how the simulator itself behaved (per-phase
// latency summaries, per-sweep throughput). Appending one line per run
// to `runs/<bench>.jsonl` accumulates a machine-readable history that
// tools/hulkv-stats lists, aggregates and schema-checks.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace hulkv::report {
class MetricsReport;
}  // namespace hulkv::report

namespace hulkv::telemetry {

/// Manifest schema version (the "schema_version" field; hulkv-stats
/// check validates against scripts/manifest_schema.json).
/// v2: added "tier" (execution tier the run used, DESIGN.md §15).
/// v3: added "kind" ("bench" = one bench run, "serve" = a serve-daemon
///     lifetime, DESIGN.md §16), so fleet tooling can aggregate server
///     manifests with the same list/agg/diff machinery.
/// v4: added the optional "serve_requests" section (per-request
///     aggregates from the DESIGN.md §17 observability plane:
///     admission-outcome counts + per-stage latency summaries).
///     kind="serve" manifests must carry it; "bench" manifests omit it.
/// v5: dropped "tier": both ISSs have one execution path (DESIGN.md
///     §15).
inline constexpr u32 kManifestSchemaVersion = 5;

/// Manifest kinds ("kind" field values).
inline constexpr const char* kManifestKindBench = "bench";
inline constexpr const char* kManifestKindServe = "serve";

struct Manifest {
  u32 schema_version = kManifestSchemaVersion;
  std::string kind = kManifestKindBench;
  std::string bench;       // MetricsReport name (daemon: "hulkv_serve")
  u64 timestamp_ns = 0;    // wall-clock ns since epoch (registry anchor)
  std::string hostname;
  u32 pid = 0;
  u32 hw_concurrency = 0;

  std::vector<u64> config_fingerprints;
  std::vector<std::pair<std::string, u64>> program_digests;

  /// Headline metric, value serialized exactly as the report's JSON
  /// rendering (so text/JSON/manifest can never disagree on digits).
  struct Metric {
    std::string key;
    std::string value_json;
    std::string unit;
  };
  std::vector<Metric> metrics;

  /// Wall-clock latency summary of one instrumented simulator phase.
  struct PhaseSummary {
    std::string phase;
    HistogramData latency;  // nanoseconds
  };
  std::vector<PhaseSummary> phases;

  std::vector<SweepSummary> sweeps;

  /// Per-request aggregates of a serve-daemon lifetime (v4). Rendered
  /// only when `present`; outcome/stage orders are the serve enums'.
  struct ServeRequests {
    bool present = false;
    std::vector<std::pair<std::string, u64>> outcomes;  // name -> count
    std::vector<PhaseSummary> stages;  // request pipeline stages, ns
  };
  ServeRequests serve_requests;

  /// Serialize as a single JSON line (no trailing newline).
  std::string to_json_line() const;
};

/// Assemble a manifest from a finished report plus the registry's
/// collected state (phases with zero samples are omitted).
Manifest build_manifest(const report::MetricsReport& rep,
                        const Registry& reg);

/// Append `manifest` as one line to `<dir>/<bench>.jsonl`, creating
/// `dir` if needed. Returns the file path. Throws SimError on I/O
/// failure.
std::string append_manifest(const std::string& dir, const Manifest& manifest);

}  // namespace hulkv::telemetry
