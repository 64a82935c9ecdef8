// The versioned JSON report schema of the occupancy method (schema 1).
//
// Every machine-readable answer the repo emits about a (possibly growing)
// stream — `find_time_scale watch` JSONL lines, natscaled query replies,
// and the batch `--json` export — goes through the serializers here, so
// the field names, numeric formatting (17 significant digits: doubles
// round-trip bit-exactly) and the `"schema"` version marker are defined
// exactly once.  A consumer that can parse a watch line can parse a daemon
// reply unchanged, and bit-identity of two answers can be asserted by
// comparing the JSON text.
//
// --- Schema 1 field reference ----------------------------------------------
//
// Common envelope fields (every document):
//   schema                   int    schema version of this document (= 1)
//   stream                   string stream name (absent for single-stream
//                                   tools such as `watch`)
//   events                   uint   events covered by this answer
//   watermark_ticks          int    seal boundary: every event with
//                                   t < watermark is final; -1 once the
//                                   stream is closed/finished (infinite)
//   sealed_only              bool   true when the answer covers only the
//                                   sealed prefix (events below the
//                                   watermark); false = provisional tail
//                                   included
//   finished                 bool   true once the stream is complete (file
//                                   finished / stream closed): the answer
//                                   is final and equals the batch run
//   seq                      uint   monotonic per-producer line counter
//                                   (1, 2, 3, ...) so downstream consumers
//                                   can order / dedupe JSONL lines; only
//                                   emitted by line-oriented producers
//                                   (`watch`), absent elsewhere (additive
//                                   within schema 1)
//
// Saturation report (online_report_json):
//   gamma_ticks              int    saturation scale: argmax of `metric`
//                                   over the maintained Delta grid
//   metric                   string human-readable selection metric name
//   score_at_gamma           float  value of `metric` at gamma
//   mk_proximity_at_gamma    float  M-K proximity at gamma (the paper's
//                                   reference metric, always present)
//   num_trips_at_gamma       uint   minimal trips of G_gamma
//   occupancy_mean_at_gamma  float  mean occupancy rate at gamma
//   refresh_seconds          float  wall-clock cost of the refresh that
//                                   produced this answer
//
// Curve report (curve_json) adds:
//   gamma_ticks, metric             as above
//   points                   array  one object per grid period, fields
//                                   matching the batch `--json` curve:
//     delta                  int    aggregation period in ticks
//     mk_proximity           float  ... the five Section 7 metrics ...
//     std_deviation          float
//     shannon_entropy        float
//     cre                    float
//     variation_coefficient  float
//     num_trips              uint   minimal trips of G_delta
//     occupancy_mean         float  mean occupancy rate
//
// Histogram report (histogram_json) adds:
//   delta_ticks              int    period of the histogram
//   bins                     uint   bin count (resolution)
//   total                    uint   total samples (minimal trips)
//   mean                     float  exact mean occupancy
//   stddev                   float  exact population stddev
//   counts                   array  per-bin sample counts (uint, `bins` of
//                                   them, bin k covering [k/bins, (k+1)/bins))
//
// Compatibility contract: within schema 1, fields are never renamed or
// removed and new fields may be appended; a consumer must ignore fields it
// does not know.  Renames/removals bump the version.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "core/delta_sweep.hpp"
#include "obs/metrics.hpp"
#include "online/incremental_sweep.hpp"
#include "stats/histogram01.hpp"
#include "util/json.hpp"

namespace natscale {

inline constexpr std::int64_t kReportSchemaVersion = 1;

/// Envelope of one report: where the answer came from and what it covers.
struct ReportContext {
    /// Stream name; empty = omit the field (single-stream tools).
    std::string stream;

    /// Events covered by this answer.
    std::uint64_t events = 0;

    /// Seal boundary at answer time (kInfiniteTime encodes as -1).
    Time watermark = 0;

    /// True when the answer covers only the sealed prefix.
    bool sealed_only = false;

    /// True once the stream is complete (no more events will arrive).
    bool finished = false;

    /// Wall-clock seconds of the refresh that produced the answer.
    double refresh_seconds = 0.0;

    /// Monotonic line counter for JSONL producers; < 0 omits the field
    /// (single-document reports stay byte-identical to older emitters).
    std::int64_t seq = -1;
};

/// One saturation report line (the `watch` JSONL line / the daemon's
/// `saturation` query reply).  `metric` names the selection metric of the
/// engine that produced `report`.
std::string online_report_json(const OnlineReport& report, UniformityMetric metric,
                               const ReportContext& context);

/// The full Gamma(Delta) curve over the maintained grid (the daemon's
/// `curve` query reply).
std::string curve_json(const OnlineReport& report, UniformityMetric metric,
                       const ReportContext& context);

/// The occupancy histogram of one grid period (the daemon's `histogram`
/// query reply).
std::string histogram_json(const Histogram01& histogram, Time delta,
                           const ReportContext& context);

/// One merged view of the process-wide obs registry as a schema-1
/// document (`"report": "metrics_snapshot"`): counters and gauges as
/// name -> value objects, latency histograms as {count, sum_nanos,
/// buckets} with fixed power-of-two-ns bucket edges
/// (obs::LatencyHistogram::bucket_of).  Written by `--metrics-out`
/// sinks, the daemon heartbeat, and the `stats` protocol reply.
/// `seq` (>= 0) orders heartbeat lines; pass -1 for one-shot snapshots.
std::string metrics_snapshot_json(const obs::MetricsSnapshot& snapshot,
                                  std::int64_t seq = -1);

/// Emits the schema-1 fields of one evaluated period into an already-open
/// JSON object: the single definition shared by curve_json and the batch
/// `--json` export (core/export.cpp).
void write_delta_point_fields(JsonWriter& json, const DeltaPoint& point);

}  // namespace natscale
