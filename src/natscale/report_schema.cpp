#include "natscale/report_schema.hpp"

#include "stats/uniformity.hpp"
#include "util/types.hpp"

namespace natscale {

namespace {

/// Opens the document and writes the envelope shared by every report kind.
void begin_report(JsonWriter& json, const ReportContext& context) {
    json.begin_object();
    json.field("schema", kReportSchemaVersion);
    if (!context.stream.empty()) json.field("stream", context.stream);
    json.field("events", context.events);
    json.field("watermark_ticks", context.watermark == kInfiniteTime
                                      ? std::int64_t{-1}
                                      : static_cast<std::int64_t>(context.watermark));
    json.field("sealed_only", context.sealed_only);
    json.field("finished", context.finished);
    if (context.seq >= 0) json.field("seq", context.seq);
}

void write_gamma_fields(JsonWriter& json, const OnlineReport& report,
                        UniformityMetric metric) {
    json.field("gamma_ticks", static_cast<std::int64_t>(report.gamma));
    json.field("metric", metric_name(metric));
    json.field("score_at_gamma", score_of(report.at_gamma.scores, metric));
    json.field("mk_proximity_at_gamma", report.at_gamma.scores.mk_proximity);
    json.field("num_trips_at_gamma", report.at_gamma.num_trips);
    json.field("occupancy_mean_at_gamma", report.at_gamma.occupancy_mean);
}

}  // namespace

void write_delta_point_fields(JsonWriter& json, const DeltaPoint& point) {
    json.field("delta", static_cast<std::int64_t>(point.delta));
    json.field("mk_proximity", point.scores.mk_proximity);
    json.field("std_deviation", point.scores.std_deviation);
    json.field("shannon_entropy", point.scores.shannon_entropy);
    json.field("cre", point.scores.cre);
    json.field("variation_coefficient", point.scores.variation_coefficient);
    json.field("num_trips", point.num_trips);
    json.field("occupancy_mean", point.occupancy_mean);
}

std::string online_report_json(const OnlineReport& report, UniformityMetric metric,
                               const ReportContext& context) {
    JsonWriter json;
    begin_report(json, context);
    write_gamma_fields(json, report, metric);
    json.field("refresh_seconds", context.refresh_seconds);
    json.end_object();
    return json.str();
}

std::string curve_json(const OnlineReport& report, UniformityMetric metric,
                       const ReportContext& context) {
    JsonWriter json;
    begin_report(json, context);
    write_gamma_fields(json, report, metric);
    json.begin_array("points");
    for (const DeltaPoint& point : report.points) {
        json.begin_object();
        write_delta_point_fields(json, point);
        json.end_object();
    }
    json.end_array();
    json.end_object();
    return json.str();
}

std::string histogram_json(const Histogram01& histogram, Time delta,
                           const ReportContext& context) {
    JsonWriter json;
    begin_report(json, context);
    json.field("delta_ticks", static_cast<std::int64_t>(delta));
    json.field("bins", static_cast<std::uint64_t>(histogram.num_bins()));
    json.field("total", histogram.total());
    json.field("mean", histogram.mean());
    json.field("stddev", histogram.population_stddev());
    json.begin_array("counts");
    for (const std::uint64_t count : histogram.counts()) {
        json.value(static_cast<std::int64_t>(count));
    }
    json.end_array();
    json.end_object();
    return json.str();
}

std::string metrics_snapshot_json(const obs::MetricsSnapshot& snapshot,
                                  std::int64_t seq) {
    JsonWriter json;
    json.begin_object();
    json.field("schema", kReportSchemaVersion);
    json.field("report", "metrics_snapshot");
    if (seq >= 0) json.field("seq", seq);
    json.begin_object("counters");
    for (const auto& counter : snapshot.counters) {
        json.field(counter.name, counter.value);
    }
    json.end_object();
    json.begin_object("gauges");
    for (const auto& gauge : snapshot.gauges) {
        json.field(gauge.name, gauge.value);
    }
    json.end_object();
    json.begin_object("histograms");
    for (const auto& histogram : snapshot.histograms) {
        json.begin_object(histogram.name);
        json.field("count", histogram.count);
        json.field("sum_nanos", histogram.sum_nanos);
        json.begin_array("buckets");
        // Trailing always-zero buckets are trimmed; bucket k's edge is
        // still fixed (bucket_of), so consumers index from zero.
        std::size_t last = histogram.buckets.size();
        while (last > 0 && histogram.buckets[last - 1] == 0) --last;
        for (std::size_t b = 0; b < last; ++b) {
            json.value(static_cast<std::int64_t>(histogram.buckets[b]));
        }
        json.end_array();
        json.end_object();
    }
    json.end_object();
    json.end_object();
    return json.str();
}

}  // namespace natscale
