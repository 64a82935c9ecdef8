#include "core/export.hpp"

#include "natscale/report_schema.hpp"
#include "util/json.hpp"

namespace natscale {

std::string saturation_result_to_json(const SaturationResult& result) {
    JsonWriter json;
    json.begin_object();
    json.field("schema", kReportSchemaVersion);
    json.field("gamma_ticks", static_cast<std::int64_t>(result.gamma));
    json.field("metric", metric_name(result.metric));
    json.field("num_trips_at_gamma", static_cast<std::uint64_t>(result.at_gamma.num_trips));
    json.field("mk_proximity_at_gamma", result.at_gamma.scores.mk_proximity);
    json.begin_array("curve");
    for (const auto& point : result.curve) {
        json.begin_object();
        write_delta_point_fields(json, point);
        json.end_object();
    }
    json.end_array();
    json.begin_array("icd_at_gamma");
    for (const auto& [x, y] : result.gamma_histogram.icd_points()) {
        json.begin_object();
        json.field("occupancy", x);
        json.field("icd", y);
        json.end_object();
    }
    json.end_array();
    json.end_object();
    return json.str();
}

std::string segmented_saturation_to_json(const SegmentedSaturation& result) {
    JsonWriter json;
    json.begin_object();
    json.field("schema", kReportSchemaVersion);
    json.field("split", result.split);
    json.field("gamma_high_ticks", static_cast<std::int64_t>(result.gamma_high));
    json.field("gamma_low_ticks", static_cast<std::int64_t>(result.gamma_low));
    json.field("recommended_ticks", static_cast<std::int64_t>(result.recommended));
    json.begin_array("segments");
    for (const auto& seg : result.segments) {
        json.begin_object();
        json.field("begin", static_cast<std::int64_t>(seg.begin));
        json.field("end", static_cast<std::int64_t>(seg.end));
        json.field("high_activity", seg.high_activity);
        json.field("events_per_tick", seg.events_per_tick);
        json.end_object();
    }
    json.end_array();
    json.end_object();
    return json.str();
}

}  // namespace natscale
