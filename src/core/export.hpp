// JSON export of occupancy-method results, so that the saturation scale and
// its supporting curves can be consumed by plotting or monitoring pipelines
// without parsing console tables.
#pragma once

#include <string>

#include "core/saturation.hpp"
#include "core/segmentation.hpp"

namespace natscale {

/// {"gamma": ..., "metric": "...", "curve": [{"delta": ..., ...}, ...],
///  "icd_at_gamma": [[x, y], ...]}
std::string saturation_result_to_json(const SaturationResult& result);

/// {"split": ..., "gamma_high": ..., "segments": [...]}
std::string segmented_saturation_to_json(const SegmentedSaturation& result);

}  // namespace natscale
