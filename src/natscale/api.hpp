// The public API of libnatscale in one include.
//
// Everything a consumer of the occupancy method needs, batch or online:
//
//   SweepConfig            natscale/sweep_config.hpp  the one knob surface
//   find_saturation_scale  core/saturation.hpp        batch: gamma of a
//                                                     finished stream
//   occupancy_histogram    core/occupancy.hpp         batch: one period's
//                                                     occupancy distribution
//   elongation_curve,      core/validation.hpp        batch: aggregation-
//   lost_transitions_curve                            loss validation
//   StreamSession          natscale/session.hpp       online: ingest-and-
//                                                     query a growing stream
//   online_report_json,    natscale/report_schema.hpp the versioned JSON
//   curve_json, ...                                   report schema
//
// The CLI tools (examples/) and the natscaled daemon (service/) are thin
// layers over this surface; `find_time_scale watch` drives the
// OnlineSweepEngine under StreamSession directly, with its own checkpoint
// file.  There is no daemon-only or CLI-only analysis path, which is what
// keeps their answers bit-identical.
#pragma once

#include "core/delta_grid.hpp"
#include "core/export.hpp"
#include "core/occupancy.hpp"
#include "core/saturation.hpp"
#include "core/validation.hpp"
#include "natscale/report_schema.hpp"
#include "natscale/session.hpp"
#include "natscale/sweep_config.hpp"
