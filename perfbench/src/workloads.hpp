// The two workload runners.  Each sets its input up several times (setup_s is
// the median), then repeats operations until the measurement window closes;
// the searches run one warm-up search before the window.  Untraced runs
// (tracer == nullptr) call the library exactly as a user would; traced runs
// time each layer from here.
#pragma once

#include "bench.hpp"
#include "inputs.hpp"

namespace perfbench {

/// search_uniform / search_sparse: one operation is one saturation search.
RunResult run_search(const RunOptions& options, const Workload& workload, Tracer* tracer);

/// daemon_enron: one operation is one stream's register -> 160 ingest+query
/// round trips -> close -> sealed final curve.
RunResult run_daemon(const RunOptions& options, const Workload& workload, Tracer* tracer);

}  // namespace perfbench
