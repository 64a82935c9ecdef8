// The workload table, input generation, and the known answers every run is
// checked against.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/saturation.hpp"
#include "linkstream/link_stream.hpp"

namespace perfbench {

enum class WorkloadKind {
    search_in_memory,  // generated stream held in RAM: pair-index aggregation
    search_natbin,     // written to natbin and reopened: mmap + chunked aggregation
    daemon,            // in-process natscaled server + one closed-loop client
};

struct Workload {
    const char* name;
    WorkloadKind kind;
    const char* full_spec;  // gen spec text, without seed
    const char* tiny_spec;
    /// A ground-truth invariant the generator's own stream is known to
    /// violate at every seed (nullptr = none); any other violation fails.
    const char* known_violation;
};

/// nullptr for an unknown name.
const Workload* find_workload(const std::string& name);

std::string spec_of(const Workload& workload, Size size);

/// Generates the spec at `gen_seed`, runs the generator's ground-truth
/// verify() (throws std::runtime_error on any violation other than the
/// workload's known one), then relabels the
/// nodes with a permutation drawn from `relabel_seed`.  Relabelling leaves
/// the multiset of minimal-trip (hops, duration) pairs unchanged, so every
/// run seed has the same known answer while the program sees different
/// inputs.  `generate_s` receives the time spent in gen::generate_stream.
natscale::LinkStream make_input(const Workload& workload, Size size, std::uint64_t gen_seed,
                                std::uint64_t relabel_seed, double* generate_s = nullptr);

/// Hash of every field of every curve point (delta, the five scores' bits,
/// trip count, mean's bits), in curve order.
std::uint64_t curve_hash(const std::vector<natscale::DeltaPoint>& curve);

/// The answer recorded for (workload, size, gen seed).
struct KnownAnswer {
    natscale::Time gamma = 0;
    std::uint64_t trips_at_gamma = 0;
    std::uint64_t curve_hash = 0;
};

/// Throws std::runtime_error when no answer is recorded for the triple.
/// With `corrupt`, returns a deliberately wrong answer (self-test).
KnownAnswer known_answer(const Workload& workload, Size size, std::uint64_t gen_seed,
                         bool corrupt);

/// The cold batch search the daemon's sealed final answer must equal: the
/// default SweepConfig with refine_rounds = 0 (coarse 48-point grid only).
natscale::SaturationResult daemon_reference(const natscale::LinkStream& stream);

/// The answer `natbench --record` prints for (workload, size, gen seed): the
/// search itself, or for the daemon its cold batch reference.
KnownAnswer record_answer(const RunOptions& options, const Workload& workload);

/// Mismatch descriptions between `result` and `expected` (empty = match).
std::vector<std::string> check_answer(const natscale::SaturationResult& result,
                                      const KnownAnswer& expected);

}  // namespace perfbench
