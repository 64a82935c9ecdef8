// Runtime-dispatched SIMD kernels for the packed reachability hot loops.
//
// The dense backward DP (temporal/reachability.hpp) spends almost all of its
// time in two data-parallel steps over a contiguous span of packed uint64
// (arrival_rank << 32 | hops) cells: the relaxation
// `row[j] = min(row[j], wrow[j] + 1)`, and the comparison of each relaxed
// row with its pre-instant copy that finds the cells the relaxation improved
// (each one a minimal trip).  Both are pure unsigned integer operations, so
// a vector implementation is bit-identical to the scalar loop by
// construction: there is no floating point, no reassociation, no per-lane
// control flow.  The sparse backend dispatches nothing: on its workload the
// ISAs measured within the runs' spread (docs/simd.md, "Benchmarks").
//
// This header exposes those two operations behind one function-pointer
// table resolved once per process:
//
//   isa        packed u64 min            availability
//   ---------  ------------------------  -----------------------------------
//   scalar     plain loop                always (the only path on other ISAs)
//   avx2       vpcmpgtq sign-flip trick  x86-64 with AVX2 (no unsigned 64-bit
//              + vpblendvb               min below AVX-512, so compare in the
//                                        signed domain after XOR 1<<63)
//   avx512     vpminuq (512-bit)         x86-64 with AVX-512F (masked tail,
//                                        no scalar remainder loop at all)
//
// The mask op compares arrival ranks after a 32-bit right shift.  A shifted
// rank fits in 32 bits, so AVX2's signed vpcmpgtq needs no sign flip there;
// AVX-512 compares straight into mask registers.
//
// Selection order: NATSCALE_SIMD environment variable if set
// (auto|scalar|avx2|avx512), else the strongest ISA the CPU reports (CPUID
// via __builtin_cpu_supports on x86-64; scalar elsewhere).  Requesting an
// unsupported or unknown ISA falls back to the strongest supported one with
// a one-time stderr warning — a forced-path CI leg on the wrong hardware
// degrades loudly instead of crashing.  The variable is the one user-facing
// override; set_simd_isa() is the programmatic one the tests and the bench
// suite use, and tests iterate supported_simd_isas() to pin every path that
// can run here.
//
// Every implementation of every op produces byte-identical output, so the
// differential suites (tests/test_simd.cpp, scalar-vs-ISA over the whole
// generator corpus) can require bitwise equality, not approximation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace natscale {

enum class SimdIsa {
    scalar,  ///< portable fallback, always available
    avx2,    ///< x86-64 AVX2 (unsigned min emulated via signed compare)
    avx512,  ///< x86-64 AVX-512F (native vpminuq + masked tails)
};

/// Lower-case name used by NATSCALE_SIMD and the benches.
const char* to_string(SimdIsa isa);

/// Parses "scalar" / "avx2" / "avx512"; returns false on anything else
/// ("auto" is not an ISA — resolve it with detect_simd_isa()).
bool parse_simd_isa(const std::string& text, SimdIsa& out);

/// True when this machine can execute `isa` (scalar always can).
bool simd_isa_supported(SimdIsa isa);

/// Strongest ISA the CPU supports, ignoring every override.
SimdIsa detect_simd_isa();

/// Every ISA simd_isa_supported() accepts here, scalar first — the loop the
/// differential tests and the bench suite iterate.
std::vector<SimdIsa> supported_simd_isas();

/// ISA the kernels below currently dispatch to, after the NATSCALE_SIMD
/// environment override and any set_simd_isa() call.
SimdIsa active_simd_isa();

/// Forces the dispatch to `isa`.  Returns false (and changes nothing) when
/// the machine cannot execute it.  Not thread-safe against concurrent scans:
/// callers (CLI startup, the bench harness, tests) switch between scans.
bool set_simd_isa(SimdIsa isa);

namespace simd {

/// The two hot operations, one pointer each.  All implementations are
/// bit-exact; the table only changes which instructions compute the result.
struct Ops {
    /// row[j] = min(row[j], wrow[j] + 1) over width unsigned 64-bit cells
    /// (the dense DP relaxation; +1 never wraps — see reachability.hpp, the
    /// unreachable sentinel has zero low bits).  row and wrow must not alias.
    void (*packed_min_add1)(std::uint64_t* row, const std::uint64_t* wrow,
                            std::size_t width);

    /// Compares a relaxed row with its pre-instant copy, one bit per cell:
    /// bit j % 64 of word j / 64 of `improved` is set when
    /// (now[j] >> 32) < (before[j] >> 32) — the arrival rank strictly
    /// dropped, so the dense DP emits a minimal trip for cell j — and of
    /// `changed` when now[j] != before[j] (the distance accumulator also
    /// records changes in hops alone).  Writes exactly ceil(width / 64)
    /// words of each bitmap; bits at or past width are 0.
    void (*diff_masks)(const std::uint64_t* now, const std::uint64_t* before,
                       std::size_t width, std::uint64_t* improved,
                       std::uint64_t* changed);
};

/// The table for the active ISA.  Resolved (environment override applied)
/// on first call; cheap afterwards.
const Ops& ops();

/// Scalar reference implementations, exposed so tests can compare any other
/// path against them directly.
extern const Ops kScalarOps;

}  // namespace simd

}  // namespace natscale
