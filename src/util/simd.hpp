// Runtime-dispatched SIMD kernels for the packed reachability hot loops.
//
// The dense backward DP (temporal/reachability.hpp) spends almost all of its
// time in one data-parallel statement — `row[j] = min(row[j], wrow[j] + 1)`
// over a contiguous span of packed uint64 (arrival_rank << 32 | hops) cells —
// and the sparse backend's candidate generation is a 16-byte-record copy that
// adds 1 to the hops lane.  Both are pure unsigned integer operations, so a
// vector implementation is bit-identical to the scalar loop by construction:
// there is no floating point, no reassociation, no per-lane control flow.
//
// This header exposes those two operations behind one function-pointer table
// resolved once per process:
//
//   isa        packed u64 min            availability
//   ---------  ------------------------  -----------------------------------
//   scalar     plain loop                always (the only path on other ISAs)
//   avx2       vpcmpgtq sign-flip trick  x86-64 with AVX2 (no unsigned 64-bit
//              + vpblendvb               min below AVX-512, so compare in the
//                                        signed domain after XOR 1<<63)
//   avx512     vpminuq (512-bit)         x86-64 with AVX-512F (masked tail,
//                                        no scalar remainder loop at all)
//   neon       vcgtq_u64 + vbslq_u64     AArch64 (NEON is baseline there)
//
// Selection order: NATSCALE_SIMD environment variable if set
// (auto|scalar|avx2|avx512|neon), else the strongest ISA the CPU reports
// (CPUID via __builtin_cpu_supports on x86-64; NEON unconditionally on
// AArch64).  Requesting an unsupported ISA falls back to the strongest
// supported one with a one-time stderr warning — a forced-path CI leg on the
// wrong hardware degrades loudly instead of crashing.  The variable is the
// one user-facing override; set_simd_isa() is the programmatic one the tests
// and the bench suite use, and tests iterate supported_simd_isas() to pin
// every path that can run here.
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
    neon,    ///< AArch64 Advanced SIMD
};

/// Lower-case name used by NATSCALE_SIMD and the benches.
const char* to_string(SimdIsa isa);

/// Parses "scalar" / "avx2" / "avx512" / "neon"; returns false on anything
/// else ("auto" is not an ISA — resolve it with detect_simd_isa()).
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

    /// Copies `count` 16-byte records {u32 a, u32 b, u64 c} from src to dst,
    /// adding 1 to the `b` lane of every record (the sparse backend's
    /// hops-plus-one candidate generation).  dst and src must not overlap.
    void (*copy_bump_second_u32)(std::byte* dst, const std::byte* src,
                                 std::size_t count);

    /// Smallest j in [begin, width) with a[j] != b[j], or width when the
    /// ranges agree (the dense DP's trip-emission scan: most cells are
    /// unchanged after a relaxation, so the vector paths skip runs of equal
    /// cells a whole register at a time).  Precondition: begin <= width.
    std::size_t (*next_mismatch)(const std::uint64_t* a, const std::uint64_t* b,
                                 std::size_t begin, std::size_t width);
};

/// The table for the active ISA.  Resolved (environment override applied)
/// on first call; cheap afterwards.
const Ops& ops();

/// Scalar reference implementations, exposed so tests can compare any other
/// path against them directly.
extern const Ops kScalarOps;

}  // namespace simd

}  // namespace natscale
