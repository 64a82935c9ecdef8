#include "util/simd.hpp"

#include <cstdio>
#include <cstdlib>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define NATSCALE_SIMD_X86 1
#include <immintrin.h>
#endif

namespace natscale {

namespace {

// --- scalar reference ------------------------------------------------------

void packed_min_add1_scalar(std::uint64_t* row, const std::uint64_t* wrow,
                            std::size_t width) {
    for (std::size_t j = 0; j < width; ++j) {
        const std::uint64_t cand = wrow[j] + 1;
        row[j] = row[j] < cand ? row[j] : cand;
    }
}

/// Sets bit k of the two mask words for one (now, before) cell pair.
inline void mark_cell(std::uint64_t now, std::uint64_t before, std::size_t k,
                      std::uint64_t& improved, std::uint64_t& changed) {
    improved |= static_cast<std::uint64_t>((now >> 32) < (before >> 32)) << k;
    changed |= static_cast<std::uint64_t>(now != before) << k;
}

void diff_masks_scalar(const std::uint64_t* now, const std::uint64_t* before,
                       std::size_t width, std::uint64_t* improved, std::uint64_t* changed) {
    for (std::size_t base = 0; base < width; base += 64) {
        const std::size_t cells = width - base < 64 ? width - base : 64;
        std::uint64_t imp = 0;
        std::uint64_t chg = 0;
        for (std::size_t k = 0; k < cells; ++k) {
            mark_cell(now[base + k], before[base + k], k, imp, chg);
        }
        improved[base / 64] = imp;
        changed[base / 64] = chg;
    }
}

#if NATSCALE_SIMD_X86

// --- AVX2 ------------------------------------------------------------------
//
// There is no unsigned 64-bit min below AVX-512, so compare in the signed
// domain after flipping the sign bit of both operands (x ^ (1 << 63) is an
// order-preserving bijection from unsigned to signed order), then select
// with vpblendvb.  The +1 of the candidate never wraps: packed states are
// bounded by the unreachable sentinel 0xFFFFFFFF00000000 (reachability.hpp).

__attribute__((target("avx2"))) void packed_min_add1_avx2(std::uint64_t* row,
                                                          const std::uint64_t* wrow,
                                                          std::size_t width) {
    const __m256i one = _mm256_set1_epi64x(1);
    const __m256i flip = _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ULL));
    std::size_t j = 0;
    for (; j + 4 <= width; j += 4) {
        const __m256i r =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + j));
        const __m256i cand = _mm256_add_epi64(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(wrow + j)), one);
        const __m256i row_greater = _mm256_cmpgt_epi64(_mm256_xor_si256(r, flip),
                                                       _mm256_xor_si256(cand, flip));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(row + j),
                            _mm256_blendv_epi8(r, cand, row_greater));
    }
    for (; j < width; ++j) {
        const std::uint64_t cand = wrow[j] + 1;
        row[j] = row[j] < cand ? row[j] : cand;
    }
}

// A shifted rank fits in 32 bits, so the signed vpcmpgtq orders it without
// the sign flip the relaxation needs.  Four cells per register, sixteen
// registers per bitmap word; a tail of fewer than four cells runs the
// scalar loop.
__attribute__((target("avx2"))) void diff_masks_avx2(const std::uint64_t* now,
                                                     const std::uint64_t* before,
                                                     std::size_t width,
                                                     std::uint64_t* improved,
                                                     std::uint64_t* changed) {
    for (std::size_t base = 0; base < width; base += 64) {
        const std::size_t cells = width - base < 64 ? width - base : 64;
        std::uint64_t imp = 0;
        std::uint64_t chg = 0;
        std::size_t k = 0;
        for (; k + 4 <= cells; k += 4) {
            const __m256i a =
                _mm256_loadu_si256(reinterpret_cast<const __m256i*>(now + base + k));
            const __m256i b =
                _mm256_loadu_si256(reinterpret_cast<const __m256i*>(before + base + k));
            const __m256i dropped =
                _mm256_cmpgt_epi64(_mm256_srli_epi64(b, 32), _mm256_srli_epi64(a, 32));
            const __m256i equal = _mm256_cmpeq_epi64(a, b);
            imp |= static_cast<std::uint64_t>(
                       _mm256_movemask_pd(_mm256_castsi256_pd(dropped)))
                   << k;
            chg |= static_cast<std::uint64_t>(
                       ~_mm256_movemask_pd(_mm256_castsi256_pd(equal)) & 0xF)
                   << k;
        }
        for (; k < cells; ++k) mark_cell(now[base + k], before[base + k], k, imp, chg);
        improved[base / 64] = imp;
        changed[base / 64] = chg;
    }
}

// --- AVX-512 ---------------------------------------------------------------
//
// Native vpminuq, and masked loads/stores absorb the remainder — no scalar
// tail at any width (SimdKernels.*AtEveryWidth pin the masked path from
// width 0 up).

// GCC 12's avx512fintrin.h trips -Wmaybe-uninitialized on the zero source of
// masked loads (GCC PR 105593); the value is fully defined.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

__attribute__((target("avx512f"))) void packed_min_add1_avx512(std::uint64_t* row,
                                                               const std::uint64_t* wrow,
                                                               std::size_t width) {
    const __m512i one = _mm512_set1_epi64(1);
    std::size_t j = 0;
    for (; j + 8 <= width; j += 8) {
        const __m512i r = _mm512_loadu_si512(row + j);
        const __m512i cand = _mm512_add_epi64(_mm512_loadu_si512(wrow + j), one);
        _mm512_storeu_si512(row + j, _mm512_min_epu64(r, cand));
    }
    const std::size_t rem = width - j;
    if (rem != 0) {
        const __mmask8 m = static_cast<__mmask8>((1u << rem) - 1);
        const __m512i r = _mm512_mask_loadu_epi64(_mm512_setzero_si512(), m, row + j);
        const __m512i cand = _mm512_add_epi64(_mm512_mask_loadu_epi64(_mm512_setzero_si512(), m, wrow + j), one);
        _mm512_mask_storeu_epi64(row + j, m, _mm512_min_epu64(r, cand));
    }
}

// Eight cells per register, eight registers per bitmap word; the last
// register of a row is a masked load and a masked compare, so no bit past
// width can be set.
__attribute__((target("avx512f"))) void diff_masks_avx512(const std::uint64_t* now,
                                                          const std::uint64_t* before,
                                                          std::size_t width,
                                                          std::uint64_t* improved,
                                                          std::uint64_t* changed) {
    for (std::size_t base = 0; base < width; base += 64) {
        const std::size_t cells = width - base < 64 ? width - base : 64;
        std::uint64_t imp = 0;
        std::uint64_t chg = 0;
        std::size_t k = 0;
        for (; k + 8 <= cells; k += 8) {
            const __m512i a = _mm512_loadu_si512(now + base + k);
            const __m512i b = _mm512_loadu_si512(before + base + k);
            imp |= static_cast<std::uint64_t>(_mm512_cmplt_epu64_mask(
                       _mm512_srli_epi64(a, 32), _mm512_srli_epi64(b, 32)))
                   << k;
            chg |= static_cast<std::uint64_t>(_mm512_cmpneq_epu64_mask(a, b)) << k;
        }
        if (k < cells) {
            const __mmask8 m = static_cast<__mmask8>((1u << (cells - k)) - 1);
            const __m512i a =
                _mm512_mask_loadu_epi64(_mm512_setzero_si512(), m, now + base + k);
            const __m512i b =
                _mm512_mask_loadu_epi64(_mm512_setzero_si512(), m, before + base + k);
            imp |= static_cast<std::uint64_t>(_mm512_mask_cmplt_epu64_mask(
                       m, _mm512_srli_epi64(a, 32), _mm512_srli_epi64(b, 32)))
                   << k;
            chg |= static_cast<std::uint64_t>(_mm512_mask_cmpneq_epu64_mask(m, a, b)) << k;
        }
        improved[base / 64] = imp;
        changed[base / 64] = chg;
    }
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // NATSCALE_SIMD_X86

simd::Ops ops_for(SimdIsa isa) {
    switch (isa) {
#if NATSCALE_SIMD_X86
        case SimdIsa::avx2:
            return {&packed_min_add1_avx2, &diff_masks_avx2};
        case SimdIsa::avx512:
            return {&packed_min_add1_avx512, &diff_masks_avx512};
#endif
        default:
            return simd::kScalarOps;
    }
}

struct Dispatch {
    SimdIsa isa = SimdIsa::scalar;
    simd::Ops ops = simd::kScalarOps;
};

/// Resolved once per process (environment override applied on first use),
/// then only mutated through set_simd_isa().
Dispatch& dispatch() {
    static Dispatch d = [] {
        SimdIsa isa = detect_simd_isa();
        if (const char* env = std::getenv("NATSCALE_SIMD")) {
            const std::string text(env);
            SimdIsa requested = SimdIsa::scalar;
            if (text.empty() || text == "auto") {
                // keep the detected ISA
            } else if (!parse_simd_isa(text, requested)) {
                std::fprintf(stderr,
                             "natscale: NATSCALE_SIMD='%s' not recognized "
                             "(auto|scalar|avx2|avx512); using %s\n",
                             env, to_string(isa));
            } else if (!simd_isa_supported(requested)) {
                std::fprintf(stderr,
                             "natscale: NATSCALE_SIMD=%s is not supported on this "
                             "CPU; using %s\n",
                             to_string(requested), to_string(isa));
            } else {
                isa = requested;
            }
        }
        return Dispatch{isa, ops_for(isa)};
    }();
    return d;
}

}  // namespace

const char* to_string(SimdIsa isa) {
    switch (isa) {
        case SimdIsa::scalar: return "scalar";
        case SimdIsa::avx2: return "avx2";
        case SimdIsa::avx512: return "avx512";
    }
    return "scalar";
}

bool parse_simd_isa(const std::string& text, SimdIsa& out) {
    if (text == "scalar") out = SimdIsa::scalar;
    else if (text == "avx2") out = SimdIsa::avx2;
    else if (text == "avx512") out = SimdIsa::avx512;
    else return false;
    return true;
}

bool simd_isa_supported(SimdIsa isa) {
    switch (isa) {
        case SimdIsa::scalar:
            return true;
#if NATSCALE_SIMD_X86
        case SimdIsa::avx2:
            return __builtin_cpu_supports("avx2") != 0;
        case SimdIsa::avx512:
            return __builtin_cpu_supports("avx512f") != 0;
#endif
        default:
            return false;
    }
}

SimdIsa detect_simd_isa() {
#if NATSCALE_SIMD_X86
    if (__builtin_cpu_supports("avx512f")) return SimdIsa::avx512;
    if (__builtin_cpu_supports("avx2")) return SimdIsa::avx2;
    return SimdIsa::scalar;
#else
    return SimdIsa::scalar;
#endif
}

std::vector<SimdIsa> supported_simd_isas() {
    std::vector<SimdIsa> isas;
    for (const SimdIsa isa : {SimdIsa::scalar, SimdIsa::avx2, SimdIsa::avx512}) {
        if (simd_isa_supported(isa)) isas.push_back(isa);
    }
    return isas;
}

SimdIsa active_simd_isa() { return dispatch().isa; }

bool set_simd_isa(SimdIsa isa) {
    if (!simd_isa_supported(isa)) return false;
    dispatch() = Dispatch{isa, ops_for(isa)};
    return true;
}

namespace simd {

const Ops kScalarOps = {&packed_min_add1_scalar, &diff_masks_scalar};

const Ops& ops() { return dispatch().ops; }

}  // namespace simd

}  // namespace natscale
