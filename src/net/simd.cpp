#include "net/simd.hpp"

#include <algorithm>
#include <atomic>
#include <limits>

// The AVX2 kernel is compiled whenever the build enables XSCALE_SIMD and
// the compiler targets x86 — selection still happens at runtime via
// __builtin_cpu_supports, so the same binary runs on hosts without AVX2.
#if defined(XSCALE_SIMD) && defined(__GNUC__) && \
    (defined(__x86_64__) || defined(__i386__))
#define XSCALE_SIMD_AVX2 1
#include <immintrin.h>
#endif

namespace xscale::net {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Scalar fill of [b, e), the tail of every kernel: writes the shares and
// returns their minimum.
inline double fill_range(const double* resid, const double* aw,
                         std::size_t b, std::size_t e, double* share) {
  double m = kInf;
  for (std::size_t i = b; i < e; ++i) {
    share[i] = share_of(resid[i], aw[i]);
    m = std::min(m, share[i]);
  }
  return m;
}

std::atomic<ScanKernel> g_override{ScanKernel::Auto};

}  // namespace

double share_fill_scalar(const double* resid, const double* aw,
                         std::size_t n, double* share, double* block_min) {
  double m = kInf;
  std::size_t i = 0;
  for (; i + kShareBlock <= n; i += kShareBlock) {
    // Four independent accumulator chains: breaks the loop-carried min
    // dependency so the divides pipeline, and mirrors the vector kernel's
    // lane structure (min is order-independent, so the split is free).
    double m0 = kInf, m1 = kInf, m2 = kInf, m3 = kInf;
    for (std::size_t j = i; j < i + kShareBlock; j += 4) {
      share[j] = share_of(resid[j], aw[j]);
      share[j + 1] = share_of(resid[j + 1], aw[j + 1]);
      share[j + 2] = share_of(resid[j + 2], aw[j + 2]);
      share[j + 3] = share_of(resid[j + 3], aw[j + 3]);
      m0 = std::min(m0, share[j]);
      m1 = std::min(m1, share[j + 1]);
      m2 = std::min(m2, share[j + 2]);
      m3 = std::min(m3, share[j + 3]);
    }
    const double bm = std::min(std::min(m0, m1), std::min(m2, m3));
    block_min[i / kShareBlock] = bm;
    m = std::min(m, bm);
  }
  if (i < n) {
    const double bm = fill_range(resid, aw, i, n, share);
    block_min[i / kShareBlock] = bm;
    m = std::min(m, bm);
  }
  return m;
}

#ifdef XSCALE_SIMD_AVX2
__attribute__((target("avx2"))) static double share_fill_avx2(
    const double* resid, const double* aw, std::size_t n, double* share,
    double* block_min) {
  static_assert(kShareBlock % 4 == 0);
  const __m256d vzero = _mm256_setzero_pd();
  const __m256d vinf = _mm256_set1_pd(kInf);
  double m = kInf;
  std::size_t i = 0;
  for (; i + kShareBlock <= n; i += kShareBlock) {
    __m256d vmin = vinf;
    for (std::size_t j = i; j < i + kShareBlock; j += 4) {
      // r = max(0, resid): vmaxpd returns the second operand on equal/NaN,
      // matching std::max(0.0, x) exactly (share_of).
      const __m256d r = _mm256_max_pd(_mm256_loadu_pd(resid + j), vzero);
      const __m256d a = _mm256_loadu_pd(aw + j);
      // live lane mask: aw > 0 (ordered compare — NaN lanes are not live).
      const __m256d live = _mm256_cmp_pd(a, vzero, _CMP_GT_OQ);
      // Unconditional IEEE divide; dead lanes may produce inf/NaN and are
      // blended to +inf before they are stored or reach the accumulator.
      const __m256d q = _mm256_blendv_pd(vinf, _mm256_div_pd(r, a), live);
      _mm256_storeu_pd(share + j, q);
      vmin = _mm256_min_pd(vmin, q);
    }
    alignas(32) double lane[4];
    _mm256_store_pd(lane, vmin);
    const double bm =
        std::min(std::min(lane[0], lane[1]), std::min(lane[2], lane[3]));
    block_min[i / kShareBlock] = bm;
    m = std::min(m, bm);
  }
  if (i < n) {
    const double bm = fill_range(resid, aw, i, n, share);
    block_min[i / kShareBlock] = bm;
    m = std::min(m, bm);
  }
  return m;
}
#endif

namespace {

ShareFillFn resolve_auto() {
#ifdef XSCALE_SIMD_AVX2
  if (__builtin_cpu_supports("avx2")) return &share_fill_avx2;
#endif
  return &share_fill_scalar;
}

}  // namespace

void set_scan_kernel(ScanKernel k) {
  g_override.store(k, std::memory_order_relaxed);
}

ScanKernel scan_kernel_override() {
  return g_override.load(std::memory_order_relaxed);
}

ShareFillFn share_fill() {
  if (g_override.load(std::memory_order_relaxed) == ScanKernel::ForceScalar)
    return &share_fill_scalar;
  static const ShareFillFn auto_fn = resolve_auto();
  return auto_fn;
}

bool min_share_scan_is_simd() {
  return share_fill() != &share_fill_scalar;
}

const char* min_share_scan_name() {
  return min_share_scan_is_simd() ? "avx2" : "scalar";
}

}  // namespace xscale::net
