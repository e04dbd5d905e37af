// Branch-free share-fill kernels over the dense link-state SoA (DESIGN.md
// §9). The water-filling core caches, per dense position, the link's share
//
//     share = active_w > 0 ? max(0, residual) / active_w : +inf
//
// and the minimum of each fixed-width block of positions. Filling that cache
// for every position is the one full sweep a solve still makes (the first
// level; after it only touched positions are recomputed). This header
// exposes the sweep as a kernel with two implementations that are bitwise
// interchangeable:
//
//   - a portable scalar kernel (4 independent accumulators, always
//     compiled), and
//   - an AVX2 kernel compiled behind the XSCALE_SIMD build option and
//     selected at runtime via CPU dispatch.
//
// Bit-identity argument (the contract every caller relies on): both kernels
// evaluate the identical per-element expression — IEEE max, IEEE divide
// (never a reciprocal-multiply: 1/x then * is not correctly rounded and
// would change bits), +inf for non-live lanes — and `min` over doubles is
// exact and order-independent, so any lane width, unroll factor, chunking,
// or horizontal-reduce order returns the same bits as a naive serial loop.
// The differential suite pins scalar == AVX2 == reference on every topology
// family and thread count.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>

namespace xscale::net {

// Positions per cached block minimum.
inline constexpr std::size_t kShareBlock = 16;

// The canonical per-element expression; every kernel matches it bit for
// bit. std::max(0.0, x) returns +0.0 for x <= 0 (and for NaN, matching
// vmaxpd's second-operand rule), and the divide is one correctly rounded
// IEEE operation.
inline double share_of(double resid, double aw) {
  return aw > 0.0 ? std::max(0.0, resid) / aw
                  : std::numeric_limits<double>::infinity();
}

// For i in [0, n): share[i] = share_of(resid[i], aw[i]); for each block b
// of kShareBlock positions (the last one may be short): block_min[b] = the
// minimum share in it. Returns the minimum share overall, +inf when n == 0.
using ShareFillFn = double (*)(const double* resid, const double* aw,
                               std::size_t n, double* share,
                               double* block_min);

// Portable kernel; always compiled, the differential baseline.
double share_fill_scalar(const double* resid, const double* aw,
                         std::size_t n, double* share, double* block_min);

// Kernel selection override. Auto resolves to the best kernel the build and
// the host CPU support; ForceScalar pins the portable kernel so tests can
// run the same workload through both and compare bits. Set it only while no
// solve is in flight (same contract as sim::set_thread_count).
enum class ScanKernel { Auto, ForceScalar };
void set_scan_kernel(ScanKernel k);
ScanKernel scan_kernel_override();

// The kernel a solve started right now would use, after the override and
// runtime CPU dispatch. Callers resolve once per solve.
ShareFillFn share_fill();

// "avx2" or "scalar" — what share_fill() currently resolves to.
const char* min_share_scan_name();
// True iff the resolved kernel is a vector kernel (build has XSCALE_SIMD
// and the host supports it and no scalar override is active).
bool min_share_scan_is_simd();

}  // namespace xscale::net
