// SIMD min-share scan kernel tests (ISSUE 10): the AVX2 kernel must be
// bitwise interchangeable with the portable scalar kernel on every input —
// including the adversarial ones a fabric actually produces (massive exact
// ties from symmetric traffic, near-ties one ULP apart, zero and negative
// residuals from in-place subtraction drift, weight-0 lanes) — and the
// solver built on top must produce identical rates AND an identical
// fired-link trajectory under either kernel.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdio>
#include <limits>
#include <vector>

#include "net/simd.hpp"
#include "net/solver.hpp"
#include "sim/rng.hpp"

namespace {

using namespace xscale;

constexpr double kInf = std::numeric_limits<double>::infinity();

// The canonical per-element expression, evaluated by the most naive loop
// possible — the specification both kernels must match bit for bit.
double naive_scan(const std::vector<double>& resid,
                  const std::vector<double>& aw, std::size_t b,
                  std::size_t e) {
  double m = kInf;
  for (std::size_t i = b; i < e; ++i)
    if (aw[i] > 0.0) m = std::min(m, std::max(0.0, resid[i]) / aw[i]);
  return m;
}

// Pin the dispatched kernel (whatever it is on this host/build) and the
// scalar kernel against the naive loop on one input, over every sub-range
// offset so each possible vector-tail length is hit.
void expect_kernels_match(const std::vector<double>& resid,
                          const std::vector<double>& aw) {
  set_scan_kernel(net::ScanKernel::Auto);
  const net::MinShareScanFn dispatched = net::min_share_scan();
  const std::size_t n = resid.size();
  for (std::size_t b = 0; b <= std::min<std::size_t>(n, 9); ++b) {
    const double want = naive_scan(resid, aw, b, n);
    const double scalar = net::min_share_scan_scalar(resid.data(), aw.data(), b, n);
    const double simd = dispatched(resid.data(), aw.data(), b, n);
    // EXPECT_EQ on doubles is bitwise here: the expression never produces
    // NaN, and +inf/-0.0/denormals all compare by value == bits for this
    // kernel's output domain.
    EXPECT_EQ(want, scalar) << "scalar kernel, offset " << b;
    EXPECT_EQ(want, simd) << net::min_share_scan_name() << " kernel, offset "
                          << b;
  }
}

TEST(SimdScan, DispatchSmoke) {
  set_scan_kernel(net::ScanKernel::Auto);
  ASSERT_NE(net::min_share_scan(), nullptr);
  // Log which kernel this host actually runs, so a CI transcript shows
  // whether the AVX2 path was exercised or the scalar fallback.
  std::printf("min_share_scan dispatch: %s\n", net::min_share_scan_name());
  if (net::min_share_scan_is_simd()) {
    EXPECT_STREQ(net::min_share_scan_name(), "avx2");
  } else {
    EXPECT_STREQ(net::min_share_scan_name(), "scalar");
    EXPECT_EQ(net::min_share_scan(), &net::min_share_scan_scalar);
  }
  // ForceScalar always lands on the portable kernel.
  set_scan_kernel(net::ScanKernel::ForceScalar);
  EXPECT_STREQ(net::min_share_scan_name(), "scalar");
  EXPECT_EQ(net::min_share_scan(), &net::min_share_scan_scalar);
  EXPECT_FALSE(net::min_share_scan_is_simd());
  set_scan_kernel(net::ScanKernel::Auto);
}

TEST(SimdScan, EmptyAndTinyRanges) {
  std::vector<double> resid{3.0, 2.0, 1.0};
  std::vector<double> aw{1.0, 1.0, 1.0};
  EXPECT_EQ(net::min_share_scan_scalar(resid.data(), aw.data(), 0, 0), kInf);
  EXPECT_EQ(net::min_share_scan()(resid.data(), aw.data(), 2, 2), kInf);
  expect_kernels_match(resid, aw);
}

TEST(SimdScan, AdversarialNearTies) {
  // Shares one ULP apart around a common value: the min must select the
  // exact smaller bit pattern, never a tolerance-collapsed tie.
  const double base = 1.0 / 3.0;
  std::vector<double> resid, aw;
  for (int k = -3; k <= 3; ++k) {
    double share = base;
    for (int s = 0; s < std::abs(k); ++s)
      share = std::nextafter(share, k < 0 ? 0.0 : 1.0);
    resid.push_back(share * 7.0);
    aw.push_back(7.0);
  }
  // And a block of exact bitwise ties (symmetric-pattern case).
  for (int i = 0; i < 13; ++i) {
    resid.push_back(base * 3.0);
    aw.push_back(3.0);
  }
  expect_kernels_match(resid, aw);
}

TEST(SimdScan, ZeroNegativeAndNonLiveLanes) {
  // residual <= 0 clamps to share 0 on live lanes; aw <= 0 lanes are
  // skipped entirely (+inf), even when their residual is negative, zero,
  // infinite, or huge. -0.0 aw is NOT live (IEEE: -0.0 > 0.0 is false).
  std::vector<double> resid{-1.0, 0.0, -0.0, 5.0,  kInf, 1e308,
                            2.0,  8.0, 1e-300, -3.0, 0.25, 9.0};
  std::vector<double> aw{2.0,  3.0, 1.0, 0.0,  4.0, 1e-3,
                         -1.0, 0.5, 2.0, -0.0, 1e300, 0.0};
  expect_kernels_match(resid, aw);
  // All-dead input: no live lane anywhere -> +inf from every kernel.
  std::vector<double> dead_aw(aw.size(), 0.0);
  EXPECT_EQ(net::min_share_scan_scalar(resid.data(), dead_aw.data(), 0,
                                       dead_aw.size()),
            kInf);
  EXPECT_EQ(net::min_share_scan()(resid.data(), dead_aw.data(), 0,
                                  dead_aw.size()),
            kInf);
}

TEST(SimdScan, RandomizedSweepAllTailLengths) {
  sim::Rng rng(0xD15Bu);
  for (std::size_t n = 1; n <= 70; ++n) {
    std::vector<double> resid(n), aw(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Mix of live, dead, and clamped lanes in random order.
      const auto kind = rng.index(5);
      resid[i] = rng.uniform(-2.0, 50.0);
      aw[i] = kind == 0 ? 0.0 : rng.uniform(0.25, 8.0);
      if (kind == 1) resid[i] = -resid[i];
    }
    expect_kernels_match(resid, aw);
  }
}

// ---------------------------------------------------------------------------
// Solver-level properties: identical min is not enough — the fired-link SET
// must match too, or the trajectory (and every later iteration) diverges.
// ---------------------------------------------------------------------------

// RAII: force a kernel, restore Auto.
struct ScopedKernel {
  explicit ScopedKernel(net::ScanKernel k) { net::set_scan_kernel(k); }
  ~ScopedKernel() { net::set_scan_kernel(net::ScanKernel::Auto); }
};

struct SolveResult {
  std::vector<double> rates;
  net::SolveStats stats;
};

SolveResult solve_with_kernel(net::ScanKernel k,
                              const std::vector<double>& caps,
                              const std::vector<std::vector<int>>& paths,
                              const std::vector<double>* weights = nullptr) {
  ScopedKernel sk(k);
  SolveResult r;
  r.rates = net::max_min_rates(caps, paths, weights, &r.stats);
  return r;
}

// Adversarial near-tie problem: two components whose bottleneck shares sit
// one ULP apart. A tolerance anywhere in the scan or the firing cutoff would
// merge their firing iterations; bit-exact kernels must keep them separate
// and identical under both kernels (same rates, same iteration count, same
// fired-link total).
TEST(SimdSolver, NearTieFiringSetIdentical) {
  // Component A: link 0, 3 unit flows. Component B: link 1, 3 unit flows.
  // The capacities sit one ULP apart, so the two shares cap/3 land 1-2 ULP
  // apart — a genuine bitwise near-tie, NOT an exact tie (a capacity gap
  // this small can vanish in the division; the assertions below prove it
  // survived on this pair).
  const std::vector<double> caps{1.0, std::nextafter(1.0, 2.0)};
  const double share_a = caps[0] / 3.0;
  const double share_b = caps[1] / 3.0;
  ASSERT_NE(share_a, share_b) << "shares collapsed; widen the capacity gap";
  std::vector<std::vector<int>> paths;
  for (int i = 0; i < 3; ++i) paths.push_back({0});
  for (int i = 0; i < 3; ++i) paths.push_back({1});

  const auto auto_r = solve_with_kernel(net::ScanKernel::Auto, caps, paths);
  const auto scal_r =
      solve_with_kernel(net::ScanKernel::ForceScalar, caps, paths);
  ASSERT_EQ(auto_r.rates.size(), scal_r.rates.size());
  for (std::size_t i = 0; i < auto_r.rates.size(); ++i)
    EXPECT_EQ(auto_r.rates[i], scal_r.rates[i]) << "flow " << i;
  EXPECT_EQ(auto_r.stats.iterations, scal_r.stats.iterations);
  EXPECT_EQ(auto_r.stats.bottleneck_links, scal_r.stats.bottleneck_links);
  // The ULP gap must survive: two distinct firing iterations, one link each,
  // and the two rate groups differ in their last bit.
  EXPECT_EQ(auto_r.stats.iterations, 2);
  EXPECT_EQ(auto_r.stats.bottleneck_links, 2);
  EXPECT_EQ(auto_r.rates[0], share_a);
  EXPECT_EQ(auto_r.rates[3], share_b);
  EXPECT_NE(auto_r.rates[0], auto_r.rates[3]);
}

// Weight-0 flows are the one input class where active-list membership
// bookkeeping could diverge between implementations (see solver.hpp): both
// the reference and the CSR core keep the list first-seen-deduplicated, so
// they must agree bitwise here too — under either kernel.
TEST(SimdSolver, ZeroWeightFlowsMatchReference) {
  const std::vector<double> caps{10.0, 8.0, 6.0};
  const std::vector<std::vector<int>> paths{
      {0}, {0, 1}, {1, 2}, {2}, {0, 2}};
  // Flow 1 and 3 carry weight exactly 0: their links enter the active list
  // through a zero-weight crosser first (link 2 via flow 3), the dedupe
  // regression case.
  const std::vector<double> w{1.0, 0.0, 2.0, 0.0, 1.5};
  for (const auto k : {net::ScanKernel::Auto, net::ScanKernel::ForceScalar}) {
    ScopedKernel sk(k);
    net::SolveStats ref_stats{}, csr_stats{};
    const auto ref = net::max_min_rates_reference(caps, paths, &w, &ref_stats);
    const auto csr = net::max_min_rates(caps, paths, &w, &csr_stats);
    ASSERT_EQ(ref.size(), csr.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
      EXPECT_EQ(ref[i], csr[i]) << "flow " << i;
    EXPECT_EQ(ref_stats.iterations, csr_stats.iterations);
    EXPECT_EQ(ref_stats.bottleneck_links, csr_stats.bottleneck_links);
  }
}

}  // namespace
