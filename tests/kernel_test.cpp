// Equivalence fuzz: the batch-kernel bulk view fill (SoA pairwise table,
// fused polar records) and the divisor-driven quasi-regularity search
// against their preserved reference oracles -- bit for bit for views under
// every dispatch path,
// exactly for the derived classes/symmetry/QR verdicts.  Per-kernel tests
// pin the AVX2 and scalar paths to identical bytes, the sort kernels to the
// stable radix order, and the snap-identity predicate to its contract.
#include "geometry/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <vector>

#include "config/configuration.h"
#include "config/derived.h"
#include "config/regularity.h"
#include "config/views.h"
#include "geometry/angles.h"
#include "geometry/transform.h"
#include "sim/rng.h"
#include "util/radix.h"
#include "workloads/generators.h"

namespace gather {
namespace {

using config::configuration;
using config::view;
using geom::vec2;
namespace kernels = geom::kernels;

/// Pin the scalar path for the lifetime of a scope, restoring the default
/// resolution (CPU probe + GATHER_FORCE_SCALAR) on exit.
struct scalar_guard {
  explicit scalar_guard(bool force) {
    if (force) kernels::set_force_scalar(true);
  }
  ~scalar_guard() { kernels::set_force_scalar(false); }
};

TEST(KernelDispatch, BatchKernelsMatchScalarBitwise) {
  sim::rng r(0xd15ba7u);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                              std::size_t{4}, std::size_t{7}, std::size_t{8},
                              std::size_t{33}, std::size_t{1000}}) {
    std::vector<double> xs(n), ys(n);
    std::vector<vec2> pts(n);
    for (std::size_t i = 0; i < n; ++i) {
      xs[i] = r.uniform(-100.0, 100.0);
      ys[i] = r.uniform(-100.0, 100.0);
      pts[i] = {xs[i], ys[i]};
    }
    const double px = r.uniform(-10.0, 10.0), py = r.uniform(-10.0, 10.0);
    const double rx = r.uniform(-2.0, 2.0), ry = r.uniform(-2.0, 2.0);
    const double denom = r.uniform(0.5, 50.0);
    const geom::similarity f(r.uniform(0.0, geom::two_pi),
                             r.uniform(0.5, 2.0),
                             {r.uniform(-5.0, 5.0), r.uniform(-5.0, 5.0)});

    std::vector<double> dist_a(n), cr_a(n), dt_a(n), div_a(n);
    std::vector<vec2> sim_a(n);
    kernels::distance_row(xs.data(), ys.data(), n, px, py, dist_a.data());
    kernels::cross_dot_about(xs.data(), ys.data(), n, px, py, rx, ry,
                             cr_a.data(), dt_a.data());
    kernels::divide_batch(xs.data(), n, denom, div_a.data());
    f.apply_batch(pts.data(), n, sim_a.data());

    scalar_guard guard(true);
    std::vector<double> dist_s(n), cr_s(n), dt_s(n), div_s(n);
    std::vector<vec2> sim_s(n);
    kernels::distance_row(xs.data(), ys.data(), n, px, py, dist_s.data());
    kernels::cross_dot_about(xs.data(), ys.data(), n, px, py, rx, ry,
                             cr_s.data(), dt_s.data());
    kernels::divide_batch(xs.data(), n, denom, div_s.data());
    f.apply_batch(pts.data(), n, sim_s.data());
    // In-place form must agree too.
    std::vector<vec2> sim_ip = pts;
    f.apply_batch(sim_ip.data(), n, sim_ip.data());

    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(dist_a[i], dist_s[i]) << "distance_row n=" << n << " i=" << i;
      EXPECT_EQ(cr_a[i], cr_s[i]) << "cross n=" << n << " i=" << i;
      EXPECT_EQ(dt_a[i], dt_s[i]) << "dot n=" << n << " i=" << i;
      EXPECT_EQ(div_a[i], div_s[i]) << "divide n=" << n << " i=" << i;
      EXPECT_EQ(sim_a[i].x, sim_s[i].x) << "apply n=" << n << " i=" << i;
      EXPECT_EQ(sim_a[i].y, sim_s[i].y) << "apply n=" << n << " i=" << i;
      EXPECT_EQ(sim_ip[i].x, sim_s[i].x) << "apply ip n=" << n << " i=" << i;
      EXPECT_EQ(sim_ip[i].y, sim_s[i].y) << "apply ip n=" << n << " i=" << i;
      // And against the scalar formulas literally.
      EXPECT_EQ(dist_s[i], std::hypot(xs[i] - px, ys[i] - py));
      EXPECT_EQ(div_s[i], xs[i] / denom);
      const vec2 want = f.apply(pts[i]);
      EXPECT_EQ(sim_s[i].x, want.x);
      EXPECT_EQ(sim_s[i].y, want.y);
    }
  }
}

/// Random angle multiset in [0, 2*pi) with deliberate duplicates (drawn
/// from a small pool with probability `dup_p`).
std::vector<double> random_angles(std::size_t n, double dup_p, sim::rng& r) {
  std::vector<double> pool;
  for (int i = 0; i < 8; ++i) pool.push_back(r.uniform(0.0, geom::two_pi));
  std::vector<double> a(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = r.flip(dup_p) ? pool[static_cast<std::size_t>(
                               r.uniform_int(0, pool.size() - 1))]
                         : r.uniform(0.0, geom::two_pi);
  }
  return a;
}

TEST(KernelSort, SortAngleKeysMatchesStableRadix) {
  sim::rng r(0xdeed1u);
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{47},
        std::size_t{255}, std::size_t{256}, std::size_t{257}, std::size_t{999},
        std::size_t{5000}}) {
    const std::vector<double> angles = random_angles(n, 0.3, r);
    std::vector<util::key_idx> fast(n), ref(n);
    for (std::size_t i = 0; i < n; ++i) {
      fast[i] = {kernels::angle_key(angles[i]), static_cast<std::uint32_t>(i)};
      ref[i] = fast[i];
    }
    std::vector<util::key_idx> tmp1, tmp2;
    std::vector<std::uint32_t> buckets;
    kernels::sort_angle_keys(fast, tmp1, buckets);
    util::radix_sort_key_idx(ref, tmp2);
    ASSERT_EQ(fast.size(), ref.size());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(fast[i].key, ref[i].key) << "n=" << n << " i=" << i;
      // idx equality is the stability witness: equal keys keep input order.
      EXPECT_EQ(fast[i].idx, ref[i].idx) << "n=" << n << " i=" << i;
    }
  }
}

TEST(KernelSort, SortPolarRecsMatchesStableSort) {
  sim::rng r(0xdeed2u);
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{47},
        std::size_t{48}, std::size_t{255}, std::size_t{256}, std::size_t{999},
        std::size_t{5000}}) {
    const std::vector<double> angles = random_angles(n, 0.3, r);
    std::vector<kernels::polar_rec> fast(n), ref(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Distinct dists witness stability among equal keys.
      fast[i] = {kernels::angle_key(angles[i]), static_cast<double>(i)};
      ref[i] = fast[i];
    }
    std::vector<kernels::polar_rec> tmp;
    std::vector<std::uint32_t> buckets;
    kernels::sort_polar_recs(fast, tmp, buckets);
    std::stable_sort(ref.begin(), ref.end(),
                     [](const kernels::polar_rec& a,
                        const kernels::polar_rec& b) { return a.key < b.key; });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(fast[i].key, ref[i].key) << "n=" << n << " i=" << i;
      EXPECT_EQ(fast[i].dist, ref[i].dist) << "n=" << n << " i=" << i;
    }
  }
}

TEST(KernelSnap, IdentityVerdictImpliesClusterSnapIsIdentity) {
  sim::rng r(0xdeed3u);
  const double eps = 1e-9;
  int identity_hits = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    const std::size_t n = 1 + static_cast<std::size_t>(r.uniform_int(0, 19));
    std::vector<double> thetas(n);
    double cur = r.uniform(0.0, 1e-8);
    for (std::size_t i = 0; i < n; ++i) {
      // Mix of sub-eps, near-eps and clear gaps, plus near-seam tails.
      const double gap = r.flip(0.3) ? r.uniform(0.0, 2.0 * eps)
                                     : r.uniform(1e-6, 0.4);
      cur += gap;
      thetas[i] = cur;
    }
    if (thetas.back() >= geom::two_pi) continue;
    if (r.flip(0.2)) thetas.front() = 0.0;
    if (r.flip(0.2)) thetas.back() = geom::two_pi - r.uniform(0.0, 2.0 * eps);
    std::sort(thetas.begin(), thetas.end());
    const bool ident = kernels::snap_is_identity(thetas.data(), n, eps);
    // _recs view of the same multiset must agree.
    std::vector<kernels::polar_rec> recs(n);
    for (std::size_t i = 0; i < n; ++i) {
      recs[i] = {kernels::angle_key(thetas[i]), 0.0};
    }
    EXPECT_EQ(ident, kernels::snap_is_identity_recs(recs.data(), n, eps));
    if (!ident) continue;
    ++identity_hits;
    std::vector<double> snapped = thetas, reps;
    geom::cluster_presorted_angles_into(snapped, eps, reps);
    geom::snap_sorted_angles(snapped, reps);
    EXPECT_EQ(0, std::memcmp(snapped.data(), thetas.data(),
                             n * sizeof(double)))
        << "iter=" << iter;
  }
  EXPECT_GT(identity_hits, 100);  // the predicate must actually fire
}

/// One configuration from a rotating family mix (the view_pipeline_test
/// corpus): generic clouds, collinear sets with stacked multiplicities,
/// regular polygons with symmetric multiplicities, near-degenerate
/// perturbations (sub-eps jitter at 1e-12, super-eps at 1e-5) and
/// constructed symmetric families.
std::vector<vec2> fuzz_points(int iter, sim::rng& r) {
  const std::size_t n = 3 + static_cast<std::size_t>(r.uniform_int(0, 21));
  switch (iter % 5) {
    case 0:
      return workloads::uniform_random(n, r);
    case 1: {
      std::vector<vec2> pts =
          (n % 2 == 1)
              ? workloads::linear_unique_weber(n, r)
              : workloads::linear_two_weber(std::max<std::size_t>(n, 4), r);
      if (r.flip(0.5) && !pts.empty()) {
        pts.push_back(pts[r.uniform_int(0, pts.size() - 1)]);
      }
      return pts;
    }
    case 2: {
      const std::size_t k = 3 + static_cast<std::size_t>(r.uniform_int(0, 13));
      const vec2 center{r.uniform(-2.0, 2.0), r.uniform(-2.0, 2.0)};
      std::vector<vec2> pts = workloads::regular_polygon(
          k, center, r.uniform(0.5, 3.0), r.uniform(0.0, geom::two_pi));
      std::vector<std::size_t> divisors;
      for (std::size_t d = 1; d <= k; ++d)
        if (k % d == 0) divisors.push_back(d);
      const std::size_t d = divisors[r.uniform_int(0, divisors.size() - 1)];
      const std::size_t step = k / d;
      const std::size_t base = pts.size();
      for (std::size_t j = 0; j < base; j += step) pts.push_back(pts[j]);
      if (r.flip(0.3)) pts.push_back(center);
      return pts;
    }
    case 3: {
      std::vector<vec2> pts =
          workloads::regular_polygon(std::max<std::size_t>(n, 3), {}, 1.0);
      const double mag = r.flip(0.5) ? 1e-12 : 1e-5;
      pts = workloads::perturbed(std::move(pts), mag, r);
      if (r.flip(0.5)) {
        const vec2 p = pts.front();
        pts.push_back({p.x + 1e-13, p.y - 1e-13});
      }
      return pts;
    }
    default: {
      const std::size_t k = 2 + static_cast<std::size_t>(r.uniform_int(0, 6));
      switch (r.uniform_int(0, 3)) {
        case 0:
          return workloads::symmetric_rings(
              k, 1 + static_cast<std::size_t>(r.uniform_int(0, 2)), r);
        case 1:
          return workloads::bivalent(2 * k, r);
        case 2:
          return workloads::quasi_regular_with_center(
              std::max<std::size_t>(k, 4),
              static_cast<std::size_t>(r.uniform_int(1, 2)), r);
        default:
          return workloads::axially_symmetric(2 * k + 1, r);
      }
    }
  }
}

/// The bulk-fill equivalence body: for every fuzz configuration, the kernel
/// fill must reproduce the reference fill bit for bit, and the derived
/// verdicts built on top of the views (classes, symmetry, quasi-regularity)
/// must match the reference-filled configuration exactly.
void run_fill_fuzz(int iters, std::uint64_t seed) {
  sim::rng r(seed);
  for (int iter = 0; iter < iters; ++iter) {
    const std::vector<vec2> pts = fuzz_points(iter, r);
    const configuration fast_c(pts);
    const configuration ref_c(pts);
    if (fast_c.distinct_count() == 0) continue;
    config::detail::fill_all_view_slots(fast_c);
    config::detail::fill_all_view_slots_reference(ref_c);
    const auto vs_f = config::all_views(fast_c);
    const auto vs_r = config::all_views(ref_c);
    ASSERT_EQ(vs_f.size(), vs_r.size()) << "iter=" << iter;
    for (std::size_t i = 0; i < vs_f.size(); ++i) {
      ASSERT_EQ(vs_f[i].size(), vs_r[i].size())
          << "iter=" << iter << " view=" << i;
      if (!vs_f[i].empty()) {
        EXPECT_EQ(0, std::memcmp(vs_f[i].data(), vs_r[i].data(),
                                 vs_f[i].size() * sizeof(config::polar_entry)))
            << "iter=" << iter << " view=" << i;
      }
    }
    EXPECT_EQ(config::view_classes(fast_c), config::view_classes(ref_c))
        << "iter=" << iter;
    EXPECT_EQ(config::symmetry(fast_c), config::symmetry(ref_c))
        << "iter=" << iter;
    const auto qr_f = config::detect_quasi_regularity(fast_c);
    const auto qr_r = config::detect_quasi_regularity(ref_c);
    ASSERT_EQ(qr_f.has_value(), qr_r.has_value()) << "iter=" << iter;
    if (qr_f) {
      EXPECT_EQ(qr_f->degree, qr_r->degree) << "iter=" << iter;
      EXPECT_EQ(qr_f->center.x, qr_r->center.x) << "iter=" << iter;
      EXPECT_EQ(qr_f->center.y, qr_r->center.y) << "iter=" << iter;
    }
  }
}

TEST(BulkFill, MatchesReferenceOn1000Configs) { run_fill_fuzz(1000, 0x5eedau); }

TEST(BulkFill, MatchesReferenceScalarDispatch) {
  scalar_guard guard(true);
  run_fill_fuzz(1000, 0x5eedbu);
}

void check_qr_all_centers(const configuration& c, const char* tag, int iter) {
  for (const auto& o : c.occupied()) {
    const auto fast = config::quasi_regular_about_occupied(c, o.position);
    const auto ref =
        config::detail::quasi_regular_about_occupied_reference(c, o.position);
    ASSERT_EQ(fast.has_value(), ref.has_value())
        << tag << " iter=" << iter << " at (" << o.position.x << ", "
        << o.position.y << ")";
    if (fast) {
      EXPECT_EQ(*fast, *ref) << tag << " iter=" << iter;
    }
  }
}

TEST(QuasiRegular, FastMatchesReferenceOnCuratedFamilies) {
  // Regular m-gons with a loaded center: qreg = m about the center for
  // center_mult >= 1, and the divisor-driven candidate set must find the
  // same maximal degree the exhaustive descent does.
  for (const int m : {3, 4, 5, 6, 8, 12, 17}) {
    for (const int center_mult : {0, 1, 2, 3, 7}) {
      std::vector<vec2> pts;
      for (int i = 0; i < m; ++i) {
        const double a = geom::two_pi * i / m;
        pts.push_back({10.0 * std::cos(a), 10.0 * std::sin(a)});
      }
      for (int i = 0; i < center_mult; ++i) pts.push_back({0.0, 0.0});
      check_qr_all_centers(configuration(pts), "polygon", m);
    }
  }
  // Deficient polygons: d vertices removed, center load d+1 -- quasi-regular
  // with exactly the removed slots as the completion.
  for (const int m : {6, 8, 12}) {
    for (int d = 1; d <= 3; ++d) {
      std::vector<vec2> pts;
      for (int i = d; i < m; ++i) {
        const double a = geom::two_pi * i / m;
        pts.push_back({10.0 * std::cos(a), 10.0 * std::sin(a)});
      }
      for (int i = 0; i <= d; ++i) pts.push_back({0.0, 0.0});
      check_qr_all_centers(configuration(pts), "deficient", m * 10 + d);
    }
  }
  // Square lattices: no quasi-regularity about interior points, degree 4
  // about the center of odd lattices.
  for (const int side : {3, 4, 5}) {
    std::vector<vec2> pts;
    for (int i = 0; i < side; ++i)
      for (int j = 0; j < side; ++j)
        pts.push_back({static_cast<double>(i), static_cast<double>(j)});
    check_qr_all_centers(configuration(pts), "lattice", side);
  }
}

TEST(QuasiRegular, FastMatchesReferenceOnFuzzConfigs) {
  sim::rng r(0x9a5fbu);
  for (int iter = 0; iter < 300; ++iter) {
    const configuration c(fuzz_points(iter, r));
    if (c.distinct_count() == 0) continue;
    check_qr_all_centers(c, "fuzz", iter);
  }
}

TEST(PolarCache, CapServesIdenticalOrdersAsOwningHandles) {
  sim::rng r(0xcab5u);
  // Below the cap: occupied centers alias the cache.
  {
    const configuration c(workloads::uniform_random(32, r));
    const vec2 p = c.occupied().front().position;
    const config::polar_ref ref = config::angular_order_ref(c, p);
    EXPECT_TRUE(ref.aliases_cache());
  }
  // Above the cap: owning handles, entry-identical to the uncached build.
  {
    const configuration c(
        workloads::uniform_random(config::polar_order_cache_cap + 20, r));
    ASSERT_GT(c.distinct_count(), config::polar_order_cache_cap);
    const vec2 p = c.occupied().front().position;
    const config::polar_ref ref = config::angular_order_ref(c, p);
    EXPECT_FALSE(ref.aliases_cache());
    const std::vector<config::angular_entry> want =
        config::detail::angular_order_uncached(c, p);
    ASSERT_EQ(ref.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(ref.entries()[i].theta, want[i].theta);
      EXPECT_EQ(ref.entries()[i].dist, want[i].dist);
    }
  }
}

}  // namespace
}  // namespace gather
