// PR 5 equivalence fuzz: the subquadratic view/symmetry pipeline (snapped
// angular orders + canonical view keys + Booth minimal rotation) against the
// pre-subquadratic reference oracles in views_reference.cpp, bit for bit,
// over 1000 generated configurations; plus a brute-force Definition 3
// rotation cross-check of sym(C) and a regression test for the
// strict-weak-ordering hazard of the old tolerance-comparator sort.
#include "config/views.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "config/configuration.h"
#include "config/derived.h"
#include "config/string_of_angles.h"
#include "geometry/angles.h"
#include "sim/rng.h"
#include "workloads/generators.h"

namespace gather {
namespace {

using config::configuration;
using config::view;
using geom::vec2;

void expect_view_bitwise(const view& fast, const view& ref, const char* what,
                         int iter) {
  ASSERT_EQ(fast.size(), ref.size()) << what << " iter=" << iter;
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_EQ(fast[i].angle, ref[i].angle)
        << what << " iter=" << iter << " entry=" << i;
    EXPECT_EQ(fast[i].dist, ref[i].dist)
        << what << " iter=" << iter << " entry=" << i;
  }
}

void expect_order_bitwise(const std::vector<config::angular_entry>& fast,
                          const std::vector<config::angular_entry>& ref,
                          const char* what, int iter) {
  ASSERT_EQ(fast.size(), ref.size()) << what << " iter=" << iter;
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_EQ(fast[i].theta, ref[i].theta)
        << what << " iter=" << iter << " entry=" << i;
    EXPECT_EQ(fast[i].dist, ref[i].dist)
        << what << " iter=" << iter << " entry=" << i;
    EXPECT_EQ(fast[i].position.x, ref[i].position.x)
        << what << " iter=" << iter << " entry=" << i;
    EXPECT_EQ(fast[i].position.y, ref[i].position.y)
        << what << " iter=" << iter << " entry=" << i;
  }
}

/// One configuration from a rotating family mix.  Perturbation magnitudes
/// stay well away from the tolerance boundary (angle_eps = 1e-9): sub-eps
/// jitter uses 1e-12..1e-13, super-eps offsets use >= 1e-5, so fast and
/// reference paths make the same clustering decisions for the same bits.
std::vector<vec2> fuzz_points(int iter, sim::rng& r) {
  const std::size_t n = 3 + static_cast<std::size_t>(r.uniform_int(0, 21));
  switch (iter % 5) {
    case 0:  // generic position
      return workloads::uniform_random(n, r);
    case 1: {  // collinear, sometimes with stacked multiplicities
      std::vector<vec2> pts = (n % 2 == 1)
                                  ? workloads::linear_unique_weber(n, r)
                                  : workloads::linear_two_weber(std::max<std::size_t>(n, 4), r);
      if (r.flip(0.5) && !pts.empty()) {
        pts.push_back(pts[r.uniform_int(0, pts.size() - 1)]);
      }
      return pts;
    }
    case 2: {  // regular polygon with rotationally symmetric multiplicities
      const std::size_t k = 3 + static_cast<std::size_t>(r.uniform_int(0, 13));
      const vec2 center{r.uniform(-2.0, 2.0), r.uniform(-2.0, 2.0)};
      std::vector<vec2> pts = workloads::regular_polygon(
          k, center, r.uniform(0.5, 3.0), r.uniform(0.0, geom::two_pi));
      // Stack an extra robot on every (k/d)-th vertex for a divisor d of k.
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
    case 3: {  // near-degenerate: perturbed polygon / near-coincident pairs
      std::vector<vec2> pts =
          workloads::regular_polygon(std::max<std::size_t>(n, 3), {}, 1.0);
      const double mag = r.flip(0.5) ? 1e-12 : 1e-5;
      pts = workloads::perturbed(std::move(pts), mag, r);
      if (r.flip(0.5)) {
        const vec2 p = pts.front();
        pts.push_back({p.x + 1e-13, p.y - 1e-13});
      }
      if (r.flip(0.25)) {
        // Two distinct locations within tolerance of the polygon center:
        // exercises the degenerate at-center fallback in symmetry().
        pts.push_back({1e-12, -1e-12});
        pts.push_back({-1e-12, 1e-12});
      }
      return pts;
    }
    default: {  // constructed symmetric families
      const std::size_t k = 2 + static_cast<std::size_t>(r.uniform_int(0, 6));
      switch (r.uniform_int(0, 3)) {
        case 0:
          return workloads::symmetric_rings(k, 1 + static_cast<std::size_t>(r.uniform_int(0, 2)), r);
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

TEST(ViewPipeline, FastMatchesReferenceOn1000Configs) {
  sim::rng r(0x5eed5u);
  for (int iter = 0; iter < 1000; ++iter) {
    const configuration c(fuzz_points(iter, r));
    if (c.distinct_count() == 0) continue;

    // Views of every occupied location, bit for bit.
    const std::vector<view> fast_views(config::all_views(c).begin(),
                                       config::all_views(c).end());
    const std::vector<view> ref_views = config::detail::all_views_reference(c);
    ASSERT_EQ(fast_views.size(), ref_views.size()) << "iter=" << iter;
    for (std::size_t i = 0; i < fast_views.size(); ++i) {
      expect_view_bitwise(fast_views[i], ref_views[i], "all_views", iter);
    }

    // view_of through the occupied-location fast path (binary search) and
    // through an arbitrary probe point.
    for (const config::occupied_point& o : c.occupied()) {
      expect_view_bitwise(config::view_of(c, o.position),
                          config::detail::view_of_reference(c, o.position),
                          "view_of(occupied)", iter);
    }
    const vec2 probe{r.uniform(-5.0, 5.0), r.uniform(-5.0, 5.0)};
    expect_view_bitwise(config::view_of(c, probe),
                        config::detail::view_of_reference(c, probe),
                        "view_of(probe)", iter);

    // Classes: the canonical-key grouping must reproduce the reference
    // tolerance-sort grouping exactly, including class and member order.
    EXPECT_EQ(config::view_classes(c), config::detail::view_classes_reference(c))
        << "iter=" << iter;

    // sym(C): Booth string path vs largest-reference-class.
    EXPECT_EQ(config::symmetry(c), config::detail::symmetry_reference(c))
        << "iter=" << iter;

    // Cached (SEC center) and owning (occupied center) angular orders vs the
    // per-call reference angular order.
    const vec2 center = c.sec().center;
    expect_order_bitwise(config::angular_order(c, center),
                         config::detail::angular_order_reference(c, center),
                         "angular_order(center)", iter);
    const vec2 about = c.occupied().front().position;
    expect_order_bitwise(config::angular_order(c, about),
                         config::detail::angular_order_reference(c, about),
                         "angular_order(occupied)", iter);
  }
}

// -- Definition 3 brute force ----------------------------------------------

/// sym(C) straight from the geometry: the largest k such that the clockwise
/// rotation by 2*pi/k about the sec center maps the multiset of occupied
/// locations onto itself (location-to-location, preserving multiplicity).
int brute_symmetry_def3(const configuration& c) {
  const vec2 center = c.sec().center;
  const geom::tol& t = c.tolerance();
  int best = 1;
  for (int k = 2; k <= static_cast<int>(c.size()); ++k) {
    bool ok = true;
    for (const config::occupied_point& o : c.occupied()) {
      const vec2 q = geom::rotated_cw_about(o.position, center, geom::two_pi / k);
      bool found = false;
      for (const config::occupied_point& o2 : c.occupied()) {
        if (t.same_point(o2.position, q) && o2.multiplicity == o.multiplicity) {
          found = true;
          break;
        }
      }
      if (!found) {
        ok = false;
        break;
      }
    }
    if (ok) best = k;
  }
  return best;
}

TEST(ViewPipeline, SymmetryMatchesBruteForceRotationTest) {
  sim::rng r(0xdef3u);

  // Regular polygons: sym = n, up to n = 64.
  for (std::size_t k : {3u, 4u, 5u, 7u, 12u, 17u, 32u, 48u, 64u}) {
    const configuration c(workloads::regular_polygon(
        k, {0.5, -0.25}, 2.0, r.uniform(0.0, geom::two_pi)));
    EXPECT_EQ(config::symmetry(c), static_cast<int>(k)) << "k=" << k;
    EXPECT_EQ(config::symmetry(c), brute_symmetry_def3(c)) << "k=" << k;
  }

  // Symmetric rings: sym = k with k * rings robots.
  for (int iter = 0; iter < 40; ++iter) {
    const std::size_t k = 2 + static_cast<std::size_t>(r.uniform_int(0, 10));
    const std::size_t rings = 1 + static_cast<std::size_t>(r.uniform_int(0, 4));
    if (k * rings > 64) continue;
    const configuration c(workloads::symmetric_rings(k, rings, r));
    EXPECT_EQ(config::symmetry(c), static_cast<int>(k))
        << "k=" << k << " rings=" << rings;
    EXPECT_EQ(config::symmetry(c), brute_symmetry_def3(c))
        << "k=" << k << " rings=" << rings;
  }

  // Polygon with a d-fold symmetric multiplicity pattern: sym = d.
  for (int iter = 0; iter < 40; ++iter) {
    const std::size_t k = 4 + static_cast<std::size_t>(r.uniform_int(0, 20));
    std::vector<std::size_t> divisors;
    for (std::size_t d = 1; d < k; ++d)
      if (k % d == 0) divisors.push_back(d);
    const std::size_t d = divisors[r.uniform_int(0, divisors.size() - 1)];
    std::vector<vec2> pts = workloads::regular_polygon(k, {}, 1.5);
    for (std::size_t j = 0; j < k; j += k / d) pts.push_back(pts[j]);
    const configuration c(std::move(pts));
    EXPECT_EQ(config::symmetry(c), static_cast<int>(d)) << "k=" << k << " d=" << d;
    EXPECT_EQ(config::symmetry(c), brute_symmetry_def3(c))
        << "k=" << k << " d=" << d;
  }

  // Polygon plus center point: the center is its own singleton location and
  // must not break the k-fold symmetry of the ring.
  for (std::size_t k : {3u, 6u, 11u, 24u}) {
    std::vector<vec2> pts = workloads::regular_polygon(k, {1.0, 1.0}, 1.0);
    pts.push_back({1.0, 1.0});
    const configuration c(std::move(pts));
    EXPECT_EQ(config::symmetry(c), static_cast<int>(k)) << "k=" << k;
    EXPECT_EQ(config::symmetry(c), brute_symmetry_def3(c)) << "k=" << k;
  }

  // Bivalent: two equal stacks, sym = 2.
  for (std::size_t n : {4u, 10u, 64u}) {
    const configuration c(workloads::bivalent(n, r));
    EXPECT_EQ(config::symmetry(c), 2) << "n=" << n;
    EXPECT_EQ(config::symmetry(c), brute_symmetry_def3(c)) << "n=" << n;
  }

  // Random asymmetric draws: whatever the brute force says (almost surely 1).
  for (int iter = 0; iter < 60; ++iter) {
    const std::size_t n = 3 + static_cast<std::size_t>(r.uniform_int(0, 29));
    const configuration c(workloads::uniform_random(n, r));
    EXPECT_EQ(config::symmetry(c), brute_symmetry_def3(c))
        << "iter=" << iter << " n=" << n;
  }
}

// -- strict-weak-ordering regression ---------------------------------------

// The old view_classes sorted whole views with the tolerance comparator, a
// relation that is not a strict weak ordering near the tolerance boundary
// (a ~ b and b ~ c do not imply a ~ c).  The canonical-key pipeline groups
// by exact integer keys instead.  These configurations place view entries
// within fractions of the tolerance of each other -- close enough that a
// comparator sort is fragile, while staying inside the transitive range so
// the expected grouping is well defined.
TEST(ViewPipeline, NearToleranceTwinsGroupLikeReference) {
  sim::rng r(0x7717u);
  const double eps = 1e-9;  // default tol angle_eps / rel
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t k = 4 + static_cast<std::size_t>(r.uniform_int(0, 8));
    const bool sub_tolerance = (iter % 2 == 0);
    std::vector<vec2> pts;
    pts.reserve(k);
    for (std::size_t j = 0; j < k; ++j) {
      // Sub-tolerance: jitters stay below eps/16 -- small enough that even
      // after lever-arm amplification (a positional jitter moves the view
      // angle of a nearby vertex by jitter / distance, up to ~5x here) every
      // vertex's view stays tolerance-equal to every other's (one k-member
      // class) and the relation is transitive.  Super-tolerance: per-vertex
      // offsets are spaced 6 eps apart (plus sub-eps jitter), so all views
      // are distinct but separated by only a few tolerances.
      const double jitter_cap = sub_tolerance ? eps / 16.0 : 0.25 * eps;
      const double spread =
          sub_tolerance ? 0.0 : 6.0 * eps * static_cast<double>(j + 1);
      const double dtheta = spread + r.uniform(0.0, jitter_cap);
      const double dr = spread + r.uniform(0.0, jitter_cap);
      const double theta = geom::two_pi * static_cast<double>(j) /
                               static_cast<double>(k) +
                           dtheta;
      const double radius = 1.0 + dr;
      pts.push_back({radius * std::cos(theta), radius * std::sin(theta)});
    }
    const configuration c(std::move(pts));

    const auto fast = config::view_classes(c);
    const auto ref = config::detail::view_classes_reference(c);
    EXPECT_EQ(fast, ref) << "iter=" << iter << " sub=" << sub_tolerance;

    // Partition sanity: every occupied index appears exactly once.
    std::vector<std::size_t> seen;
    for (const auto& cls : fast) {
      ASSERT_FALSE(cls.empty());
      seen.insert(seen.end(), cls.begin(), cls.end());
    }
    std::sort(seen.begin(), seen.end());
    ASSERT_EQ(seen.size(), c.occupied().size());
    for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);

    // Tie verification: members of a class really have equal views under
    // compare_views, and distinct class fronts really differ.
    const auto vs = config::all_views(c);
    const geom::tol& t = c.tolerance();
    for (const auto& cls : fast) {
      for (std::size_t i : cls) {
        EXPECT_EQ(config::compare_views(vs[cls.front()], vs[i], t), 0)
            << "iter=" << iter;
      }
    }
    for (std::size_t a = 1; a < fast.size(); ++a) {
      EXPECT_GT(config::compare_views(vs[fast[a - 1].front()],
                                      vs[fast[a].front()], t),
                0)
          << "iter=" << iter;
    }

    // Determinism: an independently built identical configuration produces
    // the identical grouping.
    const configuration c2(std::vector<vec2>(c.robots()));
    EXPECT_EQ(config::view_classes(c2), fast) << "iter=" << iter;
    EXPECT_EQ(config::symmetry(c2), config::symmetry(c)) << "iter=" << iter;
  }
}

}  // namespace
}  // namespace gather
