#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "config/derived.h"
#include "config/regularity.h"
#include "config/safe_points.h"
#include "config/string_of_angles.h"
#include "geometry/angles.h"
#include "sim/rng.h"
#include "workloads/generators.h"

namespace gather::config {
namespace {

using geom::vec2;

std::vector<vec2> ngon(int n, double radius = 1.0, double phase = 0.0) {
  std::vector<vec2> pts;
  for (int i = 0; i < n; ++i) {
    const double a = phase + geom::two_pi * i / n;
    pts.push_back({radius * std::cos(a), radius * std::sin(a)});
  }
  return pts;
}

TEST(StringOfAngles, SquareAroundCenter) {
  const configuration c(ngon(4));
  const auto sa = string_of_angles(c, {0, 0});
  ASSERT_EQ(sa.size(), 4u);
  for (double a : sa) EXPECT_NEAR(a, geom::pi / 2, 1e-9);
}

TEST(StringOfAngles, ExcludesRobotsAtCenter) {
  auto pts = ngon(4);
  pts.push_back({0, 0});
  pts.push_back({0, 0});
  const configuration c(pts);
  EXPECT_EQ(string_of_angles(c, {0, 0}).size(), 4u);
}

TEST(StringOfAngles, SameRayContributesZero) {
  const configuration c({{1, 0}, {2, 0}, {0, 1}, {0, 2}});
  const auto sa = string_of_angles(c, {0, 0});
  ASSERT_EQ(sa.size(), 4u);
  int zeros = 0;
  for (double a : sa) {
    // Sorted-angle canonicalization produces exact 0.0 entries.
    if (a == 0.0) ++zeros;  // gather-lint: allow(R3)
  }
  EXPECT_EQ(zeros, 2);
}

TEST(StringOfAngles, SumsToTwoPi) {
  const configuration c({{1, 0}, {0, 2}, {-3, 1}, {1, -1}});
  const auto sa = string_of_angles(c, {0.1, 0.2});
  double sum = 0.0;
  for (double a : sa) sum += a;
  EXPECT_NEAR(sum, geom::two_pi, 1e-9);
}

TEST(Periodicity, UniformString) {
  geom::tol t;
  EXPECT_EQ(periodicity({1.0, 1.0, 1.0, 1.0}, t), 4);
}

TEST(Periodicity, AlternatingString) {
  geom::tol t;
  EXPECT_EQ(periodicity({0.5, 1.0, 0.5, 1.0, 0.5, 1.0}, t), 3);
}

TEST(Periodicity, AperiodicString) {
  geom::tol t;
  EXPECT_EQ(periodicity({0.5, 1.0, 2.0, 0.7}, t), 1);
}

TEST(Periodicity, ShortStrings) {
  geom::tol t;
  EXPECT_EQ(periodicity({}, t), 1);
  EXPECT_EQ(periodicity({3.14}, t), 1);
}

TEST(Regularity, NGonAboutCenter) {
  for (int n : {3, 4, 5, 6, 8, 12}) {
    const configuration c(ngon(n));
    EXPECT_EQ(regularity_about(c, {0, 0}), n) << n;
  }
}

TEST(Regularity, NGonAboutVertexIsIrregular) {
  const configuration c(ngon(5));
  EXPECT_EQ(regularity_about(c, c.occupied()[0].position), 1);
}

TEST(Regularity, BiangularAboutCenter) {
  // Angles alternate 0.3 and 2*pi/4 - 0.3 around the origin, radii vary.
  sim::rng r(7);
  const auto pts = workloads::biangular(4, 0.3, r);
  const configuration c(pts);
  EXPECT_EQ(regularity_about(c, {0, 0}), 4);
}

TEST(QuasiRegular, DeficitTestOnBrokenSquare) {
  // Square with one vertex moved to the center: deficit 1 = mult(center).
  std::vector<vec2> pts = ngon(4);
  pts[0] = {0, 0};
  const configuration c(pts);
  const auto m = quasi_regular_about_occupied(c, {0, 0});
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(*m, 4);
}

TEST(QuasiRegular, DeficitTestFailsAtVertex) {
  std::vector<vec2> pts = ngon(4);
  pts[0] = {0, 0};
  const configuration c(pts);
  // A remaining vertex has mult 1 but needs 3+ fill-ins.
  EXPECT_FALSE(quasi_regular_about_occupied(c, pts[1]).has_value());
}

TEST(QuasiRegular, DetectsRegularPolygon) {
  const auto qr = detect_quasi_regularity(configuration(ngon(6)));
  ASSERT_TRUE(qr.has_value());
  EXPECT_EQ(qr->degree, 6);
  EXPECT_NEAR(qr->center.x, 0.0, 1e-9);
  EXPECT_NEAR(qr->center.y, 0.0, 1e-9);
}

TEST(QuasiRegular, DetectsPolygonWithOccupiedCenter) {
  auto pts = ngon(5);
  pts.push_back({0, 0});
  const auto qr = detect_quasi_regularity(configuration(pts));
  ASSERT_TRUE(qr.has_value());
  EXPECT_NEAR(qr->center.x, 0.0, 1e-9);
}

TEST(QuasiRegular, DetectsBiangularWithOffCenterSec) {
  // Biangular with varying radii: the center of regularity is not the sec
  // center; detection goes through the Weiszfeld candidate (Lemma 3.3).
  sim::rng r(13);
  const auto pts = workloads::biangular(3, 0.5, r);
  const configuration c(pts);
  const auto qr = detect_quasi_regularity(c);
  ASSERT_TRUE(qr.has_value());
  EXPECT_GE(qr->degree, 3);
  EXPECT_NEAR(qr->center.x, 0.0, 1e-6);
  EXPECT_NEAR(qr->center.y, 0.0, 1e-6);
}

TEST(QuasiRegular, RejectsGenericAsymmetric) {
  const configuration c({{0, 0}, {5, 0}, {1, 3}, {-2, 1}, {0.5, -2.5}});
  EXPECT_FALSE(detect_quasi_regularity(c).has_value());
}

TEST(QuasiRegular, RejectsPerturbedPolygon) {
  sim::rng r(3);
  auto pts = workloads::perturbed(ngon(6), 0.05, r);
  EXPECT_FALSE(detect_quasi_regularity(configuration(pts)).has_value());
}

TEST(QuasiRegular, SymmetricRingsDetected) {
  sim::rng r(5);
  const auto pts = workloads::symmetric_rings(4, 3, r);
  const auto qr = detect_quasi_regularity(configuration(pts));
  ASSERT_TRUE(qr.has_value());
  EXPECT_GE(qr->degree, 4);
}

TEST(QuasiRegular, InvariantUnderSimilarity) {
  sim::rng r(11);
  const auto base = workloads::symmetric_rings(3, 2, r);
  const auto qr1 = detect_quasi_regularity(configuration(base));
  std::vector<vec2> moved;
  for (const vec2& p : base) {
    moved.push_back(vec2{4, -2} + 2.5 * geom::rotated_ccw(p, 0.777));
  }
  const auto qr2 = detect_quasi_regularity(configuration(moved));
  ASSERT_TRUE(qr1.has_value());
  ASSERT_TRUE(qr2.has_value());
  EXPECT_EQ(qr1->degree, qr2->degree);
  const vec2 mapped = vec2{4, -2} + 2.5 * geom::rotated_ccw(qr1->center, 0.777);
  EXPECT_NEAR(qr2->center.x, mapped.x, 1e-6);
  EXPECT_NEAR(qr2->center.y, mapped.y, 1e-6);
}

TEST(QuasiRegular, GatheredConfigurationRejected) {
  EXPECT_FALSE(detect_quasi_regularity(configuration({{1, 1}, {1, 1}})).has_value());
}

/// The robot at clockwise angle `phi` and distance `r` from `center`.
vec2 at_cw(vec2 center, double r, double phi) {
  return {center.x + r * std::cos(phi), center.y - r * std::sin(phi)};
}

/// Longest run of equal thetas in the angular order about `center` (each
/// entry is one robot): the Def. 8 max ray load by definition.
int order_run_max(const configuration& c, vec2 center) {
  int best = 0;
  int run = 0;
  const std::vector<angular_entry> order =
      detail::angular_order_uncached(c, center);
  for (std::size_t i = 0; i < order.size(); ++i) {
    run = (i > 0 && order[i].theta == order[i - 1].theta) ? run + 1 : 1;
    best = std::max(best, run);
  }
  return best;
}

/// One chain of robots at radii 1, 2, ... on the clockwise offsets
/// `offsets` (units of 1e-9 rad, a chain under the 1e-9 angle tolerance)
/// about the origin, rotated clockwise by `phi`.
void add_chain(std::vector<vec2>& pts, const std::vector<double>& offsets,
               double phi) {
  for (std::size_t j = 0; j < offsets.size(); ++j) {
    pts.push_back(at_cw({0, 0}, 1.0 + static_cast<double>(j),
                        phi + offsets[j] * 1e-9));
  }
}

/// A chain straddling the 0/2*pi seam of the origin plus five generic robots.
std::vector<vec2> seam_chain(const std::vector<double>& offsets) {
  std::vector<vec2> pts;
  add_chain(pts, offsets, 0.0);
  for (const vec2 p : {vec2{-3, 1.7}, vec2{0.4, -2.9}, vec2{-1.3, -4.1},
                       vec2{2.2, 3.3}, vec2{-5.5, 0.6}}) {
    pts.push_back(p);
  }
  return pts;
}

/// Four such chains a quarter turn apart about an occupied origin: the k = 0
/// chain straddles the seam, and the configuration is quasi-regular about the
/// origin with degree 4 (every rotation class is full; deficit 0).
std::vector<vec2> seam_cross(const std::vector<double>& offsets) {
  std::vector<vec2> pts = {{0, 0}};
  for (int k = 0; k < 4; ++k) add_chain(pts, offsets, k * geom::pi / 2);
  return pts;
}

void expect_seam_ray_is_one_ray(const std::vector<double>& offsets) {
  const int load = static_cast<int>(offsets.size());
  const configuration chain(seam_chain(offsets));
  EXPECT_EQ(order_run_max(chain, {0, 0}), load);
  EXPECT_EQ(max_ray_load(chain, {0, 0}), load);
  const configuration cross(seam_cross(offsets));
  EXPECT_EQ(order_run_max(cross, {0, 0}), load);
  EXPECT_EQ(max_ray_load(cross, {0, 0}), load);
  const auto m = quasi_regular_about_occupied(cross, {0, 0});
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(*m, 4);
}

TEST(RaySweep, SeamStraddlingRayWithRepresentativeNearTwoPi) {
  // The chain's mean, -1.22e-9, stays a representative near 2*pi: the +0.5
  // member snaps up to it and must rejoin the other four, not open a ray of
  // its own in front of the sequence.
  expect_seam_ray_is_one_ray({-3.0, -2.1, -1.2, -0.3, 0.5});
}

TEST(RaySweep, SeamStraddlingRayWithRepresentativeSnappedToZero) {
  // The chain's mean, +0.25e-9, snaps to exactly 0: the members just below
  // 2*pi snap down to it and must rejoin the leading ones.
  expect_seam_ray_is_one_ray({-0.9, -0.1, 0.6, 1.4});
}

}  // namespace
}  // namespace gather::config
