#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "config/classify.h"
#include "config/derived.h"
#include "config/regularity.h"
#include "config/safe_points.h"
#include "geometry/angles.h"
#include "sim/rng.h"
#include "workloads/generators.h"

namespace gather::config {
namespace {

using geom::vec2;

TEST(SafePoints, MaxRayLoadCountsCollinearRobots) {
  // From (0,0): three robots on the +x ray, one elsewhere.
  const configuration c({{0, 0}, {1, 0}, {2, 0}, {3, 0}, {0, 5}});
  EXPECT_EQ(max_ray_load(c, {0, 0}), 3);
}

TEST(SafePoints, RobotsAtPointDoNotCount) {
  const configuration c({{0, 0}, {0, 0}, {0, 0}, {1, 0}, {0, 5}});
  EXPECT_EQ(max_ray_load(c, {0, 0}), 1);
}

TEST(SafePoints, OppositeRaysAreDistinct) {
  const configuration c({{0, 0}, {1, 0}, {2, 0}, {-1, 0}, {-2, 0}, {0, 4}});
  EXPECT_EQ(max_ray_load(c, {0, 0}), 2);
}

TEST(SafePoints, MultiplicityCountsOnRay) {
  const configuration c({{0, 0}, {1, 0}, {1, 0}, {1, 0}, {0, 5}});
  EXPECT_EQ(max_ray_load(c, {0, 0}), 3);
}

TEST(SafePoints, SquareCornersAreSafe) {
  const configuration c({{1, 1}, {-1, 1}, {-1, -1}, {1, -1}});
  // n = 4, bound = ceil(4/2) - 1 = 1; every ray from a corner holds 1 robot.
  for (const occupied_point& o : c.occupied()) {
    EXPECT_TRUE(is_safe_point(c, o.position));
  }
}

TEST(SafePoints, EndpointOfHeavyLineIsUnsafe) {
  // From an endpoint, the whole line is one ray with n-1 >= ceil(n/2) robots.
  const configuration c({{0, 0}, {1, 0}, {2, 0}, {3, 0}});
  EXPECT_FALSE(is_safe_point(c, {0, 0}));
}

TEST(SafePoints, Lemma42NonLinearHasSafePoint) {
  // Any non-linear configuration contains a safe point.
  sim::rng r(17);
  for (int trial = 0; trial < 50; ++trial) {
    const auto pts = workloads::uniform_random(5 + trial % 10, r);
    const configuration c(pts);
    if (c.is_linear()) continue;
    EXPECT_FALSE(safe_occupied_points(c).empty()) << "trial " << trial;
  }
}

TEST(SafePoints, Lemma43BivalentHasNoSafePoint) {
  sim::rng r(19);
  for (std::size_t n : {2u, 4u, 8u, 12u}) {
    const configuration c(workloads::bivalent(n, r));
    EXPECT_TRUE(safe_occupied_points(c).empty()) << n;
  }
}

TEST(SafePoints, Lemma43LinearTwoWeberHasNoSafePoint) {
  sim::rng r(23);
  for (int trial = 0; trial < 20; ++trial) {
    const auto pts = workloads::linear_two_weber(4 + 2 * (trial % 4), r);
    const configuration c(pts);
    ASSERT_EQ(classify(c).cls, config_class::linear_2w);
    // On a line with an even number of robots, every point has >= n/2 robots
    // on one of the two directions.
    EXPECT_TRUE(safe_occupied_points(c).empty()) << "trial " << trial;
  }
}

TEST(SafePoints, CenterOfPolygonIsSafe) {
  std::vector<vec2> pts;
  for (int i = 0; i < 6; ++i) {
    const double a = geom::two_pi * i / 6;
    pts.push_back({std::cos(a), std::sin(a)});
  }
  pts.push_back({0, 0});
  const configuration c(pts);
  EXPECT_TRUE(is_safe_point(c, {0, 0}));
}

TEST(SafePoints, UnoccupiedPointsCanBeTested) {
  const configuration c({{1, 1}, {-1, 1}, {-1, -1}, {1, -1}});
  EXPECT_TRUE(is_safe_point(c, {0, 0}));
  EXPECT_TRUE(is_safe_point(c, {10, 0}));  // sees two rays of 2... check bound
}

// ---------------------------------------------------------------------------
// The ray sweep against the definition.  max_ray_load and
// safe_occupied_points come from the Lemma 3.4 ray sweep (warm: the slot the
// quasi-regularity search fills; cold: a sweep per call); the oracle is the
// Def. 8 run definition over the uncached angular order.

/// Longest run of equal thetas in the angular order about `p` (one entry per
/// robot).
int reference_max_ray_load(const configuration& c, vec2 p) {
  int best = 0;
  int run = 0;
  const std::vector<angular_entry> order = detail::angular_order_uncached(c, p);
  for (std::size_t i = 0; i < order.size(); ++i) {
    run = (i > 0 && order[i].theta == order[i - 1].theta) ? run + 1 : 1;
    best = std::max(best, run);
  }
  return best;
}

std::vector<std::size_t> reference_safe_points(const configuration& c) {
  const int bound = (static_cast<int>(c.size()) + 1) / 2 - 1;
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < c.occupied().size(); ++i) {
    if (reference_max_ray_load(c, c.occupied()[i].position) <= bound) {
      out.push_back(i);
    }
  }
  return out;
}

/// Compares `c` against the oracle: safe points first, then every occupied
/// center's max ray load, then two unoccupied centers (SEC center and a
/// midpoint), which always take the cold sweep.
void expect_sweep_matches_order(const configuration& c, const std::string& what) {
  EXPECT_EQ(safe_occupied_points(c), reference_safe_points(c)) << what;
  for (const occupied_point& o : c.occupied()) {
    EXPECT_EQ(max_ray_load(c, o.position), reference_max_ray_load(c, o.position))
        << what;
  }
  const vec2 a = c.occupied().front().position;
  const vec2 b = c.occupied().back().position;
  for (const vec2 p : {c.sec().center, vec2{(a.x + b.x) / 2, (a.y + b.y) / 2}}) {
    EXPECT_EQ(max_ray_load(c, p), reference_max_ray_load(c, p)) << what;
  }
}

/// Fresh configurations on both paths: the quasi-regularity search filling
/// the slot before safe points are read, and safe points read cold.
void expect_both_paths_match(const std::vector<vec2>& pts, const std::string& what) {
  {
    const configuration warm(pts);
    (void)detect_quasi_regularity(warm);
    expect_sweep_matches_order(warm, what + " warm");
  }
  const configuration cold(pts);
  expect_sweep_matches_order(cold, what + " cold");
}

/// n robots on random points of a small integer lattice: collinear rays and
/// repeated locations everywhere.
std::vector<vec2> lattice_points(std::size_t n, int side, sim::rng& r) {
  std::vector<vec2> pts;
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({static_cast<double>(r.uniform_int(0, side)),
                   static_cast<double>(r.uniform_int(0, side))});
  }
  return pts;
}

/// n robots stacked on k random lattice sites.  Integer sites keep a
/// stack's clustered position bitwise fixed as its multiplicity changes.
std::vector<vec2> stacked_points(std::size_t n, std::size_t k, sim::rng& r) {
  const std::vector<vec2> sites = lattice_points(k, 20, r);
  std::vector<vec2> pts;
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back(i < k ? sites[i] : sites[r.uniform_int(0, k - 1)]);
  }
  return pts;
}

/// An occupied origin with chains of robots straddling its 0/2*pi seam (the
/// +x axis): clockwise offsets drawn from [-2, 2] * 1e-9 rad, so a chain
/// clusters under the 1e-9 angle tolerance with its representative on either
/// side of the seam.  A second chain straddles the opposite direction, and
/// generic robots fill the rest.
std::vector<vec2> seam_points(sim::rng& r) {
  std::vector<vec2> pts = {{0, 0}};
  for (const double dir : {0.0, geom::pi}) {
    const std::size_t len = r.uniform_int(2, 6);
    for (std::size_t j = 0; j < len; ++j) {
      const double phi = dir + r.uniform(-2.0, 2.0) * 1e-9;
      const double rad = r.uniform(1.0, 10.0);
      pts.push_back({rad * std::cos(phi), -rad * std::sin(phi)});
    }
  }
  for (const vec2 p : workloads::uniform_random(r.uniform_int(3, 8), r)) {
    pts.push_back(p);
  }
  return pts;
}

TEST(SafePointSweep, MatchesOrderRunsOnUniformInputs) {
  sim::rng r(0x5afe1u);
  for (int iter = 0; iter < 60; ++iter) {
    expect_both_paths_match(workloads::uniform_random(3 + iter % 40, r),
                            "uniform iter=" + std::to_string(iter));
  }
}

TEST(SafePointSweep, MatchesOrderRunsOnLatticeInputs) {
  sim::rng r(0x5afe2u);
  for (int iter = 0; iter < 60; ++iter) {
    expect_both_paths_match(lattice_points(4 + iter % 30, 2 + iter % 5, r),
                            "lattice iter=" + std::to_string(iter));
  }
}

TEST(SafePointSweep, MatchesOrderRunsOnStackedInputs) {
  sim::rng r(0x5afe3u);
  for (int iter = 0; iter < 60; ++iter) {
    expect_both_paths_match(stacked_points(6 + iter % 30, 2 + iter % 5, r),
                            "stacked iter=" + std::to_string(iter));
  }
}

TEST(SafePointSweep, MatchesOrderRunsOnSeamStraddlingInputs) {
  sim::rng r(0x5afe4u);
  for (int iter = 0; iter < 100; ++iter) {
    expect_both_paths_match(seam_points(r), "seam iter=" + std::to_string(iter));
  }
}

TEST(SafePointSweep, MatchesOrderRunsAcrossMultsOnlyMutations) {
  // Each step moves one robot from a stacked location exactly onto another
  // occupied location: the location set survives, only multiplicities
  // change (mults_only; lattice inputs keep the clustered positions exact).  The slot filled before the step must not leak
  // into the values read after it.
  sim::rng r(0x5afe5u);
  for (int iter = 0; iter < 20; ++iter) {
    const std::vector<vec2> pts = iter % 2 == 0
                                      ? stacked_points(12 + iter, 4, r)
                                      : lattice_points(16 + iter, 3, r);
    const geom::tol t = geom::tol::for_points(pts);
    configuration c(pts, t);
    if (c.distinct_count() < 2) continue;
    for (int step = 0; step < 8; ++step) {
      const std::string what =
          "iter=" + std::to_string(iter) + " step=" + std::to_string(step);
      if (step % 2 == 0) (void)detect_quasi_regularity(c);  // warm the slot
      expect_sweep_matches_order(c, what);
      std::vector<std::size_t> movers;
      for (std::size_t i = 0; i < c.size(); ++i) {
        if (c.multiplicity(c.robots()[i]) >= 2) movers.push_back(i);
      }
      if (movers.empty()) break;
      const std::size_t i = movers[r.uniform_int(0, movers.size() - 1)];
      const vec2 from = c.robots()[i];
      vec2 to = from;
      while (to == from) {
        to = c.occupied()[r.uniform_int(0, c.distinct_count() - 1)].position;
      }
      const mutation_report rep = c.set_position(i, to);
      ASSERT_EQ(rep.kind, mutation_kind::mults_only) << what;
    }
    expect_sweep_matches_order(c, "iter=" + std::to_string(iter) + " final");
  }
}

}  // namespace
}  // namespace gather::config
