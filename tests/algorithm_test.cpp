#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "config/safe_points.h"
#include "core/core.h"
#include "geometry/angles.h"
#include "geometry/predicates.h"
#include "sim/rng.h"
#include "workloads/generators.h"

namespace gather::core {
namespace {

using config::config_class;
using config::configuration;
using geom::vec2;

const wait_free_gather kAlgo;

TEST(MultipleCase, RobotAtTargetStays) {
  const configuration c({{0, 0}, {0, 0}, {3, 0}});
  EXPECT_EQ(kAlgo.destination({c, {0, 0}}), (vec2{0, 0}));
}

TEST(MultipleCase, FreeRobotMovesStraight) {
  const configuration c({{0, 0}, {0, 0}, {3, 0}});
  EXPECT_EQ(kAlgo.destination({c, {3, 0}}), (vec2{0, 0}));
}

TEST(MultipleCase, BlockedRobotSideSteps) {
  // Robot at (4,0) is blocked by (2,0); it must leave the ray but keep its
  // distance to the target.
  const configuration c({{0, 0}, {0, 0}, {2, 0}, {4, 0}});
  const vec2 d = kAlgo.destination({c, {4, 0}});
  ASSERT_TRUE(geom::in_open_segment({2, 0}, {4, 0}, {0, 0}, c.tolerance()));
  EXPECT_NE(d, (vec2{0, 0}));
  EXPECT_NEAR(geom::distance(d, {0, 0}), 4.0, 1e-9);
  // Clockwise rotation: negative mathematical angle, so y < 0.
  EXPECT_LT(d.y, 0.0);
}

TEST(MultipleCase, SideStepRespectsThirdOfGap) {
  // Another occupied ray at 90 degrees clockwise; the side-step must rotate
  // by at most 30 degrees.
  const configuration c({{0, 0}, {0, 0}, {2, 0}, {4, 0}, {0, -3}});
  const double theta = wait_free_gather::side_step_angle(c, {4, 0}, {0, 0});
  EXPECT_LE(theta, geom::pi / 2 / 3 + 1e-12);
  EXPECT_GT(theta, 0.0);
}

TEST(MultipleCase, SideStepIgnoresOwnRayRobots) {
  // Only blockers on the robot's own ray: the gap to "other rays" is
  // undefined, so a fixed default is used; it must still be positive.
  const configuration c({{0, 0}, {0, 0}, {2, 0}, {4, 0}});
  const double theta = wait_free_gather::side_step_angle(c, {4, 0}, {0, 0});
  EXPECT_GT(theta, 0.0);
  EXPECT_LT(theta, geom::pi);
}

TEST(MultipleCase, CoLocatedRobotsShareDestination) {
  const configuration c({{0, 0}, {0, 0}, {2, 0}, {4, 0}, {4, 0}});
  const vec2 d1 = kAlgo.destination({c, {4, 0}});
  const vec2 d2 = kAlgo.destination({c, {4, 0}});
  EXPECT_EQ(d1, d2);
}

TEST(QuasiRegularCase, MovesToWeberPoint) {
  sim::rng r(51);
  const auto pts = workloads::biangular(3, 0.5, r);
  const configuration c(pts);
  ASSERT_EQ(config::classify(c).cls, config_class::quasi_regular);
  for (const config::occupied_point& o : c.occupied()) {
    const vec2 d = kAlgo.destination({c, o.position});
    EXPECT_NEAR(d.x, 0.0, 1e-6);
    EXPECT_NEAR(d.y, 0.0, 1e-6);
  }
}

TEST(Linear1WCase, MovesToMedian) {
  const configuration c({{0, 0}, {1, 0}, {2, 0}, {3, 0}, {7, 0}});
  ASSERT_EQ(config::classify(c).cls, config_class::linear_1w);
  EXPECT_NEAR(kAlgo.destination({c, {7, 0}}).x, 2.0, 1e-9);
  EXPECT_NEAR(kAlgo.destination({c, {0, 0}}).x, 2.0, 1e-9);
  // The robot at the median stays.
  EXPECT_EQ(kAlgo.destination({c, {2, 0}}), (vec2{2, 0}));
}

TEST(AsymmetricCase, LeaderIsSafeAndUnique) {
  const configuration c({{0, 0}, {5, 0}, {1, 3}, {-2, 1}, {0.5, -2.5}});
  ASSERT_EQ(config::classify(c).cls, config_class::asymmetric);
  const auto leader = wait_free_gather::elect_leader(c);
  ASSERT_TRUE(leader.has_value());
  EXPECT_TRUE(config::is_safe_point(c, *leader));
  // Everyone moves to the leader; the leader stays.
  for (const config::occupied_point& o : c.occupied()) {
    EXPECT_EQ(kAlgo.destination({c, o.position}), *leader);
  }
}

TEST(AsymmetricCase, LeaderPrefersMultiplicityThenSumOfDistances) {
  // Two stacks of two tie on multiplicity, so the configuration stays in
  // class A instead of M.  The safe singleton at (1, 0.5) has the smallest
  // sum of distances, but the stacks outrank it; between the stacks, (0, 0)
  // wins on sum of distances.
  const configuration c({{0, 0}, {0, 0}, {6, 1}, {6, 1}, {1, 4}, {-3, 2},
                         {2, -3}, {1, 0.5}});
  ASSERT_EQ(config::classify(c).cls, config_class::asymmetric);
  const auto safe = config::safe_occupied_points(c);
  const auto is_safe = [&](vec2 p) {
    return std::any_of(safe.begin(), safe.end(), [&](std::size_t i) {
      return c.occupied()[i].position == p;
    });
  };
  ASSERT_TRUE(is_safe({0, 0}));
  ASSERT_TRUE(is_safe({6, 1}));
  ASSERT_TRUE(is_safe({1, 0.5}));
  ASSERT_LT(c.sum_distances({1, 0.5}), c.sum_distances({0, 0}));
  ASSERT_LT(c.sum_distances({0, 0}), c.sum_distances({6, 1}));
  const auto leader = wait_free_gather::elect_leader(c);
  ASSERT_TRUE(leader.has_value());
  EXPECT_EQ(*leader, (vec2{0, 0}));
}

TEST(AsymmetricCase, ElectionInvariantUnderSimilarity) {
  const std::vector<vec2> base = {{0, 0}, {5, 0}, {1, 3}, {-2, 1}, {0.5, -2.5}};
  const configuration c1(base);
  const auto l1 = wait_free_gather::elect_leader(c1);
  std::vector<vec2> moved;
  for (const vec2& p : base) {
    moved.push_back(vec2{7, -2} + 0.6 * geom::rotated_ccw(p, 2.1));
  }
  const configuration c2(moved);
  const auto l2 = wait_free_gather::elect_leader(c2);
  ASSERT_TRUE(l1 && l2);
  const vec2 mapped = vec2{7, -2} + 0.6 * geom::rotated_ccw(*l1, 2.1);
  EXPECT_NEAR(l2->x, mapped.x, 1e-7);
  EXPECT_NEAR(l2->y, mapped.y, 1e-7);
}

TEST(Linear2WCase, EndpointsLeaveLineOthersGoCenter) {
  const configuration c({{0, 0}, {1, 0}, {3, 0}, {8, 0}});
  ASSERT_EQ(config::classify(c).cls, config_class::linear_2w);
  const vec2 center{4, 0};
  EXPECT_EQ(kAlgo.destination({c, {1, 0}}), center);
  EXPECT_EQ(kAlgo.destination({c, {3, 0}}), center);
  const vec2 d_lo = kAlgo.destination({c, {0, 0}});
  const vec2 d_hi = kAlgo.destination({c, {8, 0}});
  // Endpoints keep their distance to the center but leave the line.
  EXPECT_NEAR(geom::distance(d_lo, center), 4.0, 1e-9);
  EXPECT_NEAR(geom::distance(d_hi, center), 4.0, 1e-9);
  EXPECT_GT(std::fabs(d_lo.y), 0.1);
  EXPECT_GT(std::fabs(d_hi.y), 0.1);
}

TEST(BivalentCase, RobotsHoldPosition) {
  const configuration c({{0, 0}, {0, 0}, {4, 0}, {4, 0}});
  EXPECT_EQ(kAlgo.destination({c, {0, 0}}), (vec2{0, 0}));
  EXPECT_EQ(kAlgo.destination({c, {4, 0}}), (vec2{4, 0}));
}

TEST(Gathered, RobotStays) {
  const configuration c({{2, 2}, {2, 2}});
  EXPECT_EQ(kAlgo.destination({c, {2, 2}}), (vec2{2, 2}));
}

TEST(WaitFreeness, Lemma51OnCorpus) {
  // At most one occupied location may be stationary in any configuration.
  for (std::size_t n : {4u, 5u, 7u, 8u, 9u, 12u}) {
    for (const auto& wl : workloads::corpus(n, 600 + n)) {
      const configuration c(wl.points);
      EXPECT_TRUE(satisfies_wait_freeness(c, kAlgo)) << wl.name << " n=" << n;
    }
  }
}

TEST(WaitFreeness, RandomCloudsNeverDeadlock) {
  sim::rng r(53);
  for (int trial = 0; trial < 60; ++trial) {
    const auto pts = workloads::uniform_random(3 + trial % 12, r);
    const configuration c(pts);
    EXPECT_TRUE(satisfies_wait_freeness(c, kAlgo)) << trial;
  }
}

TEST(Destinations, ParallelToOccupied) {
  const configuration c({{0, 0}, {5, 0}, {1, 3}});
  EXPECT_EQ(destinations(c, kAlgo).size(), c.distinct_count());
}

TEST(Destinations, BulkMatchesPerPointOnCorpus) {
  // The batched override must be semantically identical to per-snapshot
  // calls for every configuration class.
  for (std::size_t n : {4u, 6u, 8u, 9u}) {
    for (const auto& wl : workloads::corpus(n, 12'000 + n)) {
      const configuration c(wl.points);
      const auto bulk = kAlgo.destinations(c);
      ASSERT_EQ(bulk.size(), c.distinct_count()) << wl.name;
      for (std::size_t i = 0; i < bulk.size(); ++i) {
        const vec2 single = kAlgo.destination({c, c.occupied()[i].position});
        EXPECT_LT(geom::distance(bulk[i], single), 1e-12 * (1.0 + c.diameter()))
            << wl.name << " i=" << i;
      }
    }
  }
}

TEST(StationaryLocations, MultipleCaseHasExactlyOne) {
  const configuration c({{0, 0}, {0, 0}, {3, 0}, {1, 4}});
  const auto stat = stationary_locations(c, kAlgo);
  ASSERT_EQ(stat.size(), 1u);
  EXPECT_EQ(stat.front(), (vec2{0, 0}));
}

}  // namespace
}  // namespace gather::core
