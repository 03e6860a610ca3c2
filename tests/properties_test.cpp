// Property-style parameterized sweeps (TEST_P) over seeds and sizes for the
// invariants the paper's proofs rely on.
#include <gtest/gtest.h>

#include <tuple>

#include "config/config.h"
#include "core/core.h"
#include "geometry/angles.h"
#include "sim/sim.h"
#include "sim_support.h"
#include "workloads/generators.h"

namespace gather {
namespace {

using config::config_class;
using config::configuration;
using geom::vec2;

const core::wait_free_gather kAlgo;

// ---------------------------------------------------------------------------
// P1: the classification partition is total and invariant under direct
// similarities, for random clouds of every size.
// ---------------------------------------------------------------------------

class ClassificationInvariance
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ClassificationInvariance, StableUnderSimilarity) {
  const auto [n, seed] = GetParam();
  sim::rng r(static_cast<std::uint64_t>(seed) * 977 + n);
  const auto pts = workloads::uniform_random(n, r);
  const config_class base = config::classify(configuration(pts)).cls;
  for (int k = 0; k < 3; ++k) {
    const double ang = r.uniform(0.0, geom::two_pi);
    const double s = std::exp(r.uniform(-1.5, 1.5));
    const vec2 off{r.uniform(-20, 20), r.uniform(-20, 20)};
    std::vector<vec2> moved;
    for (const vec2& p : pts) moved.push_back(off + s * geom::rotated_ccw(p, ang));
    EXPECT_EQ(config::classify(configuration(moved)).cls, base)
        << "n=" << n << " seed=" << seed << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ClassificationInvariance,
                         ::testing::Combine(::testing::Values(3, 4, 5, 6, 8, 11, 16),
                                            ::testing::Range(0, 8)));

// ---------------------------------------------------------------------------
// P2: Lemma 5.1 wait-freeness -- at most one stationary location -- holds on
// random clouds, on every corpus class, and on perturbed symmetric configs.
// ---------------------------------------------------------------------------

class WaitFreeness : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(WaitFreeness, AtMostOneStationaryLocation) {
  const auto [n, seed] = GetParam();
  sim::rng r(static_cast<std::uint64_t>(seed) * 1031 + n);
  const auto pts = workloads::uniform_random(n, r);
  EXPECT_TRUE(core::satisfies_wait_freeness(configuration(pts), kAlgo));
  // Stacked variant: move a random robot onto another.
  auto stacked = pts;
  stacked[0] = stacked[n / 2];
  EXPECT_TRUE(core::satisfies_wait_freeness(configuration(stacked), kAlgo));
}

INSTANTIATE_TEST_SUITE_P(Sweep, WaitFreeness,
                         ::testing::Combine(::testing::Values(3, 4, 5, 7, 9, 13),
                                            ::testing::Range(0, 10)));

// ---------------------------------------------------------------------------
// P3: Lemma 3.2 -- moving robots towards the Weber point of a QR
// configuration preserves it (per-robot random fractions).
// ---------------------------------------------------------------------------

class WeberInvariance : public ::testing::TestWithParam<int> {};

TEST_P(WeberInvariance, MovesTowardsWeberPreserveIt) {
  sim::rng r(static_cast<std::uint64_t>(GetParam()) * 131 + 7);
  const std::size_t k = 3 + GetParam() % 4;
  auto pts = workloads::biangular(k, 0.2 + 0.05 * (GetParam() % 5), r);
  const configuration c(pts);
  const auto w = config::weber_point(c);
  ASSERT_TRUE(w.exact);
  for (vec2& p : pts) p = geom::lerp(p, w.point, r.uniform(0.0, 0.9));
  const auto w2 = config::weber_point(configuration(pts));
  EXPECT_NEAR(w2.point.x, w.point.x, 1e-6);
  EXPECT_NEAR(w2.point.y, w.point.y, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sweep, WeberInvariance, ::testing::Range(0, 12));

// ---------------------------------------------------------------------------
// P4: Lemma 4.2 -- every non-linear configuration has a safe point; moving
// all robots towards an elected safe point never yields B or L2W
// (claim C1 of Lemma 5.6).
// ---------------------------------------------------------------------------

class SafePointProgress : public ::testing::TestWithParam<std::tuple<int, int>> {};

/// The first uniform-random draw from `r` that is non-linear and in class A
/// (empty if none of the first 32 draws is).  Small swarms often draw a
/// quasi-regular configuration (about half of the n = 4 draws), so the
/// instance redraws deterministically instead of skipping.  Every non-linear
/// draw on the way, class A or not, is still checked against Lemma 4.2.
std::vector<vec2> draw_asymmetric(int n, sim::rng& r) {
  for (int a = 0; a < 32; ++a) {
    auto pts = workloads::uniform_random(static_cast<std::size_t>(n), r);
    const configuration c(pts);
    if (c.is_linear()) continue;
    EXPECT_FALSE(config::safe_occupied_points(c).empty());
    if (config::classify(c).cls == config_class::asymmetric) return pts;
  }
  return {};
}

TEST_P(SafePointProgress, OneStepNeverProducesBivalentOrL2W) {
  const auto [n, seed] = GetParam();
  sim::rng r(static_cast<std::uint64_t>(seed) * 499 + n);
  const auto pts = draw_asymmetric(n, r);
  ASSERT_FALSE(pts.empty()) << "no non-linear class-A draw";
  const configuration c(pts);
  ASSERT_FALSE(c.is_linear());
  ASSERT_EQ(config::classify(c).cls, config_class::asymmetric);
  const auto leader = core::wait_free_gather::elect_leader(c);
  ASSERT_TRUE(leader.has_value());
  // Arbitrary subset of robots moves arbitrary fractions towards the leader.
  auto moved = pts;
  for (vec2& p : moved) {
    if (r.flip()) p = geom::lerp(p, *leader, r.uniform(0.1, 1.0));
  }
  const config_class next = config::classify(configuration(moved)).cls;
  EXPECT_NE(next, config_class::bivalent);
  EXPECT_NE(next, config_class::linear_2w);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SafePointProgress,
                         ::testing::Combine(::testing::Values(4, 5, 6, 8, 10),
                                            ::testing::Range(0, 10)));

// ---------------------------------------------------------------------------
// P5: full-run property -- for every (n, f, scheduler) combination, random
// instances gather with zero wait-freeness violations and only allowed class
// transitions.
// ---------------------------------------------------------------------------

struct RunParam {
  int n;
  int f;
  int sched;
};

class FullRun : public ::testing::TestWithParam<RunParam> {};

TEST_P(FullRun, GathersCleanly) {
  const RunParam p = GetParam();
  sim::rng r(static_cast<std::uint64_t>(p.n) * 7919 + p.f * 271 + p.sched);
  const auto pts = workloads::uniform_random(p.n, r);
  auto sched = sim::all_schedulers()[p.sched].make();
  auto move = sim::make_random_stop();
  auto crash = sim::make_random_crashes(p.f, 50);
  sim::sim_options opts;
  opts.check_wait_freeness = true;
  opts.seed = static_cast<std::uint64_t>(p.n) * 13 + p.f;
  const auto res = sim::run_sim(pts, kAlgo, *sched, *move, *crash, opts);
  EXPECT_EQ(res.status, sim::sim_status::gathered);
  EXPECT_EQ(res.wait_free_violations, 0u);
  EXPECT_EQ(res.bivalent_entries, 0u);
  EXPECT_TRUE(sim::transitions_allowed(res.class_history));
}

std::vector<RunParam> full_run_grid() {
  std::vector<RunParam> out;
  for (int n : {4, 6, 9, 12}) {
    for (int f : {0, 1, n / 2, n - 1}) {
      for (int s = 0; s < static_cast<int>(sim::all_schedulers().size()); ++s) {
        out.push_back({n, f, s});
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Grid, FullRun, ::testing::ValuesIn(full_run_grid()),
                         [](const ::testing::TestParamInfo<RunParam>& param_info) {
                           return "n" + std::to_string(param_info.param.n) +
                                  "_f" + std::to_string(param_info.param.f) +
                                  "_s" + std::to_string(param_info.param.sched);
                         });

// ---------------------------------------------------------------------------
// P6: QR detection agrees between a configuration and a randomly
// re-expressed copy (frame determinism of Theorem 3.1's detector).
// ---------------------------------------------------------------------------

class QrDetectionDeterminism : public ::testing::TestWithParam<int> {};

TEST_P(QrDetectionDeterminism, SameAnswerInAnyFrame) {
  sim::rng r(static_cast<std::uint64_t>(GetParam()) * 37 + 5);
  const std::size_t k = 3 + GetParam() % 3;
  const auto pts = (GetParam() % 2 == 0)
                       ? workloads::symmetric_rings(k, 2, r)
                       : workloads::biangular(k, 0.35, r);
  const auto base = config::detect_quasi_regularity(configuration(pts));
  ASSERT_TRUE(base.has_value());
  const double ang = r.uniform(0.0, geom::two_pi);
  const double s = std::exp(r.uniform(-1.0, 1.0));
  const vec2 off{r.uniform(-9, 9), r.uniform(-9, 9)};
  std::vector<vec2> moved;
  for (const vec2& p : pts) moved.push_back(off + s * geom::rotated_ccw(p, ang));
  const auto again = config::detect_quasi_regularity(configuration(moved));
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->degree, base->degree);
  const vec2 mapped = off + s * geom::rotated_ccw(base->center, ang);
  EXPECT_NEAR(again->center.x, mapped.x, 1e-5);
  EXPECT_NEAR(again->center.y, mapped.y, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Sweep, QrDetectionDeterminism, ::testing::Range(0, 12));

}  // namespace
}  // namespace gather
