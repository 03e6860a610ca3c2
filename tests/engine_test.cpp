// Engine-behaviour tests: fairness backstop, budgets, crash floor, options.
#include <gtest/gtest.h>

#include "config/classify.h"
#include "core/wait_free_gather.h"
#include "obs/profile.h"
#include "sim/sim.h"
#include "sim_support.h"
#include "workloads/generators.h"

namespace gather::sim {
namespace {

using geom::vec2;

const core::wait_free_gather kAlgo;

/// A hostile scheduler that, left unchecked, would starve robot 0 forever.
class starver final : public activation_scheduler {
 public:
  std::vector<std::size_t> select(const schedule_context& ctx, rng&) override {
    std::vector<std::size_t> out;
    for (std::size_t i = 1; i < ctx.live.size(); ++i) {
      if (ctx.live[i]) out.push_back(i);
    }
    if (out.empty() && !ctx.live.empty() && ctx.live[0]) out.push_back(0);
    return out;
  }
  std::string_view name() const override { return "starver"; }
};

TEST(Engine, FairnessBackstopRescuesStarvedRobots) {
  // Robot 0 is the farthest from the eventual target; without the backstop
  // the starver would keep it away forever.  The engine force-activates it.
  starver sched;
  auto move = make_full_movement();
  auto crash = make_no_crash();
  sim_options opts;
  opts.fairness_bound = 8;
  const std::vector<vec2> pts = {{10, 10}, {0, 0}, {0, 0}, {1, 0}, {0, 1}};
  const auto res = run_sim(pts, kAlgo, sched, *move, *crash, opts);
  EXPECT_EQ(res.status, sim_status::gathered);
}

TEST(Engine, RoundLimitIsHonoured) {
  auto sched = make_round_robin();
  auto move = make_minimal_movement();
  auto crash = make_no_crash();
  sim_options opts;
  opts.max_rounds = 3;  // far too few
  opts.delta_fraction = 0.001;
  rng r(1);
  const auto res =
      run_sim(workloads::uniform_random(8, r), kAlgo, *sched, *move, *crash, opts);
  EXPECT_EQ(res.status, sim_status::round_limit);
  EXPECT_LE(res.rounds, 3u);
}

TEST(Engine, LastLiveRobotCannotCrash) {
  // The model requires f < n; a policy asking for everyone is clipped.
  auto sched = make_synchronous();
  auto move = make_full_movement();
  auto crash = make_scheduled_crashes({{0, 0}, {0, 1}, {0, 2}});
  sim_options opts;
  const std::vector<vec2> pts = {{0, 0}, {4, 0}, {1, 3}};
  const auto res = run_sim(pts, kAlgo, *sched, *move, *crash, opts);
  EXPECT_EQ(res.crashes, 2u);  // third crash refused
  EXPECT_EQ(res.status, sim_status::gathered);  // the lone survivor gathers
}

TEST(Engine, DeltaIsAbsolutePerRun) {
  // Same instance at two delta fractions: the smaller delta takes more
  // rounds under minimal movement.
  rng r(2);
  const auto pts = workloads::uniform_random(6, r);
  auto run = [&](double frac) {
    auto sched = make_synchronous();
    auto move = make_minimal_movement();
    auto crash = make_no_crash();
    sim_options opts;
    opts.delta_fraction = frac;
    return run_sim(pts, kAlgo, *sched, *move, *crash, opts);
  };
  const auto fast = run(0.5);
  const auto slow = run(0.02);
  ASSERT_EQ(fast.status, sim_status::gathered);
  ASSERT_EQ(slow.status, sim_status::gathered);
  EXPECT_LT(fast.rounds, slow.rounds);
}

TEST(Engine, TraceOffByDefault) {
  auto sched = make_synchronous();
  auto move = make_full_movement();
  auto crash = make_no_crash();
  sim_options opts;
  rng r(3);
  const auto res =
      run_sim(workloads::uniform_random(5, r), kAlgo, *sched, *move, *crash, opts);
  EXPECT_TRUE(res.trace.empty());
  EXPECT_FALSE(res.class_history.empty());  // class history is always kept
}

TEST(Engine, GatherPointHostsAllLiveRobots) {
  rng r(4);
  auto sched = make_fair_random();
  auto move = make_random_stop();
  auto crash = make_random_crashes(3, 20);
  sim_options opts;
  opts.seed = 9;
  const auto res =
      run_sim(workloads::uniform_random(9, r), kAlgo, *sched, *move, *crash, opts);
  ASSERT_EQ(res.status, sim_status::gathered);
  const config::configuration final_c(res.final_positions);
  for (std::size_t i = 0; i < res.final_positions.size(); ++i) {
    if (res.final_live[i]) {
      EXPECT_TRUE(final_c.tolerance().same_point(
          final_c.snapped(res.final_positions[i]), res.gather_point));
    }
  }
}

TEST(Engine, ResultRoundsMatchesClassHistory) {
  auto sched = make_synchronous();
  auto move = make_full_movement();
  auto crash = make_no_crash();
  sim_options opts;
  rng r(5);
  const auto res =
      run_sim(workloads::uniform_random(5, r), kAlgo, *sched, *move, *crash, opts);
  ASSERT_EQ(res.status, sim_status::gathered);
  // One class entry per examined round, including the final gathered one.
  EXPECT_EQ(res.class_history.size(), res.rounds + 1);
}

TEST(Engine, SeedsAreReproducible) {
  rng ra(6);
  const auto pts = workloads::uniform_random(7, ra);
  auto run = [&] {
    auto sched = make_fair_random();
    auto move = make_random_stop();
    auto crash = make_random_crashes(2, 15);
    sim_options opts;
    opts.seed = 123;
    return run_sim(pts, kAlgo, *sched, *move, *crash, opts);
  };
  const auto r1 = run();
  const auto r2 = run();
  EXPECT_EQ(r1.rounds, r2.rounds);
  EXPECT_EQ(r1.crashes, r2.crashes);
  EXPECT_EQ(r1.final_positions, r2.final_positions);
}

TEST(Engine, DifferentSeedsDiverge) {
  rng ra(7);
  const auto pts = workloads::uniform_random(7, ra);
  auto run = [&](std::uint64_t seed) {
    auto sched = make_fair_random();
    auto move = make_random_stop();
    auto crash = make_no_crash();
    sim_options opts;
    opts.seed = seed;
    return run_sim(pts, kAlgo, *sched, *move, *crash, opts);
  };
  // Not a strict guarantee, but over several seeds at least one divergence.
  bool diverged = false;
  const auto base = run(1);
  for (std::uint64_t s = 2; s < 6 && !diverged; ++s) {
    diverged = run(s).rounds != base.rounds;
  }
  EXPECT_TRUE(diverged);
}

TEST(Engine, ClassARoundClassifiesOnce) {
  // The initial bivalence check is the O(1) class-B test, so a one-round
  // class-A run pays for exactly one classification: the round's own.
  rng r(8);
  const std::vector<vec2> pts = workloads::uniform_random(64, r);
  ASSERT_EQ(config::classify(config::configuration(pts)).cls,
            config::config_class::asymmetric);
  auto sched = make_synchronous();
  auto move = make_full_movement();
  auto crash = make_no_crash();
  obs::prof_registry prof;
  sim_spec s;
  s.initial = pts;
  s.algorithm = &kAlgo;
  s.scheduler = sched.get();
  s.movement = move.get();
  s.crash = crash.get();
  s.options.max_rounds = 1;
  s.profile = &prof;
  const sim_result res = run(s);
  ASSERT_EQ(res.class_history.size(), 1u);
  EXPECT_EQ(res.class_history.front(), config::config_class::asymmetric);
  const auto site = prof.sites().find("config.classify");
  ASSERT_NE(site, prof.sites().end());
  EXPECT_EQ(site->second.calls, 1u);
}

}  // namespace
}  // namespace gather::sim
