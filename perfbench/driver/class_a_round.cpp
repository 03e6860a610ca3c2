// classA-round: one synchronous WAIT-FREE-GATHER round (full movement, no
// crashes) from a uniform_random class-A configuration at n = 1024.
//
// The paper's most expensive case: classification, the Lemma 3.4 search,
// Def. 8 safe points and the leader election dominate, while the runner,
// checker and engine plumbing do almost nothing.
#include <cstring>
#include <optional>

#include "bench.h"
#include "config/classify.h"
#include "config/configuration.h"
#include "config/regularity.h"
#include "config/safe_points.h"
#include "config/views.h"
#include "config/weber.h"
#include "core/wait_free_gather.h"
#include "geometry/convex_hull.h"
#include "geometry/enclosing_circle.h"
#include "obs/profile_report.h"
#include "sim/spec.h"
#include "workloads/generators.h"

namespace perfbench {
namespace {

using gather::geom::vec2;
namespace config = gather::config;
namespace sim = gather::sim;

constexpr std::size_t robots = 1024;
constexpr int layer_reps = 3;

class class_a_round final : public workload {
 public:
  [[nodiscard]] std::string_view name() const override { return "classA-round"; }

  void generate(std::uint64_t seed) override {
    seed_ = seed;
    sim::rng random(seed);
    points_ = gather::workloads::uniform_random(robots, random);
  }

  void run_op(bool traced) override {
    const auto sched = sim::make_synchronous();
    const auto move = sim::make_full_movement();
    const auto crash = sim::make_no_crash();
    sim::sim_spec s;
    s.initial = points_;
    s.algorithm = &algo_;
    s.scheduler = sched.get();
    s.movement = move.get();
    s.crash = crash.get();
    s.options.seed = seed_;
    s.options.max_rounds = 1;
    if (traced) {
      prof_ = {};
      metrics_ = {};
      s.profile = &prof_;
      s.metrics = &metrics_;
    }
    result_ = sim::run(s);
  }

  [[nodiscard]] op_outcome verify() const override {
    op_outcome out;
    digest d;
    d.str(sim::to_string(result_.status));
    d.u64(result_.rounds);
    for (const auto cls : result_.class_history) d.str(config::to_string(cls));
    for (const vec2 p : result_.final_positions) {
      d.f64(p.x);
      d.f64(p.y);
    }
    out.digest = d.value();

    if (result_.class_history.empty() ||
        result_.class_history.front() != config::config_class::asymmetric) {
      out.failure = "the round did not start in class A";
      return out;
    }
    // Synchronous full movement: every robot ends on the elected leader.
    const vec2 leader = result_.final_positions.front();
    for (const vec2 p : result_.final_positions) {
      if (std::memcmp(&p, &leader, sizeof p) != 0) {
        out.failure = "robots did not all move to one leader";
        return out;
      }
    }
    const config::configuration c(points_);
    if (!c.find_occupied(leader) || !config::is_safe_point(c, leader)) {
      out.failure = "the leader is not an occupied safe point";
    }
    return out;
  }

  void layers(metric_map& out) override {
    std::vector<double> gen, sec, hull, build, classify, qr, views, safe, weber,
        dest, chain, round;
    const gather::geom::tol t = gather::geom::tol::for_points(points_);
    for (int k = 0; k < layer_reps; ++k) {
      gen.push_back(time_s([&] {
        sim::rng random(seed_);
        (void)gather::workloads::uniform_random(robots, random);
      }));
      sec.push_back(time_s([&] {
        (void)gather::geom::smallest_enclosing_circle(points_, t);
      }));
      hull.push_back(time_s([&] { (void)gather::geom::convex_hull(points_, t); }));
      build.push_back(time_s([&] { const config::configuration c(points_); }));
      // Each derived quantity is timed cold, on a fresh configuration.
      const auto fresh = [&](auto&& call) {
        const config::configuration c(points_);
        return time_s([&] { call(c); });
      };
      classify.push_back(fresh([](const auto& c) { (void)config::classify(c); }));
      qr.push_back(fresh([](const auto& c) { (void)config::detect_quasi_regularity(c); }));
      views.push_back(fresh([](const auto& c) { (void)config::all_views(c); }));
      safe.push_back(fresh([](const auto& c) { (void)config::safe_occupied_points(c); }));
      weber.push_back(fresh([](const auto& c) { (void)config::weber_point(c); }));
      // The round's pipeline on one configuration, each step on the caches
      // the previous steps filled: the decomposition behind
      // trace.attributed_share.  destinations runs on warm caches.
      {
        std::optional<config::configuration> c;
        chain.push_back(time_s([&] { c.emplace(points_); }) +
                        time_s([&] { (void)config::classify(*c); }) +
                        time_s([&] { (void)config::safe_occupied_points(*c); }) +
                        time_s([&] { (void)config::weber_point(*c); }));
        (void)algo_.destinations(*c);
        dest.push_back(time_s([&] { (void)algo_.destinations(*c); }));
      }
      round.push_back(time_s([&] { run_op(false); }));
    }
    const auto ms = [](const std::vector<double>& v) { return median(v) * 1e3; };
    const std::string_view w = name();
    out.put(w, "workloads.generate_ms", ms(gen), "ms");
    out.put(w, "geometry.sec_ms", ms(sec), "ms");
    out.put(w, "geometry.hull_ms", ms(hull), "ms");
    out.put(w, "config.build_ms", ms(build), "ms");
    out.put(w, "config.classify_ms", ms(classify), "ms");
    out.put(w, "config.qr_search_ms", ms(qr), "ms");
    out.put(w, "config.views_ms", ms(views), "ms");
    out.put(w, "config.safe_points_ms", ms(safe), "ms");
    out.put(w, "config.weber_ms", ms(weber), "ms");
    out.put(w, "core.destinations_ms", ms(dest), "ms");
    out.put(w, "sim.round_ms", ms(round), "ms");

    // Exact counts from the last traced op's GATHER_PROF sites.
    gather::obs::metrics_registry prof;
    gather::obs::export_profile(prof_, prof);
    for (const char* site : {"config.classify", "config.views",
                             "config.weber.weiszfeld", "geom.sec"}) {
      const std::string base = std::string("prof.") + site;
      const std::uint64_t* calls = prof.find_counter(base + ".calls");
      const std::uint64_t* ns = prof.find_counter(base + ".total_ns");
      out.put(w, base + ".calls", calls ? static_cast<double>(*calls) : 0.0, "count");
      out.put(w, base + ".total_ms", ns ? static_cast<double>(*ns) * 1e-6 : 0.0, "ms");
    }
    out.put(w, "trace.attributed_share", (ms(chain) + ms(dest)) / ms(round),
            "ratio");
  }

 private:
  std::uint64_t seed_ = 0;
  std::vector<vec2> points_;
  gather::core::wait_free_gather algo_;
  sim::sim_result result_;
  gather::obs::prof_registry prof_;
  gather::obs::metrics_registry metrics_;
};

}  // namespace

std::unique_ptr<workload> make_class_a_round() {
  return std::make_unique<class_a_round>();
}

}  // namespace perfbench
