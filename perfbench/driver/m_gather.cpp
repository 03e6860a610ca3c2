// m-gather: 32 ATOM runs to `gathered` from with_majority(256, 4) plus 32
// ASYNC runs from with_majority(64, 4).
//
// ATOM runs use the fair-random scheduler, random-stop movement, 3 random
// crashes and the online Lemma 5.1 check.  Many rounds each move many robots
// while classification stays cheap (class M), so the engine, the hinted
// apply_moves delta path and core's M rule dominate.  The ASYNC half covers
// the second engine; at n = 64 its runs gather, unlike n = 256 where ASYNC
// hits its step limit.
#include <cstring>

#include "bench.h"
#include "config/classify.h"
#include "config/configuration.h"
#include "core/predicates.h"
#include "core/wait_free_gather.h"
#include "sim/spec.h"
#include "workloads/generators.h"

namespace perfbench {
namespace {

using gather::geom::vec2;
namespace config = gather::config;
namespace sim = gather::sim;

// 32 runs per engine rather than 16: the op's cost depends on the seed's
// instances, and at 16 runs the seed-to-seed spread of op_s was about 11 %
// (6 % at 32) on a 4-vCPU KVM host.
constexpr std::size_t runs_per_engine = 32;
constexpr std::size_t atom_robots = 256;
constexpr std::size_t async_robots = 64;
constexpr std::size_t majority_stack = 4;
constexpr std::size_t crashes = 3;
constexpr std::size_t crash_horizon = 40;

struct instance {
  std::vector<vec2> points;
  std::uint64_t seed = 0;
};

void put_point(digest& d, vec2 p) {
  d.f64(p.x);
  d.f64(p.y);
}

class m_gather final : public workload {
 public:
  [[nodiscard]] std::string_view name() const override { return "m-gather"; }

  void generate(std::uint64_t seed) override {
    sim::rng random(seed);
    atom_inputs_.clear();
    async_inputs_.clear();
    for (std::size_t i = 0; i < runs_per_engine; ++i) {
      atom_inputs_.push_back(
          {gather::workloads::with_majority(atom_robots, majority_stack, random),
           random.engine()()});
    }
    for (std::size_t i = 0; i < runs_per_engine; ++i) {
      async_inputs_.push_back(
          {gather::workloads::with_majority(async_robots, majority_stack, random),
           random.engine()()});
    }
  }

  void run_op(bool traced) override {
    if (traced) {
      prof_ = {};
      metrics_ = {};
    }
    run_atom(traced, false);
    run_async(traced);
  }

  [[nodiscard]] op_outcome verify() const override {
    op_outcome out;
    digest d;
    for (const sim::sim_result& r : atom_) {
      d.str(sim::to_string(r.status));
      d.u64(r.rounds);
      d.u64(r.crashes);
      put_point(d, r.gather_point);
      if (out.failure.empty() && r.status != sim::sim_status::gathered) {
        out.failure = "an ATOM run ended " + std::string(sim::to_string(r.status));
      }
      if (out.failure.empty() && r.wait_free_violations != 0) {
        out.failure = "an ATOM run breached Lemma 5.1";
      }
    }
    for (const sim::async_result& r : async_) {
      d.str(sim::to_string(r.status));
      d.u64(r.steps);
      d.u64(r.cycles);
      d.u64(r.crashes);
      put_point(d, r.gather_point);
      if (out.failure.empty() && r.status != sim::sim_status::gathered) {
        out.failure = "an ASYNC run ended " + std::string(sim::to_string(r.status));
      }
    }
    if (out.failure.empty() &&
        (atom_.size() != runs_per_engine || async_.size() != runs_per_engine)) {
      out.failure = "wrong number of runs";
    }
    out.digest = d.value();
    return out;
  }

  void layers(metric_map& out) override {
    const std::string_view w = name();
    const auto count = [&](const char* metric) {
      const std::uint64_t* v = metrics_.find_counter(metric);
      return v ? static_cast<double>(*v) : 0.0;
    };
    const double rounds = count("sim.rounds");
    const double steps = count("async.steps");
    out.put(w, "sim.rounds", rounds, "count");
    out.put(w, "sim.activations", count("sim.activations"), "count");
    out.put(w, "sim.moves_truncated", count("sim.moves_truncated"), "count");
    out.put(w, "sim.crashes", count("sim.crashes"), "count");
    out.put(w, "sim.async_steps", steps, "count");

    std::vector<double> atom_s, async_s;
    for (int k = 0; k < 2; ++k) {
      atom_s.push_back(time_s([&] { run_atom(false, false); }));
      async_s.push_back(time_s([&] { run_async(false); }));
    }
    out.put(w, "sim.round_us", median(atom_s) / rounds * 1e6, "us");
    out.put(w, "sim.async_step_us", median(async_s) / steps * 1e6, "us");

    // Replay every ATOM run's recorded round-start positions through one
    // configuration with the engine's tolerance policy and hinted
    // apply_moves, timing the mutation, the classification and core's
    // destinations per round.
    run_atom(false, true);
    std::vector<double> apply_us, classify_us, dest_us;
    std::size_t not_rebuilt = 0;
    for (const sim::sim_result& r : atom_) {
      config::configuration c;
      (void)c.set_tol_refresh(1e-9 * r.delta_abs);
      const std::vector<vec2>* prev = nullptr;
      std::vector<std::uint8_t> hint;
      for (const sim::round_record& rec : r.trace) {
        hint.assign(rec.positions.size(), 1);
        if (prev != nullptr) {
          for (std::size_t i = 0; i < hint.size(); ++i) {
            hint[i] = std::memcmp(&rec.positions[i], &(*prev)[i], sizeof(vec2)) != 0;
          }
        }
        prev = &rec.positions;
        config::mutation_report rep;
        apply_us.push_back(
            time_s([&] { rep = c.apply_moves(rec.positions, hint); }) * 1e6);
        if (rep.kind != config::mutation_kind::rebuild) ++not_rebuilt;
        classify_us.push_back(time_s([&] { (void)config::classify(c); }) * 1e6);
        dest_us.push_back(
            time_s([&] { (void)gather::core::destinations(c, algo_); }) * 1e6);
      }
    }
    const double replays = static_cast<double>(apply_us.size());
    out.put(w, "config.apply_moves_us.p50", quantile(apply_us, 0.5), "us");
    out.put(w, "config.apply_moves_us.p90", quantile(apply_us, 0.9), "us");
    out.put(w, "config.delta_share", static_cast<double>(not_rebuilt) / replays,
            "ratio");
    out.put(w, "config.classify_us", sum(classify_us) / replays, "us");
    out.put(w, "core.destinations_us", sum(dest_us) / replays, "us");
    const double layered_s =
        (sum(apply_us) + sum(classify_us) + sum(dest_us)) * 1e-6;
    out.put(w, "sim.self_share", 1.0 - layered_s / median(atom_s), "ratio");
  }

 private:
  void run_atom(bool traced, bool record) {
    atom_.clear();
    for (const instance& in : atom_inputs_) {
      const auto sched = sim::make_fair_random();
      const auto move = sim::make_random_stop();
      const auto crash = sim::make_random_crashes(crashes, crash_horizon);
      sim::sim_spec s;
      s.initial = in.points;
      s.algorithm = &algo_;
      s.scheduler = sched.get();
      s.movement = move.get();
      s.crash = crash.get();
      s.options.seed = in.seed;
      s.options.check_wait_freeness = true;
      s.options.record_trace = record;
      if (traced) {
        s.profile = &prof_;
        s.metrics = &metrics_;
      }
      atom_.push_back(sim::run(s));
    }
  }

  void run_async(bool traced) {
    async_.clear();
    for (const instance& in : async_inputs_) {
      const auto move = sim::make_random_stop();
      const auto crash = sim::make_random_crashes(crashes, crash_horizon);
      sim::sim_spec s;
      s.initial = in.points;
      s.algorithm = &algo_;
      s.movement = move.get();
      s.crash = crash.get();
      s.async.seed = in.seed;
      if (traced) {
        s.profile = &prof_;
        s.metrics = &metrics_;
      }
      async_.push_back(sim::run_async(s));
    }
  }

  std::vector<instance> atom_inputs_;
  std::vector<instance> async_inputs_;
  gather::core::wait_free_gather algo_;
  std::vector<sim::sim_result> atom_;
  std::vector<sim::async_result> async_;
  gather::obs::prof_registry prof_;
  gather::obs::metrics_registry metrics_;
};

}  // namespace

std::unique_ptr<workload> make_m_gather() { return std::make_unique<m_gather>(); }

}  // namespace perfbench
