// check-exhaustive: check::explore over lattice_multisets(3, 3, 4) with 3
// rounds, crash budget 1, 2 truncation levels and canonical dedup (239,413
// generated states, 13,035 explored).
//
// It uses the configuration layer the opposite way from classA-round:
// hundreds of thousands of n <= 4 configurations instead of one large cold
// one, so a large-n gain that costs small n shows here.  The lattice sweep
// has no randomness; the seed is ignored.
#include "bench.h"
#include "check/explorer.h"
#include "config/classify.h"
#include "config/configuration.h"
#include "config/state_key.h"
#include "core/lemma_registry.h"
#include "core/predicates.h"
#include "core/wait_free_gather.h"
#include "obs/profile.h"
#include "obs/profile_report.h"

namespace perfbench {
namespace {

namespace check = gather::check;
namespace config = gather::config;
using gather::geom::vec2;

constexpr std::uint64_t expected_generated = 239'413;
constexpr std::uint64_t expected_explored = 13'035;
// Passes over the 495 seed configurations when timing single calls.
constexpr int per_call_passes = 20;

void put_coverage(digest& d, const std::vector<check::lemma_coverage>& cov) {
  for (const auto& l : cov) {
    d.str(l.id);
    d.u64(l.applicable);
    d.u64(l.not_applicable);
    d.u64(l.violations);
  }
}

class check_exhaustive final : public workload {
 public:
  [[nodiscard]] std::string_view name() const override { return "check-exhaustive"; }

  void generate(std::uint64_t /*seed*/) override {
    seeds_ = check::lattice_multisets(3, 3, 4);
  }

  void run_op(bool traced) override {
    check::check_spec spec;
    spec.seeds = seeds_;
    spec.algorithm = &algo_;
    spec.options.max_rounds = 3;
    spec.options.crash_budget = 1;
    spec.options.truncation_levels = 2;
    spec.options.canonical_dedup = true;
    if (traced) {
      metrics_ = {};
      prof_ = {};
      spec.metrics = &metrics_;
      const gather::obs::prof_session session(&prof_);
      result_ = check::explore(spec);
    } else {
      result_ = check::explore(spec);
    }
  }

  [[nodiscard]] op_outcome verify() const override {
    op_outcome out;
    const check::check_result& r = result_;
    digest d;
    for (const std::uint64_t v :
         {r.seeds, r.states_generated, r.states_explored, r.duplicates_pruned,
          r.raw_unique, r.transitions_checked, r.terminal_gathered,
          r.terminal_stalled, r.bound_reached}) {
      d.u64(v);
    }
    put_coverage(d, r.state_coverage);
    put_coverage(d, r.transition_coverage);
    out.digest = d.value();
    if (r.total_violations() != 0) {
      out.failure = std::to_string(r.total_violations()) + " lemma violations";
    } else if (r.states_explored != expected_explored ||
               r.states_generated != expected_generated) {
      out.failure = "explored " + std::to_string(r.states_explored) + " of " +
                    std::to_string(r.states_generated) + " generated states";
    }
    return out;
  }

  void layers(metric_map& out) override {
    const std::string_view w = name();
    const check::check_result& r = result_;
    const auto generated = static_cast<double>(r.states_generated);
    const auto explored = static_cast<double>(r.states_explored);
    out.put(w, "check.states_generated", generated, "count");
    out.put(w, "check.states_explored", explored, "count");
    out.put(w, "check.duplicates_pruned", static_cast<double>(r.duplicates_pruned),
            "count");
    out.put(w, "check.transitions_checked",
            static_cast<double>(r.transitions_checked), "count");
    out.put(w, "check.explored_ratio", explored / generated, "ratio");

    std::vector<double> op;
    for (int k = 0; k < 2; ++k) op.push_back(time_s([&] { run_op(false); }));
    const double op_s = median(op);
    out.put(w, "check.state_us", op_s / generated * 1e6, "us");

    // Single calls at n = 4, in the explorer's order, on the seed states
    // through one reused configuration with the explorer's tolerance policy.
    std::vector<double> build, classify, key, lemmas, dest;
    const std::vector<std::uint8_t> live(4, 1);
    config::configuration cfg;
    for (int pass = 0; pass < per_call_passes; ++pass) {
      for (const auto& pts : seeds_) {
        (void)cfg.set_tol_refresh(1e-9 * 0.25 * config::configuration(pts).diameter());
        build.push_back(time_s([&] { (void)cfg.apply_moves(pts); }));
        classify.push_back(time_s([&] { (void)config::classify(cfg); }));
        key.push_back(time_s([&] {
          (void)config::raw_state_key(cfg, live);
          (void)config::canonical_state_key(cfg, live);
        }));
        lemmas.push_back(time_s([&] {
          const gather::core::lemma_context ctx{cfg, algo_};
          for (const auto& l : gather::core::state_lemmas()) (void)l.eval(ctx);
        }));
        dest.push_back(time_s([&] { (void)gather::core::destinations(cfg, algo_); }));
      }
    }
    const auto us = [](const std::vector<double>& v) {
      return sum(v) / static_cast<double>(v.size()) * 1e6;
    };
    out.put(w, "config.build_us", us(build), "us");
    out.put(w, "config.classify_us", us(classify), "us");
    out.put(w, "config.state_key_us", us(key), "us");
    out.put(w, "core.lemmas_us", us(lemmas), "us");
    out.put(w, "core.destinations_us", us(dest), "us");
    // Every generated state is built and keyed; the traced op's GATHER_PROF
    // count says how many classifications missed the cache; every explored
    // state also has its lemmas evaluated and its destinations computed.
    gather::obs::metrics_registry prof;
    gather::obs::export_profile(prof_, prof);
    const std::uint64_t* calls = prof.find_counter("prof.config.classify.calls");
    const double classify_calls = calls ? static_cast<double>(*calls) : 0.0;
    out.put(w, "prof.config.classify.calls", classify_calls, "count");
    const double layered_us = generated * (us(build) + us(key)) +
                              classify_calls * us(classify) +
                              explored * (us(lemmas) + us(dest));
    out.put(w, "check.self_share", 1.0 - layered_us * 1e-6 / op_s, "ratio");
  }

 private:
  std::vector<std::vector<vec2>> seeds_;
  gather::core::wait_free_gather algo_;
  check::check_result result_;
  gather::obs::metrics_registry metrics_;
  gather::obs::prof_registry prof_;
};

}  // namespace

std::unique_ptr<workload> make_check_exhaustive() {
  return std::make_unique<check_exhaustive>();
}

}  // namespace perfbench
