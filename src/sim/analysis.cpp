#include "sim/analysis.h"

#include <algorithm>

#include "config/configuration.h"
#include "sim/metrics.h"

namespace gather::sim {

std::vector<round_stats> analyze_trace(const sim_result& result) {
  std::vector<round_stats> out;
  out.reserve(result.trace.size());
  for (const round_record& rec : result.trace) {
    out.push_back(
        compute_round_stats(rec.round, rec.cls, rec.positions, rec.live));
  }
  return out;
}

std::vector<class_phase> class_phases(const std::vector<config_class>& history) {
  std::vector<class_phase> out;
  for (std::size_t i = 0; i < history.size(); ++i) {
    if (!out.empty() && out.back().cls == history[i]) {
      ++out.back().rounds;
    } else {
      out.push_back({history[i], i, 1});
    }
  }
  return out;
}

potential_report check_potentials(const sim_result& result) {
  potential_report rep;
  const auto metrics = analyze_trace(result);
  rep.phase_count = class_phases(result.class_history).size();

  double initial_spread = metrics.empty() ? 0.0 : metrics.front().live_spread;
  int prev_max_mult = 0;
  std::size_t prev_live = 0;
  config_class prev_cls = config_class::asymmetric;
  bool have_prev = false;
  for (const round_stats& m : metrics) {
    if (m.max_live_multiplicity >= 2 &&
        rep.first_multiplicity_round == static_cast<std::size_t>(-1)) {
      rep.first_multiplicity_round = m.round;
    }
    if (initial_spread > 0.0 && m.live_spread > 2.0 * initial_spread + 1e-9) {
      rep.spread_bounded = false;
    }
    // Within an M phase the target stack may only grow (Lemma 5.3 C1); a
    // crash of a stacked robot legitimately shrinks the *live* stack, so
    // decreases are only flagged while the live count is unchanged.
    if (have_prev && prev_cls == config_class::multiple &&
        m.cls == config_class::multiple && m.live_count == prev_live &&
        m.max_live_multiplicity < prev_max_mult) {
      rep.max_multiplicity_monotone = false;
    }
    prev_max_mult = m.max_live_multiplicity;
    prev_live = m.live_count;
    prev_cls = m.cls;
    have_prev = true;
  }
  return rep;
}

}  // namespace gather::sim
