// Post-run trace analytics: per-round metrics, class-phase decomposition and
// the potential functions the correctness proofs track (maximum multiplicity,
// sum of distances to the target, live spread).
#pragma once

#include <cstdint>
#include <vector>

#include "config/classify.h"
#include "sim/engine.h"
#include "sim/metrics.h"

namespace gather::sim {

/// Per-round metrics (sim::metrics' round_stats) for a trace-recording run.
[[nodiscard]] std::vector<round_stats> analyze_trace(const sim_result& result);

/// A maximal run of consecutive rounds in one configuration class.
struct class_phase {
  config_class cls = config_class::asymmetric;
  std::size_t first_round = 0;
  std::size_t rounds = 0;
};

/// Run-length decomposition of the class history.
[[nodiscard]] std::vector<class_phase> class_phases(
    const std::vector<config_class>& history);

/// The proof-level potential checks, evaluated over a recorded trace.
struct potential_report {
  /// Lemma 5.3 C1: within M phases, the multiplicity of the elected point
  /// never decreases.
  bool max_multiplicity_monotone = true;
  /// Straight-line moves towards in-hull targets plus distance-preserving
  /// side-steps: the live spread never exceeds twice its initial value.
  bool spread_bounded = true;
  /// First round at which two or more live robots shared a location
  /// (size_t(-1) if never).
  std::size_t first_multiplicity_round = static_cast<std::size_t>(-1);
  /// Number of distinct class phases traversed.
  std::size_t phase_count = 0;
};

[[nodiscard]] potential_report check_potentials(const sim_result& result);

}  // namespace gather::sim
