// Run metrics used by experiments: spread, convergence measures, and
// class-transition accounting for validating Lemmas 5.3-5.9.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "config/classify.h"
#include "geometry/vec2.h"

namespace gather::sim {

/// Largest pairwise distance among the given points.
[[nodiscard]] double spread(const std::vector<geom::vec2>& pts);

/// Largest pairwise distance among live points only.
[[nodiscard]] double live_spread(const std::vector<geom::vec2>& pts,
                                 const std::vector<std::uint8_t>& live);

/// Sum of pairwise distances (the Weber-flavoured potential).
[[nodiscard]] double sum_pairwise(const std::vector<geom::vec2>& pts);

/// All per-round statistics of one recorded round, merged into a single
/// struct computed by one call (`compute_round_stats`): the live-robot
/// potentials (spread, sum of pairwise distances) and the largest stack of
/// live robots.  `sim::analyze_trace` returns one per recorded round.
struct round_stats {
  std::size_t round = 0;
  config::config_class cls = config::config_class::asymmetric;
  std::size_t live_count = 0;
  double live_spread = 0.0;          ///< max pairwise distance of live robots
  double live_sum_pairwise = 0.0;    ///< Σ pairwise distances of live robots
  int max_live_multiplicity = 0;     ///< largest stack of live robots
};

/// Compute every per-round statistic in one pass over the round's positions
/// and liveness mask.  The live subset is materialized once and shared by the
/// spread and sum-of-pairwise computations.
[[nodiscard]] round_stats compute_round_stats(std::size_t round,
                                              config::config_class cls,
                                              const std::vector<geom::vec2>& pts,
                                              const std::vector<std::uint8_t>& live);

/// 6x6 matrix of observed class transitions along a class history;
/// entry [from][to] counts rounds where the class changed from `from` to
/// `to` (self-transitions included).  Indices follow config_class order.
using transition_matrix = std::array<std::array<std::size_t, 6>, 6>;
[[nodiscard]] transition_matrix count_transitions(
    const std::vector<config::config_class>& history);

/// True when every transition in the history is allowed by the per-class
/// progress lemmas:
///   M   -> M                         (Lemma 5.3, claim C1)
///   L1W -> M | L1W                   (Lemma 5.4, claim C1)
///   QR  -> M | L1W | QR              (Lemma 5.5, claim C1)
///   A   -> M | L1W | QR | A          (Lemma 5.6, claim C1)
///   L2W -> anything except B         (Lemmas 5.7/5.8)
///   B is absorbing for the algorithm (it holds position).
[[nodiscard]] bool transitions_allowed(const std::vector<config::config_class>& history);

}  // namespace gather::sim
