// Configuration classification (paper, Sec. IV.A).
//
// The five classes {B, M, L (split into L1W/L2W), QR, A} partition the space
// of configurations.  Precedence follows the paper's definitions: bivalent
// first, then unique-maximum-multiplicity, then linear, then quasi-regular,
// and asymmetric for everything else (where sym(C) = 1 is guaranteed).
#pragma once

#include <array>
#include <iosfwd>
#include <optional>
#include <string_view>
#include <utility>

#include "config/configuration.h"
#include "util/enum_name.h"

namespace gather::config {

enum class config_class {
  bivalent,       ///< B: n/2 robots at each of exactly two points
  multiple,       ///< M: a unique location of strictly maximal multiplicity
  linear_1w,      ///< L1W: collinear, unique Weber (median) point
  linear_2w,      ///< L2W: collinear, non-degenerate median interval
  quasi_regular,  ///< QR: qreg(C) > 1, not in B/M/L
  asymmetric,     ///< A: everything else; sym(C) = 1
};

}  // namespace gather::config

namespace gather {
template <>
struct enum_descriptor<config::config_class> {
  static constexpr std::array<std::pair<config::config_class, std::string_view>, 6>
      entries{{{config::config_class::bivalent, "B"},
               {config::config_class::multiple, "M"},
               {config::config_class::linear_1w, "L1W"},
               {config::config_class::linear_2w, "L2W"},
               {config::config_class::quasi_regular, "QR"},
               {config::config_class::asymmetric, "A"}}};
};
}  // namespace gather

namespace gather::config {

[[nodiscard]] constexpr std::string_view to_string(config_class c) {
  return enum_name(c);
}
std::ostream& operator<<(std::ostream& os, config_class c);

/// Classification result: the class and the data the gathering algorithm
/// reuses (computed once here so callers need not recompute it).
struct classification {
  config_class cls = config_class::asymmetric;
  /// M: the unique maximum-multiplicity point.  QR/L1W: the Weber point.
  /// Unset for B, L2W and A (the A-case election needs views; see core).
  std::optional<vec2> target;
  /// QR only: the quasi-regularity degree.
  int qreg_degree = 1;
};

/// Classify `c` per Sec. IV.A.  Precondition: `c` is non-empty.
[[nodiscard]] classification classify(const configuration& c);

/// The class-B test alone, in O(1): exactly two occupied points with equal
/// multiplicity.  B is the first test in classify, so this equals
/// `classify(c).cls == config_class::bivalent` without paying for the rest.
[[nodiscard]] bool is_bivalent(const configuration& c);

}  // namespace gather::config
