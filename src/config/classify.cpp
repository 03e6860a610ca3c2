#include "config/classify.h"

#include <ostream>

#include "config/derived.h"
#include "config/regularity.h"
#include "obs/profile.h"
#include "config/weber.h"

namespace gather::config {

std::ostream& operator<<(std::ostream& os, config_class c) {
  return os << to_string(c);
}

namespace detail {

classification classify_uncached(const configuration& c) {
  GATHER_PROF("config.classify");
  classification out;

  if (is_bivalent(c)) {
    out.cls = config_class::bivalent;
    return out;
  }

  // M: a unique location of strictly maximal multiplicity.
  {
    int best = -1, second = -1;
    vec2 best_pos{};
    for (const occupied_point& o : c.occupied()) {
      if (o.multiplicity > best) {
        second = best;
        best = o.multiplicity;
        best_pos = o.position;
      } else if (o.multiplicity > second) {
        second = o.multiplicity;
      }
    }
    if (best > second) {
      out.cls = config_class::multiple;
      out.target = best_pos;
      return out;
    }
  }

  // L: collinear, split by Weber point uniqueness.
  if (c.is_linear()) {
    const weber_result w = linear_weber(c);
    out.cls = w.unique ? config_class::linear_1w : config_class::linear_2w;
    if (w.unique) out.target = w.point;
    return out;
  }

  // QR: quasi-regular (Theorem 3.1 detector); the center is the Weber point
  // (Lemma 3.3).
  if (auto qr = detect_quasi_regularity(c)) {
    out.cls = config_class::quasi_regular;
    out.target = qr->center;
    out.qreg_degree = qr->degree;
    return out;
  }

  // A: the rest; the paper shows sym(C) = 1 here.
  out.cls = config_class::asymmetric;
  return out;
}

}  // namespace detail

bool is_bivalent(const configuration& c) {
  // B: exactly two occupied points, each with multiplicity n/2.
  return c.distinct_count() == 2 &&
         c.occupied()[0].multiplicity == c.occupied()[1].multiplicity;
}

classification classify(const configuration& c) {
  derived_geometry& d = c.derived();
  if (!d.verdict) d.verdict = detail::classify_uncached(c);
  return *d.verdict;
}

}  // namespace gather::config
