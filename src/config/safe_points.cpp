#include "config/safe_points.h"

#include <utility>

#include "config/derived.h"

namespace gather::config {

namespace {

/// Max ray load about occupied location `i`: the value the Lemma 3.4 search
/// left in the derived slot when it ran, else a fresh ray sweep (kept in the
/// slot for the next read).
int occupied_max_ray_load(const configuration& c, std::size_t i) {
  std::vector<int>& loads = c.derived().max_ray_loads;
  if (loads.size() != c.distinct_count()) loads.assign(c.distinct_count(), -1);
  if (loads[i] < 0) {
    loads[i] = detail::max_ray_load_uncached(c, c.occupied()[i].position);
  }
  return loads[i];
}

bool within_safe_bound(const configuration& c, int load) {
  const int n = static_cast<int>(c.size());
  return load <= (n + 1) / 2 - 1;  // ceil(n/2) - 1
}

}  // namespace

int max_ray_load(const configuration& c, vec2 p) {
  // An exact occupied position shares its slot with safe_occupied_points;
  // the sweep about it is the same computation either way.
  if (const auto i = c.find_occupied(p)) return occupied_max_ray_load(c, *i);
  return detail::max_ray_load_uncached(c, p);
}

bool is_safe_point(const configuration& c, vec2 p) {
  return within_safe_bound(c, max_ray_load(c, p));
}

std::vector<std::size_t> safe_occupied_points(const configuration& c) {
  derived_geometry& d = c.derived();
  if (!d.safe_points) {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < c.distinct_count(); ++i) {
      if (within_safe_bound(c, occupied_max_ray_load(c, i))) out.push_back(i);
    }
    d.safe_points = std::move(out);
  }
  return *d.safe_points;
}

}  // namespace gather::config
