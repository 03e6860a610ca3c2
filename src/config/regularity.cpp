#include "config/regularity.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>
#include <vector>

#include "config/derived.h"
#include "config/string_of_angles.h"
#include "config/weber.h"
#include "geometry/angles.h"
#include "util/check.h"

namespace gather::config {

namespace {

/// A ray from the candidate center: direction angle and total robot load.
struct ray {
  double theta = 0.0;
  int load = 0;
};

/// The ray sweep about `center`: the distinct rays from `center` through the
/// robots of `c` (robots at `center` excluded), directions clustered under
/// the angle tolerance, written to `rays` (ascending theta) when non-null.
/// Returns the Def. 8 max ray load: the largest summed multiplicity over a
/// run of equal snapped thetas.
///
/// Ray analysis never reads distances, so this scan builds (snapped theta,
/// multiplicity) pairs directly -- the same clustering pipeline as
/// angular_order_into (per-location thetas, cluster_angles_into,
/// nearest-rep snap), minus the k hypot calls and the multiplicity
/// expansion.  Each location gets the snapped theta angular_order_into gives
/// it, so a run of equal thetas here sums exactly the entries of one
/// equal-theta run of the angular order: the max ray load is the
/// safe_points.h quantity.  Merging into rays compares against the ray's
/// first representative, exactly like the order walk of the reference oracle
/// (ang_eq_mod covers exact equality: distance 0).
int sweep_rays(const configuration& c, vec2 center, std::vector<ray>* rays) {
  const geom::tol& t = c.tolerance();
  thread_local std::vector<double> thetas;
  thread_local std::vector<double> reps;
  thread_local std::vector<std::pair<double, int>> pairs;
  thetas.clear();
  pairs.clear();
  for (const occupied_point& o : c.occupied()) {
    if (t.same_point(o.position, center)) continue;
    pairs.push_back({geom::cw_angle({1.0, 0.0}, o.position - center),
                     o.multiplicity});
  }
  // One sort carries the whole pipeline: the sorted theta sequence feeds the
  // presorted clustering (bit-identical reps), and the monotone merge snap
  // replaces a per-element nearest-rep binary search (bit-identical snapped
  // values).  Pair order within one snapped theta is not the angular
  // order's, but rays and runs only compare thetas and sum loads, so neither
  // depends on it.
  std::sort(pairs.begin(), pairs.end());
  for (const auto& [th, mult] : pairs) thetas.push_back(th);
  geom::cluster_presorted_angles_into(thetas, t.angle_eps, reps);
  geom::snap_sorted_angles(thetas, reps);
  // Snapping is monotone except at the 0/2*pi seam, where a cluster that
  // straddles it wraps: its small raw thetas snap up to a representative
  // near 2*pi (a leading run larger than its successor), or its raw thetas
  // near 2*pi snap down to 0 (a trailing run smaller than its predecessor).
  // Only one of the two can happen, so rotating the sequence at its single
  // descent makes it ascending and reunites the split ray.
  const auto descent = std::is_sorted_until(thetas.begin(), thetas.end());
  if (descent != thetas.end()) {
    const auto j = descent - thetas.begin();
    std::rotate(thetas.begin(), descent, thetas.end());
    std::rotate(pairs.begin(), pairs.begin() + j, pairs.end());
    GATHER_CHECK(std::is_sorted(thetas.begin(), thetas.end()),
                 "one rotation at the seam sorts the snapped thetas");
  }
  if (rays != nullptr) rays->clear();
  int max_load = 0;
  int run = 0;
  for (std::size_t i = 0; i < thetas.size(); ++i) {
    const double th = thetas[i];
    const int mult = pairs[i].second;
    run = (i > 0 && th == thetas[i - 1]) ? run + mult : mult;
    max_load = std::max(max_load, run);
    if (rays == nullptr) continue;
    if (!rays->empty() && t.ang_eq_mod(rays->back().theta, th, geom::two_pi)) {
      rays->back().load += mult;
    } else {
      rays->push_back({th, mult});
    }
  }
  return max_load;
}

/// Total fill-in robots needed to complete the rays into an m-fold
/// rotationally periodic ray structure (Lemma 3.4's sum), or -1 when the
/// rays cannot be aligned to m slots at all.
///
/// Rotation classes form by sorting the residues mod w = 2*pi/m and chain
/// clustering (gap > angle_eps splits, and the trailing chain wraps onto the
/// leading one when they touch modulo w) -- the codebase's canonical
/// tolerance rule, one O(R log R) sweep instead of the reference oracle's
/// O(R * classes) first-fit scan.  The two rules agree whenever residues are
/// either tolerance-separated or tightly co-clustered; only adversarial
/// eps-chain multisets (spacings between eps and 2*eps) can differ, which
/// the equivalence fuzz keeps clear of.
int completion_deficit(const std::vector<ray>& rays, int m, const geom::tol& t,
                       std::vector<std::pair<double, int>>& residues) {
  const double w = geom::two_pi / m;
  residues.clear();
  for (const ray& r : rays) {
    // theta in [0, 2*pi) and w > 0, so fmod lands in [0, w).
    residues.push_back({std::fmod(r.theta, w), r.load});
  }
  std::sort(residues.begin(), residues.end());
  struct cls_acc {
    int count = 0;  // occupied slots in the class
    int max_load = 0;
    int total = 0;
  };
  thread_local std::vector<cls_acc> chains;
  chains.clear();
  for (std::size_t i = 0; i < residues.size(); ++i) {
    if (i == 0 || residues[i].first - residues[i - 1].first > t.angle_eps) {
      chains.push_back({});
    }
    cls_acc& cur = chains.back();
    cur.count += 1;
    cur.max_load = std::max(cur.max_load, residues[i].second);
    cur.total += residues[i].second;
  }
  if (chains.empty()) return 0;
  if (chains.size() > 1 && (residues.front().first + w) -
                                   residues.back().first <=
                               t.angle_eps) {
    // Seam merge: the trailing chain touches the leading one modulo w.
    chains.front().count += chains.back().count;
    chains.front().max_load =
        std::max(chains.front().max_load, chains.back().max_load);
    chains.front().total += chains.back().total;
    chains.pop_back();
  }
  int deficit = 0;
  for (const cls_acc& cls : chains) {
    if (cls.count > m) return -1;  // cannot be aligned to m rotations
    deficit += m * cls.max_load - cls.total;
  }
  return deficit;
}

/// Cheap necessary condition for deficit(m) <= budget, checked before the
/// full O(R log R) deficit test.  In a completed m-fold structure every
/// occupied slot k of a rotation class with slot k+1 also occupied has a
/// class member within the chain span of theta + w; a ray without such a
/// companion marks the end of a maximal run of occupied slots, and each run
/// end is followed by a missing slot.  Summed over classes the missing
/// slots number at most the deficit (a class with `count` occupied slots
/// contributes m * max_load - total >= m - count), so when more than
/// `budget` rays lack a companion, the deficit test must fail.  Counting
/// with an early exit rejects non-periodic ray sets in O(budget * log R)
/// instead of O(R log R) -- the common case for every generic-position
/// center -- while every ray set the deficit test could accept passes
/// through.  The companion window covers the widest chain span the
/// clustering can produce ((R-1) * eps); rays whose residue sits within the
/// window of the slot grid are exempt from the count (their class may
/// legitimately straddle the residue seam, placing companions a full slot
/// away).  Like the chain clustering itself, the bound assumes rays of one
/// class occupy distinct slots, which only adversarial eps-chain multisets
/// violate -- the same regime the equivalence contract already excludes.
bool companion_prefilter(const std::vector<ray>& rays, int m, int budget,
                         const geom::tol& t) {
  const double w = geom::two_pi / m;
  const double window =
      (static_cast<double>(rays.size()) + 2.0) * t.angle_eps;
  if (window * 4.0 >= w) return true;  // window reaches the grid: no power
  const auto has_near = [&](double target) {
    const auto it = std::lower_bound(
        rays.begin(), rays.end(), target - window,
        [](const ray& r, double v) { return r.theta < v; });
    if (it != rays.end() && it->theta <= target + window) return true;
    if (target - window < 0.0 &&
        rays.back().theta >= target - window + geom::two_pi) {
      return true;
    }
    if (target + window >= geom::two_pi &&
        rays.front().theta <= target + window - geom::two_pi) {
      return true;
    }
    return false;
  };
  int lacking = 0;
  for (const ray& r : rays) {
    const double res = std::fmod(r.theta, w);
    if (res <= window || res >= w - window) continue;  // seam-ambiguous
    double target = r.theta + w;
    if (target >= geom::two_pi) target -= geom::two_pi;
    if (!has_near(target) && ++lacking > budget) return false;
  }
  return true;
}

/// The Lemma 3.4 search about an occupied center of multiplicity `mult_p`,
/// given its rays.
std::optional<int> qr_degree_from_rays(const configuration& c, int mult_p,
                                       const std::vector<ray>& rays) {
  if (rays.empty()) return std::nullopt;  // every robot is at the center
  const int n = static_cast<int>(c.size());
  const int rc = static_cast<int>(rays.size());
  const int budget = mult_p;
  // Divisor-driven candidate degrees instead of trying every m in [2, n]:
  // each rotation class holds at most m rays, so there are at least
  // ceil(rc/m) classes, and a class with s occupied slots needs at least
  // m - s fill-ins -- hence deficit >= m * ceil(rc/m) - rc, the distance
  // from rc up to the next multiple of m.  An admissible m (deficit <=
  // mult(p)) therefore satisfies m <= mult(p)+1 or divides rc+j for some
  // j in [0, mult(p)].  Everything else fails without evaluation, cutting
  // the search to O(mult(p) + divisors) deficit tests; summed over all
  // occupied centers the budgets add to n, keeping the whole detector at
  // O(n^2 log n) (tests/kernel_test.cpp measures the slope).
  std::vector<int> cands;
  for (int m = 2; m <= std::min(n, budget + 1); ++m) cands.push_back(m);
  for (int j = 0; j <= budget; ++j) {
    const int target = rc + j;
    for (int lo = 1; lo * lo <= target; ++lo) {
      if (target % lo != 0) continue;
      if (lo >= 2 && lo <= n) cands.push_back(lo);
      const int hi = target / lo;
      if (hi >= 2 && hi <= n) cands.push_back(hi);
    }
  }
  std::sort(cands.begin(), cands.end(), std::greater<>());
  cands.erase(std::unique(cands.begin(), cands.end()), cands.end());
  thread_local std::vector<std::pair<double, int>> residues;
  for (int m : cands) {
    if (!companion_prefilter(rays, m, budget, c.tolerance())) continue;
    const int deficit = completion_deficit(rays, m, c.tolerance(), residues);
    if (deficit >= 0 && deficit <= budget) return m;
  }
  return std::nullopt;
}

}  // namespace

std::optional<int> quasi_regular_about_occupied(const configuration& c, vec2 p) {
  const int mult_p = c.multiplicity(p);
  if (mult_p <= 0) return std::nullopt;
  std::vector<ray> rays;
  sweep_rays(c, p, &rays);
  return qr_degree_from_rays(c, mult_p, rays);
}

namespace detail {

std::optional<config::quasi_regularity> detect_quasi_regularity_uncached(
    const configuration& c) {
  if (c.distinct_count() < 2) return std::nullopt;
  const geom::tol& t = c.tolerance();

  struct candidate {
    vec2 center;
    int degree;
    double sum_dist;
    int mult;
  };
  std::vector<candidate> cands;

  // 1. Occupied centers via the Lemma 3.4 deficit test.  The ray sweep about
  //    each center also yields its Def. 8 max ray load, which lands in the
  //    derived slot safe_occupied_points reads: one sweep per center serves
  //    both the classification and the class-A election.
  std::vector<int>& loads = c.derived().max_ray_loads;
  loads.assign(c.distinct_count(), -1);
  std::vector<ray> rays;
  for (std::size_t i = 0; i < c.distinct_count(); ++i) {
    const occupied_point& o = c.occupied()[i];
    loads[i] = sweep_rays(c, o.position, &rays);
    if (auto m = qr_degree_from_rays(c, c.multiplicity(o.position), rays)) {
      cands.push_back({o.position, *m, c.sum_distances(o.position), o.multiplicity});
    }
  }

  // 2. The center of the smallest enclosing circle (covers sym(C) > 1).
  // 3. The geometric median (Lemma 3.3: CQR = WP), for regular configurations
  //    whose unoccupied center is not the sec center.
  const vec2 sec_center = c.sec().center;
  std::vector<vec2> unoccupied = {sec_center};
  if (auto med = geometric_median_weiszfeld(c)) {
    if (!t.same_point(*med, sec_center)) unoccupied.push_back(*med);
  }
  for (vec2 u : unoccupied) {
    if (c.multiplicity(u) > 0) continue;  // already tried as occupied
    const int m = regularity_about(c, u);
    if (m > 1) cands.push_back({u, m, c.sum_distances(u), 0});
  }

  if (cands.empty()) return std::nullopt;
  // Deterministic, frame-invariant choice: highest degree, then most
  // Weber-like (smallest sum of distances), then highest multiplicity.
  const candidate* best = &cands.front();
  for (const candidate& cand : cands) {
    if (cand.degree != best->degree) {
      if (cand.degree > best->degree) best = &cand;
      continue;
    }
    const int cmp = t.len_cmp(cand.sum_dist, best->sum_dist);
    if (cmp < 0 || (cmp == 0 && cand.mult > best->mult)) best = &cand;
  }
  return config::quasi_regularity{best->center, best->degree};
}

int max_ray_load_uncached(const configuration& c, vec2 center) {
  return sweep_rays(c, center, nullptr);
}

// ---------------------------------------------------------------------------
// PR 10 reference oracle: the pre-divisor-driven Lemma 3.4 search, preserved
// verbatim -- full angular order, first-fit residue classes, every m from n
// down to 2.  quasi_regular_about_occupied must agree with it away from
// eps-chain residue boundaries (fuzzed by tests/kernel_test.cpp);
// bench_scaling measures the two slopes.

namespace {

std::vector<ray> rays_from_reference(const configuration& c, vec2 center) {
  const geom::tol& t = c.tolerance();
  std::vector<ray> rays;
  // angular_order already snaps angles to cluster representatives.
  for (const angular_entry& e : angular_order_ref(c, center)) {
    if (!rays.empty() && rays.back().theta == e.theta) {
      rays.back().load += 1;
    } else if (!rays.empty() && t.ang_eq_mod(rays.back().theta, e.theta, geom::two_pi)) {
      rays.back().load += 1;
    } else {
      rays.push_back({e.theta, 1});
    }
  }
  return rays;
}

int completion_deficit_reference(const std::vector<ray>& rays, int m,
                                 const geom::tol& t) {
  const double w = geom::two_pi / m;
  struct rotation_class {
    double residue = 0.0;          // representative residue in [0, w)
    std::vector<int> slot_loads;   // loads of the occupied slots
  };
  std::vector<rotation_class> classes;
  for (const ray& r : rays) {
    const double res = std::fmod(r.theta, w);
    bool placed = false;
    for (rotation_class& cls : classes) {
      double d = std::fabs(res - cls.residue);
      d = std::min(d, std::fabs(d - w));
      if (d <= t.angle_eps) {
        cls.slot_loads.push_back(r.load);
        placed = true;
        break;
      }
    }
    if (!placed) {
      classes.push_back({res, {r.load}});
    }
  }
  int deficit = 0;
  for (const rotation_class& cls : classes) {
    if (static_cast<int>(cls.slot_loads.size()) > m) return -1;  // cannot happen geometrically
    int max_load = 0, total = 0;
    for (int l : cls.slot_loads) {
      max_load = std::max(max_load, l);
      total += l;
    }
    deficit += m * max_load - total;
  }
  return deficit;
}

}  // namespace

std::optional<int> quasi_regular_about_occupied_reference(
    const configuration& c, vec2 p) {
  const int mult_p = c.multiplicity(p);
  if (mult_p <= 0) return std::nullopt;
  const std::vector<ray> rays = rays_from_reference(c, p);
  if (rays.empty()) return std::nullopt;  // every robot is at p
  const int n = static_cast<int>(c.size());
  for (int m = n; m >= 2; --m) {
    const int deficit = completion_deficit_reference(rays, m, c.tolerance());
    if (deficit >= 0 && deficit <= mult_p) return m;
  }
  return std::nullopt;
}

}  // namespace detail

std::optional<quasi_regularity> detect_quasi_regularity(const configuration& c) {
  derived_geometry& d = c.derived();
  if (!d.qr_ready) {
    d.qr = detail::detect_quasi_regularity_uncached(c);
    d.qr_ready = true;
  }
  return d.qr;
}

}  // namespace gather::config
