#include "config/views.h"

#include "obs/profile.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "config/derived.h"
#include "geometry/angles.h"
#include "geometry/cyclic.h"
#include "geometry/kernels.h"
#include "util/check.h"
#include "util/radix.h"

namespace gather::config {

namespace {

/// Normalized distance and multiplicity of one non-self occupied location.
struct raw_tag {
  double dist;
  int mult;
};

/// Radix key of one raw view angle: the bit pattern of a non-negative double
/// is order-isomorphic to its value, so the per-view angular sort runs as a
/// stable byte-wise radix pass instead of a comparison sort.  `cw_angle`
/// returns values in [0, 2*pi) plus possibly -0.0, whose sign bit would sort
/// it above everything -- it is canonicalized to the +0.0 pattern (the two
/// zeros are numerically interchangeable everywhere downstream: clustering
/// sums, run detection and snapping all compare by value, and every emitted
/// angle is a snapped representative, never the raw zero).
std::uint64_t angle_key(double a) {
  const std::uint64_t k = std::bit_cast<std::uint64_t>(a);
  return (k >> 63) != 0 ? 0 : k;
}

/// View of `p` using the explicit reference direction `ref` (non-zero).
/// `dist_of(j)` must return `geom::distance(p, occupied[j].position)` -- the
/// indexed all_views path serves it from the shared pairwise table, the
/// arbitrary-point path computes it directly.
///
/// The view is a sorted multiset of (snapped angle, dist) entries, so it is
/// emitted directly in sorted order instead of being sorted afterwards: the
/// snapped angles of ascending raw angles form a cyclic rotation of the
/// sorted representatives (the nearest-rep map partitions the circle into
/// contiguous arcs, one per representative), so runs of equal snapped value
/// are already almost sorted -- only the run whose arc spans the 0/2*pi seam
/// can appear twice, split across the front and back of the sequence.  Angle
/// clustering and snapping run on the derived-geometry scratch buffers and
/// are bit-identical to the reference pipeline's per-view pass (fuzzed by
/// test_view_pipeline).
template <class DistFn>
void view_with_reference_into(const configuration& c, vec2 p, vec2 ref,
                              DistFn&& dist_of, view& v) {
  const double r = std::max(c.sec().radius, 1e-300);
  const geom::tol& t = c.tolerance();
  derived_geometry& d = c.derived();
  thread_local std::vector<raw_tag> tags;
  thread_local std::vector<util::key_idx> order;
  thread_local std::vector<util::key_idx> radix_tmp;
  std::vector<double>& raw_angles = d.scratch_thetas;
  int self_mult = 0;
  const auto& occ = c.occupied();
  // Pre-sized writes instead of push_backs: the fill loop runs once per
  // (observer, robot) pair, so its per-element cost dominates the pipeline.
  order.resize(occ.size());
  tags.resize(occ.size());
  std::size_t nt = 0;
  for (std::size_t j = 0; j < occ.size(); ++j) {
    const occupied_point& o = occ[j];
    // same_point(a, b) is len_zero(distance(a, b)), so one distance serves
    // both the self test and the normalized view distance.
    const double dn = dist_of(j);
    if (t.len_zero(dn)) {
      self_mult += o.multiplicity;
    } else {
      order[nt] = {angle_key(geom::cw_angle(ref, o.position - p)),
                   static_cast<std::uint32_t>(nt)};
      tags[nt] = {dn / r, o.multiplicity};
      ++nt;
    }
  }
  order.resize(nt);
  tags.resize(nt);
  v.clear();
  v.reserve(c.size());
  // Self entries are the global minimum: 0.0 is the least possible angle and
  // every non-self dist is >= 0.0 (so equal-key entries are identical bytes).
  for (int k = 0; k < self_mult; ++k) v.push_back({0.0, 0.0});
  if (tags.empty()) return;
  // One sort serves both the clustering pass and the tag alignment (equal
  // raw angles snap to the same value, so any tie order works).
  util::radix_sort_key_idx(order, radix_tmp);
  raw_angles.resize(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    raw_angles[i] = std::bit_cast<double>(order[i].key);
  }
  // Snap angles to cluster representatives so the emitted order is exact:
  // co-ray entries share one angle and near-0 noise cannot land at ~2*pi
  // (which would scramble the lexicographic order between twin views).
  geom::cluster_presorted_angles_into(raw_angles, t.angle_eps,
                                      d.scratch_reps);
  geom::snap_sorted_angles(raw_angles, d.scratch_reps);
  // Common generic case: every snapped value distinct and strictly ascending
  // means every run is a singleton already in emission order (and no
  // seam-split pair exists) -- emit directly, skipping the span machinery.
  bool ascending = true;
  for (std::size_t i = 1; i < nt; ++i) {
    if (raw_angles[i - 1] >= raw_angles[i]) {
      ascending = false;
      break;
    }
  }
  if (ascending) {
    for (std::size_t i = 0; i < nt; ++i) {
      const raw_tag& m = tags[order[i].idx];
      for (int k = 0; k < m.mult; ++k) v.push_back({raw_angles[i], m.dist});
    }
    return;
  }
  // Runs of equal snapped value, merging the seam-split pair (first/last
  // runs are the only ones that can share a value, see above).
  struct run_span {
    double value;
    std::size_t b1, e1, b2, e2;  // member tag ranges [b1,e1) and [b2,e2)
  };
  thread_local std::vector<run_span> spans;
  spans.clear();
  for (std::size_t i = 0; i < nt;) {
    std::size_t j = i + 1;
    while (j < nt && raw_angles[j] == raw_angles[i]) ++j;
    spans.push_back({raw_angles[i], i, j, j, j});
    i = j;
  }
  if (spans.size() > 1 && spans.front().value == spans.back().value) {
    spans.front().b2 = spans.back().b1;
    spans.front().e2 = spans.back().e1;
    spans.pop_back();
  }
  // Values are now distinct, so this sort is exact (and tiny: one element
  // per distinct snapped angle).
  std::sort(spans.begin(), spans.end(),
            [](const run_span& a, const run_span& b) { return a.value < b.value; });
  const auto by_dist = [](const raw_tag& a, const raw_tag& b) {
    return a.dist < b.dist;
  };
  thread_local std::vector<raw_tag> members;
  for (const run_span& s : spans) {
    if (s.e1 - s.b1 == 1 && s.b2 == s.e2) {
      // Singleton run (the common case for generic configurations).
      const raw_tag& m = tags[order[s.b1].idx];
      for (int k = 0; k < m.mult; ++k) v.push_back({s.value, m.dist});
      continue;
    }
    members.clear();
    for (std::size_t i = s.b1; i < s.e1; ++i)
      members.push_back(tags[order[i].idx]);
    for (std::size_t i = s.b2; i < s.e2; ++i)
      members.push_back(tags[order[i].idx]);
    std::sort(members.begin(), members.end(), by_dist);
    for (const raw_tag& m : members)
      for (int k = 0; k < m.mult; ++k) v.push_back({s.value, m.dist});
  }
}

/// Scratch of the kernel-based fill pipeline, reused across observers and
/// fills.  The fill keeps one instance per thread, so configurations filled
/// concurrently on different threads (campaign workers) never share it.
struct fill_scratch {
  std::vector<double> cr, dt, angles;    // per-location, k entries
  std::vector<double> dists;             // per-tag, normalized in place
  std::vector<int> mults;                // per-tag
  std::vector<util::key_idx> order;
  std::vector<util::key_idx> radix_tmp;
  std::vector<std::uint32_t> buckets;
  std::vector<double> thetas, reps;
  std::vector<geom::kernels::polar_rec> recs, rec_tmp;  // fused record path
};

/// The fused record path of the bulk fill: for observers of an
/// all-multiplicity-one configuration whose snapped angles turn out to be
/// untouched by clustering (the overwhelmingly common case for generic
/// configurations), the whole pipeline collapses to one loop building
/// 16-byte (angle key, normalized dist) records, a stable bucket sort of the
/// records, and a byte copy into the view -- polar_rec is layout-compatible
/// with polar_entry, and the key is the angle's bit pattern, so the sorted
/// record array IS the view payload.  Each scalar step reproduces the
/// reference formulas literally (cross/dot/atan2/divide in the same order on
/// the same operands), so the emitted bytes match `view_with_reference_into`
/// exactly.  Returns false -- leaving `v` unspecified -- when the observer
/// needs the general pipeline: a clustering-active angle multiset, or a raw
/// -0.0 angle (whose key canonicalization the general path handles).
bool try_view_from_row_fast(vec2 p, vec2 ref, double r, const geom::tol& t,
                            const double* xs, const double* ys,
                            const double* row, std::size_t k,
                            fill_scratch& fs, view& v) {
  fs.recs.resize(k);
  std::uint64_t or_keys = 0;
  std::size_t self_mult = 0;
  std::size_t nt = 0;
  for (std::size_t j = 0; j < k; ++j) {
    const double dn = row[j];
    if (t.len_zero(dn)) {
      ++self_mult;  // every multiplicity is 1 on this path
      continue;
    }
    // geom::cw_angle(ref, {xs[j], ys[j]} - p), spelled out so the angle
    // computation fuses with the record build (the atan2 latency hides the
    // integer work around it).
    const double dx = xs[j] - p.x;
    const double dy = ys[j] - p.y;
    const double cr = ref.x * dy - ref.y * dx;
    const double dt = ref.x * dx + ref.y * dy;
    const double ang = geom::norm_angle(-std::atan2(cr, dt));
    const std::uint64_t key = std::bit_cast<std::uint64_t>(ang);
    or_keys |= key;
    fs.recs[nt] = {key, dn / r};
    ++nt;
  }
  // A set sign bit means some angle came out as -0.0: its canonical key is
  // the +0.0 pattern, not its own bits, so the record trick doesn't apply.
  if ((or_keys >> 63) != 0) return false;
  fs.recs.resize(nt);
  geom::kernels::sort_polar_recs(fs.recs, fs.rec_tmp, fs.buckets);
  if (!geom::kernels::snap_is_identity_recs(fs.recs.data(), nt,
                                            t.angle_eps)) {
    return false;
  }
  // Snap is the identity and every multiplicity is 1: the sorted records are
  // the view, byte for byte, after the self entries (the global minimum --
  // see view_with_reference_into).  resize value-initializes, so the self
  // prefix is already {0.0, 0.0}.
  static_assert(sizeof(geom::kernels::polar_rec) == sizeof(polar_entry));
  static_assert(std::is_trivially_copyable_v<polar_entry>);
  v.clear();
  v.resize(self_mult + nt);
  std::memcpy(static_cast<void*>(v.data() + self_mult), fs.recs.data(),
              nt * sizeof(polar_entry));
  return true;
}

/// The batched sibling of `view_with_reference_into` used by the bulk fill:
/// same pipeline (normalize, polar-sort, cluster, snap, emit), but the polar
/// decomposition, normalization and angular sort run through the batch
/// kernels over the SoA coordinate mirror, and configurations whose snapped
/// angles are provably untouched by clustering skip that pass entirely.
/// Every step is bit-equivalent to the reference pipeline (see the kernel
/// contracts in geometry/kernels.h and snap_is_identity), so the emitted
/// view matches `view_with_reference_into` byte for byte -- fuzzed by
/// tests/kernel_test.cpp against fill_all_view_slots_reference.
void view_from_row_into(const configuration& c, vec2 p, vec2 ref, double r,
                        const geom::tol& t, const double* xs,
                        const double* ys, const double* row, fill_scratch& fs,
                        view& v) {
  const auto& occ = c.occupied();
  const std::size_t k = occ.size();
  fs.cr.resize(k);
  fs.dt.resize(k);
  fs.angles.resize(k);
  // Batched cw_angle over every location (self rows are computed and then
  // discarded -- atan2(+-0, +-0) is well-defined, and self entries are rare).
  geom::kernels::cross_dot_about(xs, ys, k, p.x, p.y, ref.x, ref.y,
                                 fs.cr.data(), fs.dt.data());
  geom::kernels::cw_angles_from_cross_dot(fs.cr.data(), fs.dt.data(), k,
                                          fs.angles.data());
  fs.order.resize(k);
  fs.dists.resize(k);
  fs.mults.resize(k);
  int self_mult = 0;
  std::size_t nt = 0;
  for (std::size_t j = 0; j < k; ++j) {
    const double dn = row[j];
    if (t.len_zero(dn)) {
      self_mult += occ[j].multiplicity;
    } else {
      fs.order[nt] = {angle_key(fs.angles[j]), static_cast<std::uint32_t>(nt)};
      fs.dists[nt] = dn;
      fs.mults[nt] = occ[j].multiplicity;
      ++nt;
    }
  }
  fs.order.resize(nt);
  // One batched division replaces the per-tag dn / r of the reference path
  // (IEEE division: identical bytes).
  geom::kernels::divide_batch(fs.dists.data(), nt, r, fs.dists.data());
  v.clear();
  v.reserve(c.size());
  for (int m = 0; m < self_mult; ++m) v.push_back({0.0, 0.0});
  if (nt == 0) return;
  geom::kernels::sort_angle_keys(fs.order, fs.radix_tmp, fs.buckets);
  fs.thetas.resize(nt);
  for (std::size_t i = 0; i < nt; ++i) {
    fs.thetas[i] = std::bit_cast<double>(fs.order[i].key);
  }
  if (!geom::kernels::snap_is_identity(fs.thetas.data(), nt, t.angle_eps)) {
    geom::cluster_presorted_angles_into(fs.thetas, t.angle_eps, fs.reps);
    geom::snap_sorted_angles(fs.thetas, fs.reps);
  }
  // Emission mirrors view_with_reference_into on the snapped angles; when
  // snap_is_identity held, the angles are untouched and strictly ascending,
  // so the ascending fast path below applies by construction.
  bool ascending = true;
  for (std::size_t i = 1; i < nt; ++i) {
    if (fs.thetas[i - 1] >= fs.thetas[i]) {
      ascending = false;
      break;
    }
  }
  if (ascending) {
    for (std::size_t i = 0; i < nt; ++i) {
      const std::uint32_t ti = fs.order[i].idx;
      for (int m = 0; m < fs.mults[ti]; ++m) {
        v.push_back({fs.thetas[i], fs.dists[ti]});
      }
    }
    return;
  }
  struct run_span {
    double value;
    std::size_t b1, e1, b2, e2;  // member tag ranges [b1,e1) and [b2,e2)
  };
  thread_local std::vector<run_span> spans;
  spans.clear();
  for (std::size_t i = 0; i < nt;) {
    std::size_t j = i + 1;
    while (j < nt && fs.thetas[j] == fs.thetas[i]) ++j;
    spans.push_back({fs.thetas[i], i, j, j, j});
    i = j;
  }
  if (spans.size() > 1 && spans.front().value == spans.back().value) {
    spans.front().b2 = spans.back().b1;
    spans.front().e2 = spans.back().e1;
    spans.pop_back();
  }
  std::sort(spans.begin(), spans.end(),
            [](const run_span& a, const run_span& b) { return a.value < b.value; });
  const auto by_dist = [](const raw_tag& a, const raw_tag& b) {
    return a.dist < b.dist;
  };
  thread_local std::vector<raw_tag> members;
  for (const run_span& s : spans) {
    if (s.e1 - s.b1 == 1 && s.b2 == s.e2) {
      const std::uint32_t ti = fs.order[s.b1].idx;
      for (int m = 0; m < fs.mults[ti]; ++m) {
        v.push_back({s.value, fs.dists[ti]});
      }
      continue;
    }
    members.clear();
    for (std::size_t i = s.b1; i < s.e1; ++i) {
      const std::uint32_t ti = fs.order[i].idx;
      members.push_back({fs.dists[ti], fs.mults[ti]});
    }
    for (std::size_t i = s.b2; i < s.e2; ++i) {
      const std::uint32_t ti = fs.order[i].idx;
      members.push_back({fs.dists[ti], fs.mults[ti]});
    }
    std::sort(members.begin(), members.end(), by_dist);
    for (const raw_tag& m : members) {
      for (int q = 0; q < m.mult; ++q) v.push_back({s.value, m.dist});
    }
  }
}

view view_with_reference(const configuration& c, vec2 p, vec2 ref) {
  view v;
  view_with_reference_into(
      c, p, ref,
      [&](std::size_t j) {
        return geom::distance(p, c.occupied()[j].position);
      },
      v);
  return v;
}

/// view_of_uncached writing into caller storage: the cache fill paths use
/// this so a slot keeps its capacity across generations (a fresh vector
/// move-assigned over the slot would throw the old allocation away).
void view_of_into(const configuration& c, vec2 p, view& out) {
  const vec2 center = c.sec().center;
  const geom::tol& t = c.tolerance();
  if (!t.same_point(p, center)) {
    GATHER_PROF("config.views");
    view_with_reference_into(
        c, p, center - p,
        [&](std::size_t j) {
          return geom::distance(p, c.occupied()[j].position);
        },
        out);
    return;
  }
  // Center observer: the Def. 2 maximizer scan builds by value (rare path);
  // copy into the slot to preserve its capacity.
  const view tmp = detail::view_of_uncached(c, p);
  out.assign(tmp.begin(), tmp.end());
}

/// Size the view slot arrays for `k` occupied locations.  The pool is
/// grow-only: a shrink only trims the logical size (view_ready), leaving the
/// tail slots' capacity parked for when occupancy grows back.
void size_view_slots(derived_geometry& d, std::size_t k) {
  if (d.view_ready.size() != k) {
    if (d.views.size() < k) d.views.resize(k);
    d.view_ready.assign(k, 0);
  }
}

/// The cached view slot for occupied index `i`, computing it on first use.
const view& cached_view_slot(const configuration& c, std::size_t i) {
  derived_geometry& d = c.derived();
  size_view_slots(d, c.distinct_count());
  if (!d.view_ready[i]) {
    view_of_into(c, c.occupied()[i].position, d.views[i]);
    d.view_ready[i] = 1;
  }
  return d.views[i];
}

/// Exact-value quantizer: chain-clusters a sorted value multiset (gap > eps
/// starts a new class) and maps each contained value to its class id by
/// binary search.  With `seam`, the trailing class wraps onto class 0 when
/// the two touch modulo 2*pi -- the same merge rule the angle snapping uses,
/// so tolerance-equal (ang_eq_mod / |a-b| <= eps) values always share a
/// class id.
struct quantizer {
  std::vector<double> vals;
  std::vector<std::uint32_t> cls;

  void build(double eps, bool seam) {
    std::sort(vals.begin(), vals.end());
    cls.resize(vals.size());
    std::uint32_t id = 0;
    for (std::size_t i = 0; i < vals.size(); ++i) {
      if (i > 0 && vals[i] - vals[i - 1] > eps) ++id;
      cls[i] = id;
    }
    if (seam && id > 0 &&
        (vals.front() + geom::two_pi) - vals.back() <= eps) {
      for (std::size_t j = vals.size(); j-- > 0 && cls[j] == id;) cls[j] = 0;
    }
  }

  [[nodiscard]] std::uint32_t id_of(double v) const {
    const std::size_t i = static_cast<std::size_t>(
        std::lower_bound(vals.begin(), vals.end(), v) - vals.begin());
    return cls[i];
  }
};

/// sym(C) as the largest view class -- the literal Def. 3 reading, used by
/// the string-based path only for the degenerate near-center fallback.
int symmetry_by_view_classes(const configuration& c) {
  int best = 0;
  for (const auto& cls : view_classes(c)) {
    best = std::max(best, static_cast<int>(cls.size()));
  }
  return std::max(best, 1);
}

}  // namespace

int compare_views(const view& a, const view& b, const geom::tol& t) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    // Angles on the circle: values within tolerance of each other (including
    // across the 0/2*pi seam) compare equal.
    if (!t.ang_eq_mod(a[i].angle, b[i].angle, geom::two_pi)) {
      return a[i].angle < b[i].angle ? -1 : 1;
    }
    // Distances are normalized by the sec radius, so tolerance is absolute.
    if (std::fabs(a[i].dist - b[i].dist) > t.rel) {
      return a[i].dist < b[i].dist ? -1 : 1;
    }
  }
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  return 0;
}

namespace detail {

view view_of_uncached(const configuration& c, vec2 p) {
  GATHER_PROF("config.views");
  const vec2 center = c.sec().center;
  const geom::tol& t = c.tolerance();
  if (!t.same_point(p, center)) {
    return view_with_reference(c, p, center - p);
  }
  // p is the center of the smallest enclosing circle: the reference points at
  // an occupied location x != p maximizing V(x) (Def. 2).  Among maximizers we
  // take the lexicographically greatest resulting view of p, which is
  // well-defined and frame-independent.
  //
  // For any peer o with !same_point(o, center), view_of_uncached(c, o) takes
  // the non-center branch above and equals view_with_reference(c, o,
  // center - o) bit for bit -- so the maximizer scan reads the per-index
  // cache slots instead of recomputing every peer's view (the reference
  // oracle's O(n) extra view builds per center observer).
  const auto& occ = c.occupied();
  view best_other;
  bool have_other = false;
  view peer_local;  // a peer inside the center's tolerance ball (rare)
  std::vector<vec2> maximizers;
  for (std::size_t i = 0; i < occ.size(); ++i) {
    const occupied_point& o = occ[i];
    if (t.same_point(o.position, p)) continue;
    const view* v;
    if (!t.same_point(o.position, center)) {
      v = &cached_view_slot(c, i);
    } else {
      // o is tolerance-equal to the center but not to p: its own view would
      // recurse into this branch, so compute the Def. 2 profile directly.
      peer_local = view_with_reference(c, o.position, center - o.position);
      v = &peer_local;
    }
    if (!have_other || compare_views(*v, best_other, t) > 0) {
      best_other = *v;
      have_other = true;
      maximizers.clear();
      maximizers.push_back(o.position);
    } else if (compare_views(*v, best_other, t) == 0) {
      maximizers.push_back(o.position);
    }
  }
  if (!have_other) {
    // Every robot is at p: the trivial view.
    return view(c.size(), polar_entry{0.0, 0.0});
  }
  view best;
  bool have = false;
  for (vec2 x : maximizers) {
    view v = view_with_reference(c, p, x - p);
    if (!have || compare_views(v, best, t) > 0) {
      best = std::move(v);
      have = true;
    }
  }
  return best;
}

void fill_all_view_slots(const configuration& c) {
  const auto& occ = c.occupied();
  const std::size_t k = occ.size();
  // The bulk build writes straight into the per-index cache slots (skipping
  // any already filled), so a center observer's Def. 2 maximizer scan reuses
  // the peers built here instead of recomputing them, and later per-slot
  // reads are free.  Each slot still holds exactly what view_of_uncached
  // would have produced, bit for bit (fill_all_view_slots_reference below is
  // the oracle).
  derived_geometry& d = c.derived();
  size_view_slots(d, k);
  if (k == 0) return;
  const vec2 center = c.sec().center;
  const geom::tol& t = c.tolerance();
  const double r = std::max(c.sec().radius, 1e-300);
  const double* xs = c.occupied_xs().data();
  const double* ys = c.occupied_ys().data();
  // Shared pairwise-distance table: one hypot per unordered pair, mirrored
  // (hypot is sign-symmetric, so the transposed entry is bit-equal to what
  // the per-view computation would produce).
  std::vector<double>& dists = d.scratch_dists;
  dists.resize(k * k);
  for (std::size_t i = 0; i < k; ++i) {
    dists[i * k + i] = 0.0;  // only the diagonal needs zeroing
    geom::kernels::distance_row(xs + i + 1, ys + i + 1, k - i - 1, xs[i], ys[i],
                                &dists[i * k + i + 1]);
  }
  // Mirror pass, tiled: the naive per-element transpose strides the whole
  // table by k doubles per read and misses cache on every one of them; T*T
  // tiles keep both the source rows and the destination columns resident.
  constexpr std::size_t mirror_tile = 64;
  for (std::size_t bi = 0; bi < k; bi += mirror_tile) {
    const std::size_t ei = std::min(bi + mirror_tile, k);
    for (std::size_t bj = bi; bj < k; bj += mirror_tile) {
      const std::size_t ej = std::min(bj + mirror_tile, k);
      for (std::size_t i = bi; i < ei; ++i) {
        for (std::size_t j = std::max(bj, i + 1); j < ej; ++j) {
          dists[j * k + i] = dists[i * k + j];
        }
      }
    }
  }
  // Per-observer pipelines.  Center observers (tolerance-equal to the SEC
  // center: rare) are deferred to a second pass -- their Def. 2 maximizer
  // scan reads the peers' cache slots, which must all be ready first.
  // Deferral does not change any slot's bytes: each pipeline depends only on
  // the configuration, never on fill order.
  // The fused record path applies configuration-wide only when every
  // multiplicity is 1 (then the per-target multiplicity expansion is the
  // identity); per-observer it additionally requires snap-identity angles.
  const bool all_mults_one = c.size() == k;
  thread_local fill_scratch fs;
  for (std::size_t i = 0; i < k; ++i) {
    if (d.view_ready[i]) continue;
    const vec2 p = occ[i].position;
    if (t.same_point(p, center)) continue;  // deferred
    GATHER_PROF("config.views");
    const vec2 ref = center - p;
    const double* row = &dists[i * k];
    if (!(all_mults_one &&
          try_view_from_row_fast(p, ref, r, t, xs, ys, row, k, fs,
                                 d.views[i]))) {
      view_from_row_into(c, p, ref, r, t, xs, ys, row, fs, d.views[i]);
    }
    d.view_ready[i] = 1;
  }
  for (std::size_t i = 0; i < k; ++i) {
    if (d.view_ready[i]) continue;
    const view tmp = view_of_uncached(c, occ[i].position);
    d.views[i].assign(tmp.begin(), tmp.end());
    d.view_ready[i] = 1;
  }
}

void fill_all_view_slots_reference(const configuration& c) {
  const auto& occ = c.occupied();
  const std::size_t k = occ.size();
  // The pre-kernel bulk build, preserved verbatim as the equivalence oracle
  // for fill_all_view_slots (and the baseline of bench_scaling's kernels
  // phase): sequential, per-observer scalar pipeline over the shared
  // pairwise-distance table.
  derived_geometry& d = c.derived();
  size_view_slots(d, k);
  if (k == 0) return;
  const vec2 center = c.sec().center;
  const geom::tol& t = c.tolerance();
  std::vector<double>& dists = d.scratch_dists;
  dists.resize(k * k);
  for (std::size_t i = 0; i < k; ++i)
    dists[i * k + i] = 0.0;  // only the diagonal needs zeroing
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = i + 1; j < k; ++j) {
      const double dd = geom::distance(occ[i].position, occ[j].position);
      dists[i * k + j] = dd;
      dists[j * k + i] = dd;
    }
  for (std::size_t i = 0; i < k; ++i) {
    if (d.view_ready[i]) continue;
    const vec2 p = occ[i].position;
    if (t.same_point(p, center)) {
      // Center observer: Def. 2 maximizer scan; rare, and not helped by
      // the table since it rebuilds views with non-center references.
      const view tmp = view_of_uncached(c, p);
      d.views[i].assign(tmp.begin(), tmp.end());
    } else {
      GATHER_PROF("config.views");
      const double* row = &dists[i * k];
      view_with_reference_into(
          c, p, center - p, [row](std::size_t j) { return row[j]; },
          d.views[i]);
    }
    d.view_ready[i] = 1;
  }
}

std::vector<std::vector<std::size_t>> view_classes_uncached(
    const configuration& c) {
  GATHER_PROF("config.view_classes");
  const std::span<const view> vs = all_views(c);
  const geom::tol& t = c.tolerance();
  const std::size_t nv = vs.size();
  if (nv == 0) return {};
  // Canonical view keys, one lazily materialized column per entry position.
  // The Def. 3 comparator only ever compares same-position entries of two
  // views, so the exact integer ids backing the keys need only distinguish
  // values within one position's column across views.  Each column is
  // chain-clustered like the snapping pass (gap > eps splits; angle columns
  // merge across the 0/2*pi seam), so tolerance-equal values share an id and
  // sorting on the keys is an exact strict weak order -- the tolerance
  // comparator the reference oracle sorts with is not one.  A column is
  // clustered only when the grouping sort first reads it: a generic
  // (asymmetric) configuration decides nearly every comparison within the
  // first few positions, so grouping costs O(nv log nv) id comparisons plus
  // a handful of O(nv log nv) column sorts; fully symmetric configurations
  // degrade gracefully to every column, still O(total entries) sort work.
  const std::size_t len = vs.front().size();  // every view has c.size() entries
  struct col_entry {
    double v;
    std::uint32_t view;
  };
  std::vector<std::uint64_t> ids(nv * len, 0);  // angle id << 32 | dist id
  std::vector<char> ready(len, 0);
  std::vector<col_entry> col(nv);
  std::vector<std::uint32_t> col_cls(nv);
  const auto cluster_column = [&](std::size_t pos, bool angle_axis) {
    for (std::uint32_t v = 0; v < nv; ++v) {
      col[v] = {angle_axis ? vs[v][pos].angle : vs[v][pos].dist, v};
    }
    std::sort(col.begin(), col.end(), [](const col_entry& x, const col_entry& y) {
      return x.v < y.v;
    });
    const double eps = angle_axis ? t.angle_eps : t.rel;
    std::uint32_t id = 0;
    for (std::size_t r = 0; r < nv; ++r) {
      if (r > 0 && col[r].v - col[r - 1].v > eps) ++id;
      col_cls[r] = id;
    }
    // Chain classes touching across the 0/2*pi seam merge, mirroring the
    // snapping pass's seam rule so tolerance-equal angles share an id.
    if (angle_axis && id > 0 &&
        (col.front().v + geom::two_pi) - col.back().v <= eps) {
      for (std::size_t r = nv; r-- > 0 && col_cls[r] == id;) col_cls[r] = 0;
    }
    const int shift = angle_axis ? 32 : 0;
    for (std::size_t r = 0; r < nv; ++r) {
      ids[static_cast<std::size_t>(col[r].view) * len + pos] |=
          static_cast<std::uint64_t>(col_cls[r]) << shift;
    }
  };
  // Three-way lexicographic comparison of two views' key rows, materializing
  // each column on first touch.
  const auto cmp_keys = [&](std::size_t a, std::size_t b) {
    for (std::size_t i = 0; i < len; ++i) {
      if (!ready[i]) {
        cluster_column(i, /*angle_axis=*/true);
        cluster_column(i, /*angle_axis=*/false);
        ready[i] = 1;
      }
      const std::uint64_t ka = ids[a * len + i];
      const std::uint64_t kb = ids[b * len + i];
      if (ka != kb) return ka > kb ? 1 : -1;
    }
    return 0;
  };
  std::vector<std::size_t> order(nv);
  for (std::size_t i = 0; i < nv; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const int k3 = cmp_keys(a, b);
    if (k3 != 0) return k3 > 0;  // descending views
    return a < b;                // stable within a class
  });
  std::vector<std::vector<std::size_t>> classes;
  for (std::size_t i : order) {
    if (!classes.empty() && cmp_keys(classes.back().front(), i) == 0) {
      classes.back().push_back(i);
    } else {
      classes.push_back({i});
    }
  }
  // Tie verification: every member of a class must compare equal to its
  // front under the Def. 3 tolerance comparison.
  for (const auto& cls : classes) {
    for (std::size_t i : cls) {
      GATHER_CHECK(compare_views(vs[cls.front()], vs[i], t) == 0,
                   "view class members have equal views (Def. 3)");
      static_cast<void>(i);
    }
  }
  return classes;
}

int symmetry_uncached(const configuration& c) {
  GATHER_PROF("config.symmetry");
  const geom::tol& t = c.tolerance();
  const vec2 center = c.sec().center;
  // Degenerate guard: when two or more distinct occupied locations sit
  // inside the tolerance ball around the SEC center, the angular order
  // excludes them all and the string below no longer represents the whole
  // configuration -- fall back to the literal Def. 3 maximum view class.
  std::size_t at_center = 0;
  for (const occupied_point& o : c.occupied()) {
    if (t.same_point(o.position, center)) ++at_center;
  }
  if (at_center >= 2) return symmetry_by_view_classes(c);
  const std::vector<angular_entry>& entries = angles_about_center_slot(c);
  // Collapse the (multiplicity-expanded) order into distinct locations.
  // Equal positions are bitwise equal after canonicalization and sort
  // adjacently (same snapped theta, same dist, same position).
  struct loc {
    vec2 pos;
    double theta;
    double dist;
    std::uint64_t mult;
  };
  std::vector<loc> locs;
  for (const angular_entry& e : entries) {
    if (!locs.empty() && locs.back().pos == e.position) {
      ++locs.back().mult;
      continue;
    }
    locs.push_back({e.position, e.theta, e.dist, 1});
  }
  const std::size_t m = locs.size();
  // 0 or 1 off-center locations admit only the identity rotation; robots at
  // the center itself are fixed by every rotation and form a singleton view
  // class, so sym(C) = 1 here either way.
  if (m <= 1) return 1;
  // The string about the center: one symbol per location in cyclic clockwise
  // order, encoding (gap to successor, distance ring, multiplicity).  A
  // rotation maps the configuration onto itself iff it shifts this cyclic
  // string onto itself, so sym(C) is the string's rotation order -- computed
  // by the Z/Booth kernel in O(m) after the O(m log m) quantization, instead
  // of the reference oracle's O(n^3 log n) all-views comparison.
  std::vector<double> gaps(m);
  for (std::size_t k = 0; k < m; ++k) {
    const double a = locs[k].theta;
    const double b = locs[(k + 1) % m].theta;
    // Snapped angles make co-ray successors exactly equal; distinct
    // representatives differ by more than angle_eps, so gap class 0 is
    // exactly the co-ray relation.
    gaps[k] = (a == b) ? 0.0 : geom::norm_angle(b - a);
  }
  quantizer qg, qd;
  qg.vals = gaps;
  qg.build(t.angle_eps, /*seam=*/true);
  qd.vals.reserve(m);
  for (const loc& l : locs) qd.vals.push_back(l.dist);
  qd.build(t.len_eps(), /*seam=*/false);
  std::vector<std::uint64_t> symbols(m);
  for (std::size_t k = 0; k < m; ++k) {
    symbols[k] = (static_cast<std::uint64_t>(qg.id_of(gaps[k])) << 42) |
                 (static_cast<std::uint64_t>(qd.id_of(locs[k].dist)) << 21) |
                 locs[k].mult;
  }
  return static_cast<int>(geom::cyclic_rotation_order(symbols));
}

}  // namespace detail

view view_of(const configuration& c, vec2 p) {
  // Serve from the cache only on an exact (bitwise) match with an occupied
  // location: a merely tolerance-close `p` yields a different polar frame and
  // therefore different bits, so it is computed uncached.  occupied() is
  // sorted by position, so the match is a binary search, not a linear scan.
  if (const auto i = c.find_occupied(p)) {
    return cached_view_slot(c, *i);
  }
  return detail::view_of_uncached(c, p);
}

std::span<const view> all_views(const configuration& c) {
  // Serve straight from the slots when every view is already cached;
  // otherwise bulk-build through the shared pairwise-distance table instead
  // of one isolated slot at a time.  The span covers the live prefix of the
  // grow-only slot pool.
  derived_geometry& d = c.derived();
  const std::size_t k = c.distinct_count();
  const bool ready =
      d.view_ready.size() == k &&
      std::find(d.view_ready.begin(), d.view_ready.end(), char{0}) ==
          d.view_ready.end();
  if (!ready) detail::fill_all_view_slots(c);
  return {d.views.data(), k};
}

std::vector<std::vector<std::size_t>> view_classes(const configuration& c) {
  derived_geometry& d = c.derived();
  if (!d.view_classes) d.view_classes = detail::view_classes_uncached(c);
  return *d.view_classes;
}

int symmetry(const configuration& c) {
  derived_geometry& d = c.derived();
  if (!d.symmetry) d.symmetry = detail::symmetry_uncached(c);
  return *d.symmetry;
}

}  // namespace gather::config
