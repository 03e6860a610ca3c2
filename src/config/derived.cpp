#include "config/derived.h"

#include "geometry/convex_hull.h"
#include "util/check.h"

namespace gather::config {

namespace {

/// Multiplicity re-expansion repair (mults_only mutations): the cached order
/// holds every location's entries adjacent (identical sort keys), so
/// collapsing adjacent equal positions recovers one entry per location, and
/// re-expanding each by its current multiplicity reproduces
/// angular_order_uncached under the new multiplicities bit for bit -- the
/// per-location key (theta, dist, position) is untouched and the sort is by
/// that full key, so repetition counts are the only degree of freedom.
void reexpand_with_mults(const configuration& c,
                         std::vector<angular_entry>& entries,
                         std::vector<angular_entry>& scratch) {
  scratch.clear();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i > 0 && entries[i].position == entries[i - 1].position) continue;
    const auto slot = c.find_occupied(entries[i].position);
    GATHER_CHECK(slot.has_value(),
                 "mults_only repair: cached location still occupied");
    const int mult = c.occupied()[*slot].multiplicity;
    for (int k = 0; k < mult; ++k) scratch.push_back(entries[i]);
  }
  entries.swap(scratch);  // capacities circulate between slot and scratch
}

}  // namespace

void derived_geometry::clear() {
  verdict.reset();
  weber.reset();
  linear_weber.reset();
  qr_ready = false;
  qr.reset();
  hull.reset();
  safe_points.reset();
  for (view& v : views) v.clear();  // keep per-slot capacity
  view_ready.clear();
  view_classes.reset();
  angles_about_center.clear();  // keep capacity
  angles_state = 0;
  max_ray_loads.clear();
  symmetry.reset();
  // scratch_* buffers hold no cross-call state.
}

void derived_geometry::on_mutation(const mutation_report& rep) {
  if (rep.kind != mutation_kind::mults_only) {
    // delta / rebuild: some occupied location moved.  Def. 2 views and every
    // other slot observe all robots, so every slot's inputs changed -- an
    // all-slots drop is the *correct* invalidation here, not a shortcut.
    // (The structure-repairable survivors of a delta -- SEC, diameter, hull,
    // collinearity -- live in the configuration itself, where they are kept
    // under exact-arithmetic witnesses; the tolerant hull slot here is NOT
    // kept because tolerant-predicate runs under moved inputs are not
    // provably bit-identical.  See docs/PERFORMANCE.md.)
    clear();
    return;
  }
  // mults_only: the distinct locations and the tolerance are bitwise
  // unchanged; only multiplicities (and the robot->location assignment)
  // moved.  The hull is a function of exactly those unchanged inputs: keep
  // it.  The Def. 4 angular table keeps its per-location geometry and
  // repairs its multiplicity expansion lazily; everything else reads
  // multiplicities and drops.
  verdict.reset();
  weber.reset();
  linear_weber.reset();
  qr_ready = false;
  qr.reset();
  safe_points.reset();
  for (view& v : views) v.clear();  // view entries embed multiplicities
  view_ready.assign(view_ready.size(), 0);
  view_classes.reset();
  if (angles_state == 1) angles_state = 2;
  max_ray_loads.clear();  // ray loads sum multiplicities
  symmetry.reset();  // the rotation-kernel symbols embed multiplicities
}

std::vector<vec2> hull(const configuration& c) {
  derived_geometry& d = c.derived();
  if (!d.hull) {
    std::vector<vec2> distinct;
    distinct.reserve(c.distinct_count());
    for (const occupied_point& o : c.occupied()) distinct.push_back(o.position);
    d.hull = geom::convex_hull(distinct, c.tolerance());
  }
  return *d.hull;
}

namespace detail {

const std::vector<angular_entry>& angles_about_center_slot(
    const configuration& c) {
  derived_geometry& d = c.derived();
  if (d.angles_state == 2) {
    reexpand_with_mults(c, d.angles_about_center, d.scratch_entries);
    d.angles_state = 1;
  } else if (d.angles_state == 0) {
    angular_order_into(c, c.sec().center, d.angles_about_center);
    d.angles_state = 1;
  }
  return d.angles_about_center;
}

}  // namespace detail

std::vector<angular_entry> angular_order_about_center(const configuration& c) {
  return detail::angles_about_center_slot(c);
}

polar_ref angular_order_ref(const configuration& c, vec2 center) {
  // Cache routing demands an exact bitwise position match: a merely
  // tolerance-close center yields different angles and therefore different
  // bits, so it is computed uncached.
  polar_ref r;
  const vec2 sec_center = c.sec().center;
  if (center.x == sec_center.x && center.y == sec_center.y) {
    r.aliased_ = &detail::angles_about_center_slot(c);
    return r;
  }
  detail::angular_order_into(c, center, r.owned_);
  return r;
}

}  // namespace gather::config
