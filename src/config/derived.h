// The derived-geometry cache behind configuration::derived().
//
// Every slot holds one expensive derived quantity of a configuration --
// convex hull, Weber point, views, string of angles, the classify verdict --
// computed lazily, at most once per mutation generation, by the public
// wrappers in classify.h / weber.h / views.h / safe_points.h / regularity.h.
// The wrappers delegate to the detail::*_uncached functions below, so a
// cached value is bit-identical to a fresh one by construction: same
// function, same canonical state.
//
// Angular work: the Def. 4 order about the SEC center is the one cached
// angular order (`angles_about_center`); any other center gets an owning
// angular order per request (angular_order_ref).  Per-occupied-center ray
// analysis -- the Lemma 3.4 quasi-regularity search and the Def. 8 safe-point
// test -- runs one ray sweep per center (regularity.cpp), and the search
// leaves each center's max ray load in `max_ray_loads`, an O(k) slot, so the
// class-A election scores safe points without sweeping again.  The
// angle-cluster scratch buffers below make the fill passes allocation-free in
// steady state.  The pre-subquadratic implementations are kept verbatim as
// detail::*_reference oracles for equivalence fuzzing and benchmarking (see
// docs/PERFORMANCE.md, "View pipeline complexity").
//
// Invalidation: configuration's mutation API hands each mutation_report to
// derived_geometry::on_mutation, which invalidates per slot: a mults_only
// mutation (same locations, same tolerance) keeps the hull slot outright and
// keeps the per-location geometry of the Def. 4 angular table, marking only
// its multiplicity expansion stale (repaired in place on the next read);
// every structural mutation falls back to clear().  Slots are emptied, never
// deallocated -- the ragged tables (`views`, `angles_about_center`) are
// grow-only pools whose logical size is carried by their ready flags, so a
// simulation engine reusing one configuration across rounds reaches an
// allocation-free steady state even when the number of occupied locations
// fluctuates.
//
// This header is internal to src/config: accessing derived() or this struct
// from other layers is rejected by gather-lint rule R5.  Consumers use the
// public wrappers, whose results now come from this cache automatically.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "config/classify.h"
#include "config/configuration.h"
#include "config/regularity.h"
#include "config/string_of_angles.h"
#include "config/views.h"
#include "config/weber.h"

namespace gather::config {

struct derived_geometry {
  std::optional<classification> verdict;
  std::optional<weber_result> weber;
  std::optional<weber_result> linear_weber;
  bool qr_ready = false;
  std::optional<quasi_regularity> qr;
  std::optional<std::vector<vec2>> hull;
  std::optional<std::vector<std::size_t>> safe_points;
  // Per-occupied-index view slots: elect_leader only looks at safe
  // candidates, so views fill individually instead of all at once.  The pool
  // is grow-only (views.size() never shrinks); the logical slot count is
  // view_ready.size(), so shrinking occupancy keeps every inner vector's
  // capacity parked for the next round.
  std::vector<view> views;
  std::vector<char> view_ready;
  std::optional<std::vector<std::vector<std::size_t>>> view_classes;
  // Def. 4 order about the SEC center.  angles_state: 0 = cold, 1 = ready,
  // 2 = per-location geometry valid but the multiplicity expansion is stale
  // (on_mutation after a mults_only mutation; repaired in place on the next
  // read -- see detail::angles_about_center_slot).
  std::vector<angular_entry> angles_about_center;
  std::uint8_t angles_state = 0;
  // Def. 8 max ray load about occupied location i (index-aligned with
  // occupied(); -1 = cold, empty = all cold).  The Lemma 3.4 search fills
  // every entry as a by-product of its per-center ray sweep;
  // safe_occupied_points and max_ray_load read it.
  std::vector<int> max_ray_loads;
  // sym(C) by the Booth/Z rotation kernel on the string about the SEC
  // center; filling this slot does not require computing any view.
  std::optional<int> symmetry;
  // Scratch for the angle clustering/snapping passes (contents transient;
  // capacity reused across calls and generations).
  std::vector<double> scratch_thetas;
  std::vector<double> scratch_reps;
  // Shared pairwise-distance table scratch for all_views: row i holds the
  // distances from occupied i to every occupied j (hypot is sign-symmetric,
  // so each unordered pair is computed once and mirrored).
  std::vector<double> scratch_dists;
  // Ping-pong buffer for the in-place multiplicity re-expansion repair.
  std::vector<angular_entry> scratch_entries;

  /// Empty every slot, keeping vector capacity for reuse.
  void clear();

  /// Per-slot invalidation from a mutation report.  Called by the
  /// configuration for every generation-bumping mutation (no_op/cache_kept
  /// mutations never reach here).  mults_only keeps the hull slot (its
  /// inputs -- distinct locations and tolerance -- are bitwise unchanged)
  /// and downgrades the filled Def. 4 angular table to stale-mults; every
  /// other kind clears all slots.
  void on_mutation(const mutation_report& rep);
};

/// Convex hull of the distinct occupied locations (CCW, geom::convex_hull
/// order), cached per generation.
[[nodiscard]] std::vector<vec2> hull(const configuration& c);

/// The cyclic clockwise order of the robots about the center of sec(U(C))
/// (the string-of-angles base sequence, Def. 4), cached per generation.
[[nodiscard]] std::vector<angular_entry> angular_order_about_center(
    const configuration& c);

class polar_ref;

/// Cache-routing angular order about an arbitrary center: serves the Def. 4
/// slot on an exact SEC-center match, and otherwise computes into storage
/// owned by the returned handle.  A cache-aliasing handle is valid until the
/// next mutation of `c`; an owning handle is self-contained.
[[nodiscard]] polar_ref angular_order_ref(const configuration& c, vec2 center);

/// Handle to an angular order: either an alias into the Def. 4 slot (valid
/// until the next mutation -- gather-lint rule R6 tracks these bindings like
/// any other cached reference) or owned storage for every other center.
/// Which one it is is recorded, so callers that want to keep the entries past
/// a mutation know whether a copy is needed (`take()` does the right thing
/// either way).
class polar_ref {
 public:
  polar_ref() = default;

  [[nodiscard]] const std::vector<angular_entry>& entries() const {
    return aliased_ != nullptr ? *aliased_ : owned_;
  }
  /// True when entries() points into the configuration's derived cache.
  [[nodiscard]] bool aliases_cache() const { return aliased_ != nullptr; }

  [[nodiscard]] auto begin() const { return entries().begin(); }
  [[nodiscard]] auto end() const { return entries().end(); }
  [[nodiscard]] std::size_t size() const { return entries().size(); }
  [[nodiscard]] bool empty() const { return entries().empty(); }

  /// The entries as an independent vector: moves the owned storage out, or
  /// copies the cache slot (the cache is never stolen from).
  [[nodiscard]] std::vector<angular_entry> take() && {
    return aliased_ != nullptr ? *aliased_ : std::move(owned_);
  }

 private:
  friend polar_ref angular_order_ref(const configuration& c, vec2 center);
  const std::vector<angular_entry>* aliased_ = nullptr;
  std::vector<angular_entry> owned_;
};

namespace detail {

// The original cache-free computations.  Public wrappers fill the cache from
// these; the equivalence suite (test_config_cache) compares the two paths
// bit for bit.
[[nodiscard]] classification classify_uncached(const configuration& c);
[[nodiscard]] weber_result weber_point_uncached(const configuration& c);
[[nodiscard]] weber_result linear_weber_uncached(const configuration& c);
[[nodiscard]] std::optional<config::quasi_regularity>
detect_quasi_regularity_uncached(const configuration& c);
[[nodiscard]] view view_of_uncached(const configuration& c, vec2 p);
// Fill every per-index view slot that is still cold, in bulk through the
// shared pairwise-distance table (one hypot per unordered pair).  Each slot
// ends up bit-identical to what view_of_uncached would produce for it;
// all_views serves references straight from the slots afterwards.  The fill
// runs sequentially on the calling thread through the batch kernels
// (geometry/kernels.h); output bytes are invariant across dispatch paths.
void fill_all_view_slots(const configuration& c);
// The pre-kernel bulk fill (sequential, scalar pipeline), kept verbatim as
// the equivalence oracle and bench baseline: fill_all_view_slots must leave
// every slot bit-identical to this path (fuzzed by tests/kernel_test.cpp,
// timed by bench_scaling's kernels phase).
void fill_all_view_slots_reference(const configuration& c);
[[nodiscard]] std::vector<std::vector<std::size_t>> view_classes_uncached(
    const configuration& c);
[[nodiscard]] int symmetry_uncached(const configuration& c);
[[nodiscard]] std::vector<angular_entry> angular_order_uncached(
    const configuration& c, vec2 center);
// angular_order_uncached writing into caller storage (bit-identical
// entries); the cache fill paths use this to preserve slot capacity.
void angular_order_into(const configuration& c, vec2 center,
                        std::vector<angular_entry>& out);
// The Def. 4 slot (angular order about the SEC center): fills it when cold,
// repairs the multiplicity expansion in place when stale-mults, and returns
// the slot by reference (valid until the next mutation).
[[nodiscard]] const std::vector<angular_entry>& angles_about_center_slot(
    const configuration& c);
// Def. 8 max ray load about `center` by the ray sweep of the Lemma 3.4
// search (regularity.cpp): the largest summed multiplicity over a run of
// equal snapped thetas, i.e. the longest equal-theta run of
// angular_order_uncached(c, center).
[[nodiscard]] int max_ray_load_uncached(const configuration& c, vec2 center);

// PR 5 reference oracles: the pre-subquadratic view/symmetry pipeline kept
// verbatim (naive clustering, linear-scan snapping, tolerance-comparator
// classing, view-based symmetry).  The fast pipeline must reproduce their
// results -- bit for bit for views and angular orders, exactly for classes
// and symmetry away from tolerance boundaries (fuzzed by
// test_view_pipeline); bench_scaling times fast vs reference per phase.
// PR 10 reference oracle: the pre-divisor-driven Lemma 3.4 search (full
// angular order, first-fit residue classes, every m from n down to 2), kept
// verbatim.  The fast quasi_regular_about_occupied must agree with it away
// from eps-chain residue boundaries (fuzzed by tests/kernel_test.cpp);
// bench_scaling's kernels phase measures the two slopes.
[[nodiscard]] std::optional<int> quasi_regular_about_occupied_reference(
    const configuration& c, vec2 p);

[[nodiscard]] view view_of_reference(const configuration& c, vec2 p);
[[nodiscard]] std::vector<view> all_views_reference(const configuration& c);
[[nodiscard]] std::vector<std::vector<std::size_t>> view_classes_reference(
    const configuration& c);
[[nodiscard]] std::vector<std::vector<std::size_t>>
view_classes_from_views_reference(const std::vector<view>& vs,
                                  const geom::tol& t);
[[nodiscard]] int symmetry_reference(const configuration& c);
[[nodiscard]] std::vector<angular_entry> angular_order_reference(
    const configuration& c, vec2 center);

}  // namespace detail

}  // namespace gather::config
