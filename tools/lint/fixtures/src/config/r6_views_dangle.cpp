// Fixture: R6 — references into the derived-geometry cache used after an
// invalidating mutation.  Each `expect(Rn)` marks a line the analyzer must
// diagnose.  (Lives under src/config so the derived() accessor itself is
// R5-exempt; R6 is about lifetime, not layering.)
#include <cstddef>
#include <vector>

namespace gather::config {

struct point {
  double x = 0.0, y = 0.0;
};
struct view {
  std::size_t index = 0;
};

struct mutation_report {
  bool no_op = false;
  bool cache_kept = false;
};

class configuration {
 public:
  const std::vector<view>& all_views() const;
  mutation_report set_position(std::size_t i, point p);
  mutation_report apply_moves(const std::vector<point>& targets);
  mutation_report insert_robot(point p);
  mutation_report set_tol_refresh(double tol);
};

class polar_ref {
 public:
  std::size_t size() const;
  std::vector<std::size_t> take() &&;
};

const std::vector<std::size_t>& angles_about_center_slot(
    const configuration& c);
polar_ref angular_order_ref(const configuration& c, point center);
void consume(std::size_t n);

// Violation: the reference dangles across the invalidating mutation.
std::size_t stale_after_set_position(configuration& c, point p) {
  const std::vector<view>& vs = c.all_views();
  c.set_position(0, p);
  return vs.size();  // expect(R6)
}

// Violation: a mutation behind a conditional still stales the outer
// binding — the analyzer is linear and assumes the branch is taken.
std::size_t stale_after_branch(configuration& c, point p, bool grow) {
  const std::vector<view>& vs = c.all_views();
  if (grow) {
    c.insert_robot(p);
  }
  return vs.size();  // expect(R6)
}

// Violation: free-function accessors backed by the same cache dangle too.
std::size_t stale_angular_order(configuration& c, double tol) {
  const std::vector<std::size_t>& order = angles_about_center_slot(c);
  c.set_tol_refresh(tol);
  return order.size();  // expect(R6)
}

// Negative: use before the mutation is fine, and re-acquiring a fresh
// reference afterwards under a new name is the sanctioned pattern.
std::size_t reacquire_is_clean(configuration& c, point p) {
  const std::vector<view>& vs = c.all_views();
  consume(vs.size());
  c.set_position(0, p);
  const std::vector<view>& fresh = c.all_views();
  return fresh.size();
}

// Negative: a value copy survives any mutation.
std::size_t value_copy_is_clean(configuration& c, point p) {
  std::vector<view> snapshot = c.all_views();
  c.set_position(0, p);
  return snapshot.size();
}

// Negative: mutating a *different* configuration does not invalidate.
std::size_t other_object_is_clean(configuration& c, configuration& d,
                                  point p) {
  const std::vector<view>& vs = c.all_views();
  d.set_position(0, p);
  return vs.size();
}

// Negative: a re-targeted pointer is fresh again after reassignment.
std::size_t pointer_retarget_is_clean(configuration& c, point p) {
  const std::vector<view>* vp = &c.all_views();
  c.set_position(0, p);
  vp = &c.all_views();
  return vp->size();
}

// Violation: a by-value polar_ref may alias the Def. 4 angular-order slot; it
// dangles across mutations exactly like a reference.
std::size_t stale_polar_ref(configuration& c, point p) {
  const polar_ref order = angular_order_ref(c, p);
  c.set_position(0, p);
  return order.size();  // expect(R6)
}

// Negative: take() detaches the handle into owned storage in the same
// statement, so nothing aliases the cache.
std::size_t polar_take_is_clean(configuration& c, point p) {
  const auto entries = angular_order_ref(c, p).take();
  c.set_position(0, p);
  return entries.size();
}

// Negative: a mutator probed in-statement for its cache-keeping report
// fields is the fast-path check itself -- the caller branches on the report
// before touching cached state, so the probe must not stale bindings.
std::size_t no_op_probe_is_clean(configuration& c,
                                 const std::vector<point>& targets) {
  const std::vector<view>& vs = c.all_views();
  if (c.apply_moves(targets).no_op) {
    return vs.size();
  }
  return 0;
}

// Violation: the probe exemption is per-call -- a later unprobed mutation
// on the same object stales as usual.
std::size_t probe_then_mutate_is_stale(configuration& c, point p,
                                       const std::vector<point>& targets) {
  const std::vector<view>& vs = c.all_views();
  if (c.apply_moves(targets).cache_kept) {
    consume(vs.size());
  }
  c.set_position(0, p);
  return vs.size();  // expect(R6)
}

// Suppressed: the caller proves no view is read between here and return.
std::size_t sanctioned_stale(configuration& c,
                             const std::vector<point>& targets) {
  const std::vector<view>& vs = c.all_views();
  c.apply_moves(targets);
  return vs.capacity();  // gather-lint: allow(R6)
}

}  // namespace gather::config
