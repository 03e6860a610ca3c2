#include "sim/async_engine.h"

#include <algorithm>
#include <ostream>
#include <stdexcept>

#include "obs/events.h"
#include "obs/metrics_registry.h"
#include "sim/spec.h"

namespace gather::sim {

std::ostream& operator<<(std::ostream& os, async_policy p) {
  return os << to_string(p);
}

namespace {

enum class phase : std::uint8_t { idle, armed };

}  // namespace

async_engine::async_engine(const sim_spec& spec)
    : positions_(spec.initial),
      algo_(spec.algorithm),
      movement_(spec.movement),
      crash_(spec.crash),
      opts_(spec.async),
      sink_(spec.sink),
      metrics_(spec.metrics),
      run_id_(spec.run_id) {
  if (algo_ == nullptr) throw std::invalid_argument("sim_spec: algorithm unset");
  if (movement_ == nullptr) throw std::invalid_argument("sim_spec: movement unset");
  if (crash_ == nullptr) throw std::invalid_argument("sim_spec: crash unset");
  if (positions_.empty()) throw std::invalid_argument("sim_spec: no robots");
}

async_result async_engine::run() {
  async_result result;
  rng random(opts_.seed);
  const std::size_t n = positions_.size();

  const config::configuration c0(positions_);
  const double delta_abs = std::max(opts_.delta_fraction * c0.diameter(), 1e-12);
  result.delta_abs = delta_abs;
  const bool initial_bivalent = config::is_bivalent(c0);

  obs::metrics_registry local;
  std::uint64_t& m_steps = local.counter("async.steps");
  std::uint64_t& m_cycles = local.counter("async.cycles");
  std::uint64_t& m_stale = local.counter("async.stale_moves");
  std::uint64_t& m_crashes = local.counter("async.crashes");
  std::uint64_t& m_truncated = local.counter("async.moves_truncated");
  local.counter("async.runs") = 1;
  local.gauge("async.delta_abs") = delta_abs;

  std::vector<phase> phases(n, phase::idle);
  std::vector<geom::vec2> targets(n);
  std::vector<geom::vec2> snapshot_base(n);  // positions hash proxy at Look time
  std::vector<std::uint8_t> live(n, 1);
  std::vector<std::size_t> starving(n, 0);
  // Per-step write mask (the apply_moves moved hint): at most one robot
  // moves per step, so the step-start recanonicalization is O(1) on the
  // delta path instead of O(n).
  std::vector<std::uint8_t> moved(n, 1);
  bool snap_identity = false;  // the last executed snap pass changed nothing

  // Step-start configuration, recanonicalized in place: the refreshed-tol
  // policy recomputes tol::for_points with the delta-derived absolute floor
  // on every apply_moves, matching a freshly built configuration bit for
  // bit, and a step that leaves positions bitwise unchanged (Look-only
  // steps, once positions are snapped) keeps the derived-geometry cache.
  config::configuration cfg;
  cfg.set_tol_refresh(1e-9 * delta_abs);

  auto checksum = [&]() {
    geom::vec2 s{};
    for (const geom::vec2& p : positions_) s += p;
    return s;
  };

  auto gathered = [&](const config::configuration& c) {
    const geom::vec2* point = nullptr;
    geom::vec2 first{};
    for (std::size_t i = 0; i < n; ++i) {
      if (!live[i]) continue;
      const geom::vec2 p = c.snapped(positions_[i]);
      if (point == nullptr) {
        first = p;
        point = &first;
      } else if (!c.tolerance().same_point(*point, p)) {
        return false;
      }
      // A live robot armed with a stale far-away target will still move.
      if (phases[i] == phase::armed &&
          !c.tolerance().same_point(targets[i], p)) {
        return false;
      }
    }
    if (point == nullptr) return false;
    return c.tolerance().same_point(algo_->destination({c, *point}), *point);
  };

  std::size_t step = 0;

  // Advance one robot's phase machine.
  auto look = [&](std::size_t i, const config::configuration& c) {
    targets[i] = algo_->destination({c, c.snapped(positions_[i])});
    snapshot_base[i] = checksum();
    phases[i] = phase::armed;
    if (sink_ != nullptr) {
      sink_->on_event(
          obs::event::activation(run_id_, step, static_cast<std::int64_t>(i)));
    }
  };
  auto move = [&](std::size_t i, const config::configuration& c) {
    const geom::vec2 before = checksum();
    if (geom::distance(before, snapshot_base[i]) > 1e-9) ++m_stale;
    const geom::vec2 from = positions_[i];
    positions_[i] = movement_->stop_point(from, targets[i], delta_abs, random);
    moved[i] = 1;
    if (!c.tolerance().same_point(positions_[i], targets[i])) {
      ++m_truncated;
      if (sink_ != nullptr) {
        sink_->on_event(obs::event::move_truncated(
            run_id_, step, static_cast<std::int64_t>(i),
            geom::distance(from, targets[i]),
            geom::distance(from, positions_[i])));
      }
    }
    phases[i] = phase::idle;
    ++m_cycles;
  };

  std::size_t la_ma_cursor = 0;  // for look_all_move_all
  bool la_phase_is_look = true;

  for (; step < opts_.max_steps; ++step) {
    const config::mutation_report rep = cfg.apply_moves(positions_, moved);
    moved.assign(n, 0);
    const config::configuration& c = cfg;
    // Snap pass, skipped when provably an identity (same reasoning as the
    // ATOM engine: no_op round + a previously observed identity snap).
    if (!(rep.no_op && snap_identity)) {
      bool snap_changed = false;
      for (std::size_t i = 0; i < n; ++i) {
        const geom::vec2 s = c.snapped(positions_[i]);
        if (s.x != positions_[i].x || s.y != positions_[i].y) {
          positions_[i] = s;
          moved[i] = 1;
          snap_changed = true;
        }
      }
      snap_identity = !snap_changed;
    }

    if (gathered(c)) {
      result.status = sim_status::gathered;
      for (std::size_t i = 0; i < n; ++i) {
        if (live[i]) {
          result.gather_point = c.snapped(positions_[i]);
          break;
        }
      }
      if (sink_ != nullptr) {
        sink_->on_event(obs::event::gathered(
            run_id_, step, result.gather_point.x, result.gather_point.y));
      }
      break;
    }

    // Crash injection (budget semantics as in the ATOM engine).
    std::size_t live_count =
        static_cast<std::size_t>(std::count(live.begin(), live.end(), std::uint8_t{1}));
    const crash_context cctx{step, positions_, live, nullptr};
    for (std::size_t idx : crash_->crashes(cctx, random)) {
      if (idx >= n || !live[idx]) continue;
      if (live_count <= 1) break;
      live[idx] = 0;
      --live_count;
      ++m_crashes;
      if (sink_ != nullptr) {
        sink_->on_event(
            obs::event::crash(run_id_, step, static_cast<std::int64_t>(idx)));
      }
    }
    if (live_count == 0) {
      result.status = sim_status::all_crashed;
      break;
    }

    // Pick the robot whose phase advances, per the interleaving policy.
    std::vector<std::size_t> live_idx;
    for (std::size_t i = 0; i < n; ++i) {
      if (live[i]) live_idx.push_back(i);
    }
    std::size_t pick = live_idx.front();
    switch (opts_.policy) {
      case async_policy::atomic_sequential: {
        // Finish an armed robot first; otherwise arm the next in index order.
        const auto armed = std::find_if(live_idx.begin(), live_idx.end(), [&](std::size_t i) {
          return phases[i] == phase::armed;
        });
        pick = (armed != live_idx.end()) ? *armed
                                         : live_idx[step / 2 % live_idx.size()];
        break;
      }
      case async_policy::random_interleaving:
        pick = live_idx[random.uniform_int(0, live_idx.size() - 1)];
        break;
      case async_policy::look_all_move_all: {
        // Sweep all live robots through Look, then all through Move.
        if (la_ma_cursor >= live_idx.size()) {
          la_ma_cursor = 0;
          la_phase_is_look = !la_phase_is_look;
        }
        pick = live_idx[la_ma_cursor++];
        // Skip robots already in the sweep's desired state.
        const phase want = la_phase_is_look ? phase::idle : phase::armed;
        std::size_t guard = 0;
        while (phases[pick] != want && guard++ < live_idx.size()) {
          if (la_ma_cursor >= live_idx.size()) {
            la_ma_cursor = 0;
            la_phase_is_look = !la_phase_is_look;
            break;
          }
          pick = live_idx[la_ma_cursor++];
        }
        break;
      }
    }
    // Fairness backstop.
    for (std::size_t i : live_idx) {
      if (starving[i] >= opts_.fairness_bound) {
        pick = i;
        break;
      }
    }
    for (std::size_t i : live_idx) ++starving[i];
    starving[pick] = 0;

    if (phases[pick] == phase::idle) {
      look(pick, c);
    } else {
      move(pick, c);
    }
  }

  result.steps = step;
  result.final_positions = positions_;
  result.final_live = live;
  if (result.status != sim_status::gathered && initial_bivalent) {
    result.status = sim_status::started_bivalent;
  }

  m_steps = result.steps;
  result.cycles = m_cycles;
  result.stale_moves = m_stale;
  result.crashes = m_crashes;
  if (result.status == sim_status::gathered) {
    local.counter("async.gathered") = 1;
  }
  if (metrics_ != nullptr) metrics_->merge(local);
  return result;
}

async_result run_async(const sim_spec& spec) {
  obs::prof_session profiling(spec.profile);
  async_engine e(spec);
  return e.run();
}

}  // namespace gather::sim
