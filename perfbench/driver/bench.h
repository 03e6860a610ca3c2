// Shared pieces of the benchmark driver: the workload interface, timing and
// quantile helpers, and the metric map the traced run fills.
//
// Every workload repeats one identical op on inputs generated once from the
// seed, so the set of samples never depends on how fast the program is.  The
// driver calls only the public functions of the gather_* libraries.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/binio.h"
#include "obs/quantile.h"

namespace perfbench {

using bench_clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(bench_clock::time_point t0) {
  return std::chrono::duration<double>(bench_clock::now() - t0).count();
}

/// Wall seconds taken by `f()`.
template <class F>
[[nodiscard]] double time_s(F&& f) {
  const auto t0 = bench_clock::now();
  f();
  return seconds_since(t0);
}

/// Nearest-rank q-quantile (the repository's definition, obs/quantile.h).
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[gather::obs::nearest_rank(v.size(), q) - 1];
}

[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

[[nodiscard]] inline double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

/// What one op produced, as checked after its timing ended.
struct op_outcome {
  std::uint64_t digest = 0;  ///< FNV-1a over the op's output bytes
  std::string failure;       ///< empty when every semantic check passed
};

struct metric {
  double value = 0.0;
  std::string unit;
};

/// Metrics by name.  In the traced run each workload prefixes its names with
/// the workload name, so one map reports all workloads; the untraced run's
/// end-to-end metrics carry no prefix.
class metric_map {
 public:
  void put(std::string_view workload, std::string_view name, double value,
           std::string_view unit) {
    std::string key(name);
    if (!workload.empty()) key = std::string(workload) + "." + key;
    values_[key] = metric{value, std::string(unit)};
  }
  [[nodiscard]] const std::map<std::string, metric>& values() const {
    return values_;
  }

 private:
  std::map<std::string, metric> values_;
};

class workload {
 public:
  virtual ~workload() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;
  /// Build the op's inputs from `seed`.  Timed into setup_s.
  virtual void generate(std::uint64_t seed) = 0;
  /// One op on the generated inputs; the timed region.  `traced` attaches
  /// the program's profiling and metrics hooks (sim_spec::profile,
  /// sink_options::profile, check_spec::metrics).
  virtual void run_op(bool traced) = 0;
  /// Digest and semantic checks of the last op's outputs (untimed).
  [[nodiscard]] virtual op_outcome verify() const = 0;
  /// Per-layer pass of the traced run, on the generated inputs.  Runs after
  /// at least one traced op, whose exact counts it may report.
  virtual void layers(metric_map& out) = 0;
};

[[nodiscard]] std::unique_ptr<workload> make_class_a_round();
[[nodiscard]] std::unique_ptr<workload> make_m_gather();
[[nodiscard]] std::unique_ptr<workload> make_campaign_mixed();
[[nodiscard]] std::unique_ptr<workload> make_check_exhaustive();

/// Digest builder over the repository's byte-stable writer.
class digest {
 public:
  void u64(std::uint64_t v) { w_.u64(v); }
  void f64(double v) { w_.f64(v); }
  void str(std::string_view s) { w_.str(s); }
  [[nodiscard]] std::uint64_t value() const {
    return gather::obs::fnv1a(w_.bytes());
  }

 private:
  gather::obs::byte_writer w_;
};

}  // namespace perfbench
