// campaign-mixed: run_campaign over all 11 generators x n {16, 32} x
// f {1, 3} x all schedulers x 1 repeat (264 cells) at jobs = 2, with the
// in-memory JSONL trace and merged-metrics sinks, then the CSV rendering.
//
// The sweep users run most, and the only workload where the runner, the
// thread pool and the obs sinks carry real work; uneven cell cost creates
// stragglers at 2 jobs.
#include <stdexcept>

#include "bench.h"
#include "obs/events.h"
#include "runner/campaign_spec.h"
#include "runner/params.h"
#include "runner/result_columns.h"
#include "sim/scheduler.h"

namespace perfbench {
namespace {

namespace runner = gather::runner;
namespace obs = gather::obs;

constexpr std::size_t jobs = 2;
constexpr std::size_t expected_cells = 264;

class campaign_mixed final : public workload {
 public:
  [[nodiscard]] std::string_view name() const override { return "campaign-mixed"; }

  void generate(std::uint64_t seed) override {
    grid_ = {};
    grid_.workloads = runner::workload_names();
    grid_.ns = {16, 32};
    grid_.fs = {1, 3};
    grid_.schedulers.clear();
    for (const auto& s : gather::sim::all_schedulers()) {
      grid_.schedulers.emplace_back(s.name);
    }
    grid_.repeats = 1;
    grid_.base_seed = seed;
  }

  void run_op(bool traced) override { run(traced, jobs); }

  [[nodiscard]] op_outcome verify() const override {
    op_outcome out;
    digest d;
    d.str(csv_);
    d.str(jsonl_);
    out.digest = d.value();
    if (result_.rows.size() != expected_cells) {
      out.failure = "campaign produced " + std::to_string(result_.rows.size()) +
                    " rows, expected " + std::to_string(expected_cells);
      return out;
    }
    for (const runner::run_result& r : result_.rows) {
      if (r.status != gather::sim::sim_status::gathered) {
        out.failure = "cell " + std::to_string(r.spec.index) + " (" +
                      r.spec.workload + ") ended " +
                      std::string(gather::sim::to_string(r.status));
        return out;
      }
    }
    return out;
  }

  void layers(metric_map& out) override {
    const std::string_view w = name();
    const std::uint64_t* rounds = metrics_.find_counter("sim.rounds");
    out.put(w, "sim.rounds", rounds ? static_cast<double>(*rounds) : 0.0, "count");
    out.put(w, "obs.trace_events",
            static_cast<double>(std::count(jsonl_.begin(), jsonl_.end(), '\n')),
            "count");
    out.put(w, "obs.trace_bytes", static_cast<double>(jsonl_.size()), "bytes");

    std::vector<double> expand_s;
    std::vector<runner::run_spec> specs;
    for (int k = 0; k < 5; ++k) {
      expand_s.push_back(time_s([&] { specs = runner::expand(grid_); }));
    }
    out.put(w, "runner.expand_ms", median(expand_s) * 1e3, "ms");
    out.put(w, "runner.cells", static_cast<double>(specs.size()), "count");

    // Every cell serially, with the same per-cell sinks run_campaign
    // attaches, and again without the trace sink right after: the pairwise
    // difference is the sink's cost, free of the drift between whole ops.
    std::vector<double> cell_s;
    double trace_s = 0.0;
    std::string serial_jsonl;
    std::vector<runner::run_result> rows;
    std::vector<obs::metrics_registry> cell_metrics(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      std::string trace;
      obs::jsonl_string_sink sink(&trace);
      runner::cell_observer watch;
      watch.sink = &sink;
      watch.metrics = &cell_metrics[i];
      cell_s.push_back(time_s([&] {
        rows.push_back(runner::execute_cell(specs[i], grid_, watch));
      }));
      obs::metrics_registry scratch;
      watch.sink = nullptr;
      watch.metrics = &scratch;
      trace_s += cell_s.back() -
                 time_s([&] { (void)runner::execute_cell(specs[i], grid_, watch); });
      serial_jsonl += trace;
    }
    // The determinism contract: serial cells give the op's CSV and JSONL.
    if (runner::results_csv(rows) != csv_ || serial_jsonl != jsonl_) {
      throw std::runtime_error("campaign-mixed: serial cells differ from the op");
    }
    const auto ms = [](double s) { return s * 1e3; };
    out.put(w, "runner.cell_ms.p50", ms(quantile(cell_s, 0.5)), "ms");
    out.put(w, "runner.cell_ms.p90", ms(quantile(cell_s, 0.9)), "ms");
    out.put(w, "runner.cell_ms.max", ms(quantile(cell_s, 1.0)), "ms");
    std::vector<double> merge_s;
    for (int k = 0; k < 3; ++k) {
      merge_s.push_back(time_s([&] {
        obs::metrics_registry merged;
        for (const auto& m : cell_metrics) merged.merge(m);
      }));
    }
    out.put(w, "obs.metrics_merge_ms", ms(median(merge_s)), "ms");
    std::vector<double> csv_s;
    for (int k = 0; k < 5; ++k) {
      csv_s.push_back(time_s([&] { (void)runner::results_csv(result_.rows); }));
    }
    out.put(w, "runner.csv_ms", ms(median(csv_s)), "ms");

    std::vector<double> serial, parallel;
    for (int k = 0; k < 2; ++k) {
      serial.push_back(time_s([&] { run(false, 1); }));
      parallel.push_back(time_s([&] { run(false, jobs); }));
    }
    const double cells_s = sum(cell_s);
    out.put(w, "runner.overhead_share", 1.0 - cells_s / median(serial), "ratio");
    out.put(w, "runner.parallel_efficiency",
            cells_s / (static_cast<double>(jobs) * median(parallel)), "ratio");
    out.put(w, "obs.trace_ms", ms(trace_s), "ms");
  }

 private:
  void run(bool traced, std::size_t job_count) {
    jsonl_.clear();
    metrics_ = {};
    runner::campaign_spec spec;
    spec.grid = grid_;
    spec.exec.jobs = job_count;
    spec.sinks.trace_jsonl = &jsonl_;
    spec.sinks.metrics = &metrics_;
    spec.sinks.profile = traced;
    result_ = runner::run_campaign(spec);
    csv_ = runner::results_csv(result_.rows);
  }

  runner::grid grid_;
  runner::campaign_result result_;
  std::string jsonl_;
  std::string csv_;
  obs::metrics_registry metrics_;
};

}  // namespace

std::unique_ptr<workload> make_campaign_mixed() {
  return std::make_unique<campaign_mixed>();
}

}  // namespace perfbench
