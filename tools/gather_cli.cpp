// gather_cli -- command-line scenario runner for the gathering library.
//
// Composes a workload, an algorithm, and the three adversaries (scheduler,
// movement, crashes) from flags, runs the ATOM (or ASYNC) engine, and reports
// a summary, a CSV trace, or ASCII frames.
//
//   gather_cli --workload uniform --n 12 --f 3 --scheduler fair-random
//              --movement random-stop --delta 0.05 --seed 7 --output summary
//   gather_cli --workload biangular --n 12 --output frames
//   gather_cli --workload linear-2w --n 8 --algorithm cog --output csv
//   gather_cli --list
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>

#include "baselines/baselines.h"
#include "obs/obs.h"
#include "core/weak_multiplicity.h"
#include "core/wait_free_gather.h"
#include "sim/sim.h"
#include "util/cli.h"
#include "workloads/generators.h"
#include "workloads/io.h"

namespace {

using namespace gather;

struct options {
  std::string workload = "uniform";
  std::string points_file;  // overrides workload when set
  std::string algorithm = "wfg";
  std::string scheduler = "fair-random";
  std::string movement = "random-stop";
  std::string output = "summary";
  std::string engine = "atom";         // atom | async
  std::string async_policy = "random"; // sequential | random | look-move
  std::string trace_jsonl;             // JSONL event trace output path
  std::size_t n = 8;
  std::size_t f = 0;
  double delta = 0.05;
  std::uint64_t seed = 1;
  std::size_t max_rounds = 50'000;
  bool local_frames = false;
  bool metrics = false;
  bool list = false;
};

cli::parser make_parser(options& o) {
  cli::parser p("gather_cli", "run a robot-gathering scenario");
  p.opt_string("--workload", "W",
               "uniform | majority | linear-1w | linear-2w | polygon | rings "
               "| biangular | qr-center | axial | bivalent | grid | clustered",
               &o.workload);
  p.opt_string("--points", "FILE",
               "read the initial configuration from FILE (one 'x y' per "
               "line; overrides --workload/--n)", &o.points_file);
  p.opt_string("--algorithm", "A",
               "wfg (wait-free-gather) | cog (center-of-gravity) | sfg "
               "(single-fault) | median | weak (weak-multiplicity wfg)",
               &o.algorithm);
  p.opt_string("--scheduler", "S",
               "synchronous | round-robin | fair-random | laggard | "
               "half-alternating", &o.scheduler);
  p.opt_string("--movement", "M", "full | minimal | random-stop", &o.movement);
  p.opt_string("--engine", "E", "atom (default) | async", &o.engine);
  p.opt_string("--async-policy", "P",
               "sequential | random | look-move (async engine only)",
               &o.async_policy);
  p.opt_size("--n", "number of robots (default 8)", &o.n);
  p.opt_size("--f", "crash faults, f < n (default 0)", &o.f);
  p.opt_double("--delta",
               "movement guarantee as fraction of diameter (default 0.05)",
               &o.delta);
  p.opt_u64("--seed", "RNG seed (default 1)", &o.seed);
  p.opt_size("--max-rounds", "round budget (default 50000)", &o.max_rounds);
  p.toggle("--local-frames", "observe through per-robot similarity frames",
           &o.local_frames);
  p.opt_string("--trace-jsonl", "P",
               "write the structured event trace to P (JSONL)", &o.trace_jsonl);
  p.toggle("--metrics",
           "print the run's metrics registry (JSON) after the summary, "
           "including hot-path profile timings", &o.metrics);
  p.opt_string("--output", "O", "summary | csv | frames | json | svg",
               &o.output);
  p.toggle("--list", "list available components and exit", &o.list);
  return p;
}

void print_list() {
  std::puts("workloads:  uniform majority linear-1w linear-2w polygon rings");
  std::puts("            biangular qr-center axial bivalent");
  std::puts("algorithms: wfg cog sfg median weak");
  std::printf("schedulers:");
  for (const auto& s : sim::all_schedulers()) {
    std::printf(" %s", std::string(s.name).c_str());
  }
  std::printf("\nmovements: ");
  for (const auto& m : sim::all_movements()) {
    std::printf(" %s", std::string(m.name).c_str());
  }
  std::puts("\nengines:    atom async");
}

std::vector<geom::vec2> make_workload(const options& o, sim::rng& r) {
  const std::size_t n = std::max<std::size_t>(o.n, 2);
  if (o.workload == "uniform") return workloads::uniform_random(n, r);
  if (o.workload == "majority") {
    return workloads::with_majority(n, std::max<std::size_t>(2, n / 3), r);
  }
  if (o.workload == "linear-1w") return workloads::linear_unique_weber(n, r);
  if (o.workload == "linear-2w") return workloads::linear_two_weber(n, r);
  if (o.workload == "polygon") return workloads::regular_polygon(n);
  if (o.workload == "rings") {
    return workloads::symmetric_rings(std::max<std::size_t>(3, n / 2), 2, r);
  }
  if (o.workload == "biangular") {
    return workloads::biangular(std::max<std::size_t>(2, n / 2), 0.4, r);
  }
  if (o.workload == "qr-center") return workloads::quasi_regular_with_center(n, 1, r);
  if (o.workload == "axial") return workloads::axially_symmetric(n, r);
  if (o.workload == "bivalent") return workloads::bivalent(n, r);
  if (o.workload == "grid") return workloads::jittered_grid(n, 0.2, r);
  if (o.workload == "clustered") {
    return workloads::clustered(n, std::max<std::size_t>(2, n / 4), 1.0, r);
  }
  std::fprintf(stderr, "unknown workload: %s\n", o.workload.c_str());
  std::exit(2);
}

const core::gathering_algorithm& make_algorithm(const options& o) {
  static const core::wait_free_gather wfg;
  static const core::weak_multiplicity_adapter weak(wfg);
  static const baselines::center_of_gravity cog;
  static const baselines::single_fault_gather sfg;
  static const baselines::median_pursuit median;
  if (o.algorithm == "wfg") return wfg;
  if (o.algorithm == "weak") return weak;
  if (o.algorithm == "cog") return cog;
  if (o.algorithm == "sfg") return sfg;
  if (o.algorithm == "median") return median;
  std::fprintf(stderr, "unknown algorithm: %s\n", o.algorithm.c_str());
  std::exit(2);
}

std::unique_ptr<sim::activation_scheduler> make_sched(const options& o) {
  for (const auto& s : sim::all_schedulers()) {
    if (s.name == o.scheduler) return s.make();
  }
  std::fprintf(stderr, "unknown scheduler: %s\n", o.scheduler.c_str());
  std::exit(2);
}

std::unique_ptr<sim::movement_adversary> make_move(const options& o) {
  for (const auto& m : sim::all_movements()) {
    if (m.name == o.movement) return m.make();
  }
  std::fprintf(stderr, "unknown movement: %s\n", o.movement.c_str());
  std::exit(2);
}

/// Observability attachments shared by both engine paths: an optional JSONL
/// trace file and an optional metrics registry (with hot-path profiling).
struct observability {
  explicit observability(const options& o)
      : trace_path(o.trace_jsonl), want_metrics(o.metrics), sink(&trace) {}

  /// Attach to a spec (call before running).
  void attach(sim::sim_spec& spec) {
    if (!trace_path.empty()) spec.sink = &sink;
    if (want_metrics) {
      spec.metrics = &registry;
      spec.profile = &profile;
    }
  }

  /// Write the trace file / print the registry (call after running).
  /// Returns false when the trace file cannot be written.
  [[nodiscard]] bool finish() {
    if (want_metrics) {
      obs::export_profile(profile, registry);
      std::printf("metrics:    %s\n", registry.to_json().c_str());
    }
    if (trace_path.empty()) return true;
    std::ofstream out(trace_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "--trace-jsonl %s: cannot open for writing\n",
                   trace_path.c_str());
      return false;
    }
    out << trace;
    return static_cast<bool>(out);
  }

  std::string trace_path;
  bool want_metrics;
  std::string trace;
  obs::jsonl_string_sink sink;
  obs::metrics_registry registry;
  obs::prof_registry profile;
};

int run_async(const options& o, const std::vector<geom::vec2>& pts) {
  const auto& algo = make_algorithm(o);
  auto move = make_move(o);
  auto crash = o.f == 0 ? sim::make_no_crash() : sim::make_random_crashes(o.f, 50);

  sim::sim_spec spec;
  spec.initial = pts;
  spec.algorithm = &algo;
  spec.movement = move.get();
  spec.crash = crash.get();
  spec.async.delta_fraction = o.delta;
  spec.async.seed = o.seed;
  if (o.async_policy == "sequential") {
    spec.async.policy = sim::async_policy::atomic_sequential;
  } else if (o.async_policy == "look-move") {
    spec.async.policy = sim::async_policy::look_all_move_all;
  } else {
    spec.async.policy = sim::async_policy::random_interleaving;
  }
  observability watch(o);
  watch.attach(spec);
  const auto res = sim::run_async(spec);
  std::printf("engine:     async (%s)\n", std::string(sim::to_string(spec.async.policy)).c_str());
  std::printf("status:     %s\n", std::string(sim::to_string(res.status)).c_str());
  std::printf("steps:      %zu (cycles %zu, stale moves %zu)\n", res.steps,
              res.cycles, res.stale_moves);
  std::printf("crashes:    %zu\n", res.crashes);
  if (res.status == sim::sim_status::gathered) {
    std::printf("gathered:   (%g, %g)\n", res.gather_point.x, res.gather_point.y);
  }
  if (!watch.finish()) return 2;
  return res.status == sim::sim_status::gathered ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  options o;
  make_parser(o).parse_or_exit(argc, argv);
  if (o.list) {
    print_list();
    return 0;
  }

  sim::rng workload_rng(o.seed);
  std::vector<geom::vec2> pts;
  if (!o.points_file.empty()) {
    std::string err;
    const auto loaded = workloads::read_points_file(o.points_file, &err);
    if (!loaded || loaded->size() < 2) {
      std::fprintf(stderr, "--points %s: %s\n", o.points_file.c_str(),
                   loaded ? "need at least 2 robots" : err.c_str());
      return 2;
    }
    pts = *loaded;
  } else {
    pts = make_workload(o, workload_rng);
  }
  // The class on the workload line is output, so this is a full
  // classification of the start, separate from the run's own: at class A it
  // is one more Lemma 3.4 sweep over every occupied center.  It runs before
  // sim::run installs its profiling session, so GATHER_PROF does not count
  // it.
  const config::configuration c0(pts);
  std::printf("workload:   %s  (n=%zu, |U|=%zu, class %s)\n",
              o.points_file.empty() ? o.workload.c_str() : o.points_file.c_str(),
              pts.size(), c0.distinct_count(),
              std::string(config::to_string(config::classify(c0).cls)).c_str());

  if (o.engine == "async") return run_async(o, pts);

  const auto& algo = make_algorithm(o);
  auto sched = make_sched(o);
  auto move = make_move(o);
  auto crash = o.f == 0 ? sim::make_no_crash() : sim::make_random_crashes(o.f, 50);

  sim::sim_spec spec;
  spec.initial = pts;
  spec.algorithm = &algo;
  spec.scheduler = sched.get();
  spec.movement = move.get();
  spec.crash = crash.get();
  spec.options.delta_fraction = o.delta;
  spec.options.seed = o.seed;
  spec.options.max_rounds = o.max_rounds;
  spec.options.local_frames = o.local_frames;
  spec.options.check_wait_freeness = true;
  spec.options.record_trace = (o.output != "summary");
  observability watch(o);
  watch.attach(spec);

  const auto res = sim::run(spec);

  if (o.output == "json" || o.output == "svg") {
    if (o.output == "json") {
      sim::write_json_report(std::cout, res);
    } else {
      sim::write_svg(std::cout, res);
    }
    // The document owns stdout here; suppress the metrics line but still
    // honour --trace-jsonl.
    watch.want_metrics = false;
    if (!watch.finish()) return 2;
    return res.status == sim::sim_status::gathered ? 0 : 1;
  }
  if (o.output == "csv") {
    sim::write_trace_csv(std::cout, res);
    std::fflush(stdout);
  } else if (o.output == "frames") {
    const std::size_t frames = res.trace.size();
    for (std::size_t k = 0; k < 5 && frames > 0; ++k) {
      const auto& rec = res.trace[k * (frames - 1) / 4];
      std::printf("--- round %zu (class %s)\n%s\n", rec.round,
                  std::string(config::to_string(rec.cls)).c_str(),
                  sim::ascii_plot(rec.positions, rec.live, 56, 18).c_str());
    }
  }

  std::printf("algorithm:  %s\n", std::string(algo.name()).c_str());
  std::printf("status:     %s\n", std::string(sim::to_string(res.status)).c_str());
  std::printf("rounds:     %zu\n", res.rounds);
  std::printf("delta:      %g of diameter (abs %g)\n", o.delta, res.delta_abs);
  std::printf("crashes:    %zu\n", res.crashes);
  std::printf("wf-breach:  %zu, bivalent entries: %zu\n", res.wait_free_violations,
              res.bivalent_entries);
  if (res.status == sim::sim_status::gathered) {
    std::printf("gathered:   (%g, %g)\n", res.gather_point.x, res.gather_point.y);
  }
  if (!watch.finish()) return 2;
  return res.status == sim::sim_status::gathered ? 0 : 1;
}
