// gather_fuzz -- randomized counterexample search for the main theorem.
//
// Samples random instances (size, configuration, scheduler, movement
// adversary, crash pattern, frames) and checks the full contract on each run:
//
//   * gathering succeeds (Theorem 5.1),
//   * zero wait-freeness violations (Lemma 5.1),
//   * the bivalent configuration is never entered (Lemmas 5.6/5.7),
//   * only lawful class transitions occur (Lemmas 5.3-5.9).
//
// On a violation the harness *shrinks* the instance -- dropping robots while
// the failure reproduces -- and prints the minimal configuration in the
// points-file format, ready for `gather_cli --points`.  Exit code 0 = no
// counterexample found.
//
// Iterations run across `--jobs` threads (runner library): every iteration's
// instance is derived from a pure hash of (base seed, iteration index), and
// reports are printed in iteration order, so output is identical for every
// jobs value.
//
//   gather_fuzz [iterations] [max_n] [base_seed]
//   gather_fuzz --iterations 500 --max-n 12 --seed 1 --jobs 4
//               --workloads uniform,axial,clustered
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/wait_free_gather.h"
#include "runner/runner.h"
#include "sim/sim.h"
#include "util/cli.h"
#include "workloads/io.h"

namespace {

using namespace gather;

struct instance {
  std::vector<geom::vec2> points;
  std::size_t scheduler = 0;
  std::size_t movement = 0;
  std::size_t crashes = 0;
  std::uint64_t seed = 0;
  bool local_frames = false;
};

struct verdict {
  bool ok = true;
  std::string reason;
};

verdict check(const instance& in) {
  const core::wait_free_gather algo;
  auto sched = sim::all_schedulers()[in.scheduler].make();
  auto move = sim::all_movements()[in.movement].make();
  auto crash = in.crashes == 0 ? sim::make_no_crash()
                               : sim::make_random_crashes(in.crashes, 40);
  sim::sim_options opts;
  opts.seed = in.seed;
  opts.check_wait_freeness = true;
  opts.local_frames = in.local_frames;
  opts.max_rounds = 100'000;
  sim::sim_spec spec;
  spec.initial = in.points;
  spec.algorithm = &algo;
  spec.scheduler = sched.get();
  spec.movement = move.get();
  spec.crash = crash.get();
  spec.options = opts;
  const auto res = sim::run(spec);

  const bool started_bivalent =
      config::is_bivalent(config::configuration(in.points));
  verdict v;
  if (started_bivalent) return v;  // unsolvable by design; skip
  if (res.status != sim::sim_status::gathered) {
    v.ok = false;
    v.reason = "status=" + std::string(sim::to_string(res.status));
  } else if (res.wait_free_violations > 0) {
    v.ok = false;
    v.reason = "wait-freeness violated " +
               std::to_string(res.wait_free_violations) + "x";
  } else if (res.bivalent_entries > 0) {
    v.ok = false;
    v.reason = "entered bivalent configuration";
  } else if (!sim::transitions_allowed(res.class_history)) {
    v.ok = false;
    v.reason = "disallowed class transition";
  }
  return v;
}

/// Greedily drop robots while the failure reproduces.
instance shrink(instance in, const std::string& original_reason) {
  bool progress = true;
  while (progress && in.points.size() > 2) {
    progress = false;
    for (std::size_t i = 0; i < in.points.size(); ++i) {
      instance smaller = in;
      smaller.points.erase(smaller.points.begin() + i);
      if (smaller.crashes >= smaller.points.size()) {
        smaller.crashes = smaller.points.size() - 1;
      }
      const verdict v = check(smaller);
      if (!v.ok && v.reason == original_reason) {
        in = std::move(smaller);
        progress = true;
        break;
      }
    }
  }
  return in;
}

/// The instance of iteration `it` -- a pure function of (base_seed, it).
instance make_instance(std::uint64_t base_seed, std::size_t it,
                       std::size_t max_n,
                       const std::vector<std::string>& workload_pool) {
  sim::rng r(runner::derive_seed(base_seed, it));
  instance in;
  const std::size_t n = 3 + r.uniform_int(0, max_n - 3);
  const std::size_t w = r.uniform_int(0, workload_pool.size() - 1);
  in.points = runner::build_workload(workload_pool[w], n, r);
  in.scheduler = r.uniform_int(0, sim::all_schedulers().size() - 1);
  in.movement = r.uniform_int(0, sim::all_movements().size() - 1);
  in.crashes = r.uniform_int(0, in.points.size() - 1);
  in.seed = r.uniform_int(0, 1'000'000);
  in.local_frames = r.flip(0.25);
  return in;
}

/// A fully-rendered counterexample report, built in the worker and printed
/// later in iteration order.
std::string report(const instance& minimal, const std::string& reason) {
  std::ostringstream os;
  os << reason << "\n"
     << "  scheduler=" << sim::all_schedulers()[minimal.scheduler].name
     << " movement=" << sim::all_movements()[minimal.movement].name
     << " crashes=" << minimal.crashes << " seed=" << minimal.seed
     << " frames=" << (minimal.local_frames ? 1 : 0) << "\n"
     << "  minimal configuration (" << minimal.points.size() << " robots):\n";
  workloads::write_points(os, minimal.points);
  return os.str();
}

struct args {
  int iterations = 200;
  std::size_t max_n = 12;
  std::uint64_t base_seed = 1;
  std::size_t jobs = 0;  // 0 = hardware concurrency
  // Default pool: the generator mix biased towards the structured classes.
  std::vector<std::string> workloads = {"majority", "linear-1w", "linear-2w",
                                        "axial",    "clustered", "grid",
                                        "uniform"};
};

cli::parser make_parser(args& a) {
  cli::parser p("gather_fuzz", "randomized counterexample search");
  p.opt_int("--iterations", "random instances to try (default 200)",
            &a.iterations);
  p.opt_size("--max-n", "largest instance size sampled (default 12)",
             &a.max_n);
  p.opt_u64("--seed", "base seed for per-iteration hashed seeds",
            &a.base_seed);
  p.opt("--jobs", "N", "worker threads (default: all hardware threads)",
        [&a](const std::string& v) {
          a.jobs = cli::parse_size(v);
          if (a.jobs == 0) {
            throw std::invalid_argument("must be >= 1");
          }
        });
  p.opt("--workloads", "W1,W2|all", "generator pool",
        [&a](const std::string& v) {
          a.workloads = (v == "all") ? runner::workload_names()
                                     : runner::split_csv_strict(v);
        });
  // Legacy positional form, kept for muscle memory and old scripts.
  p.positionals("[iterations] [max_n] [base_seed]",
                [&a](std::size_t ordinal, const std::string& v) {
                  switch (ordinal) {
                    case 0: a.iterations = cli::parse_int(v); break;
                    case 1: a.max_n = cli::parse_size(v); break;
                    case 2: a.base_seed = cli::parse_u64(v); break;
                    default:
                      throw std::invalid_argument("too many positional arguments");
                  }
                });
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  args a;
  make_parser(a).parse_or_exit(argc, argv);
  try {
    if (a.max_n < 3) {
      std::fprintf(stderr, "--max-n must be >= 3\n");
      return 2;
    }
    // Validate the generator pool up front.
    sim::rng probe(1);
    for (const auto& w : a.workloads) (void)runner::build_workload(w, 4, probe);

    const std::size_t total =
        a.iterations > 0 ? static_cast<std::size_t>(a.iterations) : 0;
    std::vector<std::optional<std::string>> failures(total);
    util::thread_pool pool(a.jobs);
    pool.parallel_for(total, [&](std::size_t it) {
      const instance in = make_instance(a.base_seed, it, a.max_n, a.workloads);
      const verdict v = check(in);
      if (v.ok) return;
      failures[it] = report(shrink(in, v.reason), v.reason);
    });

    int count = 0;
    for (const auto& f : failures) {
      if (!f) continue;
      std::printf("counterexample #%d: %s", ++count, f->c_str());
    }
    std::printf("gather_fuzz: %zu iterations, %d counterexamples\n", total,
                count);
    return count == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gather_fuzz: %s\n", e.what());
    return 2;
  }
}
