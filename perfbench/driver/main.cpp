// perfbench_driver: runs one benchmark workload and prints its metrics.
//
//   perfbench_driver --workload classA-round --seed 1 --seconds 20 --trace 0
//
// Untraced (--trace 0): sets the workload up `--setups` times (input
// generation plus one cold op each; setup_s is the median), then repeats the
// identical op for `--seconds` and reports op_s (median op wall time),
// setup_s and rss_mb (peak resident set of this process).
//
// Traced (--trace 1): for every workload in turn, times untraced and traced
// ops (trace.overhead_share) and runs the workload's per-layer pass, so one
// traced run reports every per-layer metric of the benchmark.
//
// Every op is checked after its timing ends: its output digest must equal
// the first op's digest and, when given (--pin name=hex), the pinned digest;
// each workload also applies its semantic checks.  A failed check counts the
// op as failed and the run goes on.  The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the exit code is 0 only when
// every op passed.
#include <sys/resource.h>

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.h"
#include "geometry/kernels.h"

namespace {

using namespace perfbench;

struct args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t setups = 3;
  std::size_t ops = 0;  // 0 = run for `seconds`; otherwise exactly this many
  std::map<std::string, std::uint64_t> pins;
};

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "classA-round", "m-gather", "campaign-mixed", "check-exhaustive"};
  return names;
}

std::unique_ptr<workload> make_workload(const std::string& name) {
  if (name == "classA-round") return make_class_a_round();
  if (name == "m-gather") return make_m_gather();
  if (name == "campaign-mixed") return make_campaign_mixed();
  if (name == "check-exhaustive") return make_check_exhaustive();
  throw std::invalid_argument("unknown workload: " + name);
}

std::uint64_t parse_u64(const std::string& s, int base = 10) {
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v, base);
  if (ec != std::errc{} || end != s.data() + s.size()) {
    throw std::invalid_argument("not an unsigned integer: '" + s + "'");
  }
  return v;
}

args parse_args(int argc, char** argv) {
  args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = parse_u64(value);
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(parse_u64(value));
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--setups") {
      a.setups = parse_u64(value);
      if (a.setups == 0) throw std::invalid_argument("--setups must be >= 1");
    } else if (flag == "--ops") {
      a.ops = parse_u64(value);
    } else if (flag == "--pin") {
      const auto eq = value.find('=');
      if (eq == std::string::npos) throw std::invalid_argument("--pin takes name=hex");
      a.pins[value.substr(0, eq)] = parse_u64(value.substr(eq + 1), 16);
    } else {
      throw std::invalid_argument("unknown flag: " + flag);
    }
  }
  make_workload(a.workload);  // validates the name
  return a;
}

std::string number(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc{} ? std::string(buf, end) : std::string("0");
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Peak resident set of this process.  VmHWM belongs to the process's own
/// address space; getrusage's ru_maxrss also keeps the high-water mark of
/// the process that forked it (it survives execve), so it is only the
/// fallback.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
}

/// Counts ops and checks each one's outputs against the run's first digest
/// and the pin.
class checker {
 public:
  explicit checker(const args& a) : pins_(a.pins) {}

  void check(const workload& w) {
    ++attempted_;
    const op_outcome out = w.verify();
    const std::string name(w.name());
    std::string why = out.failure;
    const auto first = digests_.emplace(name, out.digest).first;
    if (why.empty() && first->second != out.digest) {
      why = "digest " + hex(out.digest) + " differs from the run's first op " +
            hex(first->second);
    }
    const auto pin = pins_.find(name);
    if (why.empty() && pin != pins_.end() && pin->second != out.digest) {
      why = "digest " + hex(out.digest) + " differs from the pin " + hex(pin->second);
    }
    if (!why.empty()) {
      ++failed_;
      std::cerr << "perfbench: " << name << " op " << attempted_
                << " failed: " << why << "\n";
    }
  }

  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }
  [[nodiscard]] const std::map<std::string, std::uint64_t>& digests() const {
    return digests_;
  }

 private:
  std::map<std::string, std::uint64_t> pins_;
  std::map<std::string, std::uint64_t> digests_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// Untraced run: setups, then identical timed ops for `seconds`.
metric_map run_untraced(const args& a, checker& chk) {
  auto w = make_workload(a.workload);
  std::vector<double> setup;
  for (std::size_t k = 0; k < a.setups; ++k) {
    setup.push_back(time_s([&] {
      w->generate(a.seed);
      w->run_op(false);
    }));
    chk.check(*w);
  }
  std::vector<double> op;
  const auto start = bench_clock::now();
  while (a.ops != 0 ? op.size() < a.ops
                    : op.size() < 3 || seconds_since(start) < a.seconds) {
    op.push_back(time_s([&] { w->run_op(false); }));
    chk.check(*w);
  }
  metric_map m;
  m.put("", "op_s", median(op), "s");
  m.put("", "setup_s", median(setup), "s");
  m.put("", "rss_mb", peak_rss_mib(), "MiB");
  return m;
}

/// Traced run: every workload's tracing overhead and per-layer pass.
metric_map run_traced(const args& a, checker& chk) {
  metric_map m;
  for (const std::string& name : workload_names()) {
    auto w = make_workload(name);
    w->generate(a.seed);
    w->run_op(false);  // warm-up
    chk.check(*w);
    std::vector<double> plain, traced;
    for (int k = 0; k < 3; ++k) {
      plain.push_back(time_s([&] { w->run_op(false); }));
      chk.check(*w);
      traced.push_back(time_s([&] { w->run_op(true); }));
      chk.check(*w);
    }
    m.put(name, "trace.overhead_share", median(traced) / median(plain), "ratio");
    w->layers(m);
  }
  return m;
}

void print_stamp(const args& a) {
  std::cout << "{\"stamp\": {\"workload\": \"" << a.workload
            << "\", \"seed\": " << a.seed << ", \"trace\": " << (a.trace ? 1 : 0)
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"sanitize\": \"" << PERFBENCH_SANITIZE
            << "\", \"kernel_path\": \"" << gather::geom::kernels::active_path()
            << "\"}}\n";
}

/// A Debug, unoptimized or sanitizer build measures the wrong program.
const char* refused_build() {
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo" && type != "MinSizeRel") {
    return "build type is not an optimized one (Release, RelWithDebInfo, MinSizeRel)";
  }
  if (std::string(PERFBENCH_SANITIZE) != "") return "sanitizer build";
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
#if !defined(__OPTIMIZE__)
  return "compiled without optimization";
#endif
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  args a;
  try {
    a = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n"
              << "usage: perfbench_driver --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--setups K] [--ops K] [--pin NAME=HEX]...\n";
    return 2;
  }
  if (const char* why = refused_build()) {
    std::cerr << "perfbench_driver: refusing to measure: " << why << "\n";
    return 3;
  }
  print_stamp(a);

  checker chk(a);
  metric_map m;
  try {
    m = a.trace ? run_traced(a, chk) : run_untraced(a, chk);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }

  std::cout << "{\"digests\": {";
  const char* sep = "";
  for (const auto& [name, d] : chk.digests()) {
    std::cout << sep << "\"" << name << "\": \"" << hex(d) << "\"";
    sep = ", ";
  }
  std::cout << "}}\n";

  const bool correct = chk.failed() == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << chk.attempted()
            << ", \"failed\": " << chk.failed() << ", \"metrics\": {";
  sep = "";
  for (const auto& [name, v] : m.values()) {
    std::cout << sep << "\"" << name << "\": {\"value\": " << number(v.value)
              << ", \"unit\": \"" << v.unit << "\"}";
    sep = ", ";
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}
