#include "obs/profile_report.h"

#include <cstdio>

namespace gather::obs {

void export_profile(const prof_registry& profile, metrics_registry& metrics) {
  std::vector<double> bounds;
  bounds.reserve(prof_bucket_count);
  for (std::size_t i = 0; i < prof_bucket_count; ++i) {
    bounds.push_back(static_cast<double>(prof_bucket_bound(i)));
  }
  for (const auto& [site, stats] : profile.sites()) {
    metrics.counter("prof." + site + ".calls") += stats.calls;
    metrics.counter("prof." + site + ".total_ns") += stats.total_ns;
    // The recorded bucket counts carry over as they are, and the sum is the
    // exact total, so it agrees with the total_ns counter even for calls
    // past the top bucket.
    metrics.hist("prof." + site + ".ns", bounds)
        .merge(histogram::from_parts(
            bounds, {stats.buckets.begin(), stats.buckets.end()}, stats.calls,
            static_cast<double>(stats.total_ns)));
  }
}

std::string profile_table(const prof_registry& profile) {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof line, "%-28s %12s %12s %12s\n", "site", "calls",
                "total ms", "mean us");
  out += line;
  for (const auto& [site, stats] : profile.sites()) {
    const double total_ms = static_cast<double>(stats.total_ns) / 1e6;
    const double mean_us =
        stats.calls == 0
            ? 0.0
            : static_cast<double>(stats.total_ns) /
                  (1e3 * static_cast<double>(stats.calls));
    std::snprintf(line, sizeof line, "%-28s %12llu %12.3f %12.3f\n",
                  site.c_str(), static_cast<unsigned long long>(stats.calls),
                  total_ms, mean_us);
    out += line;
  }
  return out;
}

}  // namespace gather::obs
