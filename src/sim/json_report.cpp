#include "sim/json_report.h"

#include <cstdio>
#include <ostream>
#include <string>

namespace gather::sim {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

namespace {

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

}  // namespace

void write_json_report(std::ostream& os, const sim_result& result) {
  os << "{\n";
  os << "  \"status\": \"" << json_escape(to_string(result.status)) << "\",\n";
  os << "  \"rounds\": " << result.rounds << ",\n";
  os << "  \"crashes\": " << result.crashes << ",\n";
  os << "  \"wait_free_violations\": " << result.wait_free_violations << ",\n";
  os << "  \"bivalent_entries\": " << result.bivalent_entries << ",\n";
  if (result.status == sim_status::gathered) {
    os << "  \"gather_point\": [" << num(result.gather_point.x) << ", "
       << num(result.gather_point.y) << "],\n";
  }
  std::size_t live = 0;
  for (auto l : result.final_live) live += l;
  os << "  \"final_live\": " << live << ",\n";

  os << "  \"phases\": [";
  const auto phases = class_phases(result.class_history);
  for (std::size_t i = 0; i < phases.size(); ++i) {
    if (i) os << ", ";
    os << "{\"class\": \"" << json_escape(config::to_string(phases[i].cls))
       << "\", \"first_round\": " << phases[i].first_round
       << ", \"rounds\": " << phases[i].rounds << "}";
  }
  os << "],\n";

  const auto pot = check_potentials(result);
  os << "  \"potentials\": {\"max_multiplicity_monotone\": "
     << (pot.max_multiplicity_monotone ? "true" : "false")
     << ", \"spread_bounded\": " << (pot.spread_bounded ? "true" : "false")
     << ", \"first_multiplicity_round\": ";
  if (pot.first_multiplicity_round == static_cast<std::size_t>(-1)) {
    os << "null";
  } else {
    os << pot.first_multiplicity_round;
  }
  os << ", \"phase_count\": " << pot.phase_count << "}";

  if (!result.trace.empty()) {
    os << ",\n  \"rounds_detail\": [";
    const auto metrics = analyze_trace(result);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const round_stats& m = metrics[i];
      if (i) os << ", ";
      os << "{\"round\": " << m.round << ", \"class\": \""
         << json_escape(config::to_string(m.cls)) << "\", \"live\": "
         << m.live_count << ", \"spread\": " << num(m.live_spread)
         << ", \"max_mult\": " << m.max_live_multiplicity << "}";
    }
    os << "]";
  }
  os << "\n}\n";
}

}  // namespace gather::sim
