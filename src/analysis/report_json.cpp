#include "analysis/report_json.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "obs/trace.hpp"

namespace vstream::analysis {
namespace {

void append_number(std::ostringstream& out, double v) {
  if (!std::isfinite(v)) {
    out << "null";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  out << buf;
}

template <typename T>
void append_optional(std::ostringstream& out, const std::optional<T>& v) {
  if (v.has_value()) {
    append_number(out, static_cast<double>(*v));
  } else {
    out << "null";
  }
}

}  // namespace

std::string to_json(const SessionReport& report) {
  std::ostringstream out;
  out << "{";
  out << "\"label\":\"" << obs::json_escape(report.label) << "\",";
  out << "\"strategy\":\"" << to_string(report.strategy) << "\",";
  out << "\"rationale\":\"" << obs::json_escape(report.rationale) << "\",";
  out << "\"buffering_end_s\":";
  append_number(out, report.buffering_end_s);
  out << ",\"buffering_mb\":";
  append_number(out, report.buffering_mb);
  out << ",\"buffered_playback_s\":";
  append_optional(out, report.buffered_playback_s);
  out << ",\"has_steady_state\":" << (report.has_steady_state ? "true" : "false");
  out << ",\"steady_rate_mbps\":";
  append_number(out, report.steady_rate_mbps);
  out << ",\"median_block_kb\":";
  append_number(out, report.median_block_kb);
  out << ",\"median_off_s\":";
  append_number(out, report.median_off_s);
  out << ",\"accumulation_ratio\":";
  append_optional(out, report.accumulation_ratio);
  out << ",\"cycle_period_s\":";
  append_optional(out, report.cycle_period_s);
  out << ",\"connections\":" << report.connections;
  out << ",\"packets\":" << report.packets;
  out << ",\"retransmission_pct\":";
  append_number(out, report.retransmission_pct);
  out << ",\"zero_window_episodes\":" << report.zero_window_episodes;
  out << ",\"rtt_ms\":";
  append_optional(out, report.rtt_ms);
  out << ",\"median_first_rtt_kb\":";
  append_optional(out, report.median_first_rtt_kb);
  out << ",\"total_mb\":";
  append_number(out, report.total_mb);
  out << ",\"duration_s\":";
  append_number(out, report.duration_s);
  const ResilienceStats& res = report.resilience;
  out << ",\"resilience\":{";
  out << "\"fetch_retries\":" << res.fetch_retries;
  out << ",\"fetch_timeouts\":" << res.fetch_timeouts;
  out << ",\"fetch_abandoned\":" << res.fetch_abandoned;
  out << ",\"rebuffer_count\":" << res.rebuffer_count;
  out << ",\"stall_count\":" << res.stall_count;
  out << ",\"stall_time_s\":";
  append_number(out, res.stall_time_s);
  out << ",\"longest_stall_s\":";
  append_number(out, res.longest_stall_s);
  out << ",\"fault_drops\":" << res.fault_drops;
  out << ",\"fault_windows\":" << res.fault_windows;
  out << ",\"rate_switches\":" << res.rate_switches;
  out << "}}";
  return out.str();
}

std::string to_json(const SessionReport& report, const obs::MetricsSnapshot& metrics) {
  std::string base = to_json(report);
  if (metrics.empty()) return base;
  base.pop_back();  // trailing '}'
  base += ",\"metrics\":";
  base += metrics.to_json();
  base += "}";
  return base;
}

std::string to_json(const FlowTable& table) {
  std::ostringstream out;
  out << "[";
  bool first = true;
  for (const auto& f : table.flows) {
    if (!first) out << ",";
    first = false;
    out << "{\"connection\":" << f.connection_id;
    out << ",\"first_packet_s\":";
    append_number(out, f.first_packet_s);
    out << ",\"last_packet_s\":";
    append_number(out, f.last_packet_s);
    out << ",\"down_bytes\":" << f.down_payload_bytes;
    out << ",\"up_bytes\":" << f.up_payload_bytes;
    out << ",\"retransmitted_bytes\":" << f.retransmitted_bytes;
    out << ",\"handshake_rtt_s\":";
    append_optional(out, f.handshake_rtt_s);
    out << ",\"saw_fin\":" << (f.saw_fin ? "true" : "false") << "}";
  }
  out << "]";
  return out.str();
}

}  // namespace vstream::analysis
