#include "analysis/ack_clock.hpp"

#include <limits>
#include <stdexcept>

#include "analysis/accumulators.hpp"

namespace vstream::analysis {

std::optional<double> estimate_handshake_rtt(capture::TraceView trace) {
  // Viewer-side capture: the client SYN appears on the up direction, the
  // SYN-ACK on the down direction. Match per connection id.
  HandshakeRttTracker tracker;
  for (const auto& p : trace) tracker.add(p);
  return tracker.rtt_s();
}

std::vector<double> first_rtt_bytes(capture::TraceView trace,
                                    const OnOffAnalysis& analysis,
                                    const AckClockOptions& options) {
  double rtt = 0.0;
  if (options.rtt_s.has_value()) {
    rtt = *options.rtt_s;
  } else if (const auto est = estimate_handshake_rtt(trace); est.has_value()) {
    rtt = *est;
  } else {
    throw std::invalid_argument{"first_rtt_bytes: no RTT given and no handshake in trace"};
  }
  if (rtt <= 0.0) throw std::invalid_argument{"first_rtt_bytes: non-positive RTT"};

  // One forward pass: each qualifying window opens at the first down-data
  // record at or after its start, and all windows share one running total.
  FirstRttAccumulator windows;
  std::size_t next = 1;  // ON period i (i >= 1) is preceded by OFF i-1
  const auto open_through = [&](double t_s) {
    for (; next < analysis.on_periods.size() && analysis.on_periods[next].start_s <= t_s; ++next) {
      if (analysis.off_durations_s[next - 1] < options.min_preceding_off_s) continue;
      windows.open_window(analysis.on_periods[next].start_s, rtt);
    }
  };
  for (const auto& p : trace) {
    if (p.direction != net::Direction::kDown || p.payload_bytes == 0) continue;
    open_through(p.t_s);
    windows.add_down_data(p.t_s, p.payload_bytes);
  }
  open_through(std::numeric_limits<double>::infinity());  // windows past the last record
  return windows.samples();
}

}  // namespace vstream::analysis
