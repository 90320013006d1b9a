// Incremental (single-pass, online) counterparts of the batch analyses.
//
// Each accumulator consumes `PacketRecord`s one at a time — from a
// `TraceRecorder` sink, a pcap read loop, or a `TraceView` walk — and
// reproduces its batch function's output exactly: the batch entry points
// (`analyze_on_off`, `build_flow_table`, `estimate_handshake_rtt`,
// `estimate_cycle_period`, `first_rtt_bytes`, and `build_report` through
// `StreamingReportBuilder`) are thin wrappers that feed an accumulator, so
// the two paths cannot diverge. Memory scales with the number of ON/OFF
// cycles and TCP connections, never with the number of packets — the
// property that lets a sweep analyze tens of thousands of sessions, or a
// multi-hour capture, without materializing any trace.
//
// The per-packet state machines mirror the paper's §5 methodology: an OFF
// period is an idle gap in down-direction data, the buffering phase ends at
// the first OFF period, block size is the per-ON-period byte count.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "analysis/flows.hpp"
#include "analysis/onoff.hpp"
#include "analysis/periodicity.hpp"
#include "capture/trace.hpp"

namespace vstream::analysis {

/// Emitted by `OnOffAccumulator::add` when the packet just processed opened
/// a new ON period. Lets downstream consumers (the ack-clock window
/// accumulator) react to cycle boundaries without re-deriving the gap state
/// machine.
struct OnStartEvent {
  double start_s{0.0};
  bool first_period{false};    ///< no preceding OFF (buffering phase start)
  double preceding_off_s{0.0}; ///< OFF duration before this ON; 0 for the first
};

/// Online ON/OFF cycle analysis (§5). `analyze_on_off` == feed + finish.
class OnOffAccumulator {
 public:
  explicit OnOffAccumulator(const OnOffOptions& options = {});

  /// Process one record. Returns the cycle-boundary event when this packet
  /// started a new ON period.
  std::optional<OnStartEvent> add(const capture::PacketRecord& p);

  /// Close the current ON period and derive the buffering / steady-state
  /// summary. Idempotent (state is copied, not consumed).
  [[nodiscard]] OnOffAnalysis finish() const;

  [[nodiscard]] const OnOffOptions& options() const { return options_; }

 private:
  OnOffOptions options_;
  OnOffAnalysis acc_;  // closed periods, off durations, running totals
  bool in_period_{false};
  OnPeriod current_;
};

/// Online zero-window episode counter (rising edges of `window_bytes == 0`
/// on the up direction) — `count_zero_window_episodes` == feed + episodes.
class ZeroWindowAccumulator {
 public:
  void add(const capture::PacketRecord& p);
  [[nodiscard]] std::size_t episodes() const { return episodes_; }

 private:
  std::size_t episodes_{0};
  bool at_zero_{false};
};

/// Online down-direction retransmission fraction.
class RetransmissionAccumulator {
 public:
  void add(const capture::PacketRecord& p);
  [[nodiscard]] double fraction() const;

 private:
  std::uint64_t total_{0};
  std::uint64_t retx_{0};
};

/// Online handshake-RTT estimate: client SYNs (up, SYN without ACK) wait
/// per connection; each down SYN-ACK resolves every still-pending SYN of its
/// connection. The answer is the first SYN in arrival order that found a
/// match — exactly what the batch scan returns, at O(log connections) per
/// handshake record and O(1) per query.
class HandshakeRttTracker {
 public:
  void add(const capture::PacketRecord& p);

  /// Current best estimate; may change while unmatched SYNs precede the
  /// first matched one, and is final once the head-of-queue SYN matches.
  [[nodiscard]] std::optional<double> rtt_s() const { return rtt_s_; }

 private:
  struct PendingSyn {
    double t_s{0.0};
    std::size_t arrival{0};  ///< index among all SYNs seen
  };
  std::map<std::uint64_t, std::vector<PendingSyn>> pending_;  // by connection id
  std::size_t syns_{0};
  std::size_t best_arrival_{0};  ///< arrival index behind `rtt_s_`
  std::optional<double> rtt_s_;
};

/// Online first-RTT byte windows (§5.1.5 / Fig 9): one window per
/// steady-state ON period preceded by a qualifying OFF, summing all
/// down-direction data bytes in [start, start + rtt). The owner opens
/// windows at ON-period starts and feeds every down data record in time
/// order. A window is two reads of a running byte total, at its start and
/// at the first record past its end, so a record costs O(1) however many
/// windows overlap. If the RTT a window opened with differs from the final
/// estimate (`stale_against`), its sample is best-effort.
class FirstRttAccumulator {
 public:
  /// Open a window at an ON-period start, before the records at `start_s`
  /// that follow are fed; records already fed at exactly `start_s` count
  /// too. `rtt` absent (no handshake resolved yet) makes the window
  /// unbounded and marks the result stale.
  void open_window(double start_s, std::optional<double> rtt);

  /// Feed one down-direction data packet (payload > 0), the same packet
  /// stream the ON/OFF machine sees.
  void add_down_data(double t_s, std::uint64_t bytes);

  /// Per-window byte counts in window-open order (the Fig 9 samples).
  [[nodiscard]] std::vector<double> samples() const;

  /// True when any window was opened with an RTT that differs from the
  /// final estimate (or with none at all).
  [[nodiscard]] bool stale_against(std::optional<double> final_rtt_s) const;

 private:
  struct Window {
    double rtt_used{0.0};
    std::uint64_t bytes_before{0};  ///< running total at the window start
    std::uint64_t bytes_at_end{0};  ///< running total at close
    bool bounded{false};
    bool closed{false};
  };
  using Closing = std::pair<double, std::size_t>;  // (end_s, window index)

  std::vector<Window> windows_;
  std::priority_queue<Closing, std::vector<Closing>, std::greater<>> closing_;
  std::uint64_t bytes_{0};              ///< all down data fed so far
  double last_t_{0.0};                  ///< timestamp of the latest record fed
  std::uint64_t bytes_before_last_t_{0};  ///< running total before `last_t_`
};

/// Online autocorrelation periodicity estimate. Replicates the batch
/// algorithm bin-for-bin: the rate-series anchor (steady-state start) is
/// discovered on the fly by an embedded default-options ON/OFF machine, and
/// down-direction data seen near a provisional ON end (zero-window probes
/// inside a candidate gap) is buffered until the gap is confirmed or
/// absorbed, so the binned series is identical to the two-pass batch one.
/// The gap buffer holds at most the data packets of one idle gap.
class PeriodicityAccumulator {
 public:
  explicit PeriodicityAccumulator(const PeriodicityOptions& options = {});

  void add(const capture::PacketRecord& p);

  [[nodiscard]] PeriodicityResult finish() const;

 private:
  void bin_add(std::vector<double>& sums, double steady_start, double t, double amount) const;

  PeriodicityOptions options_;
  OnOffAccumulator onoff_;  // default options: anchor discovery only
  bool anchored_{false};
  double steady_start_{0.0};
  double provisional_end_{0.0};
  std::vector<double> sums_;  // grows as packets land; sized exactly at finish
  std::vector<std::pair<double, double>> gap_buffer_;  // (t, bytes) at/after provisional end
  double t_end_{0.0};
  bool any_packet_{false};
};

/// Online per-connection flow table — `build_flow_table` == feed + finish.
/// Memory is O(connections).
class FlowAccumulator {
 public:
  void add(const capture::PacketRecord& p);

  /// Copy the per-connection records out, ordered by first packet time.
  [[nodiscard]] FlowTable finish() const;

 private:
  std::map<std::uint64_t, FlowRecord> by_id_;
  std::map<std::uint64_t, double> syn_time_;
};

}  // namespace vstream::analysis
