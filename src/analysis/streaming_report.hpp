// Single-pass session report: the one implementation of `SessionReport`.
//
// A `StreamingReportBuilder` consumes `PacketRecord`s one at a time — from
// a live `TraceRecorder` sink, a pcap read loop, or a `TraceView` walk —
// and assembles the report without ever materializing the trace. Memory
// scales with ON/OFF cycles and TCP connections, not packets (see
// DESIGN.md §9), which is what lets a 10k-session sweep or a multi-hour
// capture run in constant space per session.
//
// The batch `build_report(trace, options)` is a fold of this builder that
// opens every first-RTT window with the trace's final handshake RTT. A live
// builder only knows the estimate so far, so its `finish()` equals
// `build_report` over the same records provided the estimate is final
// before the first qualifying steady-state ON period (every catalog
// scenario; `first_rtt_stale()` reports the exception).
#pragma once

#include <optional>
#include <set>
#include <string>

#include "analysis/accumulators.hpp"
#include "analysis/report.hpp"

namespace vstream::analysis {

class StreamingReportBuilder {
 public:
  explicit StreamingReportBuilder(const ReportOptions& options = {});

  /// Metadata the batch path reads off the trace; set any time before
  /// `finish()`.
  void set_label(std::string label) { label_ = std::move(label); }
  void set_encoding_bps(double bps) { encoding_bps_ = bps; }
  void set_duration_s(double s) { duration_s_ = s; }
  /// Session-side recovery accounting, mirroring ReportOptions::resilience
  /// on the batch path (packets cannot supply it on either path).
  void set_resilience(const ResilienceStats& r) { resilience_ = r; }

  /// Process one record, in capture order.
  void add(const capture::PacketRecord& p);

  /// Assemble the report. Idempotent; `add` may not be called afterwards.
  [[nodiscard]] SessionReport finish() const;

  /// True when a first-RTT window opened before the handshake RTT estimate
  /// settled — the one case where a live builder's `finish()` differs from
  /// `build_report` (see file comment).
  [[nodiscard]] bool first_rtt_stale() const;

 private:
  /// First-RTT windows use `first_rtt_s` when set, instead of the handshake
  /// estimate known when each window opens.
  StreamingReportBuilder(const ReportOptions& options, std::optional<double> first_rtt_s);
  friend SessionReport build_report(capture::TraceView trace, const ReportOptions& options);

  ReportOptions options_;
  std::string label_;
  double encoding_bps_{0.0};
  double duration_s_{0.0};
  ResilienceStats resilience_;
  std::optional<double> first_rtt_s_;

  std::size_t packets_{0};
  std::set<std::uint64_t> connections_;
  RetransmissionAccumulator retransmissions_;
  ZeroWindowAccumulator zero_window_;
  OnOffAccumulator onoff_;
  HandshakeRttTracker handshake_;
  FirstRttAccumulator first_rtt_;
  PeriodicityAccumulator periodicity_;
};

}  // namespace vstream::analysis
