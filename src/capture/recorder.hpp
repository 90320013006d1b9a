// Viewer-side packet capture, playing the role tcpdump/windump played in
// the paper's methodology (Section 4.2).
//
// The recorder taps a Path and records segments as the viewer's NIC sees
// them: down-direction segments when they are *delivered*, up-direction
// segments when they are *transmitted*. Capture can be stopped (the paper
// stopped after 180 s) independently of the simulation.
//
// Besides storing records into a `PacketTrace`, the recorder can forward
// each record to a sink as it happens — the hook the streaming analysis
// pipeline attaches to — and storing can be disabled entirely for
// sink-only operation, making a session O(1) in capture length.
#pragma once

#include <functional>

#include "capture/trace.hpp"
#include "net/path.hpp"
#include "sim/simulator.hpp"

namespace vstream::capture {

class TraceRecorder {
 public:
  /// Called once per recorded packet, in capture order, after the record is
  /// (optionally) stored.
  using RecordSink = std::function<void(const PacketRecord&)>;

  /// Installs the tap. The recorder must outlive the path or be detached.
  explicit TraceRecorder(net::Path& path);
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  void start() { recording_ = true; }
  void stop();

  /// Remove the tap from the path (automatic on destruction).
  void detach();

  /// Stream each record to `sink` as it is captured (empty to clear).
  void set_record_sink(RecordSink sink) { sink_ = std::move(sink); }

  /// When false, records are forwarded to the sink but not stored — the
  /// trace stays empty and memory stays constant. Default true.
  void set_store_packets(bool store) { store_packets_ = store; }

  /// Pre-size the trace for an expected capture: `duration_s` of capture at
  /// `down_bps` of download bandwidth. A deliberate over-estimate (data +
  /// ack packets, jitter margin) capped at a sane bound, so a 180 s capture
  /// does one allocation instead of a realloc cascade.
  void reserve_for(double duration_s, double down_bps);

  [[nodiscard]] bool recording() const { return recording_; }
  [[nodiscard]] PacketTrace& trace() { return trace_; }
  [[nodiscard]] const PacketTrace& trace() const { return trace_; }

  /// Take ownership of the recorded trace, stamping its duration.
  [[nodiscard]] PacketTrace take();

 private:
  void on_event(sim::SimTime t, const net::TcpSegment& s, net::Direction d, net::LinkEvent e);

  net::Path* path_;
  PacketTrace trace_;
  RecordSink sink_;
  bool recording_{false};
  bool store_packets_{true};
  double first_t_s_{-1.0};
  double last_t_s_{0.0};
};

}  // namespace vstream::capture
