// Chrome trace-event / Perfetto exporter for the trace bus.
//
// `ChromeTraceWriter` converts typed `TraceEvent`s into trace-event JSON
// (the `{"traceEvents":[...]}` format chrome://tracing and
// https://ui.perfetto.dev load natively): span records become async
// begin/end pairs on per-subsystem tracks (stalls, zero-window stretches,
// fault windows and retry backoffs included: every episode is a span),
// cwnd and sim-loop samples become counter tracks, and pacing blocks
// become instants. Sim-time seconds map to trace microseconds.
//
// `ChromeTraceSink` plugs the writer into a `TraceBus` and writes the JSON
// file once, on close() or destruction. Wire it up with the `--trace-out`
// flag on the examples, or convert a JSONL capture offline with
// `tools/trace_export`: the JSONL form round-trips exactly, so both paths
// render byte-identical JSON.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <set>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace vstream::obs {

class ChromeTraceWriter {
 public:
  /// Process id stamped on every row; distinguishes sessions when several
  /// writers merge into one file.
  void set_pid(std::uint32_t pid) { pid_ = pid; }

  void add(const TraceEvent& event);

  /// Number of trace-event rows buffered so far (metadata excluded).
  [[nodiscard]] std::size_t rows() const { return rows_.size(); }

  /// Render the complete trace-event JSON document.
  void write(std::ostream& out) const;
  [[nodiscard]] std::string to_json() const;

 private:
  void push(const std::string& row, std::uint32_t tid);

  std::uint32_t pid_{1};
  std::vector<std::string> rows_;
  std::set<std::uint32_t> tids_;
};

/// TraceBus sink that renders everything it sees to one Chrome-trace JSON
/// file. The file is written atomically-late: on close() or destruction.
class ChromeTraceSink final : public TraceSink {
 public:
  explicit ChromeTraceSink(std::string path);
  ~ChromeTraceSink() override;

  void on_event(const TraceEvent& event) override { writer_.add(event); }

  /// Write the JSON file now (idempotent). Returns false on I/O failure.
  bool close();

  [[nodiscard]] ChromeTraceWriter& writer() { return writer_; }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
  ChromeTraceWriter writer_;
  bool written_{false};
};

}  // namespace vstream::obs
