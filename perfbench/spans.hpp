// In-memory span log for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own code, around its calls into
// each library module's public functions; nothing inside the library is
// instrumented. A span's layer is its name up to the first '.', so
// "streaming.run_session" belongs to the `streaming` layer. Records stay in
// memory and are written out once, when the run ends.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds since an arbitrary process-wide epoch.
[[nodiscard]] std::int64_t now_ns();

struct SpanRecord {
  std::string name;
  std::uint32_t id{0};
  std::uint32_t parent{0};  ///< 0 for a root
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  std::uint32_t thread{0};  ///< small per-process thread index
};

/// Thread-safe sink of closed spans. Appends take a mutex, which is cheap at
/// the benchmark's span rate (a few per simulated session).
class SpanLog {
 public:
  [[nodiscard]] std::uint32_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void add(SpanRecord record);
  [[nodiscard]] std::vector<SpanRecord> records() const;
  /// One JSON object per line: name, id, parent, start_ns, end_ns, thread.
  void write_jsonl(const std::string& path) const;

 private:
  std::atomic<std::uint32_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> records_;
};

/// RAII span. With a null log it records nothing and reads no clock, so the
/// untraced path runs the same code with tracing off. `name` must outlive
/// the span; every caller passes a string literal.
class Span {
 public:
  Span(SpanLog* log, const char* name, std::uint32_t parent = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint32_t id() const { return id_; }

 private:
  SpanLog* log_;
  const char* name_;
  std::uint32_t id_{0};
  std::uint32_t parent_;
  std::int64_t start_ns_{0};
};

/// Wall time of one root span split across the spans below it.
///
/// At every instant the time is shared equally among the descendant spans
/// that are running and have no running child of their own. On one thread
/// this is the usual self time (duration minus the part its children
/// cover); across worker threads it splits the wall time among whatever
/// the workers were doing, so the per-name seconds sum to `covered_s`.
struct Attribution {
  double root_s{0.0};
  double covered_s{0.0};              ///< root time some descendant span explains
  std::map<std::string, double> by_name_s;   ///< attributed seconds per span name
  std::map<std::string, double> by_layer_s;  ///< same, summed per layer prefix
  std::map<std::string, double> total_s;     ///< summed span durations per name
  std::map<std::string, double> max_s;       ///< longest single span per name
  std::map<std::string, std::size_t> count;  ///< spans per name

  [[nodiscard]] double coverage() const { return root_s > 0.0 ? covered_s / root_s : 0.0; }
  /// Pool another root's attribution into this one.
  void merge(const Attribution& other);
};

[[nodiscard]] Attribution attribute(const std::vector<SpanRecord>& spans, std::uint32_t root);

}  // namespace perfbench
