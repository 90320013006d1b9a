// Run metrics: named counts, high-waters and fixed-bucket histograms as
// plain data.
//
// Nothing is counted through this header. Each component keeps its own
// stats (`tcp::TcpStats`, `net::Link::Counters`, `streaming::PlayerStats`,
// the fetch and server counts), and a world builds its snapshot once, at
// the end of the run, from those (`streaming::SessionInstance::metrics`).
// Snapshots merge across runs and render as JSON for machine-readable run
// telemetry.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace vstream::obs {

/// Histogram over fixed, sorted upper bounds plus an implicit overflow
/// bucket. A sample lands in the first bucket whose bound is >= the value
/// (bounds are inclusive upper edges).
class FixedHistogram {
 public:
  explicit FixedHistogram(std::vector<double> upper_bounds);

  void observe(double v);

  /// Add another histogram's samples. Throws std::invalid_argument when the
  /// bucket bounds differ — adding misaligned buckets would silently
  /// corrupt every percentile downstream.
  void merge_from(const FixedHistogram& other);

  /// Percentile estimate at quantile `q` in [0,1], linearly interpolated
  /// within the winning bucket (the first bucket from 0, the last bound for
  /// overflow samples). 0 when the histogram is empty.
  [[nodiscard]] double percentile(double q) const;

  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  /// One count per bound, plus the trailing overflow bucket.
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const { return counts_; }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;  // bounds_.size() + 1 entries
  std::uint64_t count_{0};
  double sum_{0.0};
};

/// One run's metrics: counters are counts, gauges are last values or
/// high-waters.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, FixedHistogram> histograms;

  [[nodiscard]] bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  /// Combine another run's snapshot into this one: counters and histogram
  /// buckets add, gauges keep the maximum (gauges here are high-waters).
  /// Throws std::invalid_argument when the same histogram name arrives with
  /// different bucket bounds.
  void merge_from(const MetricsSnapshot& other);

  [[nodiscard]] std::string to_json() const;
};

}  // namespace vstream::obs
