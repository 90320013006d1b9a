// Shared types of the repo benchmark: run options, metrics, and the
// interface each workload implements for the run loop in main.cpp.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  bool tiny{false};          ///< minimal scale, for the benchmark's own test
  std::size_t workers{1};    ///< fixed pool width, at most the host's threads
  std::string data_dir;      ///< scratch files and the span dump
};

/// Metric values by name. The units, and a 0 for a per-layer metric of a
/// layer the workload never runs, come from BENCHMARK.json in run.py.
using Metrics = std::map<std::string, double>;

/// Outcome of the untimed checks on one repetition's output.
struct Check {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::string digest;   ///< must be equal across the repetitions of one run
  std::string problem;  ///< first failed check, for stderr
};

/// One end-to-end pipeline. `setup` builds the inputs from the seed; `run`
/// is the timed pipeline from ready input to complete result; `check`
/// verifies that result without being timed.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual void setup() = 0;
  /// With a null log nothing is traced. `root` parents the spans.
  virtual void run(SpanLog* log, std::uint32_t root) = 0;
  [[nodiscard]] virtual Check check() = 0;

  /// Metrics of the last checked output, given the median untraced wall.
  virtual void end_to_end(double wall_s, Metrics& out) const = 0;
  /// Layer metrics from the traced repetitions' span attribution, plus any
  /// traced-run measurement outside the pipeline, such as scale points.
  virtual void per_layer(const Attribution& traced, Metrics& out) const = 0;
};

/// Throws std::invalid_argument for a name that is not a workload.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const Options& options);

/// Host nanoseconds per hold-model operation (one `step` that dispatches an
/// event which schedules its successor) on a bare `sim::Simulator` holding
/// `depth` pending events.
[[nodiscard]] double queue_ns_per_op(std::size_t depth, std::uint64_t ops, std::uint64_t seed);

[[nodiscard]] double peak_rss_mb();
[[nodiscard]] double median(std::vector<double> values);

}  // namespace perfbench
