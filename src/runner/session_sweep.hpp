// Streamed sweeps: finished worlds fold into per-worker accumulators as they
// complete, so a million-session run holds a few hundred bytes of aggregate
// per worker instead of a million results.
//
// The unit the sweep folds is one finished world. A private session
// (`run_session`) is a world of one; a shared-bottleneck topology
// (`run_topology`) is a world of many. Both kinds go through the same lane
// loop, the same `SweepAccumulator`, the same shard payload and the same
// digest — within a session `StreamingReportBuilder` keeps memory constant
// in packets, across a sweep the accumulator keeps it constant in worlds.
// Each ParallelSweep worker owns a cache-line-padded accumulator (and a
// recycled world arena); the partials merge serially on the caller's thread
// after the pool joins.
//
// Determinism story (DESIGN.md §13): floating-point partial sums depend on
// which worker ran which world, so they are reproducible only up to FP
// associativity. The *digest* is exact: every world mixes
// (index, world digest, outcome) through FNV-1a into one 64-bit word, and
// the sweep combines those words with XOR — a commutative, associative,
// partition-independent fold. Serial, parallel, and process-sharded runs of
// the same config generator therefore produce bit-identical sweep digests,
// which is what `determinism_audit --shards`/`--topology` and the capacity
// planner's digest-checked shard merge enforce.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runner/parallel_sweep.hpp"
#include "stats/windowed_rate.hpp"
#include "streaming/session.hpp"
#include "streaming/topology.hpp"

namespace vstream::runner {

/// Order-independent sweep digest: XOR of per-world FNV-1a words keyed by
/// global world index. Equal iff two runs executed the same world set with
/// identical per-world outcomes — regardless of worker count, scheduling,
/// or process sharding. (XOR would be blind to one world repeated twice;
/// the paired count catches exactly that.)
struct SweepDigest {
  std::uint64_t combined{0};
  std::uint64_t sessions{0};  ///< worlds folded (one per session in a session sweep)

  /// Fold one finished world: its global index, its world digest value
  /// and words-mixed count, hashed together into one word.
  void add(std::size_t index, std::uint64_t digest_value, std::uint64_t words_mixed);

  void merge(const SweepDigest& other) {
    combined ^= other.combined;
    sessions += other.sessions;
  }

  friend bool operator==(const SweepDigest&, const SweepDigest&) = default;
};

/// Sweep-level aggregate of finished worlds, in O(1) memory: the world
/// totals `TopologyResult` reports, summed (max for the queue high-water
/// mark), plus pooled R(t)/concurrency windows — exact across shards, since
/// WindowStats carries count/sum/sum_sq — and the exact sweep digest.
///
/// A private session folds in as a world of one: horizon = its
/// `capture_duration_s`, finished/interrupted/active from its PlayerStats,
/// no R(t) windows and no goodput sample.
struct SweepAccumulator {
  std::uint64_t worlds{0};
  std::uint64_t sessions_started{0};
  std::uint64_t sessions_finished{0};
  std::uint64_t sessions_interrupted{0};
  std::uint64_t sessions_active_at_end{0};
  std::uint64_t connections{0};
  std::uint64_t bytes_downloaded{0};
  std::uint64_t wasted_bytes{0};  ///< §6.2: downloaded, never played, by interrupted viewers
  std::uint64_t sim_events{0};
  std::uint64_t max_events_pending{0};  ///< max across worlds, not sum
  std::uint64_t rebuffer_count{0};      ///< private sessions only
  std::uint64_t fetch_retries{0};       ///< private sessions only
  // Eq 3/4 inputs, summed over started sessions (see TopologyResult).
  double sum_encoding_bps{0.0};
  double sum_duration_s{0.0};
  double sum_goodput_bps{0.0};
  std::uint64_t goodput_samples{0};
  double horizon_s_sum{0.0};      ///< Σ per-world horizons
  stats::WindowStats aggregate;   ///< pooled R(t) windows, all worlds
  stats::WindowStats concurrency;
  SweepDigest digest;

  /// Fold one finished world (called on the worker that ran it; each worker
  /// owns its accumulator outright). `index` is the world's global
  /// submission index — under process sharding, the index in the *full*
  /// sweep, so shard digests merge to the unsharded value.
  void add(std::size_t index, const streaming::SessionConfig& config,
           const streaming::SessionResult& result, std::uint64_t digest_value,
           std::uint64_t words_mixed);
  void add(std::size_t index, const streaming::TopologyConfig& config,
           const streaming::TopologyResult& result, std::uint64_t digest_value,
           std::uint64_t words_mixed);

  /// Combine another partial (worker lane or shard file) into this one.
  void merge(const SweepAccumulator& other);

  /// 8·Σbytes / Σhorizon: the mean per-session download rate when every
  /// world is one session with the same capture duration.
  [[nodiscard]] double mean_download_rate_bps() const {
    return horizon_s_sum > 0.0 ? 8.0 * static_cast<double>(bytes_downloaded) / horizon_s_sum
                               : 0.0;
  }
  [[nodiscard]] double mean_aggregate_bps() const { return aggregate.mean(); }
  [[nodiscard]] double variance_aggregate() const { return aggregate.variance(); }
  [[nodiscard]] double mean_encoding_bps() const {
    return sessions_started > 0 ? sum_encoding_bps / static_cast<double>(sessions_started) : 0.0;
  }
  [[nodiscard]] double mean_duration_s() const {
    return sessions_started > 0 ? sum_duration_s / static_cast<double>(sessions_started) : 0.0;
  }
  [[nodiscard]] double mean_goodput_bps() const {
    return goodput_samples > 0 ? sum_goodput_bps / static_cast<double>(goodput_samples) : 0.0;
  }
  [[nodiscard]] double realized_arrival_rate_per_s() const {
    return horizon_s_sum > 0.0 ? static_cast<double>(sessions_started) / horizon_s_sum : 0.0;
  }

  /// Pooled measured inputs of Eq. 3/4 — identical in meaning to
  /// TopologyResult::measured_model_params, over the whole sweep.
  [[nodiscard]] model::AggregateParams measured_model_params() const {
    return model::AggregateParams{.lambda_per_s = realized_arrival_rate_per_s(),
                                  .mean_encoding_bps = mean_encoding_bps(),
                                  .mean_duration_s = mean_duration_s(),
                                  .mean_download_rate_bps = mean_goodput_bps()};
  }

  /// Serialize as a JSON object — the shard-out payload for either world
  /// kind. `shard`/`shards` record the process-sharding coordinates (0/1
  /// for an unsharded run); `first`/`count` the global index range covered.
  /// Doubles are written with %.17g, so every sum reloads bit-exactly.
  [[nodiscard]] std::string to_json(const std::string& name, std::size_t shard,
                                    std::size_t shards, std::size_t first,
                                    std::size_t count) const;

  /// Parse a shard-out payload produced by to_json (strict on the fields it
  /// owns, tolerant of extras). Throws std::runtime_error naming the path
  /// and field on anything to_json could not have written: a sign, an
  /// overflowing or non-finite number, a range whose end overflows.
  /// Returns the accumulator plus the shard coordinates via the out-params.
  static SweepAccumulator from_json_file(const std::string& path, std::size_t& shard,
                                         std::size_t& shards, std::size_t& first,
                                         std::size_t& count);
};

/// Run `count` generated worlds on `pool`, folding every result into
/// per-worker accumulators the moment it exists — no result vector, no
/// submission-order staging, O(workers) memory however large `count` is.
/// `make(g)` is called with each global index g in [first, first + count)
/// and returns that world's config (a private session or a topology);
/// configs are never stored. Every world runs with a sweep-owned digest
/// attached (a digest already on the config is replaced — the fingerprint
/// must be local to the world) and a per-worker recycled arena (a
/// config-supplied arena is kept). The merged digest is identical for any
/// worker count and any contiguous sharding of [first, first+count).
[[nodiscard]] SweepAccumulator run_worlds_streamed(
    const ParallelSweep& pool, std::size_t first, std::size_t count,
    const std::function<streaming::SessionConfig(std::size_t)>& make);
[[nodiscard]] SweepAccumulator run_worlds_streamed(
    const ParallelSweep& pool, std::size_t first, std::size_t count,
    const std::function<streaming::TopologyConfig(std::size_t)>& make);

/// Convenience overload over a materialized session-config vector (index
/// base 0).
[[nodiscard]] SweepAccumulator run_worlds_streamed(
    const ParallelSweep& pool, const std::vector<streaming::SessionConfig>& configs);

}  // namespace vstream::runner
