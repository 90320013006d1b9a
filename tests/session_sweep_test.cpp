// Tests for the streamed sweep path, for both world kinds (private sessions
// and shared-bottleneck topologies): per-worker accumulators must aggregate
// exactly what the materializing path returns, the order-independent sweep
// digest must be invariant across worker counts and process sharding — the
// property the sharded capacity planner's merge check rests on — and the
// shard payload must reload bit-exactly and refuse foreign bytes.
#include <gtest/gtest.h>

#include <cstdio>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "runner/parallel_sweep.hpp"
#include "runner/session_sweep.hpp"
#include "streaming/scenarios.hpp"
#include "streaming/session_builder.hpp"
#include "streaming/topology_builder.hpp"

namespace vstream::runner {
namespace {

/// Same shape as the ParallelSweep tests' sweep: short distinct sessions.
streaming::SessionConfig sweep_config(std::size_t i) {
  video::VideoMeta meta;
  meta.id = "streamed-sweep-test";
  meta.duration_s = 120.0;
  meta.encoding_bps = 1.0e6 + 1.0e5 * static_cast<double>(i % 7);
  meta.container = i % 2 == 0 ? video::Container::kFlash : video::Container::kHtml5;
  return streaming::SessionBuilder{}
      .vantage(net::Vantage::kResearch)
      .video(meta)
      .container(meta.container)
      .capture_duration_s(6.0)
      .seed(7000 + i)
      .build();
}

std::vector<streaming::SessionConfig> sweep_configs(std::size_t n) {
  std::vector<streaming::SessionConfig> configs;
  for (std::size_t i = 0; i < n; ++i) configs.push_back(sweep_config(i));
  return configs;
}

TEST(SweepDigestTest, OrderIndependentButIndexAndValueSensitive) {
  SweepDigest forward;
  forward.add(0, 111, 5);
  forward.add(1, 222, 6);
  SweepDigest backward;
  backward.add(1, 222, 6);
  backward.add(0, 111, 5);
  EXPECT_EQ(forward, backward);  // schedule order cannot matter

  SweepDigest swapped_index;
  swapped_index.add(1, 111, 5);
  swapped_index.add(0, 222, 6);
  EXPECT_NE(forward.combined, swapped_index.combined);  // index is part of the word

  SweepDigest different_value;
  different_value.add(0, 112, 5);
  different_value.add(1, 222, 6);
  EXPECT_NE(forward.combined, different_value.combined);
}

TEST(SessionSweepTest, StreamedAggregateMatchesMaterializedResults) {
  const auto configs = sweep_configs(6);
  const ParallelSweep pool{2};
  const SweepAccumulator streamed = run_worlds_streamed(pool, configs);

  const auto results = pool.run_sessions(configs);
  std::uint64_t bytes = 0;
  std::uint64_t events = 0;
  std::uint64_t connections = 0;
  std::size_t max_pending = 0;
  double rate_sum = 0.0;
  for (const auto& r : results) {
    bytes += r.bytes_downloaded;
    events += r.sim_events;
    connections += r.connections;
    max_pending = std::max(max_pending, r.sim_max_events_pending);
    rate_sum += 8.0 * static_cast<double>(r.bytes_downloaded) / configs[0].capture_duration_s;
  }

  EXPECT_EQ(streamed.worlds, configs.size());
  EXPECT_EQ(streamed.sessions_started, configs.size());
  EXPECT_EQ(streamed.digest.sessions, configs.size());
  EXPECT_EQ(streamed.bytes_downloaded, bytes);
  EXPECT_EQ(streamed.sim_events, events);
  EXPECT_EQ(streamed.connections, connections);
  EXPECT_EQ(streamed.max_events_pending, max_pending);
  // Every capture lasts the same 6 s, so 8·Σbytes/Σhorizon is the mean of
  // the per-session rates.
  const double per_session_mean = rate_sum / static_cast<double>(results.size());
  EXPECT_GT(streamed.mean_download_rate_bps(), 0.0);
  EXPECT_NEAR(streamed.mean_download_rate_bps(), per_session_mean, 1e-9 * per_session_mean);
}

TEST(SessionSweepTest, StreamedDigestMatchesPerSessionFingerprints) {
  const auto configs = sweep_configs(5);
  const SweepAccumulator streamed = run_worlds_streamed(ParallelSweep{2}, configs);

  // The streamed path must fingerprint each session exactly the way
  // fingerprint_session does (world digest + fold_outcome) — same words,
  // same XOR combine.
  SweepDigest expected;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const auto fp = streaming::fingerprint_session(configs[i]);
    expected.add(i, fp.digest, fp.words_mixed);
  }
  EXPECT_EQ(streamed.digest, expected);
}

TEST(SessionSweepTest, DigestInvariantAcrossWorkerCountsAndSharding) {
  constexpr std::size_t kCount = 8;
  const auto make = [](std::size_t g) { return sweep_config(g); };

  const SweepAccumulator serial = run_worlds_streamed(ParallelSweep{1}, 0, kCount, make);
  const SweepAccumulator parallel = run_worlds_streamed(ParallelSweep{4}, 0, kCount, make);
  EXPECT_EQ(parallel.digest, serial.digest);
  EXPECT_EQ(parallel.worlds, serial.worlds);
  EXPECT_EQ(parallel.bytes_downloaded, serial.bytes_downloaded);
  EXPECT_EQ(parallel.sim_events, serial.sim_events);

  // Process sharding: contiguous halves, each carrying its global offset.
  SweepAccumulator merged = run_worlds_streamed(ParallelSweep{2}, 0, kCount / 2, make);
  const SweepAccumulator hi = run_worlds_streamed(ParallelSweep{3}, kCount / 2,
                                                    kCount - kCount / 2, make);
  merged.merge(hi);
  EXPECT_EQ(merged.digest, serial.digest);
  EXPECT_EQ(merged.worlds, serial.worlds);
  EXPECT_EQ(merged.bytes_downloaded, serial.bytes_downloaded);
  EXPECT_EQ(merged.sim_events, serial.sim_events);
  EXPECT_EQ(merged.rebuffer_count, serial.rebuffer_count);
  EXPECT_EQ(merged.max_events_pending, serial.max_events_pending);
}

void write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs(text.c_str(), f);
  std::fclose(f);
}

/// Reload a payload written by to_json; the coordinates must come back too.
SweepAccumulator round_trip(const SweepAccumulator& out, const std::string& file,
                            std::size_t shard, std::size_t shards, std::size_t first,
                            std::size_t count) {
  const std::string path = ::testing::TempDir() + file;
  write_file(path, out.to_json("round-trip", shard, shards, first, count));
  std::size_t shard_in = 0;
  std::size_t shards_in = 0;
  std::size_t first_in = 0;
  std::size_t count_in = 0;
  SweepAccumulator in =
      SweepAccumulator::from_json_file(path, shard_in, shards_in, first_in, count_in);
  std::remove(path.c_str());
  EXPECT_EQ(shard_in, shard);
  EXPECT_EQ(shards_in, shards);
  EXPECT_EQ(first_in, first);
  EXPECT_EQ(count_in, count);
  return in;
}

void expect_windows_bit_equal(const stats::WindowStats& a, const stats::WindowStats& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.sum_sq, b.sum_sq);
  EXPECT_EQ(a.peak, b.peak);
}

/// Every field, bit for bit: %.17g round-trips binary64 exactly, so the FP
/// sums compare with ==, not approximately.
void expect_bit_equal(const SweepAccumulator& a, const SweepAccumulator& b) {
  EXPECT_EQ(a.worlds, b.worlds);
  EXPECT_EQ(a.sessions_started, b.sessions_started);
  EXPECT_EQ(a.sessions_finished, b.sessions_finished);
  EXPECT_EQ(a.sessions_interrupted, b.sessions_interrupted);
  EXPECT_EQ(a.sessions_active_at_end, b.sessions_active_at_end);
  EXPECT_EQ(a.connections, b.connections);
  EXPECT_EQ(a.bytes_downloaded, b.bytes_downloaded);
  EXPECT_EQ(a.wasted_bytes, b.wasted_bytes);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.max_events_pending, b.max_events_pending);
  EXPECT_EQ(a.rebuffer_count, b.rebuffer_count);
  EXPECT_EQ(a.fetch_retries, b.fetch_retries);
  EXPECT_EQ(a.sum_encoding_bps, b.sum_encoding_bps);
  EXPECT_EQ(a.sum_duration_s, b.sum_duration_s);
  EXPECT_EQ(a.sum_goodput_bps, b.sum_goodput_bps);
  EXPECT_EQ(a.goodput_samples, b.goodput_samples);
  EXPECT_EQ(a.horizon_s_sum, b.horizon_s_sum);
  expect_windows_bit_equal(a.aggregate, b.aggregate);
  expect_windows_bit_equal(a.concurrency, b.concurrency);
  EXPECT_EQ(a.digest, b.digest);
}

TEST(SessionSweepTest, ShardJsonRoundTrips) {
  const SweepAccumulator out = run_worlds_streamed(ParallelSweep{2}, 3, 4,
                                                   [](std::size_t g) { return sweep_config(g); });
  const SweepAccumulator in =
      round_trip(out, "session_sweep_shard_test.json", /*shard=*/1, /*shards=*/2,
                 /*first=*/3, /*count=*/4);
  expect_bit_equal(in, out);

  EXPECT_THROW(
      {
        std::size_t s0 = 0;
        std::size_t s1 = 0;
        std::size_t f0 = 0;
        std::size_t c0 = 0;
        (void)SweepAccumulator::from_json_file("/nonexistent/shard.json", s0, s1, f0, c0);
      },
      std::runtime_error);
}

// ------------------------------------------------- hostile shard payloads

/// One foreign value planted in an otherwise valid payload.
struct Rejection {
  const char* name;
  const char* field;
  const char* value;
};

// gtest's default printer would byte-dump the three pointers into the
// listed test names, which ASLR changes on every run.
void PrintTo(const Rejection& r, std::ostream* os) { *os << r.name; }

class ShardPayloadRejectionTest : public ::testing::TestWithParam<Rejection> {};

TEST_P(ShardPayloadRejectionTest, RejectedWithFieldDiagnostic) {
  const Rejection& r = GetParam();
  SweepAccumulator acc;
  acc.worlds = 2;
  acc.digest.sessions = 2;
  acc.sum_goodput_bps = 1.5e6;
  std::string text = acc.to_json("hostile", 0, 1, /*first=*/3, /*count=*/4);

  // Swap the field's value (up to the next ',' or '}') for the foreign one.
  const std::string needle = std::string{"\""} + r.field + "\":";
  const std::size_t at = text.find(needle);
  ASSERT_NE(at, std::string::npos) << r.field;
  const std::size_t begin = at + needle.size();
  const std::size_t end = text.find_first_of(",}", begin);
  text.replace(begin, end - begin, r.value);

  const std::string path = ::testing::TempDir() + "hostile_" + r.name + ".json";
  write_file(path, text);
  std::size_t shard = 0;
  std::size_t shards = 0;
  std::size_t first = 0;
  std::size_t count = 0;
  try {
    (void)SweepAccumulator::from_json_file(path, shard, shards, first, count);
    ADD_FAILURE() << "accepted " << r.field << "=" << r.value;
  } catch (const std::runtime_error& e) {
    const std::string expected = "shard payload " + path + ": field \"" + r.field + "\"";
    EXPECT_NE(std::string{e.what()}.find(expected), std::string::npos) << e.what();
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    ForeignBytes, ShardPayloadRejectionTest,
    ::testing::Values(
        // glibc's %llu reads "-1" as 2^64-1.
        Rejection{"NegativeInteger", "sim_events", "-1"},
        Rejection{"PlusSignedInteger", "connections", "+5"},
        Rejection{"IntegerOverflow", "bytes_downloaded", "18446744073709551616"},
        Rejection{"FractionalInteger", "shards", "1.5"},
        Rejection{"NegativeDouble", "sum_encoding_bps", "-2.5"},
        Rejection{"NanDouble", "sum_goodput_bps", "nan"},
        Rejection{"InfDouble", "aggregate_sum_sq", "inf"},
        Rejection{"DoubleOverflow", "sum_duration_s", "1e999"},
        Rejection{"RangeEndOverflow", "count", "18446744073709551615"},
        Rejection{"SignedHexDigest", "digest", "\"-1\""},
        Rejection{"HexOverflow", "digest", "\"1ffffffffffffffff\""}),
    [](const ::testing::TestParamInfo<Rejection>& info) { return std::string{info.param.name}; });

// ------------------------------------------------------- topology worlds

/// A small shared-bottleneck world: 64 bulk HD Flash viewers arriving as
/// Poisson churn (lambda*horizon = 160 expected) on research access legs.
streaming::TopologyConfig topology_world(std::size_t g) {
  video::VideoMeta meta;
  meta.id = "topology-sweep-test";
  meta.duration_s = 4.0;
  meta.encoding_bps = 200e3;
  meta.container = video::Container::kFlashHd;
  return streaming::TopologyBuilder{}
      .container(video::Container::kFlashHd)
      .application(streaming::Application::kFirefox)
      .vantage(net::Vantage::kResearch)
      .video(meta)
      .sessions(64)
      .horizon_s(20.0)
      .sample_window_s(0.5)
      .workload(streaming::WorkloadBuilder{}.poisson(8.0).build())
      .bottleneck_rate_bps(400e6)
      .seed(1000 + g)
      .build();
}

TEST(TopologyDeterminismTest, SweepDigestInvariantAcrossWorkerCounts) {
  // ~1k sessions across 16 worlds: the sweep digest must be bit-identical
  // whether the worlds run serially or on a pool of workers.
  const auto a = run_worlds_streamed(ParallelSweep{1}, 0, 16, topology_world);
  const auto b = run_worlds_streamed(ParallelSweep{4}, 0, 16, topology_world);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.sessions_started, b.sessions_started);
  EXPECT_EQ(a.bytes_downloaded, b.bytes_downloaded);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_GT(a.sessions_started, 900u);  // lambda*horizon = 160 expected per world

  // Contiguous sharding must merge to the same digest.
  auto first_half = run_worlds_streamed(ParallelSweep{4}, 0, 8, topology_world);
  const auto second_half = run_worlds_streamed(ParallelSweep{4}, 8, 8, topology_world);
  first_half.merge(second_half);
  EXPECT_EQ(first_half.digest, a.digest);
}

TEST(TopologySweepTest, ShardPayloadReloadsBitExactlyAndMergesToUnshardedDigest) {
  const auto whole = run_worlds_streamed(ParallelSweep{2}, 0, 4, topology_world);
  ASSERT_GT(whole.aggregate.count, 0u);
  ASSERT_GT(whole.concurrency.count, 0u);

  SweepAccumulator merged;
  for (std::size_t shard = 0; shard < 2; ++shard) {
    const auto out = run_worlds_streamed(ParallelSweep{2}, 2 * shard, 2, topology_world);
    const auto in = round_trip(out, "topology_sweep_shard_test.json", shard, 2, 2 * shard, 2);
    expect_bit_equal(in, out);
    merged.merge(in);
  }
  EXPECT_EQ(merged.digest, whole.digest);
  EXPECT_EQ(merged.worlds, whole.worlds);
  EXPECT_EQ(merged.sessions_started, whole.sessions_started);
  EXPECT_EQ(merged.bytes_downloaded, whole.bytes_downloaded);
  EXPECT_EQ(merged.aggregate.count, whole.aggregate.count);
  EXPECT_EQ(merged.concurrency.count, whole.concurrency.count);
}

TEST(SessionSweepTest, EmptySweepIsWellFormed) {
  const SweepAccumulator empty = run_worlds_streamed(
      ParallelSweep{4}, 0, 0, [](std::size_t) -> streaming::SessionConfig {
        throw std::logic_error{"must not be called"};
      });
  EXPECT_EQ(empty.worlds, 0u);
  EXPECT_EQ(empty.digest.combined, 0u);
  EXPECT_EQ(empty.mean_download_rate_bps(), 0.0);

  SweepAccumulator merged;
  merged.merge(empty);
  EXPECT_EQ(merged.worlds, 0u);
}

}  // namespace
}  // namespace vstream::runner
