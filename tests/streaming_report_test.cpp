// Equivalence tests for the single-pass analysis pipeline: a live
// StreamingReportBuilder, fed records as a session or pcap produces them,
// must produce a SessionReport field-identical to the batch `build_report`
// (the same builder folded over the stored trace with the final handshake
// RTT fixed) — on every catalog scenario and on randomized synthetic
// traces exercising the awkward cases (timestamp ties, zero-window probe
// episodes, multiple connections, retransmissions). Both are checked
// against a reference rescan of the first-RTT windows in analysis_test.
#include <gtest/gtest.h>

#include <string>

#include "analysis/report.hpp"
#include "analysis/report_json.hpp"
#include "analysis/streaming_report.hpp"
#include "capture/trace.hpp"
#include "sim/rng.hpp"
#include "streaming/scenarios.hpp"
#include "streaming/session.hpp"

namespace vstream {
namespace {

/// Feed a whole trace to a fresh builder, mirroring the metadata the batch
/// path reads off the trace itself.
analysis::SessionReport stream_over(const capture::PacketTrace& trace,
                                    const analysis::ReportOptions& options = {},
                                    bool* stale = nullptr) {
  analysis::StreamingReportBuilder builder{options};
  for (const auto& p : trace.packets) builder.add(p);
  builder.set_label(trace.label);
  builder.set_duration_s(trace.duration_s);
  builder.set_encoding_bps(trace.encoding_bps);
  if (stale != nullptr) *stale = builder.first_rtt_stale();
  return builder.finish();
}

TEST(StreamingReportTest, CatalogScenariosBatchIdentical) {
  // Every supported Table-1 combination: the in-session streamed report must
  // equal the batch report built afterwards over the owned video trace.
  for (const auto& scenario : streaming::canonical_scenarios(20.0)) {
    auto cfg = scenario.config;
    cfg.streaming_report = true;
    const auto result = streaming::run_session(cfg);
    ASSERT_TRUE(result.report.has_value()) << scenario.name;
    const auto batch = analysis::build_report(result.video_trace());
    EXPECT_EQ(*result.report, batch) << scenario.name;
    // Belt and braces: the machine-readable rendering agrees byte for byte.
    EXPECT_EQ(analysis::to_json(*result.report), analysis::to_json(batch)) << scenario.name;
  }
}

TEST(StreamingReportTest, FaultScenariosBatchIdenticalWithMirroredResilience) {
  // Fault runs carry non-zero ResilienceStats that only the session knows
  // (retries, rebuffers, fault drops are not derivable from packets). The
  // equivalence contract still holds once the batch side is handed the same
  // stats via ReportOptions::resilience — exactly how SessionResult
  // documents they should be mirrored.
  for (const auto& scenario : streaming::fault_scenarios(15.0)) {
    auto cfg = scenario.config;
    cfg.streaming_report = true;
    const auto result = streaming::run_session(cfg);
    ASSERT_TRUE(result.report.has_value()) << scenario.name;
    analysis::ReportOptions options;
    options.resilience = result.resilience;
    const auto batch = analysis::build_report(result.video_trace(), options);
    EXPECT_EQ(*result.report, batch) << scenario.name;
    EXPECT_EQ(analysis::to_json(*result.report), analysis::to_json(batch)) << scenario.name;
  }
}

TEST(StreamingReportTest, StoreTraceOffStillDeliversTheReport) {
  auto scenarios = streaming::canonical_scenarios(20.0);
  ASSERT_FALSE(scenarios.empty());
  auto cfg = scenarios.front().config;

  auto batch_cfg = cfg;
  const auto batch_run = streaming::run_session(batch_cfg);
  const auto batch = analysis::build_report(batch_run.video_trace());

  auto lean_cfg = cfg;
  lean_cfg.store_trace = false;
  lean_cfg.streaming_report = true;
  const auto lean_run = streaming::run_session(lean_cfg);

  EXPECT_TRUE(lean_run.trace.packets.empty());
  ASSERT_TRUE(lean_run.report.has_value());
  // Same seed, same world: the streamed report equals the twin's batch one.
  EXPECT_EQ(*lean_run.report, batch);
  EXPECT_EQ(lean_run.connections, batch.connections);
  EXPECT_EQ(lean_run.bytes_downloaded, batch_run.bytes_downloaded);
}

TEST(StreamingReportTest, StoreTraceOffCountsTheSameConnections) {
  // The session counts the video connections it opened itself, so a
  // trace-less run (no capture, no streamed report) reports what its
  // store_trace(true) twin's capture shows.
  auto scenarios = streaming::canonical_scenarios(60.0);
  for (auto& fault : streaming::fault_scenarios(60.0)) scenarios.push_back(std::move(fault));
  for (const auto& scenario : scenarios) {
    const auto with_trace = streaming::run_session(scenario.config);
    auto lean_cfg = scenario.config;
    lean_cfg.store_trace = false;
    const auto lean = streaming::run_session(lean_cfg);

    EXPECT_GT(with_trace.connections, 0u) << scenario.name;
    EXPECT_EQ(with_trace.connections, with_trace.video_trace().connection_count())
        << scenario.name;
    EXPECT_EQ(lean.connections, with_trace.connections) << scenario.name;
  }
}

TEST(StreamingReportTest, SessionStreamingReportMatchesPostHocStreaming) {
  // The sink-fed in-session builder and a post-hoc builder over the stored
  // video trace see the same records in the same order.
  auto cfg = streaming::canonical_scenarios(20.0).front().config;
  cfg.streaming_report = true;
  const auto result = streaming::run_session(cfg);
  ASSERT_TRUE(result.report.has_value());
  EXPECT_EQ(*result.report, stream_over(result.trace));
}

// ---- randomized synthetic traces ----------------------------------------

capture::PacketRecord rec(double t, net::Direction dir, std::uint64_t conn,
                          std::uint32_t payload, net::TcpFlag flags, bool retx,
                          std::uint64_t window) {
  capture::PacketRecord r;
  r.t_s = t;
  r.direction = dir;
  r.host = 0;
  r.connection_id = conn;
  r.payload_bytes = payload;
  r.flags = flags;
  r.is_retransmission = retx;
  r.window_bytes = window;
  return r;
}

/// Randomized but deterministic-per-seed session trace with the edge cases
/// the accumulators must get right: multiple connections with staggered
/// handshakes, timestamp ties, retransmissions, zero-window probe episodes,
/// and ON/OFF gaps straddling the 0.15 s threshold.
capture::PacketTrace random_trace(std::uint64_t seed) {
  sim::Rng rng{seed};
  capture::PacketTrace trace;
  trace.label = "random-" + std::to_string(seed);
  trace.encoding_bps = rng.uniform(0.8e6, 2.5e6);

  const auto conns = static_cast<std::uint64_t>(rng.uniform_int(1, 3));
  double t = 0.0;
  for (std::uint64_t c = 0; c < conns; ++c) {  // staggered handshakes first
    const double rtt = rng.uniform(0.01, 0.08);
    trace.packets.push_back(rec(t, net::Direction::kUp, c, 0, net::TcpFlag::kSyn, false, 65536));
    trace.packets.push_back(rec(t + rtt / 2, net::Direction::kDown, c, 0,
                                net::TcpFlag::kSyn | net::TcpFlag::kAck, false, 65536));
    trace.packets.push_back(
        rec(t + rtt, net::Direction::kUp, c, 0, net::TcpFlag::kAck, false, 65536));
    t += rtt + rng.uniform(0.005, 0.02);
  }

  const double horizon = rng.uniform(20.0, 40.0);
  std::uint64_t seq = 1;
  while (t < horizon) {
    // OFF gap: sometimes below the 0.15 s threshold (same ON period),
    // sometimes well above (new cycle).
    t += rng.bernoulli(0.3) ? rng.uniform(0.01, 0.12) : rng.uniform(0.2, 1.2);
    const auto conn = static_cast<std::uint64_t>(rng.uniform_int(0, static_cast<std::int64_t>(conns) - 1));
    const int block = static_cast<int>(rng.uniform_int(3, 50));
    for (int i = 0; i < block; ++i) {
      const bool retx = rng.bernoulli(0.06);
      trace.packets.push_back(rec(t, net::Direction::kDown, conn, 1448,
                                  net::TcpFlag::kAck | net::TcpFlag::kPsh, retx, 262144));
      seq += retx ? 0 : 1448;
      if (rng.bernoulli(0.3)) {
        // ACK at the exact same timestamp: a tie the binning and the ON/OFF
        // state machine must order identically in both pipelines.
        trace.packets.push_back(
            rec(t, net::Direction::kUp, conn, 0, net::TcpFlag::kAck, false, 262144));
      }
      t += rng.uniform(0.0005, 0.004);
    }
    if (rng.bernoulli(0.25)) {
      // Zero-window episode: advertisement closes, server probes with tiny
      // (sub-64-byte) payloads, window reopens.
      trace.packets.push_back(
          rec(t, net::Direction::kUp, conn, 0, net::TcpFlag::kAck, false, 0));
      const int probes = static_cast<int>(rng.uniform_int(1, 4));
      for (int i = 0; i < probes; ++i) {
        t += rng.uniform(0.05, 0.3);
        trace.packets.push_back(rec(t, net::Direction::kDown, conn, 1,
                                    net::TcpFlag::kAck, false, 262144));
        trace.packets.push_back(
            rec(t, net::Direction::kUp, conn, 0, net::TcpFlag::kAck, false, 0));
      }
      t += rng.uniform(0.02, 0.1);
      trace.packets.push_back(
          rec(t, net::Direction::kUp, conn, 0, net::TcpFlag::kAck, false, 262144));
    }
  }
  trace.duration_s = t;
  return trace;
}

TEST(StreamingReportTest, RandomizedTracesBatchIdentical) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const auto trace = random_trace(seed);
    bool stale = false;
    const auto streamed = stream_over(trace, {}, &stale);
    const auto batch = analysis::build_report(trace);
    EXPECT_EQ(streamed, batch) << "seed " << seed;
    EXPECT_EQ(analysis::to_json(streamed), analysis::to_json(batch)) << "seed " << seed;
    // Handshakes complete before steady state in these traces, so the
    // single-pass first-RTT windows are never built on a stale estimate.
    EXPECT_FALSE(stale) << "seed " << seed;
  }
}

TEST(StreamingReportTest, ExplicitOptionsFlowThrough) {
  const auto trace = random_trace(99);
  analysis::ReportOptions options;
  options.encoding_bps = 2.0e6;
  options.onoff.gap_threshold_s = 0.25;
  options.estimate_periodicity = false;
  const auto streamed = stream_over(trace, options);
  const auto batch = analysis::build_report(trace, options);
  EXPECT_EQ(streamed, batch);
  EXPECT_FALSE(streamed.cycle_period_s.has_value());
}

TEST(StreamingReportTest, EmptyStreamMatchesEmptyTrace) {
  const capture::PacketTrace empty;
  EXPECT_EQ(stream_over(empty), analysis::build_report(empty));
}

}  // namespace
}  // namespace vstream
