// Observability layer: metrics snapshots, trace bus/sinks, and the
// consistency contracts between live instrumentation, the components' own
// stats and the offline trace analysis (zero-window episodes in
// particular).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/onoff.hpp"
#include "analysis/report_json.hpp"
#include "capture/recorder.hpp"
#include "http/exchange.hpp"
#include "net/path.hpp"
#include "net/profile.hpp"
#include "obs/context.hpp"
#include "streaming/clients.hpp"
#include "streaming/scenarios.hpp"
#include "streaming/session_builder.hpp"
#include "streaming/video_server.hpp"
#include "tcp/connection.hpp"

namespace vstream::obs {
namespace {

using sim::SimTime;

// ---- metrics snapshot ----------------------------------------------------

TEST(ObsMetricsTest, HistogramBucketEdgesAreInclusiveUpperBounds) {
  FixedHistogram h{{10.0, 20.0}};
  h.observe(10.0);  // lands in [.., 10]
  h.observe(10.5);  // lands in (10, 20]
  h.observe(20.0);  // lands in (10, 20] — bound itself is included
  h.observe(20.1);  // overflow bucket
  ASSERT_EQ(h.counts().size(), 3u);
  EXPECT_EQ(h.counts()[0], 1u);
  EXPECT_EQ(h.counts()[1], 2u);
  EXPECT_EQ(h.counts()[2], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 10.0 + 10.5 + 20.0 + 20.1);
}

TEST(ObsMetricsTest, HistogramRejectsEmptyOrUnsortedBounds) {
  EXPECT_THROW(FixedHistogram{std::vector<double>{}}, std::invalid_argument);
  EXPECT_THROW((FixedHistogram{{5.0, 1.0}}), std::invalid_argument);
}

TEST(ObsMetricsTest, HistogramPercentilesInterpolateLinearly) {
  FixedHistogram h{{10.0, 20.0}};
  for (int i = 0; i < 4; ++i) h.observe(5.0);   // 4 in [0,10]
  for (int i = 0; i < 4; ++i) h.observe(15.0);  // 4 in (10,20]
  for (int i = 0; i < 2; ++i) h.observe(25.0);  // 2 overflow

  // p20: rank 2 lands in the first bucket, which interpolates from 0.
  EXPECT_DOUBLE_EQ(h.percentile(0.20), 5.0);
  // p50: rank 5 is 1/4 into the second bucket's 4 samples.
  EXPECT_DOUBLE_EQ(h.percentile(0.50), 12.5);
  // p90/p99: rank beyond the bounded buckets clamps to the last bound —
  // the overflow bucket has no upper edge to interpolate toward.
  EXPECT_DOUBLE_EQ(h.percentile(0.90), 20.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 20.0);
  // Out-of-range quantiles clamp instead of extrapolating.
  EXPECT_DOUBLE_EQ(h.percentile(1.5), 20.0);

  const FixedHistogram empty{{10.0}};
  EXPECT_DOUBLE_EQ(empty.percentile(0.5), 0.0);
}

TEST(ObsMetricsTest, SnapshotJsonCarriesPercentiles) {
  FixedHistogram h{{10.0, 20.0}};
  for (int i = 0; i < 4; ++i) h.observe(5.0);
  for (int i = 0; i < 4; ++i) h.observe(15.0);
  h.observe(25.0);
  h.observe(25.0);
  MetricsSnapshot snap;
  snap.histograms.emplace("lat", h);

  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"p50\":12.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p90\":20"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99\":20"), std::string::npos) << json;
}

TEST(ObsMetricsTest, MergeRejectsMismatchedHistogramBounds) {
  const auto one_sample = [](std::vector<double> bounds, double v) {
    FixedHistogram h{std::move(bounds)};
    h.observe(v);
    MetricsSnapshot snap;
    snap.histograms.emplace("h", h);
    return snap;
  };
  MetricsSnapshot merged = one_sample({1.0, 2.0}, 0.5);
  EXPECT_THROW(merged.merge_from(one_sample({1.0, 4.0}, 0.5)), std::invalid_argument);

  // Same name, same bounds: merge is fine and buckets add.
  merged.merge_from(one_sample({1.0, 2.0}, 1.5));
  EXPECT_EQ(merged.histograms.at("h").count(), 2u);
}

TEST(ObsMetricsTest, SnapshotJsonMatchesGolden) {
  MetricsSnapshot snap;
  snap.counters["tcp.segments_sent"] = 1234;
  snap.counters["net.drops_queue"] = 7;
  snap.counters["odd \"name\"\n"] = 1;  // names go through the shared escaper
  snap.gauges["net.queue_high_water_bytes"] = 65536.0;
  snap.gauges["sim.sim_wall_ratio"] = 0.1;
  FixedHistogram h{{1024.0, 65536.0}};
  h.observe(800.0);
  h.observe(65536.0);
  h.observe(1e6);
  snap.histograms.emplace("server.block_bytes", h);

  // Byte-exact: names sorted, gauges and histogram sums as %.17g, the
  // percentiles derived from the buckets (p50 halfway into the second
  // bucket; p90/p99 clamp to the last bound).
  const std::string expected =
      "{\"counters\":{\"net.drops_queue\":7,\"odd \\\"name\\\"\\n\":1,"
      "\"tcp.segments_sent\":1234},"
      "\"gauges\":{\"net.queue_high_water_bytes\":65536,"
      "\"sim.sim_wall_ratio\":0.10000000000000001},"
      "\"histograms\":{\"server.block_bytes\":{\"bounds\":[1024,65536],\"counts\":[1,1,1],"
      "\"count\":3,\"sum\":1066336,\"p50\":33280,\"p90\":65536,\"p99\":65536}}}";
  EXPECT_EQ(snap.to_json(), expected);
}

TEST(ObsMetricsTest, MergeAddsCountersAndKeepsGaugeMaxima) {
  MetricsSnapshot a;
  a.counters["c"] = 3;
  a.gauges["g"] = 10.0;
  FixedHistogram ha{{1.0}};
  ha.observe(0.5);
  a.histograms.emplace("h", ha);
  MetricsSnapshot b;
  b.counters["c"] = 4;
  b.counters["only_b"] = 1;
  b.gauges["g"] = 2.0;
  FixedHistogram hb{{1.0}};
  hb.observe(5.0);
  b.histograms.emplace("h", hb);

  MetricsSnapshot merged = a;
  merged.merge_from(b);
  EXPECT_EQ(merged.counters.at("c"), 7u);
  EXPECT_EQ(merged.counters.at("only_b"), 1u);
  EXPECT_DOUBLE_EQ(merged.gauges.at("g"), 10.0);
  EXPECT_EQ(merged.histograms.at("h").counts(), (std::vector<std::uint64_t>{1, 1}));
  EXPECT_EQ(merged.histograms.at("h").count(), 2u);
}

TEST(ObsMetricsTest, ReportJsonEmbedsSnapshot) {
  analysis::SessionReport report;
  report.label = "obs";
  MetricsSnapshot snap;
  snap.counters["tcp.segments_retransmitted"] = 42;

  const std::string with = analysis::to_json(report, snap);
  EXPECT_NE(with.find("\"metrics\":{"), std::string::npos);
  EXPECT_NE(with.find("\"tcp.segments_retransmitted\":42"), std::string::npos);
  // An empty snapshot leaves the plain report unchanged.
  EXPECT_EQ(analysis::to_json(report, MetricsSnapshot{}), analysis::to_json(report));
}

// ---- trace bus and sinks -------------------------------------------------

TEST(ObsTraceTest, BusWithoutSinksIsInactiveAndEmitIsNoOp) {
  TraceBus bus;
  EXPECT_FALSE(bus.active());
  bus.emit(PacingBlockEmitted{1.0, 1, 65536, false});
  EXPECT_EQ(bus.events_emitted(), 0u);

  RingBufferSink sink{4};
  bus.attach(&sink);
  EXPECT_TRUE(bus.active());
  bus.emit(PacingBlockEmitted{2.0, 1, 65536, false});
  EXPECT_EQ(bus.events_emitted(), 1u);
  bus.detach(&sink);
  EXPECT_FALSE(bus.active());
}

TEST(ObsTraceTest, RingBufferKeepsMostRecentEvents) {
  TraceBus bus;
  RingBufferSink sink{3};
  bus.attach(&sink);
  for (int i = 1; i <= 5; ++i) {
    bus.emit(PacingBlockEmitted{static_cast<double>(i), 1, static_cast<std::uint64_t>(i), false});
  }
  EXPECT_EQ(sink.total_seen(), 5u);
  ASSERT_EQ(sink.events().size(), 3u);
  const auto blocks = sink.collect<PacingBlockEmitted>();
  ASSERT_EQ(blocks.size(), 3u);
  EXPECT_EQ(blocks.front().bytes, 3u);
  EXPECT_EQ(blocks.back().bytes, 5u);
}

TEST(ObsTraceTest, JsonlSinkLinesParseBackFieldByField) {
  const std::string path = ::testing::TempDir() + "obs_jsonl_sink_test.jsonl";
  {
    TraceBus bus;
    JsonlFileSink sink{path};
    ASSERT_TRUE(sink.ok());
    bus.attach(&sink);

    TcpCwndSample cwnd;
    cwnd.t_s = 1.25;
    cwnd.connection_id = 7;
    cwnd.endpoint = "server#7";
    cwnd.cwnd = 14600;
    cwnd.ssthresh = 65535;
    cwnd.rwnd = 0;
    cwnd.rto_s = 0.2;
    cwnd.bytes_in_flight = 2920;
    bus.emit(cwnd);
    bus.emit(PacingBlockEmitted{2.0, 7, 65536, false});
    SpanRecord zero_window;
    zero_window.t_begin_s = 2.75;
    zero_window.t_end_s = 3.5;
    zero_window.span_id = 4;
    zero_window.id = 7;
    zero_window.category = "tcp";
    zero_window.name = "zero_window";
    zero_window.detail = "client#7";
    bus.emit(zero_window);
    EXPECT_EQ(sink.lines_written(), 3u);
  }

  std::ifstream in{path};
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);

  EXPECT_EQ(jsonl_string(lines[0], "type"), "tcp_cwnd");
  EXPECT_EQ(jsonl_string(lines[0], "endpoint"), "server#7");
  EXPECT_EQ(jsonl_number(lines[0], "t"), 1.25);
  EXPECT_EQ(jsonl_number(lines[0], "conn"), 7.0);
  EXPECT_EQ(jsonl_number(lines[0], "cwnd"), 14600.0);
  EXPECT_EQ(jsonl_number(lines[0], "rwnd"), 0.0);
  EXPECT_EQ(jsonl_number(lines[0], "in_flight"), 2920.0);

  EXPECT_EQ(jsonl_string(lines[1], "type"), "pacing_block");
  EXPECT_EQ(jsonl_number(lines[1], "bytes"), 65536.0);

  EXPECT_EQ(jsonl_string(lines[2], "type"), "span");
  EXPECT_EQ(jsonl_string(lines[2], "name"), "zero_window");
  EXPECT_EQ(jsonl_string(lines[2], "detail"), "client#7");
  EXPECT_EQ(jsonl_number(lines[2], "begin_s"), 2.75);
  EXPECT_EQ(jsonl_number(lines[2], "t"), 3.5);
  EXPECT_EQ(jsonl_number(lines[2], "id"), 7.0);
  EXPECT_EQ(jsonl_number(lines[2], "missing_key"), std::nullopt);
  std::remove(path.c_str());
}

// ---- live instrumentation vs. offline analysis ---------------------------

// A small observed world: research network with loss disabled, one TCP
// connection, bulk server, pull-throttling client (the IE read policy that
// produces the rwnd-zero signature of Fig 2b).
struct ObservedWire {
  ObservedWire() : rng{3} {
    sim.set_obs(&obs);
    auto profile = net::profile_for(net::Vantage::kResearch);
    profile.loss_rate = 0.0;
    path = std::make_unique<net::Path>(sim, profile, rng);
    fabric = std::make_unique<tcp::Fabric>(sim, *path);
    recorder = std::make_unique<capture::TraceRecorder>(*path);
    recorder->start();
  }

  sim::Simulator sim;
  obs::ObsContext obs;
  sim::Rng rng;
  std::unique_ptr<net::Path> path;
  std::unique_ptr<tcp::Fabric> fabric;
  std::unique_ptr<capture::TraceRecorder> recorder;
};

video::VideoMeta throttle_video() {
  video::VideoMeta v;
  v.id = "obs";
  v.duration_s = 600.0;
  v.encoding_bps = 2e6;
  v.container = video::Container::kHtml5;
  return v;
}

streaming::PullThrottleClient::Config ie_throttle() {
  streaming::PullThrottleClient::Config cfg;
  cfg.buffering_target_bytes = 4 * 1024 * 1024;
  cfg.pull_quantum_bytes = 256 * 1024;
  cfg.accumulation_ratio = 1.06;
  cfg.encoding_bps = 2e6;
  return cfg;
}

TEST(ObsIntegrationTest, TcpStatsZeroWindowEpisodesMatchTraceAnalysis) {
  ObservedWire w;
  tcp::TcpOptions client_tcp;
  client_tcp.recv_buffer_bytes = 256 * 1024;
  auto& conn = w.fabric->create_connection(client_tcp, {});
  streaming::VideoStreamServer server{w.sim, conn.server(), throttle_video(),
                                      streaming::ServerPacing::bulk()};
  streaming::PullThrottleClient client{w.sim, conn.client(), ie_throttle(), {}};
  conn.client().set_on_established([&] {
    http::HttpClient http{conn.client()};
    http.send_request(http::make_video_request("obs"));
  });
  conn.open();
  w.sim.run_until(SimTime::from_seconds(120.0));

  const auto trace = w.recorder->take();
  const std::size_t from_trace = analysis::count_zero_window_episodes(trace);
  const auto& stats = conn.client().stats();

  // The throttling client must actually have closed its window.
  ASSERT_GT(from_trace, 0u);
  // Endpoint-side live stats and offline trace analysis agree on a
  // loss-free path (every transmitted segment is captured).
  EXPECT_EQ(stats.zero_window_episodes, from_trace);
  EXPECT_GT(stats.zero_window_total_s, 0.0);
}

TEST(ObsIntegrationTest, NoSinkProbesStillMaintainCounters) {
  ObservedWire w;  // obs attached, but no trace sink
  auto& conn = w.fabric->create_connection({}, {});
  streaming::VideoStreamServer server{w.sim, conn.server(), throttle_video(),
                                      streaming::ServerPacing::bulk()};
  streaming::GreedyClient client{conn.client(), {}};
  conn.client().set_on_established([&] {
    http::HttpClient http{conn.client()};
    http.send_request(http::make_video_request("obs"));
  });
  conn.open();
  w.sim.run_until(SimTime::from_seconds(20.0));

  EXPECT_GT(client.bytes_read(), 0u);
  EXPECT_GT(conn.server().stats().segments_sent, 0u);
  EXPECT_GT(w.path->down().counters().delivered, 0u);
  // No sink was ever attached: the bus never dispatched a single event.
  EXPECT_FALSE(w.obs.trace().active());
  EXPECT_EQ(w.obs.trace().events_emitted(), 0u);
}

// ---- session snapshot vs. the components' own stats ---------------------

/// Tallies what a session puts on its trace bus that its snapshot counts
/// too: paced blocks, loop samples and the spans the capture cutoff closed.
struct BusTally final : TraceSink {
  void on_event(const TraceEvent& event) override {
    if (const auto* block = std::get_if<PacingBlockEmitted>(&event)) {
      if (block->initial_burst) {
        ++initial_bursts;
      } else {
        ++paced_blocks;
        paced_bytes += block->bytes;
      }
    } else if (std::holds_alternative<SimLoopSample>(event)) {
      ++loop_samples;
    } else if (const auto* span = std::get_if<SpanRecord>(&event)) {
      if (span->detail == "capture_end") ++truncated;
    }
  }

  std::uint64_t initial_bursts{0};
  std::uint64_t paced_blocks{0};
  std::uint64_t paced_bytes{0};
  std::uint64_t loop_samples{0};
  std::uint64_t truncated{0};
};

std::vector<streaming::NamedScenario> every_scenario(double capture_s) {
  auto all = streaming::canonical_scenarios(capture_s);
  for (auto& s : streaming::fault_scenarios(capture_s)) all.push_back(std::move(s));
  return all;
}

TEST(SessionMetricsTest, SnapshotCountsEqualComponentStats) {
  for (auto& [name, cfg] : every_scenario(60.0)) {
    SCOPED_TRACE(name);
    BusTally bus;
    cfg.trace_sink = &bus;
    cfg.keep_full_trace = true;  // capture.trace_bytes covers every host
    const auto r = streaming::run_session(cfg);
    const auto& c = r.metrics.counters;
    const auto& g = r.metrics.gauges;
    const auto count_of = [&c](const char* key) {
      const auto it = c.find(key);
      return it == c.end() ? std::uint64_t{0} : it->second;
    };

    EXPECT_EQ(c.at("player.stalls"), r.player.stall_count);
    EXPECT_EQ(c.at("player.rebuffers"), r.resilience.rebuffer_count);
    EXPECT_EQ(c.at("player.interrupts"), r.player.interrupted ? 1u : 0u);
    EXPECT_EQ(count_of("fetch.retries"), r.resilience.fetch_retries);
    EXPECT_EQ(count_of("fetch.timeouts"), r.resilience.fetch_timeouts);
    EXPECT_EQ(c.at("net.drops_fault"), r.resilience.fault_drops);
    EXPECT_EQ(c.at("net.fault_windows"), r.resilience.fault_windows);
    EXPECT_GT(c.at("tcp.segments_sent"), 0u);

    // Server counts appear only once a block of their kind went out.
    EXPECT_EQ(c.count("server.initial_bursts"), bus.initial_bursts > 0 ? 1u : 0u);
    EXPECT_EQ(c.count("server.paced_blocks"), bus.paced_blocks > 0 ? 1u : 0u);
    EXPECT_EQ(count_of("server.initial_bursts"), bus.initial_bursts);
    EXPECT_EQ(count_of("server.paced_blocks"), bus.paced_blocks);
    if (bus.paced_blocks > 0) {
      const auto& blocks = r.metrics.histograms.at("server.block_bytes");
      EXPECT_EQ(blocks.count(), bus.paced_blocks);
      EXPECT_DOUBLE_EQ(blocks.sum(), static_cast<double>(bus.paced_bytes));
    } else {
      EXPECT_EQ(r.metrics.histograms.count("server.block_bytes"), 0u);
    }

    EXPECT_EQ(c.at("sim.loop_samples"), bus.loop_samples);
    EXPECT_LE(g.at("sim.events_pending_high_water"),
              static_cast<double>(r.sim_max_events_pending));
    EXPECT_DOUBLE_EQ(g.at("capture.trace_bytes"),
                     static_cast<double>(r.trace.packets.size() * sizeof(capture::PacketRecord)));
    EXPECT_DOUBLE_EQ(g.at("obs.spans_truncated"), static_cast<double>(bus.truncated));
  }
}

TEST(SessionMetricsTest, UntracedSnapshotHasNoTruncatedSpanGauge) {
  auto cfg = streaming::canonical_scenarios(5.0).front().config;
  const auto r = streaming::run_session(cfg);
  EXPECT_EQ(r.metrics.gauges.count("obs.spans_truncated"), 0u);
  EXPECT_EQ(r.metrics.counters.at("sim.loop_samples"), 5u);
}

// The capture analysis reads one window signal off the whole trace, so the
// comparison holds where the video is the only traffic on the path.
TEST(SessionMetricsTest, ZeroWindowEpisodesMatchTheCaptureOnALossFreePath) {
  std::uint64_t total = 0;
  for (auto& [name, cfg] : streaming::canonical_scenarios(60.0)) {
    SCOPED_TRACE(name);
    cfg.network.loss_rate = 0.0;
    cfg.auxiliary_traffic = false;
    const auto r = streaming::run_session(cfg);
    const std::uint64_t episodes = r.metrics.counters.at("tcp.zero_window_episodes");
    EXPECT_EQ(episodes, analysis::count_zero_window_episodes(r.trace));
    total += episodes;
  }
  EXPECT_GT(total, 0u) << "the pull-throttling clients close their windows";
}

// ---- acceptance: JSONL cwnd trace reconstructs the rwnd signal -----------

TEST(ObsIntegrationTest, CwndJsonlTraceReconstructsZeroWindowEpisodes) {
  const std::string path = ::testing::TempDir() + "obs_cwnd_roundtrip.jsonl";
  auto network = net::profile_for(net::Vantage::kResearch);
  network.loss_rate = 0.0;  // lossless: wire order == receive order
  video::VideoMeta meta;
  meta.id = "rt";
  meta.duration_s = 600.0;
  meta.encoding_bps = 2e6;
  meta.container = video::Container::kHtml5;
  auto cfg = streaming::SessionBuilder{}
                 .service(streaming::Service::kYouTube)
                 .container(video::Container::kHtml5)
                 .application(streaming::Application::kInternetExplorer)
                 .network(network)
                 .bandwidth_jitter(0.0)
                 .auxiliary_traffic(false)
                 .video(meta)
                 .capture_duration_s(120.0)
                 .seed(17)
                 .build();

  std::size_t expected = 0;
  {
    JsonlFileSink sink{path};
    cfg.trace_sink = &sink;
    const auto result = streaming::run_session(cfg);
    expected = analysis::count_zero_window_episodes(result.trace);
    ASSERT_GT(expected, 0u) << "IE pull throttling should close the window";
    EXPECT_EQ(result.metrics.counters.at("tcp.zero_window_episodes"), expected);
    EXPECT_GT(result.sim_events, 0u);
    EXPECT_GT(result.sim_max_events_pending, 0u);
  }

  // Replay the JSONL trace two ways.
  //  - Client-side samples carry the client's own advertised window
  //    (`adv_wnd`) and are emitted at transmit time, exactly when the
  //    captured segment leaves: the reconstruction is exact.
  //  - Server-side samples carry the peer's window (`rwnd`) as received:
  //    identical except for a final segment still in flight at the
  //    capture cutoff, so it may lag by at most one episode.
  std::ifstream in{path};
  ASSERT_TRUE(in.good());
  std::size_t from_client = 0;
  std::size_t from_server = 0;
  bool client_at_zero = false;
  bool server_at_zero = false;
  bool saw_sample = false;
  for (std::string line; std::getline(in, line);) {
    if (jsonl_string(line, "type") != "tcp_cwnd") continue;
    const auto endpoint = jsonl_string(line, "endpoint");
    ASSERT_TRUE(endpoint.has_value());
    saw_sample = true;
    if (endpoint->rfind("client#", 0) == 0) {
      const auto adv = jsonl_number(line, "adv_wnd");
      ASSERT_TRUE(adv.has_value());
      if (*adv == 0.0) {
        if (!client_at_zero) {
          ++from_client;
          client_at_zero = true;
        }
      } else {
        client_at_zero = false;
      }
    } else if (endpoint->rfind("server#", 0) == 0) {
      const auto rwnd = jsonl_number(line, "rwnd");
      ASSERT_TRUE(rwnd.has_value());
      if (*rwnd == 0.0) {
        if (!server_at_zero) {
          ++from_server;
          server_at_zero = true;
        }
      } else {
        server_at_zero = false;
      }
    }
  }
  EXPECT_TRUE(saw_sample);
  EXPECT_EQ(from_client, expected);
  EXPECT_GE(from_server + 1, expected);
  EXPECT_LE(from_server, expected);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vstream::obs
