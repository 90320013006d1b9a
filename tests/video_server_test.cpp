// Focused tests for the video server's pacing machinery and HTTP edge
// cases not covered by the integration suites: multiple paced responses on
// one connection, pacer shutdown, burst clamping for short videos, and the
// responder lifecycle under stop().
#include <gtest/gtest.h>

#include "analysis/onoff.hpp"
#include "capture/recorder.hpp"
#include "http/exchange.hpp"
#include "net/path.hpp"
#include "net/profile.hpp"
#include "streaming/clients.hpp"
#include "streaming/video_server.hpp"
#include "tcp/connection.hpp"

namespace vstream::streaming {
namespace {

using sim::SimTime;

struct Wire {
  Wire() : rng{3}, path{sim, profile(), rng}, fabric{sim, path} {}
  static net::NetworkProfile profile() {
    auto p = net::profile_for(net::Vantage::kResearch);
    p.loss_rate = 0.0;
    return p;
  }
  sim::Simulator sim;
  sim::Rng rng;
  net::Path path;
  tcp::Fabric fabric;
};

video::VideoMeta make_video(double duration_s, double rate_bps) {
  video::VideoMeta v;
  v.id = "vs";
  v.duration_s = duration_s;
  v.encoding_bps = rate_bps;
  v.container = video::Container::kFlash;
  return v;
}

TEST(VideoServerTest, ShortVideoBurstClampedToVideoSize) {
  // A 20 s video is smaller than the 40 s burst: everything goes out in
  // the buffering phase, no steady state (the Eq (7) "short video" case).
  Wire w;
  auto& conn = w.fabric.create_connection({}, {});
  const auto video = make_video(20.0, 1e6);  // 2.5 MB
  VideoStreamServer server{w.sim, conn.server(), video, ServerPacing::youtube_flash()};
  GreedyClient client{conn.client(), {}};
  conn.client().set_on_established([&] {
    http::HttpClient http{conn.client()};
    http.send_request(http::make_video_request("vs"));
  });
  conn.open();
  w.sim.run_until(SimTime::from_seconds(30.0));
  EXPECT_NEAR(static_cast<double>(client.bytes_read()), video.size_bytes(), 400.0);
}

TEST(VideoServerTest, PacedTransferCompletesEntireVideo) {
  // The pacer must stop itself at end-of-video, having served everything.
  Wire w;
  auto& conn = w.fabric.create_connection({}, {});
  const auto video = make_video(60.0, 1e6);  // 7.5 MB: 40 s burst + 20 s paced
  VideoStreamServer server{w.sim, conn.server(), video, ServerPacing::youtube_flash()};
  GreedyClient client{conn.client(), {}};
  conn.client().set_on_established([&] {
    http::HttpClient http{conn.client()};
    http.send_request(http::make_video_request("vs"));
  });
  conn.open();
  w.sim.run_until(SimTime::from_seconds(120.0));
  EXPECT_NEAR(static_cast<double>(client.bytes_read()), video.size_bytes(), 400.0);
}

TEST(VideoServerTest, StopHaltsPacing) {
  Wire w;
  auto& conn = w.fabric.create_connection({}, {});
  const auto video = make_video(600.0, 1e6);
  VideoStreamServer server{w.sim, conn.server(), video, ServerPacing::youtube_flash()};
  GreedyClient client{conn.client(), {}};
  conn.client().set_on_established([&] {
    http::HttpClient http{conn.client()};
    http.send_request(http::make_video_request("vs"));
  });
  conn.open();
  w.sim.run_until(SimTime::from_seconds(10.0));
  server.stop();
  const auto read_at_stop = client.bytes_read();
  w.sim.run_until(SimTime::from_seconds(40.0));
  // Nothing beyond in-flight data after stop (allow one block of slack).
  EXPECT_LE(client.bytes_read(), read_at_stop + 128 * 1024);
}

TEST(VideoServerTest, TwoSequentialRequestsEachPaced) {
  // A client re-requesting (e.g. a seek) gets a second paced response on
  // the same connection; both complete.
  Wire w;
  auto& conn = w.fabric.create_connection({}, {});
  const auto video = make_video(45.0, 1e6);  // 5.6 MB each
  VideoStreamServer server{w.sim, conn.server(), video, ServerPacing::youtube_flash()};
  GreedyClient client{conn.client(), {}};
  conn.client().set_on_established([&] {
    http::HttpClient http{conn.client()};
    http.send_request(http::make_video_request("vs"));
  });
  conn.open();
  w.sim.run_until(SimTime::from_seconds(60.0));
  const auto after_first = client.bytes_read();
  EXPECT_NEAR(static_cast<double>(after_first), video.size_bytes(), 400.0);
  {
    http::HttpClient http{conn.client()};
    http.send_request(http::make_video_request("vs"));
  }
  w.sim.run_until(SimTime::from_seconds(140.0));
  EXPECT_NEAR(static_cast<double>(client.bytes_read()),
              2.0 * static_cast<double>(video.size_bytes()), 800.0);
  EXPECT_EQ(server.requests_served(), 2U);
}

TEST(VideoServerTest, RangedPacedResponseServesOnlyRangeAtPacedRate) {
  Wire w;
  capture::TraceRecorder recorder{w.path};
  recorder.start();
  tcp::TcpOptions copt;
  copt.recv_buffer_bytes = 512 * 1024;
  auto& conn = w.fabric.create_connection(copt, {});
  const auto video = make_video(600.0, 1e6);
  auto pacing = ServerPacing::youtube_flash();
  pacing.initial_burst_playback_s = 5.0;
  VideoStreamServer server{w.sim, conn.server(), video, pacing};
  GreedyClient client{conn.client(), {}};
  conn.client().set_on_established([&] {
    http::HttpClient http{conn.client()};
    http.send_request(http::make_video_request("vs", http::ByteRange{0, 3'999'999}));
  });
  conn.open();
  w.sim.run_until(SimTime::from_seconds(60.0));
  // 4 MB range: 0.625 MB burst + blocks at 1.25 Mbps => done in ~22 s.
  EXPECT_NEAR(static_cast<double>(client.bytes_read()), 4e6, 500.0);
  const auto analysis = analysis::analyze_on_off(recorder.trace());
  ASSERT_TRUE(analysis.has_steady_state());
  EXPECT_NEAR(analysis.median_block_bytes(), 64.0 * 1024, 3000.0);
}

TEST(VideoServerTest, ZeroLengthVideoYieldsEmptyResponse) {
  Wire w;
  auto& conn = w.fabric.create_connection({}, {});
  auto video = make_video(600.0, 1e6);
  video.encoding_bps = 1.0;  // ~75 bytes total
  video.duration_s = 0.001;
  VideoStreamServer server{w.sim, conn.server(), video, ServerPacing::bulk()};
  GreedyClient client{conn.client(), {}};
  conn.client().set_on_established([&] {
    http::HttpClient http{conn.client()};
    http.send_request(http::make_video_request("vs"));
  });
  conn.open();
  w.sim.run_until(SimTime::from_seconds(5.0));
  ASSERT_EQ(client.responses().size(), 1U);
  EXPECT_EQ(client.responses()[0].content_length, 0U);
}

}  // namespace
}  // namespace vstream::streaming
