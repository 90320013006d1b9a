// Complexity guards for the report analyses. `first_rtt_bytes` and
// `build_report` must walk the trace a constant number of times, however
// many ON periods it holds: the first trace below has 10^5 qualifying ON
// periods over ~10^6 records; one pass over it takes well under a second,
// while a rescan per ON period visits ~5 x 10^10 records. The handshake RTT
// estimate must not scan every earlier SYN per SYN-ACK: the second trace
// has 3 x 10^5 connections. Both run under a ctest TIMEOUT
// (tests/CMakeLists.txt) that only near-linear work meets.
#include <gtest/gtest.h>

#include "analysis/ack_clock.hpp"
#include "analysis/onoff.hpp"
#include "analysis/report.hpp"

namespace vstream::analysis {
namespace {

constexpr std::size_t kCycles = 100'000;
constexpr int kBlockPackets = 10;
constexpr std::uint32_t kPayload = 1448;
constexpr double kRtt = 0.05;

capture::PacketRecord record(double t, net::Direction dir, std::uint32_t payload,
                             net::TcpFlag flags, std::uint64_t conn = 1) {
  capture::PacketRecord r;
  r.t_s = t;
  r.direction = dir;
  r.connection_id = conn;
  r.payload_bytes = payload;
  r.flags = flags;
  return r;
}

/// Handshake, a buffering block, then `kCycles` blocks of `kBlockPackets`
/// packets 1 ms apart behind 0.2 s OFF gaps: every block fits inside its
/// 50 ms first-RTT window.
capture::PacketTrace many_cycles_trace() {
  capture::PacketTrace trace;
  trace.packets.reserve(2 + (kCycles + 1) * kBlockPackets);
  trace.packets.push_back(record(0.0, net::Direction::kUp, 0, net::TcpFlag::kSyn));
  trace.packets.push_back(
      record(kRtt, net::Direction::kDown, 0, net::TcpFlag::kSyn | net::TcpFlag::kAck));
  double t = kRtt;
  for (std::size_t c = 0; c <= kCycles; ++c) {
    t += 0.2;
    for (int i = 0; i < kBlockPackets; ++i) {
      trace.packets.push_back(record(t, net::Direction::kDown, kPayload, net::TcpFlag::kAck));
      t += 0.001;
    }
  }
  trace.duration_s = t;
  return trace;
}

TEST(AnalysisComplexityTest, FirstRttWindowsAreOnePass) {
  const auto trace = many_cycles_trace();
  const auto a = analyze_on_off(trace);
  ASSERT_EQ(a.on_periods.size(), kCycles + 1);

  const auto samples = first_rtt_bytes(trace, a);
  ASSERT_EQ(samples.size(), kCycles);
  for (const double s : samples) ASSERT_EQ(s, kBlockPackets * kPayload);

  // The autocorrelation estimate costs O(bins x lags) on a 6-hour trace;
  // it is not what this test measures.
  ReportOptions options;
  options.estimate_periodicity = false;
  const auto report = build_report(trace, options);
  ASSERT_TRUE(report.median_first_rtt_kb.has_value());
  EXPECT_EQ(*report.median_first_rtt_kb, kBlockPackets * kPayload / 1024.0);
}

TEST(AnalysisComplexityTest, HandshakeRttIsNearLinearInConnections) {
  // Connection 0 opens first but is answered last, so the estimate moves
  // back to it at the very end.
  constexpr std::uint64_t kConnections = 300'000;
  capture::PacketTrace trace;
  trace.packets.reserve(2 * kConnections);
  trace.packets.push_back(record(0.0, net::Direction::kUp, 0, net::TcpFlag::kSyn, 0));
  double t = 0.0;
  for (std::uint64_t c = 1; c < kConnections; ++c) {
    t += 0.001;
    trace.packets.push_back(record(t, net::Direction::kUp, 0, net::TcpFlag::kSyn, c));
    trace.packets.push_back(record(t + 0.02, net::Direction::kDown, 0,
                                   net::TcpFlag::kSyn | net::TcpFlag::kAck, c));
  }
  trace.packets.push_back(
      record(t + 1.0, net::Direction::kDown, 0, net::TcpFlag::kSyn | net::TcpFlag::kAck, 0));
  trace.duration_s = t + 1.0;

  const auto rtt = estimate_handshake_rtt(trace);
  ASSERT_TRUE(rtt.has_value());
  EXPECT_EQ(*rtt, t + 1.0);
  const auto report = build_report(trace);
  EXPECT_EQ(report.connections, kConnections);
  EXPECT_EQ(report.rtt_ms, (t + 1.0) * 1000.0);
}

}  // namespace
}  // namespace vstream::analysis
