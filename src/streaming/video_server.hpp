// Streaming-server pacing disciplines (Section 3 / 5.1).
//
// Two server behaviours cover everything the paper observed:
//   - Bulk: write the whole response as fast as TCP allows. Used for
//     Flash-HD, and for HTML5 video where the *client* does the throttling.
//   - PacedBlocks: push an initial burst worth `initial_burst_playback_s`
//     of playback, then one `block_bytes` block per cycle, the cycle sized
//     so the steady-state average rate is `accumulation_ratio` x encoding
//     rate. This is the YouTube Flash discipline (40 s burst, 64 kB
//     blocks, ratio 1.25).
#pragma once

#include <memory>
#include <vector>

#include "http/exchange.hpp"
#include "obs/metrics.hpp"
#include "sim/periodic_timer.hpp"
#include "video/metadata.hpp"

namespace vstream::streaming {

struct ServerPacing {
  enum class Mode : std::uint8_t { kBulk, kPacedBlocks };
  Mode mode{Mode::kBulk};
  double initial_burst_playback_s{40.0};
  std::uint64_t block_bytes{64 * 1024};
  double accumulation_ratio{1.25};

  [[nodiscard]] static ServerPacing bulk() { return ServerPacing{}; }
  [[nodiscard]] static ServerPacing youtube_flash() {
    return ServerPacing{Mode::kPacedBlocks, 40.0, 64 * 1024, 1.25};
  }
};

/// Serves one video over one server endpoint. Handles plain and ranged
/// GETs; the paced discipline applies per response.
class VideoStreamServer {
 public:
  VideoStreamServer(sim::Simulator& sim, tcp::Endpoint& endpoint, video::VideoMeta video,
                    ServerPacing pacing);

  [[nodiscard]] const video::VideoMeta& video() const { return video_; }
  [[nodiscard]] std::uint64_t requests_served() const { return http_->requests_served(); }

  /// Stop pacing timers (e.g. viewer interrupted).
  void stop();

  /// Paced discipline: initial bursts sent, and the size of every steady
  /// block after them (its count is the paced-block count). Both stay zero
  /// for a bulk server.
  [[nodiscard]] std::uint64_t initial_bursts() const { return initial_bursts_; }
  [[nodiscard]] const obs::FixedHistogram& block_bytes() const { return block_bytes_; }

 private:
  void handle(const http::HttpRequest& request, const http::HttpServer::MakeResponder& make);
  void probe_block(std::uint64_t bytes, bool initial_burst);

  sim::Simulator& sim_;
  std::uint64_t conn_id_{0};
  video::VideoMeta video_;
  ServerPacing pacing_;
  std::unique_ptr<http::HttpServer> http_;
  std::vector<std::unique_ptr<sim::PeriodicTimer>> pacers_;
  std::vector<std::shared_ptr<http::Responder>> active_;
  std::uint64_t initial_bursts_{0};
  obs::FixedHistogram block_bytes_{{16.0 * 1024, 64.0 * 1024, 256.0 * 1024, 1024.0 * 1024,
                                    2.5 * 1024 * 1024, 8.0 * 1024 * 1024}};
};

}  // namespace vstream::streaming
