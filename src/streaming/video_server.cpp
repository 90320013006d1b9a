#include "streaming/video_server.hpp"

#include <algorithm>

#include "check/contracts.hpp"
#include "obs/context.hpp"
#include "tcp/endpoint.hpp"

namespace vstream::streaming {

VideoStreamServer::VideoStreamServer(sim::Simulator& sim, tcp::Endpoint& endpoint,
                                     video::VideoMeta video, ServerPacing pacing)
    : sim_{sim}, conn_id_{endpoint.connection_id()}, video_{std::move(video)}, pacing_{pacing} {
  if (pacing_.mode == ServerPacing::Mode::kPacedBlocks) {
    VSTREAM_PRECONDITION(pacing_.block_bytes > 0, "paced discipline needs a positive block size");
    VSTREAM_PRECONDITION(pacing_.accumulation_ratio > 0.0,
                         "paced discipline needs a positive accumulation ratio");
    VSTREAM_PRECONDITION(pacing_.initial_burst_playback_s >= 0.0,
                         "initial burst length cannot be negative");
  }
  http_ = std::make_unique<http::HttpServer>(
      endpoint, [this](const http::HttpRequest& req, const http::HttpServer::MakeResponder& make) {
        handle(req, make);
      });
}

void VideoStreamServer::stop() {
  for (auto& p : pacers_) p->stop();
}

void VideoStreamServer::probe_block(std::uint64_t bytes, bool initial_burst) {
  if (initial_burst) {
    ++initial_bursts_;
  } else {
    block_bytes_.observe(static_cast<double>(bytes));
  }
  obs::ObsContext* obs = sim_.obs();
  if (obs != nullptr && obs->trace().active()) {
    obs::PacingBlockEmitted e;
    e.t_s = sim_.now().to_seconds();
    e.connection_id = conn_id_;
    e.bytes = bytes;
    e.initial_burst = initial_burst;
    obs->trace().emit(e);
  }
}

void VideoStreamServer::handle(const http::HttpRequest& request,
                               const http::HttpServer::MakeResponder& make) {
  const std::uint64_t full_size = video_.size_bytes();

  std::uint64_t body = full_size;
  http::HttpResponse head;
  head.status = 200;
  head.headers["Content-Type"] =
      video_.container == video::Container::kHtml5 ? "video/webm" : "video/x-flv";

  if (request.range.has_value()) {
    auto range = *request.range;
    range.end = std::min<std::uint64_t>(range.end, full_size == 0 ? 0 : full_size - 1);
    if (range.start > range.end) {
      auto responder = make(0);
      head.status = 416;
      head.content_length = 0;
      responder->send_head(head);
      return;
    }
    body = range.length();
    head.status = 206;
    head.content_range = range;
  }
  head.content_length = body;

  auto responder = make(body);
  responder->send_head(head);
  active_.push_back(responder);

  if (pacing_.mode == ServerPacing::Mode::kBulk) {
    responder->send_body(body);
    return;
  }

  // Paced discipline: initial burst, then one block per cycle.
  const auto burst = static_cast<std::uint64_t>(pacing_.initial_burst_playback_s *
                                                video_.encoding_bps / 8.0);
  responder->send_body(std::min(burst, body));
  probe_block(std::min(burst, body), /*initial_burst=*/true);
  if (responder->body_remaining() == 0) return;

  const double steady_rate_bps = pacing_.accumulation_ratio * video_.encoding_bps;
  const double cycle_s = static_cast<double>(pacing_.block_bytes) * 8.0 / steady_rate_bps;
  VSTREAM_INVARIANT(cycle_s > 0.0, "pacing cycle must be a positive interval");
  auto self = std::make_shared<sim::PeriodicTimer*>(nullptr);
  auto pacer = std::make_unique<sim::PeriodicTimer>(
      sim_, sim::Duration::seconds(cycle_s), [this, responder, self] {
        responder->send_body(pacing_.block_bytes);
        probe_block(pacing_.block_bytes, /*initial_burst=*/false);
        if (responder->body_remaining() == 0 && *self != nullptr) (*self)->stop();
      });
  *self = pacer.get();
  pacer->start();
  pacers_.push_back(std::move(pacer));
}

}  // namespace vstream::streaming
