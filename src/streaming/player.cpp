#include "streaming/player.hpp"

#include <algorithm>
#include <stdexcept>

#include "check/contracts.hpp"
#include "obs/context.hpp"

namespace vstream::streaming {

Player::Player(sim::Simulator& sim, PlayerConfig config)
    : sim_{sim}, config_{config}, clock_{sim, config.tick, [this] { tick(); }} {
  if (config_.encoding_bps <= 0.0) throw std::invalid_argument{"Player: bad encoding rate"};
  if (config_.duration_s <= 0.0) throw std::invalid_argument{"Player: bad duration"};
  if (config_.watch_fraction.has_value() &&
      (*config_.watch_fraction <= 0.0 || *config_.watch_fraction > 1.0)) {
    throw std::invalid_argument{"Player: watch fraction outside (0,1]"};
  }
  phase_span_ = obs::open_span(sim_, obs::SpanCategory::kPlayer, "buffering");
  clock_.start();
}

double Player::buffered_playback_s() const {
  return static_cast<double>(stats_.buffered_bytes()) * 8.0 / config_.encoding_bps;
}

void Player::on_bytes_downloaded(std::uint64_t bytes) {
  stats_.downloaded_bytes += bytes;
  stats_.max_buffered_bytes = std::max(stats_.max_buffered_bytes, stats_.buffered_bytes());
  maybe_start();
}

void Player::maybe_start() {
  if (playing_ || done_) return;
  const double threshold_bytes = config_.start_threshold_s * config_.encoding_bps / 8.0;
  const bool whole_video = stats_.downloaded_bytes >=
                           static_cast<std::uint64_t>(config_.duration_s * config_.encoding_bps / 8.0);
  if (static_cast<double>(stats_.buffered_bytes()) >= threshold_bytes || whole_video) {
    playing_ = true;
    if (!stats_.started) {
      stats_.started = true;
      stats_.start_time_s = sim_.now().to_seconds();
      phase_span_.close("started");
    } else if (stall_started_s_ >= 0.0) {
      // Recovered from a mid-playback stall: one rebuffer episode.
      ++stats_.rebuffer_count;
      stats_.longest_stall_s =
          std::max(stats_.longest_stall_s, sim_.now().to_seconds() - stall_started_s_);
      phase_span_.close("recovered");
    }
    phase_span_ = obs::open_span(sim_, obs::SpanCategory::kPlayer, "steady");
    stall_started_s_ = -1.0;
  }
}

void Player::interrupt() {
  if (done_) return;
  done_ = true;
  playing_ = false;
  clock_.stop();
  stats_.interrupted = true;
  stats_.interrupted_at_s = sim_.now().to_seconds();
  phase_span_.close("interrupted");
  if (on_interrupt_) on_interrupt_();
}

void Player::tick() {
  if (done_) return;
  const double dt = config_.tick.to_seconds();
  if (!playing_) {
    // Rebuffering after a stall counts as stall time; the initial startup
    // wait does not.
    if (stats_.started) stats_.stall_time_s += dt;
    maybe_start();
    if (!playing_) return;
  }

  const auto want_bytes = static_cast<std::uint64_t>(config_.encoding_bps * dt / 8.0);
  const std::uint64_t have = stats_.buffered_bytes();

  if (have == 0 && stats_.watched_s < config_.duration_s) {
    // Stall: buffer ran dry mid-playback.
    ++stats_.stall_count;
    if (stall_started_s_ < 0.0) {
      stall_started_s_ = sim_.now().to_seconds();
      phase_span_.close("stalled");
      phase_span_ = obs::open_span(sim_, obs::SpanCategory::kPlayer, "stall",
                                   stats_.stall_count);
    }
    playing_ = false;  // re-enter via the startup threshold
    return;
  }

  const std::uint64_t eat = std::min(want_bytes, have);
  stats_.consumed_bytes += eat;
  stats_.watched_s += static_cast<double>(eat) * 8.0 / config_.encoding_bps;
  // The playback buffer is downloaded - consumed; consuming more than was
  // downloaded would make it (conceptually) negative.
  VSTREAM_INVARIANT(stats_.consumed_bytes <= stats_.downloaded_bytes,
                    "player consumed bytes it never downloaded — buffer went negative");
  VSTREAM_INVARIANT(stats_.watched_s <= config_.duration_s + config_.tick.to_seconds(),
                    "player watched past the end of the video");

  if (config_.watch_fraction.has_value() &&
      stats_.watched_s >= *config_.watch_fraction * config_.duration_s) {
    interrupt();
    return;
  }
  if (stats_.watched_s >= config_.duration_s - 1e-9) {
    done_ = true;
    playing_ = false;
    clock_.stop();
    stats_.finished = true;
    phase_span_.close("finished");
    if (on_finished_) on_finished_();
  }
}

}  // namespace vstream::streaming
