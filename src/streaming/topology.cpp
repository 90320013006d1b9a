#include "streaming/topology.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numbers>
#include <stdexcept>

#include "check/digest.hpp"
#include "net/path.hpp"
#include "obs/context.hpp"
#include "sim/periodic_timer.hpp"
#include "streaming/session_instance.hpp"
#include "tcp/connection.hpp"

namespace vstream::streaming {

void ArrivalSchedule::validate() const {
  if (start_s < 0.0) {
    throw std::invalid_argument{"ArrivalSchedule: start must be non-negative"};
  }
  switch (kind) {
    case Kind::kImmediate:
      break;
    case Kind::kPoisson:
      if (rate_per_s <= 0.0) {
        throw std::invalid_argument{"ArrivalSchedule: Poisson rate must be positive"};
      }
      break;
    case Kind::kFlashCrowd:
      if (spread_s < 0.0) {
        throw std::invalid_argument{"ArrivalSchedule: flash-crowd spread must be non-negative"};
      }
      break;
    case Kind::kDiurnal:
      if (rate_per_s <= 0.0) {
        throw std::invalid_argument{"ArrivalSchedule: diurnal base rate must be positive"};
      }
      if (period_s <= 0.0) {
        throw std::invalid_argument{"ArrivalSchedule: diurnal period must be positive"};
      }
      if (depth < 0.0 || depth > 1.0) {
        throw std::invalid_argument{"ArrivalSchedule: diurnal depth outside [0,1]"};
      }
      break;
  }
}

std::vector<double> generate_arrivals(const ArrivalSchedule& schedule, std::size_t count,
                                      double horizon_s, sim::Rng& rng) {
  schedule.validate();
  std::vector<double> arrivals;
  switch (schedule.kind) {
    case ArrivalSchedule::Kind::kImmediate: {
      if (schedule.start_s <= horizon_s) arrivals.assign(count, schedule.start_s);
      break;
    }
    case ArrivalSchedule::Kind::kPoisson: {
      double t = schedule.start_s;
      while (arrivals.size() < count) {
        t += rng.exponential(schedule.rate_per_s);
        if (t > horizon_s) break;
        arrivals.push_back(t);
      }
      break;
    }
    case ArrivalSchedule::Kind::kFlashCrowd: {
      for (std::size_t i = 0; i < count; ++i) {
        const double t = schedule.start_s + rng.uniform(0.0, schedule.spread_s);
        if (t <= horizon_s) arrivals.push_back(t);
      }
      // Uniform draws land unordered; the world needs time-sorted arrivals.
      std::sort(arrivals.begin(), arrivals.end());
      break;
    }
    case ArrivalSchedule::Kind::kDiurnal: {
      // Thinning against the peak intensity keeps the process exact while
      // every draw still comes from the one tagged stream.
      const double peak = schedule.rate_per_s * (1.0 + schedule.depth);
      double t = schedule.start_s;
      while (arrivals.size() < count) {
        t += rng.exponential(peak);
        if (t > horizon_s) break;
        const double intensity =
            schedule.rate_per_s *
            (1.0 + schedule.depth * std::sin(2.0 * std::numbers::pi * t / schedule.period_s));
        if (rng.uniform(0.0, peak) <= intensity) arrivals.push_back(t);
      }
      break;
    }
  }
  return arrivals;
}

namespace {

/// SessionConfig::validate plus the rules of a shared world: the
/// private-path-only machinery is refused, each diagnostic naming the
/// topology-level replacement.
void validate_shared_world_session(const SessionConfig& cfg) {
  cfg.validate();
  if (cfg.bandwidth_jitter > 0.0) {
    throw std::invalid_argument{
        "SessionConfig: bandwidth_jitter is the private-path stand-in for shared-link "
        "contention and cannot compose with a topology attachment — the shared bottleneck "
        "produces the contention for real; set bandwidth_jitter(0) on the session template "
        "(TopologyBuilder's default)"};
  }
  if (cfg.store_trace || cfg.keep_full_trace || cfg.streaming_report) {
    throw std::invalid_argument{
        "SessionConfig: per-session capture and report machinery is private-path only — a "
        "topology world samples its shared bottleneck instead of recording per-session "
        "packets; disable store_trace/keep_full_trace/streaming_report on the session "
        "template (TopologyBuilder's default)"};
  }
  if (cfg.trace_sink != nullptr || cfg.digest != nullptr || cfg.arena != nullptr) {
    throw std::invalid_argument{
        "SessionConfig: trace sinks, digests and arenas are per-world attachments — in a "
        "topology they belong on TopologyConfig, not on the session template"};
  }
  if (!cfg.impairments.empty()) {
    throw std::invalid_argument{
        "SessionConfig: impairment windows are absolute world times, which a session "
        "arriving mid-run cannot honour — fault the shared link via "
        "TopologyConfig::bottleneck_impairments instead"};
  }
}

}  // namespace

void TopologyConfig::validate() const {
  if (sessions == 0) {
    throw std::invalid_argument{"TopologyConfig: at least one session required"};
  }
  if (horizon_s <= 0.0) {
    throw std::invalid_argument{"TopologyConfig: horizon must be positive"};
  }
  if (sample_window_s <= 0.0) {
    throw std::invalid_argument{"TopologyConfig: sample window must be positive"};
  }
  if (warmup_s < 0.0 || warmup_s >= horizon_s) {
    throw std::invalid_argument{"TopologyConfig: warmup must lie inside [0, horizon)"};
  }
  validate_shared_world_session(session);
  arrivals.validate();
  bottleneck.validate();
  bottleneck_impairments.validate();
}

namespace {

/// One admitted session: its access leg, connection fabric, application
/// machinery, and the pre-drawn config/rng it started from.
struct Slot {
  SessionConfig cfg;
  sim::Rng rng;
  double at_s{0.0};
  std::unique_ptr<net::Path> leg;
  std::unique_ptr<tcp::Fabric> fabric;
  std::unique_ptr<SessionInstance> instance;

  Slot(SessionConfig config, sim::Rng session_rng, double arrival_s)
      : cfg{std::move(config)}, rng{std::move(session_rng)}, at_s{arrival_s} {}
};

/// World-lifetime state shared by the scheduled arrival callbacks. Events
/// capture {Runner*, index} — comfortably inside the simulator's SBO
/// callback budget.
struct Runner {
  sim::Simulator& sim;
  net::SharedBottleneck& bottleneck;
  std::vector<Slot>& slots;
  stats::WindowedRate& sampler;
  std::size_t started{0};
  std::size_t finished{0};
  std::size_t interrupted{0};
  std::size_t active{0};

  void start_session(std::size_t k) {
    Slot& slot = slots[k];
    slot.leg = std::make_unique<net::Path>(sim, slot.cfg.network, slot.rng);
    const std::uint32_t client = bottleneck.attach(*slot.leg);
    slot.fabric = std::make_unique<tcp::Fabric>(
        sim, *slot.leg, net::SharedBottleneck::first_connection_id(client));
    slot.instance = std::make_unique<SessionInstance>(sim, *slot.fabric, slot.cfg, slot.rng);
    slot.instance->set_on_quiesce([this, k] { retire_session(k); });
    // R(t) samples the TCP-deduped application delivery stream: the paper's
    // aggregate is useful bits, and counting at the bottleneck would tally
    // retransmitted bytes twice whenever an access leg sheds a slow-start
    // overshoot.
    slot.instance->set_byte_tap([this](std::uint64_t n) {
      sampler.on_bytes(sim.now().to_seconds(), n);
    });
    ++started;
    ++active;
  }

  void retire_session(std::size_t k) {
    Slot& slot = slots[k];
    slot.instance->stop_auxiliary();
    if (slot.instance->player().stats().interrupted) {
      ++interrupted;
    } else {
      ++finished;
    }
    --active;
  }
};

}  // namespace

TopologyResult run_topology(const TopologyConfig& config) {
  config.validate();

  sim::Simulator sim{config.arena};
  obs::ObsContext obs;
  sim.set_obs(&obs);
  if (config.digest != nullptr) sim.set_digest(config.digest);
  sim::Rng root{config.seed};

  net::SharedBottleneck bottleneck{sim, config.bottleneck, root};
  if (!config.bottleneck_impairments.empty()) {
    bottleneck.link().set_impairments(config.bottleneck_impairments);
  }

  std::unique_ptr<net::CrossTraffic> cross;
  if (config.cross_traffic.has_value()) {
    net::CrossTraffic::Config cross_cfg = *config.cross_traffic;
    cross_cfg.connection_id = net::SharedBottleneck::kForeignId;
    cross = std::make_unique<net::CrossTraffic>(sim, bottleneck.link(), cross_cfg,
                                                root.fork("cross-traffic"));
    cross->start();
  }

  obs::SimLoopMonitor loop_monitor{sim, sim::Duration::seconds(1.0)};
  loop_monitor.start();

  // Arrival process, then per-session streams: every session forks off one
  // parent in arrival order, and its workload draws (customize) come from
  // its own stream — so adding a session never perturbs another's draws.
  sim::Rng arrival_rng = root.fork("arrivals");
  const std::vector<double> arrivals =
      generate_arrivals(config.arrivals, config.sessions, config.horizon_s, arrival_rng);

  sim::Rng session_parent = root.fork("sessions");
  std::vector<Slot> slots;
  slots.reserve(arrivals.size());
  for (std::size_t k = 0; k < arrivals.size(); ++k) {
    sim::Rng session_rng = session_parent.fork("session");
    SessionConfig cfg = config.session;
    cfg.seed = session_rng.seed();
    if (config.customize) config.customize(k, session_rng, cfg);
    validate_shared_world_session(cfg);
    slots.emplace_back(std::move(cfg), std::move(session_rng), arrivals[k]);
  }

  // R(t): video bytes credited to fixed windows as the client applications
  // read them. Headers stay out (Eq. 3's E[e]E[L] is application bytes) and
  // so does auxiliary-host traffic — the same §2 filter the paper applied
  // to its captures.
  stats::WindowedRate sampler{config.sample_window_s, config.warmup_s};

  Runner runner{.sim = sim, .bottleneck = bottleneck, .slots = slots, .sampler = sampler};
  for (std::size_t k = 0; k < slots.size(); ++k) {
    Runner* r = &runner;
    sim.schedule_at(sim::SimTime::from_seconds(slots[k].at_s), [r, k] { r->start_session(k); });
  }

  // Bottleneck accounting: payload that crossed the shared link, split into
  // video-session traffic (retransmissions included — this is the wire
  // view, not the R(t) basis) and foreign cross traffic.
  std::uint64_t video_payload_bytes = 0;
  std::uint64_t cross_payload_bytes = 0;
  bottleneck.link().set_tap(
      [&video_payload_bytes, &cross_payload_bytes, &bottleneck](
          sim::SimTime, const net::TcpSegment& seg, net::LinkEvent event) {
        if (event != net::LinkEvent::kDeliver) return;
        if (net::SharedBottleneck::client_of(seg.connection_id) >= bottleneck.legs()) {
          cross_payload_bytes += seg.payload_bytes;
          return;
        }
        if (seg.host != 0) return;
        video_payload_bytes += seg.payload_bytes;
      });

  // Window clock: closes silent R(t) windows and samples the concurrency
  // series on the same grid.
  stats::WindowStats concurrency;
  sim::PeriodicTimer window_clock{
      sim, sim::Duration::seconds(config.sample_window_s), [&] {
        const double now_s = sim.now().to_seconds();
        sampler.advance_to(now_s);
        if (now_s > config.warmup_s) concurrency.add(static_cast<double>(runner.active));
      }};
  window_clock.start();

  sim.run_until(sim::SimTime::from_seconds(config.horizon_s));

  window_clock.stop();
  loop_monitor.stop();
  if (cross) cross->stop();
  sampler.advance_to(config.horizon_s);

  TopologyResult result;
  result.sessions_started = runner.started;
  result.sessions_finished = runner.finished;
  result.sessions_interrupted = runner.interrupted;
  result.sessions_active_at_end = runner.active;
  for (Slot& slot : slots) {
    if (!slot.instance) continue;
    slot.instance->stop_auxiliary();
    const SessionOutcome outcome = slot.instance->finalize();
    result.connections += outcome.connections;
    result.bytes_downloaded += outcome.bytes_downloaded;
    if (outcome.player.interrupted) result.wasted_bytes += outcome.player.unused_bytes();
    result.sum_encoding_bps += outcome.encoding_bps_true;
    result.sum_duration_s += slot.cfg.video.duration_s;
    const double goodput = outcome.goodput_bps();
    if (goodput > 0.0) {
      result.sum_goodput_bps += goodput;
      ++result.goodput_samples;
    }
  }

  result.video_payload_bytes = video_payload_bytes;
  result.cross_traffic_bytes = cross_payload_bytes;
  const net::Link::Counters& bn = bottleneck.link().counters();
  result.bottleneck_wire_bytes = bn.bytes_delivered;
  result.bottleneck_dropped_queue = bn.dropped_queue;
  result.bottleneck_dropped_loss = bn.dropped_loss;
  result.aggregate = sampler.windows();
  result.concurrency = concurrency;
  result.realized_arrival_rate_per_s =
      static_cast<double>(runner.started) / config.horizon_s;
  result.sim_events = sim.events_processed();
  result.sim_max_events_pending = sim.max_events_pending();
  return result;
}

void fold_outcome(check::StateDigest& digest, const TopologyResult& result) {
  digest.mix(static_cast<std::uint64_t>(result.sessions_started));
  digest.mix(static_cast<std::uint64_t>(result.sessions_finished));
  digest.mix(static_cast<std::uint64_t>(result.sessions_interrupted));
  digest.mix(static_cast<std::uint64_t>(result.sessions_active_at_end));
  digest.mix(static_cast<std::uint64_t>(result.connections));
  digest.mix(result.bytes_downloaded);
  digest.mix(result.wasted_bytes);
  digest.mix(result.video_payload_bytes);
  digest.mix(result.cross_traffic_bytes);
  digest.mix(result.bottleneck_wire_bytes);
  digest.mix(result.bottleneck_dropped_queue);
  digest.mix(result.bottleneck_dropped_loss);
  digest.mix(result.aggregate.count);
  digest.mix(result.sim_events);
}

RunFingerprint fingerprint_topology(const TopologyConfig& config) {
  check::StateDigest digest;
  TopologyConfig cfg = config;
  cfg.digest = &digest;
  const TopologyResult result = run_topology(cfg);

  RunFingerprint fp;
  fp.sim_events = result.sim_events;
  fp.bytes_downloaded = result.bytes_downloaded;
  fold_outcome(digest, result);
  fp.digest = digest.value();
  fp.words_mixed = digest.words_mixed();
  return fp;
}

}  // namespace vstream::streaming
