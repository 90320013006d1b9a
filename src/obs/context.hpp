// Per-world observability context: one trace bus plus its span tracer,
// attached to a `Simulator` (see Simulator::set_obs). Components discover it
// through their simulator reference, so instrumentation needs no extra
// plumbing through constructors, and parallel simulations each get their
// own isolated instance. Counts are not kept here: each component keeps its
// own stats, and a world builds its `MetricsSnapshot` from them once, at the
// end of the run.
#pragma once

#include <chrono>
#include <memory>

#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "sim/periodic_timer.hpp"
#include "sim/simulator.hpp"

namespace vstream::obs {

class ObsContext {
 public:
  [[nodiscard]] TraceBus& trace() { return trace_; }
  [[nodiscard]] SpanTracer& spans() { return spans_; }

 private:
  TraceBus trace_;
  SpanTracer spans_{trace_};
};

/// Shorthand used by instrumented components: the simulator's context, or
/// nullptr when the world runs unobserved.
[[nodiscard]] inline ObsContext* context_of(const sim::Simulator& sim) { return sim.obs(); }

/// Open an episode span on the world's tracer, or an inert handle when the
/// world runs unobserved / no sink listens. This is the instrumentation
/// entry point: two pointer loads and a branch on the cold path, mirroring
/// the point-probe design. `name` stays a C string so the no-op path never
/// allocates.
[[nodiscard]] inline Span open_span(const sim::Simulator& sim, SpanCategory category,
                                    const char* name, std::uint64_t id = 0) {
  ObsContext* obs = sim.obs();
  if (obs == nullptr || !obs->trace().active()) return Span{};
  obs->spans().bind(sim);
  return obs->spans().open(category, name, id);
}

/// Retro-emit an already-finished episode (begin at `t_begin_s`, end now);
/// no-op when unobserved. For episodes only detectable once they end.
inline void emit_span(const sim::Simulator& sim, double t_begin_s, SpanCategory category,
                      const char* name, std::uint64_t id, std::string detail) {
  ObsContext* obs = sim.obs();
  if (obs == nullptr || !obs->trace().active()) return;
  obs->spans().bind(sim);
  obs->spans().emit_complete(t_begin_s, category, name, id, std::move(detail));
}

/// Samples simulator-loop health on a fixed sim-time period: events
/// processed, queue depth (current and high water) and the sim-time /
/// wall-time ratio since the previous sample. Each sample keeps the ratio
/// and the queue high-water it saw and, when a sink listens, emits a
/// `SimLoopSample`.
class SimLoopMonitor {
 public:
  SimLoopMonitor(sim::Simulator& sim, sim::Duration period);

  void start();
  void stop() { timer_.stop(); }

  [[nodiscard]] std::uint64_t samples() const { return samples_; }
  /// Sim-time / wall-time ratio over the last sampled period.
  [[nodiscard]] double last_ratio() const { return last_ratio_; }
  /// The simulator's queue high-water as of the last sample.
  [[nodiscard]] std::size_t sampled_high_water() const { return sampled_high_water_; }

 private:
  void sample();

  sim::Simulator& sim_;
  sim::PeriodicTimer timer_;
  std::chrono::steady_clock::time_point last_wall_;  // vstream-lint: allow(wall-clock): sim-vs-wall speed telemetry only
  sim::SimTime last_sim_{};
  std::uint64_t samples_{0};
  double last_ratio_{0.0};
  std::size_t sampled_high_water_{0};
};

}  // namespace vstream::obs
