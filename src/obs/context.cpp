#include "obs/context.hpp"

// vstream-lint-file: allow(wall-clock): the loop monitor's whole job is to
// compare simulated time against host wall time (sim.sim_wall_ratio); no
// simulation decision ever depends on these reads.

namespace vstream::obs {

SimLoopMonitor::SimLoopMonitor(sim::Simulator& sim, sim::Duration period)
    : sim_{sim}, timer_{sim, period, [this] { sample(); }} {}

void SimLoopMonitor::start() {
  last_wall_ = std::chrono::steady_clock::now();
  last_sim_ = sim_.now();
  timer_.start();
}

void SimLoopMonitor::sample() {
  ObsContext* obs = sim_.obs();
  if (obs == nullptr) return;
  ++samples_;

  const auto wall_now = std::chrono::steady_clock::now();
  const double wall_dt = std::chrono::duration<double>(wall_now - last_wall_).count();
  const double sim_dt = (sim_.now() - last_sim_).to_seconds();
  last_wall_ = wall_now;
  last_sim_ = sim_.now();
  last_ratio_ = wall_dt > 0.0 ? sim_dt / wall_dt : 0.0;
  sampled_high_water_ = sim_.max_events_pending();

  if (obs->trace().active()) {
    SimLoopSample s;
    s.t_s = sim_.now().to_seconds();
    s.events_processed = sim_.events_processed();
    s.events_pending = sim_.events_pending();
    s.max_events_pending = sim_.max_events_pending();
    s.sim_wall_ratio = last_ratio_;
    obs->trace().emit(s);
  }
}

}  // namespace vstream::obs
