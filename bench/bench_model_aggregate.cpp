// Section 6.1 — Aggregate video-traffic model, analytical AND packet-level.
//
// Three layers of evidence, strongest last:
//   1. Closed forms Eq (3)/(4) vs the flow-level Monte-Carlo superposition
//      (model/aggregate.hpp) — the seed reproduction.
//   2. A packet-level strategy showdown: three Table-1 strategies run as
//      real multi-session topologies (streaming/topology.hpp) behind a
//      shared bottleneck, and the measured per-window R(t) mean/variance is
//      compared against the closed forms — and across strategies
//      (conclusion 2: Eq 3/4 are strategy-independent).
//   3. A scale sweep: VSTREAM_BENCH_AGG_SESSIONS scale-model sessions
//      (default 10k for CI; push to 1M for the EXPERIMENTS.md entry)
//      through runner::run_worlds_streamed, windows pooled exactly
//      across shards.
//
// Telemetry lands in BENCH_aggregate.json; tools/check_bench_floor.py
// gates perf-smoke on bench/aggregate_floor.json: a sessions/s floor plus
// the model-agreement, strategy-independence and digest-invariance bits.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "model/aggregate.hpp"
#include "runner/session_sweep.hpp"
#include "streaming/topology_builder.hpp"
#include "support.hpp"

namespace {

using namespace vstream;
using model::AggregateParams;
using model::ModelStrategy;
using model::MonteCarloConfig;

MonteCarloConfig base_config(ModelStrategy strategy) {
  MonteCarloConfig cfg;
  cfg.lambda_per_s = 0.5;
  cfg.horizon_s = 3000.0;
  cfg.sample_dt_s = 1.0;
  cfg.seed = 7;
  cfg.strategy = strategy;
  cfg.draw_encoding_bps = [](sim::Rng& r) { return r.uniform(0.5e6, 1.5e6); };
  cfg.draw_duration_s = [](sim::Rng& r) { return r.uniform(120.0, 480.0); };
  cfg.draw_download_rate_bps = [](sim::Rng& r) { return r.uniform(4e6, 6e6); };
  cfg.accumulation_ratio = 1.25;
  cfg.buffering_playback_s = 40.0;
  cfg.block_bytes = 64 * 1024;
  return cfg;
}

void print_reproduction() {
  bench::print_header("Section 6.1 -- aggregate traffic model",
                      "Rao et al., CoNEXT 2011, Eq (3)/(4) and conclusions 1-3");

  AggregateParams p;
  p.lambda_per_s = 0.5;
  p.mean_encoding_bps = 1e6;
  p.mean_duration_s = 300.0;
  p.mean_download_rate_bps = 5e6;

  const double mean = model::mean_aggregate_rate_bps(p);
  const double var = model::variance_aggregate_rate(p);
  std::printf("closed forms (lambda=%.2f/s, E[e]=%.1f Mbps, E[L]=%.0f s, E[G]=%.0f Mbps):\n",
              p.lambda_per_s, p.mean_encoding_bps / 1e6, p.mean_duration_s,
              p.mean_download_rate_bps / 1e6);
  std::printf("  Eq(3) E[R]   = %10.2f Mbps\n", mean / 1e6);
  std::printf("  Eq(4) Var[R] = %10.4g (bps)^2, sd = %.2f Mbps\n", var, std::sqrt(var) / 1e6);

  std::printf("\nMonte-Carlo superposition vs closed form, per strategy:\n");
  std::printf("  %-14s %12s %12s %14s %14s\n", "strategy", "mean [Mbps]", "eq(3)", "sd [Mbps]",
              "eq(4) sd");
  for (const auto strategy :
       {ModelStrategy::kNoOnOff, ModelStrategy::kShortOnOff, ModelStrategy::kLongOnOff}) {
    auto cfg = base_config(strategy);
    if (strategy == ModelStrategy::kLongOnOff) cfg.block_bytes = 4 * 1024 * 1024;
    const auto mc = model::run_aggregate_monte_carlo(cfg);
    const char* name = strategy == ModelStrategy::kNoOnOff      ? "No ON-OFF"
                       : strategy == ModelStrategy::kShortOnOff ? "Short ON-OFF"
                                                                : "Long ON-OFF";
    std::printf("  %-14s %12.2f %12.2f %14.2f %14.2f\n", name, mc.mean_bps / 1e6, mean / 1e6,
                std::sqrt(mc.variance) / 1e6, std::sqrt(var) / 1e6);
  }
  std::printf("  -> conclusion 2: mean and variance are strategy-independent.\n");

  std::printf("\nencoding-rate sweep (conclusion 3: higher rates => smoother aggregate):\n");
  std::printf("  %12s %12s %12s %16s\n", "E[e] [Mbps]", "E[R] [Mbps]", "sd [Mbps]",
              "coeff of var");
  for (double e_mbps = 0.5; e_mbps <= 4.0 + 1e-9; e_mbps *= 2.0) {
    AggregateParams q = p;
    q.mean_encoding_bps = e_mbps * 1e6;
    const double m = model::mean_aggregate_rate_bps(q);
    const double sd = std::sqrt(model::variance_aggregate_rate(q));
    std::printf("  %12.1f %12.1f %12.2f %16.4f\n", e_mbps, m / 1e6, sd / 1e6, sd / m);
  }

  std::printf("\ndimensioning rule (conclusion 1): link capacity = E[R] + alpha sqrt(V)\n");
  for (const double alpha : {1.0, 2.0, 3.0}) {
    std::printf("  alpha=%.0f -> %.1f Mbps\n", alpha, model::dimension_link_bps(p, alpha) / 1e6);
  }
}

// ------------------------------------------------- packet-level showdown

struct StrategyScenario {
  const char* name;
  video::Container container;
  streaming::Application application;
};

/// Table-1 strategies with distinct transfer shapes: bulk HD Flash (no
/// ON-OFF), server-paced Flash (64 kB pulses after the ~40 s-playback
/// burst), and IE HTML5 (client pull throttling, 256 kB pulls).
constexpr StrategyScenario kStrategies[] = {
    {"FlashHD bulk", video::Container::kFlashHd, streaming::Application::kFirefox},
    {"Flash paced", video::Container::kFlash, streaming::Application::kInternetExplorer},
    {"HTML5/IE pull", video::Container::kHtml5, streaming::Application::kInternetExplorer},
};

struct ShowdownPoint {
  runner::SweepAccumulator sweep;
  AggregateParams params;
  double empirical_mean{0.0};
  double empirical_var{0.0};
};

[[nodiscard]] double rel_err(double measured, double predicted) {
  if (std::abs(predicted) < 1e-12) return 0.0;
  return std::abs(measured - predicted) / std::abs(predicted);
}

std::size_t env_size(const char* name, std::size_t fallback) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read before any pool thread exists
  if (const char* env = std::getenv(name)) {
    const long long n = std::atoll(env);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return fallback;
}

/// One strategy's sweep: `worlds` worlds of Poisson arrivals on residence
/// ADSL legs behind a shared 60 Mbps bottleneck, scale-model videos
/// e ~ U(100, 200) kbps, L ~ U(60, 90) s (long enough that Flash's ~40 s
/// initial burst leaves genuine ON-OFF pulses). The 100 ms sampling window
/// sits between the access RTT (sub-window TCP burstiness would inflate
/// the variance) and the ON-pulse durations Eq (4)'s variance rides on.
ShowdownPoint run_strategy(const runner::ParallelSweep& pool, const StrategyScenario& s,
                           std::size_t worlds, std::uint64_t seed_base) {
  const auto make = [&s, seed_base](std::size_t g) {
    video::VideoMeta meta;
    meta.id = std::string{"aggregate-"} + s.name;
    meta.duration_s = 75.0;
    meta.encoding_bps = 150e3;
    meta.container = s.container;
    return streaming::TopologyBuilder{}
        .container(s.container)
        .application(s.application)
        .vantage(net::Vantage::kResidence)
        .video(meta)
        .sessions(300)
        .workload(streaming::WorkloadBuilder{}
                      .poisson(1.0)
                      .customize([](std::size_t, sim::Rng& rng, streaming::SessionConfig& cfg) {
                        cfg.video.encoding_bps = rng.uniform(100e3, 200e3);
                        cfg.video.duration_s = rng.uniform(60.0, 90.0);
                      })
                      .build())
        .bottleneck_rate_bps(60e6)
        .horizon_s(240.0)
        .warmup_s(100.0)
        .sample_window_s(0.1)
        .seed(seed_base + g)
        .build();
  };
  ShowdownPoint point;
  point.sweep = runner::run_worlds_streamed(pool, 0, worlds, make);
  point.params = point.sweep.measured_model_params();
  point.empirical_mean = point.sweep.mean_aggregate_bps();
  point.empirical_var = point.sweep.variance_aggregate();
  return point;
}

void run_showdown() {
  bench::print_header("Packet-level showdown -- topologies vs Eq (3)/(4)",
                      "shared 60 Mbps bottleneck, residence ADSL legs, Poisson churn");

  const runner::ParallelSweep pool{0};
  const std::size_t worlds = env_size("VSTREAM_BENCH_AGG_WORLDS", 2);
  auto& telemetry = bench::RunTelemetry::instance();

  const auto t0 = std::chrono::steady_clock::now();
  ShowdownPoint points[3];
  std::uint64_t total_sessions = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    // Same seed base for every strategy: identical arrival times and video
    // draws, so the cross-strategy spread below is a paired comparison free
    // of Poisson sampling noise.
    points[i] = run_strategy(pool, kStrategies[i], worlds, 9000);
    total_sessions += points[i].sweep.sessions_started;
  }

  // Eq (4)'s G is the download rate *while transferring*. The bulk strategy
  // measures it directly (no OFF gaps dilute its session goodput), so its
  // E[G] prices the variance prediction for every strategy — that
  // substitution is exactly the strategy-independence claim under test.
  const double g_bulk = points[0].sweep.mean_goodput_bps();

  std::printf("  %-14s %9s %11s %8s %10s %9s %12s\n", "strategy", "sessions", "E[R] [Mbps]",
              "eq(3)", "sd [Mbps]", "eq(4) sd", "err mean/sd");
  bool mean_ok = true;
  bool sd_ok = true;
  for (const ShowdownPoint& pt : points) {
    const double predicted_mean = model::mean_aggregate_rate_bps(pt.params);
    AggregateParams var_params = pt.params;
    var_params.mean_download_rate_bps = g_bulk;
    const double predicted_sd = std::sqrt(model::variance_aggregate_rate(var_params));
    const double me = rel_err(pt.empirical_mean, predicted_mean);
    // sd, not variance: same units as the mean (the paper's presentation),
    // and the rectangular-pulse approximation behind Eq (4) — real bulk
    // pulses carry a slow-start ramp — is only fair at sd granularity.
    const double se = rel_err(std::sqrt(pt.empirical_var), predicted_sd);
    mean_ok = mean_ok && me <= 0.12;
    sd_ok = sd_ok && se <= 0.40;
    std::printf("  %-14s %9llu %11.2f %8.2f %10.2f %9.2f %6.1f%%/%.1f%%\n",
                kStrategies[&pt - points].name,
                static_cast<unsigned long long>(pt.sweep.sessions_started),
                pt.empirical_mean / 1e6, predicted_mean / 1e6, std::sqrt(pt.empirical_var) / 1e6,
                predicted_sd / 1e6, 100.0 * me, 100.0 * se);
  }

  // Conclusion 2, packet level: the three strategies must agree with each
  // other, not just each with its own prediction — and with paired seeds
  // the comparison is free of arrival/draw sampling noise.
  double mean_spread = 0.0;
  double sd_spread = 0.0;
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = i + 1; j < 3; ++j) {
      mean_spread =
          std::max(mean_spread, rel_err(points[i].empirical_mean, points[j].empirical_mean));
      sd_spread = std::max(sd_spread, rel_err(std::sqrt(points[i].empirical_var),
                                              std::sqrt(points[j].empirical_var)));
    }
  }
  const bool independent = mean_spread <= 0.10 && sd_spread <= 0.30;
  std::printf("  strategy spread: mean %.1f%%, sd %.1f%% -> %s\n", 100.0 * mean_spread,
              100.0 * sd_spread,
              independent ? "strategy-independent" : "STRATEGY-DEPENDENT (regression)");

  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  telemetry.note_metric("aggregate_mean_agreement", mean_ok ? 1.0 : 0.0);
  telemetry.note_metric("aggregate_var_agreement", sd_ok ? 1.0 : 0.0);
  telemetry.note_metric("aggregate_strategy_independence", independent ? 1.0 : 0.0);
  telemetry.note_metric("aggregate_showdown_sessions", static_cast<double>(total_sessions));
  telemetry.note_metric("aggregate_showdown_wall_s", wall_s);
}

// ------------------------------------------------------------ scale sweep

/// Scale-model bulk worlds for the 10k..1M sweep: ~56 kB sessions
/// (e ~ U(50, 100) kbps, L ~ U(4, 8) s) at lambda = 25/s, ~750 expected
/// arrivals per 30 s world.
streaming::TopologyConfig sweep_world(std::size_t g, std::size_t sessions_cap) {
  video::VideoMeta meta;
  meta.id = "aggregate-sweep";
  meta.duration_s = 6.0;
  meta.encoding_bps = 75e3;
  meta.container = video::Container::kFlashHd;
  return streaming::TopologyBuilder{}
      .container(video::Container::kFlashHd)
      .application(streaming::Application::kFirefox)
      .vantage(net::Vantage::kResidence)
      .video(meta)
      .sessions(sessions_cap)
      .workload(streaming::WorkloadBuilder{}
                    .poisson(25.0)
                    .customize([](std::size_t, sim::Rng& rng, streaming::SessionConfig& cfg) {
                      cfg.video.encoding_bps = rng.uniform(50e3, 100e3);
                      cfg.video.duration_s = rng.uniform(4.0, 8.0);
                    })
                    .build())
      .bottleneck_rate_bps(60e6)
      .horizon_s(30.0)
      .warmup_s(10.0)
      .sample_window_s(0.1)
      .seed(20'000 + g)
      .build();
}

void run_scale_sweep() {
  const std::size_t target = env_size("VSTREAM_BENCH_AGG_SESSIONS", 10'000);
  const std::size_t worlds = std::max<std::size_t>(std::size_t{1}, (target + 749) / 750);
  bench::print_header("Scale sweep -- sharded streamed topologies",
                      "bulk scale-model sessions, windows pooled exactly across shards");

  const runner::ParallelSweep pool{0};
  auto& telemetry = bench::RunTelemetry::instance();

  const auto t0 = std::chrono::steady_clock::now();
  const auto sweep = runner::run_worlds_streamed(
      pool, 0, worlds, [](std::size_t g) { return sweep_world(g, 900); });
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  const AggregateParams params = sweep.measured_model_params();
  const double predicted_mean = model::mean_aggregate_rate_bps(params);
  const double predicted_var = model::variance_aggregate_rate(params);
  const double mean_err = rel_err(sweep.mean_aggregate_bps(), predicted_mean);
  const double sd_err = rel_err(std::sqrt(sweep.variance_aggregate()), std::sqrt(predicted_var));
  const double sessions_per_s =
      wall_s > 0.0 ? static_cast<double>(sweep.sessions_started) / wall_s : 0.0;

  std::printf("  %llu sessions in %zu worlds (%zu workers), %.1f s wall -> %.0f sessions/s\n",
              static_cast<unsigned long long>(sweep.sessions_started), worlds, pool.jobs(),
              wall_s, sessions_per_s);
  std::printf("  measured lambda=%.2f/s E[e]=%.0f kbps E[L]=%.2f s E[G]=%.2f Mbps\n",
              params.lambda_per_s, params.mean_encoding_bps / 1e3, params.mean_duration_s,
              params.mean_download_rate_bps / 1e6);
  std::printf("  E[R]: %.2f vs eq(3) %.2f Mbps (%.1f%%); sd: %.2f vs eq(4) %.2f Mbps (%.1f%%)\n",
              sweep.mean_aggregate_bps() / 1e6, predicted_mean / 1e6, 100.0 * mean_err,
              std::sqrt(sweep.variance_aggregate()) / 1e6, std::sqrt(predicted_var) / 1e6,
              100.0 * sd_err);

  telemetry.note_metric("aggregate_sessions_per_sec", sessions_per_s);
  telemetry.note_metric("aggregate_sweep_sessions", static_cast<double>(sweep.sessions_started));
  telemetry.note_metric("aggregate_sweep_mean_agreement", mean_err <= 0.12 ? 1.0 : 0.0);
  telemetry.note_metric("aggregate_sweep_var_agreement", sd_err <= 0.40 ? 1.0 : 0.0);
}

// ------------------------------------------------------ digest invariance

void run_digest_invariance() {
  // The same 8 small worlds, serial vs pooled: the sweep digest must not
  // notice the worker count (DESIGN.md §13, extended to topologies).
  const auto make = [](std::size_t g) { return sweep_world(1000 + g, 64); };
  const runner::ParallelSweep serial{1};
  const runner::ParallelSweep pooled{4};
  const auto a = runner::run_worlds_streamed(serial, 0, 8, make);
  const auto b = runner::run_worlds_streamed(pooled, 0, 8, make);
  const bool invariant = a.digest == b.digest && a.sim_events == b.sim_events;
  std::printf("\ndigest invariance (1 vs 4 workers, 8 worlds): %s (%016llx)\n",
              invariant ? "bit-identical" : "DIVERGED",
              static_cast<unsigned long long>(a.digest.combined));
  bench::RunTelemetry::instance().note_metric("aggregate_digest_invariant",
                                              invariant ? 1.0 : 0.0);
}

void BM_MonteCarloAggregate(benchmark::State& state) {
  auto cfg = base_config(ModelStrategy::kShortOnOff);
  cfg.horizon_s = static_cast<double>(state.range(0));
  for (auto _ : state) {
    auto result = model::run_aggregate_monte_carlo(cfg);
    benchmark::DoNotOptimize(result.mean_bps);
  }
  state.SetLabel("horizon " + std::to_string(state.range(0)) + " s");
}
BENCHMARK(BM_MonteCarloAggregate)->Arg(500)->Arg(1000)->Arg(2000)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  vstream::bench::RunTelemetry::instance().init("aggregate", &argc, argv);
  print_reproduction();
  run_showdown();
  run_scale_sweep();
  run_digest_invariance();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  vstream::bench::RunTelemetry::instance().finalize();
  return 0;
}
