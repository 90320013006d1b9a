// Tests for the multi-session topology subsystem: builder validation
// diagnostics, deterministic arrival processes, shared-bottleneck
// contention, twin-run fingerprints, and the §6.1 empirical-vs-analytical
// agreement that the aggregate model rests on. The streamed topology sweep's
// worker-count and sharding invariance lives in session_sweep_test, beside
// the session sweep it shares its loop with.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "runner/parallel_sweep.hpp"
#include "runner/session_sweep.hpp"
#include "streaming/session_builder.hpp"
#include "streaming/topology.hpp"
#include "streaming/topology_builder.hpp"

namespace vstream::streaming {
namespace {

video::VideoMeta test_video(double duration_s = 20.0, double encoding_bps = 300e3) {
  video::VideoMeta meta;
  meta.id = "topology-test";
  meta.duration_s = duration_s;
  meta.encoding_bps = encoding_bps;
  meta.container = video::Container::kFlashHd;
  return meta;
}

/// A small, fast shared-bottleneck world: bulk HD Flash sessions on
/// research-grade access legs.
TopologyBuilder small_world() {
  TopologyBuilder b;
  b.container(video::Container::kFlashHd)
      .application(Application::kFirefox)
      .vantage(net::Vantage::kResearch)
      .video(test_video())
      .sessions(4)
      .horizon_s(30.0)
      .sample_window_s(0.5)
      .seed(42);
  return b;
}

// ---------------------------------------------------------------- validation

TEST(TopologyValidationTest, BandwidthJitterExcludedFromTopologies) {
  auto b = small_world();
  b.bandwidth_jitter(0.5);
  try {
    (void)b.build();
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The diagnostic must name the knob and point at the replacement.
    EXPECT_NE(std::string{e.what()}.find("bandwidth_jitter"), std::string::npos);
    EXPECT_NE(std::string{e.what()}.find("shared"), std::string::npos);
  }
}

TEST(TopologyValidationTest, PerSessionImpairmentsExcludedFromTopologies) {
  auto b = small_world();
  b.impairments(net::ImpairmentSchedule{}.blackout(sim::SimTime::from_seconds(5.0),
                                                   sim::Duration::seconds(1.0)));
  try {
    (void)b.build();
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("bottleneck_impairments"), std::string::npos);
  }
}

TEST(TopologyValidationTest, PerSessionCaptureExcludedFromTopologies) {
  auto b = small_world();
  b.store_trace(true);
  EXPECT_THROW((void)b.build(), std::invalid_argument);
}

TEST(TopologyValidationTest, SessionBuilderStillValidatesTheOldWay) {
  // The rebased SessionBuilder (N=1 case of the shared mixin) must keep
  // rejecting what it always rejected.
  EXPECT_THROW((void)SessionBuilder{}
                   .service(Service::kNetflix)
                   .container(video::Container::kFlash)  // Table 1: not applicable
                   .video(test_video())
                   .build(),
               std::invalid_argument);
  EXPECT_THROW((void)small_world().watch_fraction(1.5).build(), std::invalid_argument);
}

TEST(TopologyValidationTest, ArrivalScheduleRejectsBadParameters) {
  EXPECT_THROW((void)WorkloadBuilder{}.poisson(-1.0).build(), std::invalid_argument);
  EXPECT_THROW((void)WorkloadBuilder{}.diurnal(1.0, 60.0, 1.5).build(), std::invalid_argument);
  EXPECT_THROW((void)small_world().sample_window_s(0.0).build(), std::invalid_argument);
  EXPECT_THROW((void)small_world().warmup_s(60.0).build(), std::invalid_argument);  // >= horizon
}

// ------------------------------------------------------------------ arrivals

TEST(ArrivalProcessTest, ImmediateAndFlashCrowdShapes) {
  sim::Rng rng{7};
  ArrivalSchedule immediate;
  immediate.kind = ArrivalSchedule::Kind::kImmediate;
  immediate.start_s = 2.0;
  auto at = generate_arrivals(immediate, 5, 30.0, rng);
  ASSERT_EQ(at.size(), 5u);
  for (double t : at) EXPECT_DOUBLE_EQ(t, 2.0);

  ArrivalSchedule crowd;
  crowd.kind = ArrivalSchedule::Kind::kFlashCrowd;
  crowd.start_s = 10.0;
  crowd.spread_s = 5.0;
  auto ct = generate_arrivals(crowd, 200, 30.0, rng);
  ASSERT_EQ(ct.size(), 200u);
  for (std::size_t i = 0; i < ct.size(); ++i) {
    EXPECT_GE(ct[i], 10.0);
    EXPECT_LT(ct[i], 15.0);
    if (i > 0) {
      EXPECT_GE(ct[i], ct[i - 1]);  // sorted for the event queue
    }
  }
}

TEST(ArrivalProcessTest, PoissonCountAndInterarrivalStatistics) {
  // lambda = 50/s over 100 s: expect ~5000 arrivals, sigma = sqrt(5000) ~ 71.
  sim::Rng rng{123};
  ArrivalSchedule poisson;
  poisson.kind = ArrivalSchedule::Kind::kPoisson;
  poisson.rate_per_s = 50.0;
  auto at = generate_arrivals(poisson, 1u << 20, 100.0, rng);
  const double n = static_cast<double>(at.size());
  EXPECT_NEAR(n, 5000.0, 5.0 * std::sqrt(5000.0));  // 5 sigma

  double sum = 0.0, sum_sq = 0.0;
  for (std::size_t i = 1; i < at.size(); ++i) {
    const double gap = at[i] - at[i - 1];
    EXPECT_GE(gap, 0.0);
    sum += gap;
    sum_sq += gap * gap;
  }
  const double mean = sum / (n - 1.0);
  const double var = sum_sq / (n - 1.0) - mean * mean;
  // Exponential(lambda): mean 1/50 = 0.02, variance 1/2500 = 4e-4.
  EXPECT_NEAR(mean, 0.02, 0.002);
  EXPECT_NEAR(var, 4.0e-4, 8.0e-5);
}

TEST(ArrivalProcessTest, DiurnalThinningPreservesMeanRate) {
  // Over whole periods the sinusoid integrates out: count ~ rate * horizon.
  sim::Rng rng{9};
  ArrivalSchedule diurnal;
  diurnal.kind = ArrivalSchedule::Kind::kDiurnal;
  diurnal.rate_per_s = 20.0;
  diurnal.period_s = 50.0;
  diurnal.depth = 0.8;
  auto at = generate_arrivals(diurnal, 1u << 20, 200.0, rng);
  EXPECT_NEAR(static_cast<double>(at.size()), 4000.0, 5.0 * std::sqrt(4000.0));
  EXPECT_TRUE(std::is_sorted(at.begin(), at.end()));
}

TEST(ArrivalProcessTest, DeterministicGivenSeed) {
  ArrivalSchedule poisson;
  poisson.kind = ArrivalSchedule::Kind::kPoisson;
  poisson.rate_per_s = 10.0;
  sim::Rng a{77}, b{77}, c{78};
  EXPECT_EQ(generate_arrivals(poisson, 100, 50.0, a), generate_arrivals(poisson, 100, 50.0, b));
  EXPECT_NE(generate_arrivals(poisson, 100, 50.0, c).front(),
            generate_arrivals(poisson, 100, 50.0, a).front());
}

// ---------------------------------------------------------------- contention

TEST(TopologyRunTest, SessionsCompleteAndDeliverPayload) {
  const TopologyResult r = small_world().run();
  EXPECT_EQ(r.sessions_started, 4u);
  EXPECT_EQ(r.sessions_finished + r.sessions_interrupted + r.sessions_active_at_end, 4u);
  EXPECT_GT(r.video_payload_bytes, 0u);
  EXPECT_GT(r.bytes_downloaded, 0u);
  EXPECT_GT(r.aggregate.count, 0u);
  EXPECT_GT(r.connections, 0u);
  // Bulk downloads through an unconstrained bottleneck finish well before
  // the 30 s horizon: 20 s of 300 kbps video on research access legs.
  EXPECT_EQ(r.sessions_active_at_end, 0u);
}

TEST(TopologyRunTest, SharedBottleneckCreatesContention) {
  // Solo world: one session owns the bottleneck.
  auto solo = small_world().sessions(1).bottleneck_rate_bps(2e6).run();
  ASSERT_EQ(solo.goodput_samples, 1u);
  const double solo_goodput = solo.mean_goodput_bps();

  // Eight sessions arriving together behind the same 2 Mbps bottleneck
  // must each see materially less than the solo goodput.
  auto crowded = small_world().sessions(8).bottleneck_rate_bps(2e6).run();
  ASSERT_GT(crowded.goodput_samples, 0u);
  EXPECT_LT(crowded.mean_goodput_bps(), 0.6 * solo_goodput);
  // And the contention is real queueing, not wire loss.
  EXPECT_EQ(crowded.bottleneck_dropped_loss, 0u);
}

TEST(TopologyRunTest, CrossTrafficStealsBottleneckCapacity) {
  net::CrossTraffic::Config cross;
  cross.mean_rate_bps = 1.5e6;
  auto with_cross = small_world().sessions(4).bottleneck_rate_bps(2e6).cross_traffic(cross).run();
  auto without = small_world().sessions(4).bottleneck_rate_bps(2e6).run();
  EXPECT_GT(with_cross.cross_traffic_bytes, 0u);
  EXPECT_EQ(without.cross_traffic_bytes, 0u);
  EXPECT_LT(with_cross.mean_goodput_bps(), without.mean_goodput_bps());
}

TEST(TopologyRunTest, InterruptionWasteIsCounted) {
  // Viewers abandoning at 30% with bulk downloads leave unused bytes (§6.2).
  auto r = small_world().sessions(4).watch_fraction(0.3).run();
  EXPECT_EQ(r.sessions_interrupted, 4u);
  EXPECT_GT(r.wasted_bytes, 0u);
  EXPECT_LE(r.wasted_bytes, r.bytes_downloaded);
}

// --------------------------------------------------------------- determinism

TEST(TopologyDeterminismTest, TwinRunsFingerprintIdentically) {
  auto config = small_world()
                    .sessions(6)
                    .workload(WorkloadBuilder{}.poisson(1.0).build())
                    .bottleneck_rate_bps(10e6)
                    .build();
  const RunFingerprint a = fingerprint_topology(config);
  const RunFingerprint b = fingerprint_topology(config);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.sim_events, 0u);
  EXPECT_GT(a.bytes_downloaded, 0u);

  auto reseeded = small_world()
                      .sessions(6)
                      .workload(WorkloadBuilder{}.poisson(1.0).build())
                      .bottleneck_rate_bps(10e6)
                      .seed(43)
                      .build();
  EXPECT_NE(fingerprint_topology(reseeded).digest, a.digest);
}

// ------------------------------------------------------- model agreement §6.1

TEST(TopologyModelAgreementTest, EmpiricalMatchesClosedFormsAt10k) {
  // 10k Poisson arrivals sharded over 10 identical-in-distribution worlds
  // (~1k each at lambda = 20/s). Bulk HD Flash sessions on residence ADSL
  // legs (7.7 Mbps, so a transfer pulse lasts ~0.3 s and the 0.1 s windows
  // only mildly smooth it); e ~ U(100, 200) kbps, L ~ U(8, 16) s; the
  // bottleneck sits ~5 sigma above E[R], so the superposition is observed
  // uncongested — the regime of Eq. 3/4.
  //
  // Tolerances (documented in DESIGN.md §15): the mean check carries
  // sampling error plus horizon-edge effects (10%); the variance check
  // additionally smooths pulses over the window and inherits the
  // measured-G spread (30%).
  const auto make = [](std::size_t g) {
    return TopologyBuilder{}
        .container(video::Container::kFlashHd)
        .application(Application::kFirefox)
        .vantage(net::Vantage::kResidence)
        .video(test_video(12.0, 150e3))
        .sessions(1200)
        .workload(WorkloadBuilder{}
                      .poisson(20.0)
                      .customize([](std::size_t, sim::Rng& rng, SessionConfig& cfg) {
                        cfg.video.encoding_bps = rng.uniform(100e3, 200e3);
                        cfg.video.duration_s = rng.uniform(8.0, 16.0);
                      })
                      .build())
        .bottleneck_rate_bps(150e6)
        .horizon_s(50.0)
        .warmup_s(22.0)
        .sample_window_s(0.1)
        .seed(5000 + g)
        .build();
  };
  const runner::ParallelSweep pool{0};  // hardware concurrency
  const auto sweep = runner::run_worlds_streamed(pool, 0, 10, make);

  ASSERT_GE(sweep.sessions_started, 9000u);

  const model::AggregateParams params = sweep.measured_model_params();
  EXPECT_NEAR(params.lambda_per_s, 20.0, 2.0);
  EXPECT_NEAR(params.mean_encoding_bps, 150e3, 7.5e3);
  EXPECT_NEAR(params.mean_duration_s, 12.0, 0.6);
  EXPECT_GT(params.mean_download_rate_bps, params.mean_encoding_bps);

  const double predicted_mean = model::mean_aggregate_rate_bps(params);
  const double predicted_var = model::variance_aggregate_rate(params);
  const double empirical_mean = sweep.mean_aggregate_bps();
  const double empirical_var = sweep.variance_aggregate();

  EXPECT_NEAR(empirical_mean, predicted_mean, 0.10 * predicted_mean);
  EXPECT_NEAR(empirical_var, predicted_var, 0.30 * predicted_var);
}

}  // namespace
}  // namespace vstream::streaming
