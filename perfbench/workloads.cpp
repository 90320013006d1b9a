// The two north-star pipelines as benchmark workloads.
//
//   table1_sweep  every supported Table-1 cell x the four vantage profiles,
//                 180 s sessions through streaming::run_session and batch
//                 analysis::build_report, closed loop on runner::ParallelSweep.
//                 Its traced run also times one streaming::run_topology
//                 flash-crowd world at 1k, 3k and 10k viewers.
//   pcap_labels   a synthetic 1 GB, 64-connection capture labelled through
//                 capture::MmapPcapReader + analysis::classify_capture.
//
// The library sees only the configs and files generated here from the seed.
// Spans wrap the calls into each module's public functions; the layer
// counters come from what those calls already return.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/connection_demux.hpp"
#include "analysis/parallel_classify.hpp"
#include "analysis/report.hpp"
#include "bench.hpp"
#include "capture/pcap_reader.hpp"
#include "capture/synthetic.hpp"
#include "check/digest.hpp"
#include "runner/parallel_sweep.hpp"
#include "runner/session_sweep.hpp"
#include "runner/sweep_profiler.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "streaming/scenarios.hpp"
#include "streaming/session_builder.hpp"
#include "streaming/topology.hpp"
#include "streaming/topology_builder.hpp"
#include "video/datasets.hpp"

namespace perfbench {

namespace {

using namespace vstream;
using streaming::Application;
using streaming::Service;
using video::Container;

constexpr double kMB = 1e6;

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  // splitmix64 finaliser: distinct salts give decorrelated streams.
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30U)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27U)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31U);
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

double get(const std::map<std::string, double>& m, const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

// ---------------------------------------------------------------------------
// flash-crowd scale points

/// The `capacity_planner --flash-crowd N --gbps N/10000` world: `crowd`
/// FlashHd viewers arriving within 5 s onto one shared bottleneck, each
/// crowd size with the 10,000-viewer world's 100 kbps per viewer.
streaming::TopologyConfig flash_world(std::size_t crowd, std::uint64_t seed) {
  constexpr double kBottleneckBpsPerViewer = 1e9 / 10'000;
  video::VideoMeta meta;
  meta.id = "crowd";
  meta.duration_s = 20.0;
  meta.encoding_bps = 75e3;
  meta.container = Container::kFlashHd;
  return streaming::TopologyBuilder{}
      .container(Container::kFlashHd)
      .vantage(net::Vantage::kResidence)
      .video(meta)
      .sessions(crowd)
      .workload(streaming::WorkloadBuilder{}
                    .flash_crowd(/*spread_s=*/5.0)
                    .customize([](std::size_t, sim::Rng& rng, streaming::SessionConfig& cfg) {
                      cfg.video.encoding_bps = rng.uniform(50e3, 100e3);
                      cfg.video.duration_s = rng.uniform(15.0, 25.0);
                    })
                    .build())
      .bottleneck_rate_bps(kBottleneckBpsPerViewer * static_cast<double>(crowd))
      .horizon_s(35.0)
      .warmup_s(2.0)
      .sample_window_s(0.1)
      .seed(mix_seed(seed, 31))
      .build();
}

/// Host time per event and queue depth of the flash-crowd world as the
/// crowd grows, the deep-queue regime the Table-1 sessions never reach.
/// Each world runs once on one thread and must account for every viewer it
/// started.
void flash_scale_points(const Options& opt, Metrics& out) {
  for (const auto& [point, n] : {std::pair{"1k", std::size_t{1000}},
                                 std::pair{"3k", std::size_t{3000}},
                                 std::pair{"10k", std::size_t{10'000}}}) {
    const std::size_t crowd = opt.tiny ? n / 20 : n;
    const streaming::TopologyConfig cfg = flash_world(crowd, opt.seed);
    const std::int64_t start = now_ns();
    const streaming::TopologyResult r = streaming::run_topology(cfg);
    out[std::string{"sim.ns_per_event."} + point] =
        seconds_since(start) * 1e9 / static_cast<double>(r.sim_events);
    out[std::string{"sim.max_pending."} + point] = static_cast<double>(r.sim_max_events_pending);
    if (r.sessions_started != crowd || r.sessions_finished + r.sessions_interrupted +
                                               r.sessions_active_at_end != r.sessions_started) {
      throw std::runtime_error("flash crowd of " + std::to_string(crowd) +
                               " viewers lost sessions");
    }
  }
}

// ---------------------------------------------------------------------------
// table1_sweep

struct Cell {
  Service service;
  Container container;
  Application application;
  analysis::Strategy paper;
};

/// Every cell of the paper's Table 1 that has an entry (the matrix of
/// bench_table1_strategy_matrix without its "Not Applicable" row).
const std::vector<Cell>& table1_cells() {
  using analysis::Strategy;
  static const std::vector<Cell> kCells = {
      {Service::kYouTube, Container::kFlash, Application::kInternetExplorer, Strategy::kShortOnOff},
      {Service::kYouTube, Container::kFlash, Application::kFirefox, Strategy::kShortOnOff},
      {Service::kYouTube, Container::kFlash, Application::kChrome, Strategy::kShortOnOff},
      {Service::kYouTube, Container::kHtml5, Application::kInternetExplorer, Strategy::kShortOnOff},
      {Service::kYouTube, Container::kHtml5, Application::kFirefox, Strategy::kNoOnOff},
      {Service::kYouTube, Container::kHtml5, Application::kChrome, Strategy::kLongOnOff},
      {Service::kYouTube, Container::kHtml5, Application::kIosNative, Strategy::kMultiple},
      {Service::kYouTube, Container::kHtml5, Application::kAndroidNative, Strategy::kLongOnOff},
      {Service::kYouTube, Container::kFlashHd, Application::kInternetExplorer, Strategy::kNoOnOff},
      {Service::kYouTube, Container::kFlashHd, Application::kFirefox, Strategy::kNoOnOff},
      {Service::kYouTube, Container::kFlashHd, Application::kChrome, Strategy::kNoOnOff},
      {Service::kNetflix, Container::kSilverlight, Application::kInternetExplorer,
       Strategy::kShortOnOff},
      {Service::kNetflix, Container::kSilverlight, Application::kFirefox, Strategy::kShortOnOff},
      {Service::kNetflix, Container::kSilverlight, Application::kChrome, Strategy::kShortOnOff},
      {Service::kNetflix, Container::kSilverlight, Application::kIosNative, Strategy::kShortOnOff},
      {Service::kNetflix, Container::kSilverlight, Application::kAndroidNative,
       Strategy::kLongOnOff},
  };
  return kCells;
}

video::VideoMeta table1_video(const Cell& cell) {
  video::VideoMeta v;
  v.id = "t1";
  if (cell.service == Service::kNetflix) {
    v.duration_s = 3600.0;
    v.encoding_bps = video::netflix_rate_ladder().back();
    v.container = Container::kSilverlight;
    v.available_rates_bps = video::netflix_rate_ladder();
  } else {
    v.duration_s = 600.0;
    v.encoding_bps = cell.container == Container::kFlashHd ? 3e6 : 1.2e6;
    v.container = cell.container;
  }
  return v;
}

/// Counters one session contributes, copied out of its result so the
/// 180 s trace can be freed inside the worker.
struct SessionOut {
  analysis::SessionReport report;
  check::StateDigest digest;
  std::uint64_t records{0};
  std::uint64_t events{0};
  std::size_t max_pending{0};
  std::size_t connections{0};
  std::map<std::string, std::uint64_t> counters;
};

class Table1Sweep final : public Workload {
 public:
  explicit Table1Sweep(const Options& o) : opt_{o}, pool_{o.workers} {}

  void setup() override {
    // Tiny scale keeps one cell per strategy on one vantage.
    static constexpr std::size_t kTinyCells[] = {0, 4, 5, 6};
    std::vector<std::size_t> cells;
    if (opt_.tiny) {
      cells.assign(std::begin(kTinyCells), std::end(kTinyCells));
    } else {
      for (std::size_t c = 0; c < table1_cells().size(); ++c) cells.push_back(c);
    }
    const std::size_t vantages = opt_.tiny ? 1 : net::kAllVantages.size();
    configs_.clear();
    expected_.clear();
    vantage_.clear();
    for (std::size_t k = 0; k < kSeedsPerCell; ++k) {
      for (const std::size_t c : cells) {
        const Cell& cell = table1_cells()[c];
        for (std::size_t v = 0; v < vantages; ++v) {
          configs_.push_back(streaming::SessionBuilder{}
                                 .service(cell.service)
                                 .container(cell.container)
                                 .application(cell.application)
                                 .vantage(net::kAllVantages[v])
                                 .video(table1_video(cell))
                                 .capture_duration_s(180.0)
                                 .seed(mix_seed(opt_.seed, configs_.size()))
                                 .build());
          expected_.push_back(cell.paper);
          vantage_.push_back(net::kAllVantages[v]);
        }
      }
    }
  }

  void run(SpanLog* log, std::uint32_t root) override {
    std::optional<runner::SweepProfiler> profiler;
    if (log != nullptr) profiler.emplace(pool_.jobs());
    runner::SweepProfiler* prof = profiler ? &*profiler : nullptr;
    const Span map_span{log, "runner.map", root};
    const std::uint32_t parent = map_span.id();
    out_ = pool_.map<SessionOut>(configs_.size(), [&](std::size_t i) {
      const std::size_t worker = runner::ParallelSweep::current_worker();
      SessionOut o;
      streaming::SessionConfig cfg = configs_[i];
      cfg.digest = &o.digest;
      streaming::SessionResult result;
      {
        const Span span{log, "streaming.run_session", parent};
        const runner::SweepProfiler::Scope scope{prof, worker, runner::SweepPhase::kRun};
        result = streaming::run_session(cfg);
      }
      {
        const Span span{log, "analysis.build_report", parent};
        const runner::SweepProfiler::Scope scope{prof, worker, runner::SweepPhase::kAnalyze};
        analysis::ReportOptions options;
        options.resilience = result.resilience;
        o.report = analysis::build_report(result.video_trace(), options);
      }
      const Span span{log, "obs.fold_outcome", parent};
      streaming::fold_outcome(o.digest, result);
      o.records = result.trace.packets.size();
      o.events = result.sim_events;
      o.max_pending = result.sim_max_events_pending;
      o.connections = result.connections;
      o.counters = result.metrics.counters;
      return o;
    });
    if (prof != nullptr) utilization_.push_back(prof->summary().utilization());
  }

  Check check() override {
    Check c;
    runner::SweepDigest sweep;
    matches_ = 0;
    for (std::size_t i = 0; i < out_.size(); ++i) {
      SessionOut& o = out_[i];
      ++c.attempted;
      o.digest.mix(o.report.render());
      sweep.add(i, o.digest.value(), o.digest.words_mixed());
      if (o.report.strategy == expected_[i]) {
        ++matches_;
      } else if (vantage_[i] == net::Vantage::kResearch) {
        // Table 1 was measured from the research vantage; there a different
        // label is a failed check. Elsewhere it only lowers the agreement.
        ++c.failed;
        if (c.problem.empty()) {
          c.problem = "session " + std::to_string(i) + " labelled " +
                      analysis::to_string(o.report.strategy) + ", Table 1 says " +
                      analysis::to_string(expected_[i]);
        }
      }
    }
    if (out_.size() != configs_.size()) {
      ++c.failed;
      c.problem = "sweep returned " + std::to_string(out_.size()) + " sessions";
    }
    c.digest = hex(sweep.combined) + "/" + std::to_string(sweep.sessions);
    return c;
  }

  void end_to_end(double wall_s, Metrics& out) const override {
    const auto n = static_cast<double>(out_.size());
    out["sessions_per_s"] = n / wall_s;
    out["ingest_mb_per_s"] = trace_mb() / wall_s;
    out["table1_agreement"] = static_cast<double>(matches_) / n;
  }

  void per_layer(const Attribution& a, Metrics& out) const override {
    const auto n = static_cast<double>(out_.size());
    const double events = sum(&SessionOut::events);
    const double records = sum(&SessionOut::records);
    double connections = 0.0;
    for (const SessionOut& o : out_) connections += static_cast<double>(o.connections);
    out["sim.events"] = events;
    out["sim.max_pending"] = static_cast<double>(max_pending());
    const auto reps = static_cast<double>(a.count.at("runner.map"));
    out["sim.ns_per_event"] = get(a.total_s, "streaming.run_session") * 1e9 / (events * reps);
    for (const char* name : {"net.segments_delivered", "net.drops_queue", "tcp.segments_sent",
                             "tcp.segments_retransmitted", "tcp.timeouts", "player.stalls",
                             "player.rebuffers"}) {
      out[name] = counter(name);
    }
    out["tcp.connections"] = connections;
    out["capture.records_per_session"] = records / n;
    out["capture.trace_mb"] = trace_mb() / n;
    out["analysis.ns_per_record"] =
        get(a.total_s, "analysis.build_report") * 1e9 / (records * reps);
    out["runner.utilization"] = median(utilization_);
    out["runner.workers"] = static_cast<double>(pool_.jobs());
    flash_scale_points(opt_, out);
  }

 private:
  static constexpr std::size_t kSeedsPerCell = 2;

  double sum(std::uint64_t SessionOut::*field) const {
    double total = 0.0;
    for (const SessionOut& o : out_) total += static_cast<double>(o.*field);
    return total;
  }

  /// Captured video-trace bytes the reports analysed, in MB.
  double trace_mb() const {
    return sum(&SessionOut::records) * sizeof(capture::PacketRecord) / kMB;
  }

  std::size_t max_pending() const {
    std::size_t deepest = 0;
    for (const SessionOut& o : out_) deepest = std::max(deepest, o.max_pending);
    return deepest;
  }

  double counter(const std::string& name) const {
    double total = 0.0;
    for (const SessionOut& o : out_) {
      if (const auto it = o.counters.find(name); it != o.counters.end()) {
        total += static_cast<double>(it->second);
      }
    }
    return total;
  }

  Options opt_;
  runner::ParallelSweep pool_;
  std::vector<streaming::SessionConfig> configs_;
  std::vector<analysis::Strategy> expected_;
  std::vector<net::Vantage> vantage_;
  std::vector<SessionOut> out_;
  std::vector<double> utilization_;
  std::size_t matches_{0};
};

// ---------------------------------------------------------------------------
// pcap_labels

class PcapLabels final : public Workload {
 public:
  explicit PcapLabels(const Options& o)
      : opt_{o}, pool_{o.workers}, path_{o.data_dir + "/pcap_labels-" + std::to_string(o.seed) +
                                         ".pcap"} {}
  ~PcapLabels() override { std::remove(path_.c_str()); }
  PcapLabels(const PcapLabels&) = delete;
  PcapLabels& operator=(const PcapLabels&) = delete;

  void setup() override {
    capture::SyntheticCaptureOptions gen;
    gen.connections = opt_.tiny ? 6 : 64;
    gen.target_file_bytes = opt_.tiny ? (16ULL << 20U) : (1ULL << 30U);
    // The seed moves the pacing rate and the handshake stagger; block sizes
    // and gaps, which fix each connection's ground-truth label, stay put.
    sim::Rng rng{mix_seed(opt_.seed, 64)};
    gen.down_rate_bps = rng.uniform(6e6, 10e6);
    gen.start_spacing_s = rng.uniform(0.02, 0.08);
    // Written through the page cache, so the file stays warm for the runs.
    summary_ = capture::write_synthetic_capture(path_, gen);
    connections_ = gen.connections;
  }

  void run(SpanLog* log, std::uint32_t root) override {
    std::optional<capture::MmapPcapReader> reader;
    {
      const Span span{log, "capture.open", root};
      reader.emplace(path_);
    }
    {
      // Traced, the library's own profiler times the partition, lane and
      // merge passes of the call.
      const Span span{log, "analysis.classify_capture", root};
      std::optional<runner::SweepProfiler> profiler;
      if (log != nullptr) profiler.emplace(pool_.jobs());
      labels_ = analysis::classify_capture(*reader, pool_, {}, profiler ? &*profiler : nullptr);
      if (profiler) passes_.push_back(profiler->summary());
    }
    const Span span{log, "capture.close", root};
    reader.reset();
  }

  Check check() override {
    Check c;
    matches_ = 0;
    c.attempted = connections_;
    const auto fail = [&c](const std::string& what) {
      ++c.failed;
      if (c.problem.empty()) c.problem = what;
    };
    if (labels_.connections.size() != connections_) {
      fail("classified " + std::to_string(labels_.connections.size()) + " connections of " +
           std::to_string(connections_));
    }
    if (labels_.records != summary_.records) fail("record count differs from the writer's");
    for (const analysis::ConnectionLabel& row : labels_.connections) {
      const std::uint64_t id = row.connection_id;
      const analysis::Strategy want = id % 3 == 1   ? analysis::Strategy::kShortOnOff
                                      : id % 3 == 2 ? analysis::Strategy::kLongOnOff
                                                    : analysis::Strategy::kNoOnOff;
      if (row.strategy == want) {
        ++matches_;
      } else {
        fail("connection " + std::to_string(id) + " labelled " +
             analysis::to_string(row.strategy));
        continue;
      }
      if (id % 6 == 5 && row.ack_clocked != std::optional<bool>{false}) {
        fail("connection " + std::to_string(id) + " bursts whole blocks but reads ack-clocked");
      }
    }
    const std::string csv = labels_.to_csv();
    if (!serial_checked_) {
      // Byte-equality with the serial reference, once per run (untimed).
      const capture::MmapPcapReader reader{path_};
      const analysis::CaptureClassification serial = analysis::classify_capture_serial(reader);
      if (!(serial == labels_) || serial.to_csv() != csv) fail("parallel labels != serial labels");
      serial_checked_ = true;
    }
    check::StateDigest d;
    d.mix(csv);
    c.digest = hex(d.value());
    return c;
  }

  void end_to_end(double wall_s, Metrics& out) const override {
    out["sessions_per_s"] = static_cast<double>(labels_.connections.size()) / wall_s;
    out["ingest_mb_per_s"] = static_cast<double>(summary_.file_bytes) / kMB / wall_s;
    out["table1_agreement"] = static_cast<double>(matches_) / static_cast<double>(connections_);
  }

  void per_layer(const Attribution& a, Metrics& out) const override {
    const auto records = static_cast<double>(labels_.records);
    const auto connections = static_cast<double>(labels_.connections.size());
    out["capture.records_per_session"] = records / connections;
    out["capture.trace_mb"] = static_cast<double>(summary_.file_bytes) / kMB / connections;

    // The three passes of classify_capture as its profiler recorded them:
    // partition (kBuild) and merge (kMerge) on one worker, one kRun task
    // per lane on the worker that ran it.
    using runner::SweepPhase;
    const auto phase = [](SweepPhase p) { return static_cast<std::size_t>(p); };
    double partition_s = 0.0;
    double lanes_s = 0.0;
    double lane_max_s = 0.0;
    double merge_s = 0.0;
    std::uint64_t lanes = 0;
    std::vector<double> utilization;
    for (const runner::SweepProfiler::Summary& pass : passes_) {
      for (const runner::SweepProfiler::WorkerStats& w : pass.per_worker) {
        partition_s += w.phase_s[phase(SweepPhase::kBuild)];
        lanes_s += w.phase_s[phase(SweepPhase::kRun)];
        lanes += w.phase_tasks[phase(SweepPhase::kRun)];
        lane_max_s = std::max(lane_max_s, w.phase_max_s[phase(SweepPhase::kRun)]);
        merge_s += w.phase_s[phase(SweepPhase::kMerge)];
      }
      utilization.push_back(pass.utilization());
    }
    const auto passes = static_cast<double>(passes_.size());
    out["analysis.ns_per_record"] = (partition_s + lanes_s + merge_s) * 1e9 / (records * passes);
    out["analysis.partition_share"] = partition_s / a.root_s;
    // The lane fan-out's wall time, pool dispatch included: the call less
    // its two serial passes.
    out["analysis.classify_lane_share"] =
        (get(a.total_s, "analysis.classify_capture") - partition_s - merge_s) / a.root_s;
    out["analysis.lane_skew"] = lane_max_s / (lanes_s / static_cast<double>(lanes));
    out["analysis.merge_share"] = merge_s / a.root_s;
    out["runner.utilization"] = median(utilization);
    out["runner.workers"] = static_cast<double>(pool_.jobs());
  }

 private:
  Options opt_;
  runner::ParallelSweep pool_;
  std::string path_;
  capture::SyntheticCaptureSummary summary_;
  std::size_t connections_{0};
  analysis::CaptureClassification labels_;
  std::vector<runner::SweepProfiler::Summary> passes_;  ///< one per traced repetition
  std::size_t matches_{0};
  bool serial_checked_{false};
};

}  // namespace

std::unique_ptr<Workload> make_workload(const Options& options) {
  if (options.workload == "table1_sweep") return std::make_unique<Table1Sweep>(options);
  if (options.workload == "pcap_labels") return std::make_unique<PcapLabels>(options);
  throw std::invalid_argument("unknown workload " + options.workload);
}

double queue_ns_per_op(std::size_t depth, std::uint64_t ops, std::uint64_t seed) {
  if (depth == 0) return 0.0;
  // Hold model: every dispatched event schedules one successor a random
  // gap later, so the queue stays at `depth`. Gaps come from a table drawn
  // up front, keeping the generator's cost out of the measured loop.
  struct Hold {
    sim::Simulator sim;
    std::vector<sim::Duration> gaps;
    std::size_t next{0};
    void schedule(sim::Duration gap) {
      sim.schedule_after(gap, [this] { schedule(gaps[next++ % gaps.size()]); });
    }
  } hold;
  sim::Rng rng{mix_seed(seed, depth)};
  constexpr double kMeanGapNs = 1e6;
  const auto draw = [&rng] {
    return sim::Duration::nanos(1 + static_cast<std::int64_t>(rng.exponential(1.0 / kMeanGapNs)));
  };
  hold.gaps.resize(4096);
  for (sim::Duration& gap : hold.gaps) gap = draw();
  for (std::size_t i = 0; i < depth; ++i) hold.schedule(draw());
  const std::int64_t start = now_ns();
  for (std::uint64_t i = 0; i < ops; ++i) hold.sim.step();
  return static_cast<double>(now_ns() - start) / static_cast<double>(ops);
}

}  // namespace perfbench
