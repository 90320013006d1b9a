// perfbench: the repo benchmark's run loop and report.
//
//   perfbench --workload <table1_sweep|pcap_labels> --seed N
//             --seconds S --trace 0|1 [--tiny] [--data-dir DIR]
//
// Sets the workload up several times (setup_s is the median), then repeats
// the timed pipeline until S seconds have passed, at least twice, checking
// every repetition's output untimed and requiring equal digests across
// repetitions. With --trace 0 it reports the end-to-end metrics, measured
// with tracing off; with --trace 1 it interleaves untraced and traced
// repetitions and reports the per-layer metrics from the traced ones. The
// last line of stdout is one JSON object: correct, attempted, failed,
// metrics, each metric a bare number by name; run.py attaches the units
// BENCHMARK.json gives them. The two lines before it hold the run's
// provenance and its repetitions (count, digest, untraced wall times).
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0.0;
}

namespace {

/// Resets VmHWM to the current resident size (Linux 4.0+).
void reset_peak_rss() {
  std::ofstream clear{"/proc/self/clear_refs"};
  clear << "5";
}

// Enough repetitions for a stable median on the fastest workload; the
// slowest stops at the minimum of two.
constexpr std::size_t kMaxRepetitions = 64;
// Largest pool the benchmark uses, whatever the host offers beyond it.
constexpr std::size_t kMaxWorkers = 4;
constexpr double kMinSpanCoverage = 0.95;
constexpr int kSetupRepetitions = 3;
constexpr double kCheapSetupSeconds = 0.01;
constexpr double kMinSetupSampleSeconds = 0.001;
constexpr double kSetupBurstSeconds = 0.02;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--tiny] [--data-dir DIR]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  o.data_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      o.trace = value() == "1";
    } else if (arg == "--tiny") {
      o.tiny = true;
    } else if (arg == "--data-dir") {
      o.data_dir = value();
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  const unsigned hw = std::thread::hardware_concurrency();
  o.workers = std::clamp<std::size_t>(hw, 1, kMaxWorkers);
  return o;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

// The one flavour the benchmark is defined for; CMakeLists.txt fixes both.
static_assert(std::string_view{PERFBENCH_BUILD_TYPE} == "Release" && VSTREAM_CHECK_LEVEL == 0,
              "perfbench measures the Release build with contracts compiled out");

void print_provenance(const Options& o) {
  const char* sha = std::getenv("PERFBENCH_GIT_SHA");
  const char* tree = std::getenv("PERFBENCH_SOURCE_SHA256");
  std::printf(
      "{\"provenance\":{\"git_sha\":%s,\"source_sha256\":%s,\"build_type\":%s,"
      "\"vstream_check_level\":%d,\"flavour\":\"Release, contracts compiled out (CI perf-smoke)\","
      "\"compiler\":%s,\"hardware_concurrency\":%u,\"workers\":%zu,\"workload\":%s,"
      "\"seed\":%llu,\"seconds\":%.17g,\"trace\":%d,\"tiny\":%d}}\n",
      json_string(sha != nullptr ? sha : "unknown").c_str(),
      json_string(tree != nullptr ? tree : "unknown").c_str(),
      json_string(PERFBENCH_BUILD_TYPE).c_str(), VSTREAM_CHECK_LEVEL,
      json_string(PERFBENCH_COMPILER).c_str(), std::thread::hardware_concurrency(), o.workers,
      json_string(o.workload).c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
      o.trace ? 1 : 0, o.tiny ? 1 : 0);
}

struct Tally {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::string digest;
  std::size_t repetitions{0};

  void add(const Check& c) {
    attempted += c.attempted;
    failed += c.failed;
    if (!c.problem.empty()) {
      std::fprintf(stderr, "perfbench: check failed: %s\n", c.problem.c_str());
    }
    if (repetitions++ == 0) {
      digest = c.digest;
    } else if (c.digest != digest) {
      failed += c.attempted;
      std::fprintf(stderr, "perfbench: digest %s differs from the first repetition's %s\n",
                   c.digest.c_str(), digest.c_str());
    }
  }
};

/// Attributed time of a span name, or of a whole layer, over traced wall time.
void layer_shares(const Attribution& a, Metrics& out) {
  const auto share = [&a](const std::map<std::string, double>& by, const std::string& key) {
    const auto it = by.find(key);
    return it == by.end() || a.root_s <= 0.0 ? 0.0 : it->second / a.root_s;
  };
  for (const char* span : {"streaming.run_session", "analysis.build_report"}) {
    if (a.by_name_s.contains(span)) out[std::string{span} + "_share"] = share(a.by_name_s, span);
  }
  for (const char* layer : {"capture", "runner", "obs"}) {
    out[std::string{layer} + ".share"] = share(a.by_layer_s, layer);
  }
}

double timed_run(Workload& w, SpanLog* log, std::uint32_t root) {
  const std::int64_t start = now_ns();
  w.run(log, root);
  return static_cast<double>(now_ns() - start) * 1e-9;
}

int run(const Options& o) {
  print_provenance(o);
  std::unique_ptr<Workload> w = make_workload(o);

  // One set-up sample times `batch` set-ups back to back, per set-up.
  std::vector<double> setups;
  std::size_t batch = 1;
  const auto set_up = [&](double at_least_s) {
    const std::int64_t begin = now_ns();
    do {
      const std::int64_t start = now_ns();
      for (std::size_t i = 0; i < batch; ++i) w->setup();
      setups.push_back(static_cast<double>(now_ns() - start) * 1e-9 / static_cast<double>(batch));
    } while (static_cast<double>(now_ns() - begin) * 1e-9 < at_least_s);
  };
  for (int i = 0; i < kSetupRepetitions; ++i) set_up(0.0);
  // A set-up of microseconds is at the mercy of the clock's resolution and
  // of whatever the host does in that instant. So a cheap one is batched
  // into samples of a millisecond or more, sampled again in a short burst
  // before every repetition, and its median taken over the whole run.
  const double first_setups_s = median(setups);
  const bool cheap_setup = first_setups_s < kCheapSetupSeconds;
  if (cheap_setup) {
    batch = static_cast<std::size_t>(
        std::ceil(kMinSetupSampleSeconds / std::max(first_setups_s, 1e-9)));
    setups.clear();
  }
  const auto before_repetition = [&] {
    if (cheap_setup) set_up(kSetupBurstSeconds);
  };

  Tally tally;
  Metrics metrics;
  // Every repetition, traced or not, starts from the same state: the heap
  // trimmed and the high-water mark reset. So each untraced repetition's
  // peak is its own, not one that allocator fragmentation from rebuilding
  // the same world piles up over the run, and the traced repetitions pay
  // the same preparation as the untraced ones they are compared with.
  const auto prepare = [] {
    malloc_trim(0);
    reset_peak_rss();
  };

  // The first repetition after set-up runs slower than the ones after it,
  // so it is a warm-up: checked, and the digest baseline, but not timed.
  prepare();
  w->run(nullptr, 0);
  tally.add(w->check());

  std::vector<double> walls;
  const std::int64_t start = now_ns();
  const auto elapsed = [start] { return static_cast<double>(now_ns() - start) * 1e-9; };
  const auto more = [&](std::size_t done, std::size_t least) {
    return done < least || (elapsed() < o.seconds && done < kMaxRepetitions);
  };

  std::vector<double> peaks;
  const auto untraced = [&] {
    prepare();
    walls.push_back(timed_run(*w, nullptr, 0));
    peaks.push_back(peak_rss_mb());
    tally.add(w->check());
  };

  if (!o.trace) {
    while (more(walls.size(), 2)) {
      before_repetition();
      untraced();
    }
    const double wall_s = median(walls);
    metrics["setup_s"] = median(setups);
    metrics["wall_s"] = wall_s;
    w->end_to_end(wall_s, metrics);
    metrics["peak_rss_mb"] = median(peaks);
  } else {
    SpanLog log;
    Attribution pooled;
    std::vector<double> traced;
    // Untraced and traced repetitions alternate which runs first, so warm-up
    // order does not bias trace_overhead_ratio.
    while (more(traced.size(), 1)) {
      before_repetition();
      const bool untraced_first = traced.size() % 2 == 0;
      if (untraced_first) untraced();
      std::uint32_t root = 0;
      prepare();
      {
        const Span rep{&log, "rep"};
        root = rep.id();
        w->run(&log, root);
      }
      tally.add(w->check());
      if (!untraced_first) untraced();
      const Attribution a = attribute(log.records(), root);
      traced.push_back(a.root_s);
      pooled.merge(a);
    }
    w->per_layer(pooled, metrics);
    layer_shares(pooled, metrics);
    // The bare event queue at fixed depths and at this workload's own peak.
    const std::size_t ops = o.tiny ? 10'000 : 1'000'000;
    for (const auto& [name, depth] :
         {std::pair{"sim.queue_ns_per_op.1e2", std::size_t{100}},
          std::pair{"sim.queue_ns_per_op.1e4", std::size_t{10'000}},
          std::pair{"sim.queue_ns_per_op.1e6", o.tiny ? std::size_t{100'000} : 1'000'000},
          std::pair{"sim.queue_ns_per_op.workload",
                    static_cast<std::size_t>(metrics["sim.max_pending"])}}) {
      metrics[name] = depth > 0 ? queue_ns_per_op(depth, ops, o.seed) : 0.0;
    }
    metrics["trace_overhead_ratio"] = median(traced) / median(walls);
    metrics["span_coverage"] = pooled.coverage();
    ++tally.attempted;
    if (pooled.coverage() < kMinSpanCoverage) {
      ++tally.failed;
      std::fprintf(stderr, "perfbench: span coverage %.4f is below %.2f\n", pooled.coverage(),
                   kMinSpanCoverage);
    }
    const std::string spans_path =
        o.data_dir + "/spans-" + o.workload + "-" + std::to_string(o.seed) + ".jsonl";
    log.write_jsonl(spans_path);
    std::fprintf(stderr, "perfbench: %zu spans written to %s\n", log.records().size(),
                 spans_path.c_str());
  }

  if (!o.trace) {
    metrics["success_ratio"] =
        1.0 - static_cast<double>(tally.failed) /
                  static_cast<double>(std::max<std::uint64_t>(tally.attempted, 1));
  }
  // The digest is printed, not pinned: a change that legitimately moves the
  // simulation re-baselines it by running the benchmark.
  std::printf("{\"repetitions\":{\"count\":%zu,\"digest\":%s,\"untraced_wall_s\":[",
              tally.repetitions, json_string(tally.digest).c_str());
  for (std::size_t i = 0; i < walls.size(); ++i) std::printf("%s%.17g", i > 0 ? "," : "", walls[i]);
  std::printf("]}}\n");

  std::string out;
  for (auto& [name, value] : metrics) {
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", name.c_str());
      ++tally.failed;
      value = 0.0;
    }
    char text[64];
    std::snprintf(text, sizeof text, "%.17g", value);
    if (!out.empty()) out += ", ";
    out += json_string(name) + ": " + text;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              tally.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed), out.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
