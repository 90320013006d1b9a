#include "runner/session_sweep.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "check/digest.hpp"
#include "sim/arena.hpp"
#include "streaming/scenarios.hpp"

namespace vstream::runner {

namespace {

using Counter = std::uint64_t SweepAccumulator::*;
using Sum = double SweepAccumulator::*;
using Windows = stats::WindowStats SweepAccumulator::*;

/// The shard payload's fields, in payload order. One table drives both
/// to_json and from_json_file, so the two cannot drift apart.
constexpr std::pair<const char*, Counter> kCounters[] = {
    {"worlds", &SweepAccumulator::worlds},
    {"sessions_started", &SweepAccumulator::sessions_started},
    {"sessions_finished", &SweepAccumulator::sessions_finished},
    {"sessions_interrupted", &SweepAccumulator::sessions_interrupted},
    {"sessions_active_at_end", &SweepAccumulator::sessions_active_at_end},
    {"connections", &SweepAccumulator::connections},
    {"bytes_downloaded", &SweepAccumulator::bytes_downloaded},
    {"wasted_bytes", &SweepAccumulator::wasted_bytes},
    {"sim_events", &SweepAccumulator::sim_events},
    {"max_events_pending", &SweepAccumulator::max_events_pending},
    {"rebuffer_count", &SweepAccumulator::rebuffer_count},
    {"fetch_retries", &SweepAccumulator::fetch_retries},
    {"goodput_samples", &SweepAccumulator::goodput_samples},
};
constexpr std::pair<const char*, Sum> kSums[] = {
    {"sum_encoding_bps", &SweepAccumulator::sum_encoding_bps},
    {"sum_duration_s", &SweepAccumulator::sum_duration_s},
    {"sum_goodput_bps", &SweepAccumulator::sum_goodput_bps},
    {"horizon_s_sum", &SweepAccumulator::horizon_s_sum},
};
constexpr std::pair<const char*, Windows> kWindows[] = {
    {"aggregate", &SweepAccumulator::aggregate},
    {"concurrency", &SweepAccumulator::concurrency},
};

void append_u64(std::string& out, const std::string& key, std::uint64_t value) {
  out += ",\"" + key + "\":" + std::to_string(value);
}

/// %.17g is the shortest printf precision guaranteed to reproduce the exact
/// binary64, so every sum and window moment reloads bit-exactly.
void append_f64(std::string& out, const std::string& key, double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out += ",\"" + key + "\":" + buf;
}

std::runtime_error field_error(const std::string& path, const std::string& key,
                               const std::string& what) {
  return std::runtime_error{"shard payload " + path + ": field \"" + key + "\" " + what};
}

/// Locate `"key":` in `text` and return a pointer to the value after it.
const char* value_at(const std::string& text, const std::string& key, const std::string& path) {
  const std::string needle = "\"" + key + "\":";
  std::size_t at = text.find(needle);
  if (at == std::string::npos) {
    throw std::runtime_error{"shard payload " + path + " is missing field \"" + key + "\""};
  }
  at += needle.size();
  while (at < text.size() && std::isspace(static_cast<unsigned char>(text[at])) != 0) ++at;
  return text.data() + at;
}

/// from_chars reads the number; what follows must end the JSON value, so
/// "12.5" or "7abc" in an integer field is refused rather than truncated.
template <typename T>
T parse_number(const std::string& text, const std::string& key, const std::string& path,
               const char* kind, int base = 10, char terminator = '\0') {
  const char* begin = value_at(text, key, path);
  if (terminator != '\0') {
    if (*begin != '"') throw field_error(path, key, "is not a string");
    ++begin;
  }
  const char* end = text.data() + text.size();
  if (begin < end && (*begin == '-' || *begin == '+')) {
    throw field_error(path, key, "carries a sign");
  }
  T value{};
  std::from_chars_result parsed{};
  if constexpr (std::is_floating_point_v<T>) {
    parsed = std::from_chars(begin, end, value);
  } else {
    parsed = std::from_chars(begin, end, value, base);
  }
  if (parsed.ec == std::errc::result_out_of_range) throw field_error(path, key, "overflows");
  const bool ends = terminator != '\0'
                        ? parsed.ptr < end && *parsed.ptr == terminator
                        : parsed.ptr == end || *parsed.ptr == ',' || *parsed.ptr == '}' ||
                              std::isspace(static_cast<unsigned char>(*parsed.ptr)) != 0;
  if (parsed.ec != std::errc{} || !ends) throw field_error(path, key, kind);
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) throw field_error(path, key, "is not finite");
  }
  return value;
}

std::uint64_t parse_u64(const std::string& text, const std::string& key,
                        const std::string& path) {
  return parse_number<std::uint64_t>(text, key, path, "is not an unsigned integer");
}

double parse_f64(const std::string& text, const std::string& key, const std::string& path) {
  return parse_number<double>(text, key, path, "is not a number");
}

/// The digest travels as a hex string — a JSON number would silently lose
/// bits above 2^53 in any double-based reader touching the payload.
std::uint64_t parse_hex(const std::string& text, const std::string& key, const std::string& path) {
  return parse_number<std::uint64_t>(text, key, path, "is not a hex string", 16, '"');
}

streaming::SessionResult run_world(const streaming::SessionConfig& cfg) {
  return streaming::run_session(cfg);
}
streaming::TopologyResult run_world(const streaming::TopologyConfig& cfg) {
  return streaming::run_topology(cfg);
}

/// The one streamed-sweep loop, for either world kind.
template <typename Config>
SweepAccumulator run_streamed(const ParallelSweep& pool, std::size_t first, std::size_t count,
                              const std::function<Config(std::size_t)>& make) {
  // One lane per worker: the recycled world arena plus the partial
  // aggregate, padded so two workers' folds never bounce a cache line.
  struct alignas(128) Lane {
    sim::ArenaResource arena;
    SweepAccumulator partial;
  };
  std::vector<Lane> lanes(pool.jobs());
  SweepProfiler* const profiler = pool.profiler();

  pool.for_each_chunk(
      count, 0, [&lanes, &make, first, profiler](std::size_t begin, std::size_t end,
                                                 std::size_t worker) {
        Lane& lane = lanes[worker];
        for (std::size_t i = begin; i < end; ++i) {
          const SweepProfiler::Scope scope{profiler, worker, SweepPhase::kRun};
          lane.arena.reset();
          const std::size_t global = first + i;
          Config cfg = make(global);
          check::StateDigest world_digest;
          cfg.digest = &world_digest;
          if (cfg.arena == nullptr) cfg.arena = &lane.arena;
          const auto result = run_world(cfg);
          streaming::fold_outcome(world_digest, result);
          lane.partial.add(global, cfg, result, world_digest.value(),
                           world_digest.words_mixed());
        }
      });

  const SweepProfiler::Scope merge_scope{profiler, 0, SweepPhase::kMerge};
  SweepAccumulator total;
  for (const Lane& lane : lanes) total.merge(lane.partial);
  return total;
}

}  // namespace

void SweepDigest::add(std::size_t index, std::uint64_t digest_value, std::uint64_t words_mixed) {
  check::StateDigest word;
  word.mix(static_cast<std::uint64_t>(index));
  word.mix(digest_value);
  word.mix(words_mixed);
  combined ^= word.value();
  ++sessions;
}

void SweepAccumulator::add(std::size_t index, const streaming::SessionConfig& config,
                           const streaming::SessionResult& result, std::uint64_t digest_value,
                           std::uint64_t words_mixed) {
  ++worlds;
  ++sessions_started;
  if (result.player.interrupted) {
    ++sessions_interrupted;
    wasted_bytes += result.player.unused_bytes();
  } else if (result.player.finished) {
    ++sessions_finished;
  } else {
    ++sessions_active_at_end;
  }
  connections += result.connections;
  bytes_downloaded += result.bytes_downloaded;
  sim_events += result.sim_events;
  max_events_pending = std::max<std::uint64_t>(max_events_pending, result.sim_max_events_pending);
  rebuffer_count += result.resilience.rebuffer_count;
  fetch_retries += result.resilience.fetch_retries;
  sum_encoding_bps += result.encoding_bps_true;
  sum_duration_s += config.video.duration_s;
  horizon_s_sum += config.capture_duration_s;
  digest.add(index, digest_value, words_mixed);
}

void SweepAccumulator::add(std::size_t index, const streaming::TopologyConfig& config,
                           const streaming::TopologyResult& result, std::uint64_t digest_value,
                           std::uint64_t words_mixed) {
  ++worlds;
  sessions_started += result.sessions_started;
  sessions_finished += result.sessions_finished;
  sessions_interrupted += result.sessions_interrupted;
  sessions_active_at_end += result.sessions_active_at_end;
  connections += result.connections;
  bytes_downloaded += result.bytes_downloaded;
  wasted_bytes += result.wasted_bytes;
  sim_events += result.sim_events;
  max_events_pending = std::max<std::uint64_t>(max_events_pending, result.sim_max_events_pending);
  sum_encoding_bps += result.sum_encoding_bps;
  sum_duration_s += result.sum_duration_s;
  sum_goodput_bps += result.sum_goodput_bps;
  goodput_samples += result.goodput_samples;
  horizon_s_sum += config.horizon_s;
  aggregate.merge(result.aggregate);
  concurrency.merge(result.concurrency);
  digest.add(index, digest_value, words_mixed);
}

void SweepAccumulator::merge(const SweepAccumulator& other) {
  const std::uint64_t high_water = std::max(max_events_pending, other.max_events_pending);
  for (const auto& [key, field] : kCounters) this->*field += other.*field;
  max_events_pending = high_water;  // a high-water mark: max, not sum
  for (const auto& [key, field] : kSums) this->*field += other.*field;
  for (const auto& [key, field] : kWindows) (this->*field).merge(other.*field);
  digest.merge(other.digest);
}

std::string SweepAccumulator::to_json(const std::string& name, std::size_t shard,
                                      std::size_t shards, std::size_t first,
                                      std::size_t count) const {
  std::string out = "{\"name\":\"" + name + "\"";
  append_u64(out, "shard", shard);
  append_u64(out, "shards", shards);
  append_u64(out, "first", first);
  append_u64(out, "count", count);
  for (const auto& [key, field] : kCounters) append_u64(out, key, this->*field);
  for (const auto& [key, field] : kSums) append_f64(out, key, this->*field);
  for (const auto& [key, field] : kWindows) {
    const stats::WindowStats& w = this->*field;
    const std::string prefix = std::string{key} + "_";
    append_u64(out, prefix + "count", w.count);
    append_f64(out, prefix + "sum", w.sum);
    append_f64(out, prefix + "sum_sq", w.sum_sq);
    append_f64(out, prefix + "peak", w.peak);
  }
  append_f64(out, "mean_download_rate_bps", mean_download_rate_bps());  // for readers only
  char hex[24];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(digest.combined));
  out += ",\"digest\":\"";
  out += hex;
  out += "\"";
  append_u64(out, "digest_worlds", digest.sessions);
  out += "}";
  return out;
}

SweepAccumulator SweepAccumulator::from_json_file(const std::string& path, std::size_t& shard,
                                                  std::size_t& shards, std::size_t& first,
                                                  std::size_t& count) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"cannot open shard payload " + path};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  shard = parse_u64(text, "shard", path);
  shards = parse_u64(text, "shards", path);
  first = parse_u64(text, "first", path);
  count = parse_u64(text, "count", path);
  if (count > std::numeric_limits<std::size_t>::max() - first) {
    throw field_error(path, "count", "overflows first + count");
  }

  SweepAccumulator acc;
  for (const auto& [key, field] : kCounters) acc.*field = parse_u64(text, key, path);
  for (const auto& [key, field] : kSums) acc.*field = parse_f64(text, key, path);
  for (const auto& [key, field] : kWindows) {
    stats::WindowStats& w = acc.*field;
    const std::string prefix = std::string{key} + "_";
    w.count = parse_u64(text, prefix + "count", path);
    w.sum = parse_f64(text, prefix + "sum", path);
    w.sum_sq = parse_f64(text, prefix + "sum_sq", path);
    w.peak = parse_f64(text, prefix + "peak", path);
  }
  acc.digest.combined = parse_hex(text, "digest", path);
  acc.digest.sessions = parse_u64(text, "digest_worlds", path);
  if (acc.digest.sessions != acc.worlds) {
    throw std::runtime_error{"shard payload " + path + ": digest_worlds != worlds"};
  }
  return acc;
}

SweepAccumulator run_worlds_streamed(
    const ParallelSweep& pool, std::size_t first, std::size_t count,
    const std::function<streaming::SessionConfig(std::size_t)>& make) {
  return run_streamed(pool, first, count, make);
}

SweepAccumulator run_worlds_streamed(
    const ParallelSweep& pool, std::size_t first, std::size_t count,
    const std::function<streaming::TopologyConfig(std::size_t)>& make) {
  return run_streamed(pool, first, count, make);
}

SweepAccumulator run_worlds_streamed(const ParallelSweep& pool,
                                     const std::vector<streaming::SessionConfig>& configs) {
  return run_worlds_streamed(
      pool, 0, configs.size(),
      [&configs](std::size_t i) -> streaming::SessionConfig { return configs[i]; });
}

}  // namespace vstream::runner
