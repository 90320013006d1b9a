#include "obs/chrome_trace.hpp"

#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

namespace vstream::obs {

namespace {

// One track (tid) per subsystem so Perfetto groups episodes the way the
// paper discusses them: player phases over fetch lifecycles over transport.
constexpr std::uint32_t kTidPlayer = 1;
constexpr std::uint32_t kTidFetch = 2;
constexpr std::uint32_t kTidTcp = 3;
constexpr std::uint32_t kTidLink = 4;
constexpr std::uint32_t kTidSim = 5;
constexpr std::uint32_t kTidPacing = 6;
constexpr std::uint32_t kTidOther = 7;

std::uint32_t tid_for(const std::string& category) {
  if (category == "player") return kTidPlayer;
  if (category == "fetch") return kTidFetch;
  if (category == "tcp") return kTidTcp;
  if (category == "link") return kTidLink;
  if (category == "sim") return kTidSim;
  return kTidOther;
}

const char* tid_name(std::uint32_t tid) {
  switch (tid) {
    case kTidPlayer: return "player";
    case kTidFetch: return "fetch";
    case kTidTcp: return "tcp";
    case kTidLink: return "link";
    case kTidSim: return "sim";
    case kTidPacing: return "pacing";
    default: return "analysis";
  }
}

/// Sim-time seconds -> trace microseconds, fixed formatting so golden-file
/// tests are byte-stable across platforms.
std::string us(double seconds) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", seconds * 1e6);
  return buf;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace

void ChromeTraceWriter::push(const std::string& row, std::uint32_t tid) {
  rows_.push_back(row);
  tids_.insert(tid);
}

void ChromeTraceWriter::add(const TraceEvent& event) {
  const std::string pid = std::to_string(pid_);
  struct Renderer {
    ChromeTraceWriter& w;
    const std::string& pid;

    void instant(std::uint32_t tid, const std::string& name, const std::string& args,
                 double t_s) const {
      w.push("{\"ph\":\"i\",\"pid\":" + pid + ",\"tid\":" + std::to_string(tid) + ",\"ts\":" +
                 us(t_s) + ",\"s\":\"t\",\"name\":\"" + json_escape(name) + "\",\"args\":{" + args +
                 "}}",
             tid);
    }
    void counter(std::uint32_t tid, const std::string& name, const std::string& args,
                 double t_s) const {
      w.push("{\"ph\":\"C\",\"pid\":" + pid + ",\"tid\":" + std::to_string(tid) + ",\"ts\":" +
                 us(t_s) + ",\"name\":\"" + json_escape(name) + "\",\"args\":{" + args + "}}",
             tid);
    }

    void operator()(const SpanRecord& e) const {
      const std::uint32_t tid = tid_for(e.category);
      const std::string id = std::to_string(e.span_id);
      const std::string head = ",\"pid\":" + pid + ",\"tid\":" + std::to_string(tid) +
                               ",\"cat\":\"" + json_escape(e.category) + "\",\"id\":" + id +
                               ",\"name\":\"" + json_escape(e.name) + "\"";
      w.push("{\"ph\":\"b\"" + head + ",\"ts\":" + us(e.t_begin_s) + ",\"args\":{\"detail\":\"" +
                 json_escape(e.detail) + "\",\"domain_id\":" + std::to_string(e.id) +
                 ",\"depth\":" + std::to_string(e.depth) + "}}",
             tid);
      if (e.t_mark_s >= 0.0) {
        instant(tid, e.name + ".mark", "\"span_id\":" + id, e.t_mark_s);
      }
      w.push("{\"ph\":\"e\"" + head + ",\"ts\":" + us(e.t_end_s) + "}", tid);
    }
    void operator()(const TcpCwndSample& e) const {
      counter(kTidTcp, "cwnd conn" + std::to_string(e.connection_id),
              "\"cwnd\":" + std::to_string(e.cwnd) + ",\"ssthresh\":" +
                  std::to_string(e.ssthresh) + ",\"in_flight\":" +
                  std::to_string(e.bytes_in_flight),
              e.t_s);
    }
    void operator()(const SimLoopSample& e) const {
      counter(kTidSim, "sim_loop",
              "\"pending\":" + std::to_string(e.events_pending) + ",\"sim_wall_ratio\":" +
                  number(e.sim_wall_ratio),
              e.t_s);
    }
    void operator()(const PacingBlockEmitted& e) const {
      instant(kTidPacing, e.initial_burst ? "initial_burst" : "pacing_block",
              "\"conn\":" + std::to_string(e.connection_id) + ",\"bytes\":" +
                  std::to_string(e.bytes),
              e.t_s);
    }
  };
  std::visit(Renderer{*this, pid}, event);
}

void ChromeTraceWriter::write(std::ostream& out) const {
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const std::uint32_t tid : tids_) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"ph\":\"M\",\"pid\":" << pid_ << ",\"tid\":" << tid
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\"" << tid_name(tid) << "\"}}";
  }
  for (const std::string& row : rows_) {
    if (!first) out << ",\n";
    first = false;
    out << row;
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
}

std::string ChromeTraceWriter::to_json() const {
  std::ostringstream out;
  write(out);
  return out.str();
}

ChromeTraceSink::ChromeTraceSink(std::string path) : path_{std::move(path)} {}

ChromeTraceSink::~ChromeTraceSink() { close(); }

bool ChromeTraceSink::close() {
  if (written_) return true;
  written_ = true;
  std::ofstream out{path_};
  if (!out) return false;
  writer_.write(out);
  return out.good();
}

}  // namespace vstream::obs
