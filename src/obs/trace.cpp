#include "obs/trace.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace vstream::obs {

namespace {

void field(std::ostringstream& out, const char* key, double v) {
  char buf[64];
  if (std::isfinite(v)) {
    std::snprintf(buf, sizeof buf, "%.17g", v);  // enough digits to round-trip
  } else {
    std::snprintf(buf, sizeof buf, "null");
  }
  out << ",\"" << key << "\":" << buf;
}

void field(std::ostringstream& out, const char* key, std::uint64_t v) {
  out << ",\"" << key << "\":" << v;
}

void field(std::ostringstream& out, const char* key, const std::string& v) {
  out << ",\"" << key << "\":\"" << json_escape(v) << '"';
}

struct JsonlWriter {
  std::ostringstream& out;

  void operator()(const TcpCwndSample& e) const {
    field(out, "t", e.t_s);
    field(out, "conn", e.connection_id);
    field(out, "endpoint", e.endpoint);
    field(out, "cwnd", e.cwnd);
    field(out, "ssthresh", e.ssthresh);
    field(out, "rwnd", e.rwnd);
    field(out, "adv_wnd", e.adv_wnd);
    field(out, "rto_s", e.rto_s);
    field(out, "in_flight", e.bytes_in_flight);
  }
  void operator()(const SimLoopSample& e) const {
    field(out, "t", e.t_s);
    field(out, "events", e.events_processed);
    field(out, "pending", e.events_pending);
    field(out, "max_pending", e.max_events_pending);
    field(out, "sim_wall_ratio", e.sim_wall_ratio);
  }
  void operator()(const PacingBlockEmitted& e) const {
    field(out, "t", e.t_s);
    field(out, "conn", e.connection_id);
    field(out, "bytes", e.bytes);
    field(out, "initial_burst", static_cast<std::uint64_t>(e.initial_burst ? 1 : 0));
  }
  void operator()(const SpanRecord& e) const {
    field(out, "t", e.t_end_s);
    field(out, "begin_s", e.t_begin_s);
    field(out, "mark_s", e.t_mark_s);
    field(out, "span_id", e.span_id);
    field(out, "id", e.id);
    field(out, "depth", static_cast<std::uint64_t>(e.depth));
    field(out, "cat", e.category);
    field(out, "name", e.name);
    field(out, "detail", e.detail);
  }
};

}  // namespace

const char* event_type(const TraceEvent& event) {
  struct Namer {
    const char* operator()(const TcpCwndSample&) const { return "tcp_cwnd"; }
    const char* operator()(const SimLoopSample&) const { return "sim_loop"; }
    const char* operator()(const PacingBlockEmitted&) const { return "pacing_block"; }
    const char* operator()(const SpanRecord&) const { return "span"; }
  };
  return std::visit(Namer{}, event);
}

std::string to_jsonl(const TraceEvent& event) {
  std::ostringstream out;
  out << "{\"type\":\"" << event_type(event) << '"';
  std::visit(JsonlWriter{out}, event);
  out << '}';
  return out.str();
}

namespace {

/// Locate the value text after `"key":`, or npos.
std::size_t value_offset(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return std::string::npos;
  return at + needle.size();
}

}  // namespace

std::optional<double> jsonl_number(const std::string& line, const std::string& key) {
  const std::size_t at = value_offset(line, key);
  if (at == std::string::npos) return std::nullopt;
  double v = 0.0;
  if (std::from_chars(line.data() + at, line.data() + line.size(), v).ec != std::errc{}) {
    return std::nullopt;
  }
  return v;
}

std::optional<std::string> jsonl_string(const std::string& line, const std::string& key) {
  std::size_t at = value_offset(line, key);
  if (at == std::string::npos || at >= line.size() || line[at] != '"') return std::nullopt;
  ++at;
  std::string out;
  while (at < line.size() && line[at] != '"') {
    if (line[at] != '\\') {
      out += line[at++];
      continue;
    }
    if (++at >= line.size()) return std::nullopt;
    switch (line[at++]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        // json_escape writes \u00XX for the remaining control characters.
        unsigned code = 0;
        const char* digits = line.data() + at;
        if (line.size() - at < 4 ||
            std::from_chars(digits, digits + 4, code, 16).ptr != digits + 4 || code > 0x7f) {
          return std::nullopt;
        }
        out += static_cast<char>(code);
        at += 4;
        break;
      }
      default: return std::nullopt;
    }
  }
  if (at >= line.size()) return std::nullopt;  // unterminated
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

double num(const std::string& line, const char* key, double fallback = 0.0) {
  return jsonl_number(line, key).value_or(fallback);
}

/// Integer fields parse as integers: a double would round anything above
/// 2^53, such as the 2^62-1 "infinite" ssthresh.
std::uint64_t unum(const std::string& line, const char* key) {
  const std::size_t at = value_offset(line, key);
  std::uint64_t v = 0;
  if (at != std::string::npos) {
    (void)std::from_chars(line.data() + at, line.data() + line.size(), v);
  }
  return v;
}

std::string str(const std::string& line, const char* key) {
  return jsonl_string(line, key).value_or(std::string{});
}

}  // namespace

std::optional<TraceEvent> from_jsonl(const std::string& line) {
  const auto type = jsonl_string(line, "type");
  if (!type) return std::nullopt;
  if (*type == "tcp_cwnd") {
    TcpCwndSample e;
    e.t_s = num(line, "t");
    e.connection_id = unum(line, "conn");
    e.endpoint = str(line, "endpoint");
    e.cwnd = unum(line, "cwnd");
    e.ssthresh = unum(line, "ssthresh");
    e.rwnd = unum(line, "rwnd");
    e.adv_wnd = unum(line, "adv_wnd");
    e.rto_s = num(line, "rto_s");
    e.bytes_in_flight = unum(line, "in_flight");
    return TraceEvent{e};
  }
  if (*type == "sim_loop") {
    SimLoopSample e;
    e.t_s = num(line, "t");
    e.events_processed = unum(line, "events");
    e.events_pending = unum(line, "pending");
    e.max_events_pending = unum(line, "max_pending");
    e.sim_wall_ratio = num(line, "sim_wall_ratio");
    return TraceEvent{e};
  }
  if (*type == "pacing_block") {
    PacingBlockEmitted e;
    e.t_s = num(line, "t");
    e.connection_id = unum(line, "conn");
    e.bytes = unum(line, "bytes");
    e.initial_burst = unum(line, "initial_burst") != 0;
    return TraceEvent{e};
  }
  if (*type == "span") {
    SpanRecord e;
    e.t_end_s = num(line, "t");
    e.t_begin_s = num(line, "begin_s");
    e.t_mark_s = num(line, "mark_s", -1.0);
    e.span_id = unum(line, "span_id");
    e.id = unum(line, "id");
    e.depth = static_cast<std::uint32_t>(unum(line, "depth"));
    e.category = str(line, "cat");
    e.name = str(line, "name");
    e.detail = str(line, "detail");
    return TraceEvent{e};
  }
  return std::nullopt;
}

void TraceBus::attach(TraceSink* sink) {
  if (sink == nullptr) throw std::invalid_argument{"TraceBus::attach: null sink"};
  if (std::find(sinks_.begin(), sinks_.end(), sink) == sinks_.end()) sinks_.push_back(sink);
}

void TraceBus::detach(TraceSink* sink) {
  sinks_.erase(std::remove(sinks_.begin(), sinks_.end(), sink), sinks_.end());
}

JsonlFileSink::JsonlFileSink(const std::string& path) : out_{path} {
  if (!out_) throw std::runtime_error{"JsonlFileSink: cannot open " + path};
}

void JsonlFileSink::on_event(const TraceEvent& event) {
  out_ << to_jsonl(event) << '\n';
  ++lines_;
}

RingBufferSink::RingBufferSink(std::size_t capacity) : capacity_{capacity} {
  if (capacity_ == 0) throw std::invalid_argument{"RingBufferSink: zero capacity"};
}

void RingBufferSink::on_event(const TraceEvent& event) {
  if (events_.size() == capacity_) events_.pop_front();
  events_.push_back(event);
  ++total_;
}

}  // namespace vstream::obs
