#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

std::string layer_of(const std::string& name) { return name.substr(0, name.find('.')); }

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SpanLog::add(SpanRecord record) {
  const std::lock_guard lock{mutex_};
  records_.push_back(std::move(record));
}

std::vector<SpanRecord> SpanLog::records() const {
  const std::lock_guard lock{mutex_};
  return records_;
}

void SpanLog::write_jsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("perfbench: cannot write spans to " + path);
  for (const SpanRecord& s : records()) {
    std::fprintf(out,
                 "{\"name\":\"%s\",\"id\":%u,\"parent\":%u,\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"thread\":%u}\n",
                 s.name.c_str(), s.id, s.parent, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.thread);
  }
  if (std::fclose(out) != 0) throw std::runtime_error("perfbench: cannot write spans to " + path);
}

Span::Span(SpanLog* log, const char* name, std::uint32_t parent)
    : log_{log}, name_{name}, parent_{parent} {
  if (log_ == nullptr) return;
  id_ = log_->next_id();
  start_ns_ = now_ns();
}

Span::~Span() {
  if (log_ == nullptr) return;
  log_->add(SpanRecord{name_, id_, parent_, start_ns_, now_ns(), thread_index()});
}

void Attribution::merge(const Attribution& other) {
  root_s += other.root_s;
  covered_s += other.covered_s;
  for (const auto& [k, v] : other.by_name_s) by_name_s[k] += v;
  for (const auto& [k, v] : other.by_layer_s) by_layer_s[k] += v;
  for (const auto& [k, v] : other.total_s) total_s[k] += v;
  for (const auto& [k, v] : other.max_s) max_s[k] = std::max(max_s[k], v);
  for (const auto& [k, v] : other.count) count[k] += v;
}

Attribution attribute(const std::vector<SpanRecord>& spans, std::uint32_t root) {
  std::unordered_map<std::uint32_t, std::size_t> by_id;
  for (std::size_t i = 0; i < spans.size(); ++i) by_id.emplace(spans[i].id, i);
  const auto root_it = by_id.find(root);
  if (root_it == by_id.end()) throw std::invalid_argument("perfbench: unknown root span");
  const SpanRecord& root_span = spans[root_it->second];

  // Depth below the root, or -1 for spans of other trees.
  std::unordered_map<std::uint32_t, int> depth{{root, 0}};
  const auto depth_of = [&](std::uint32_t id) {
    std::vector<std::uint32_t> chain;
    int d = -1;
    for (std::uint32_t at = id;;) {
      if (const auto known = depth.find(at); known != depth.end()) {
        d = known->second;
        break;
      }
      const auto it = by_id.find(at);
      if (it == by_id.end() || spans[it->second].parent == 0) break;
      chain.push_back(at);
      at = spans[it->second].parent;
    }
    for (auto c = chain.rbegin(); c != chain.rend(); ++c) depth[*c] = d < 0 ? -1 : ++d;
    return depth[id];
  };

  struct Event {
    std::int64_t at;
    bool open;
    int depth;
    std::size_t span;
  };
  std::vector<Event> events;
  Attribution out;
  out.root_s = static_cast<double>(root_span.end_ns - root_span.start_ns) * 1e-9;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (s.id == root) continue;
    const int d = depth_of(s.id);
    if (d <= 0) continue;
    const double duration_s = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    out.total_s[s.name] += duration_s;
    out.max_s[s.name] = std::max(out.max_s[s.name], duration_s);
    ++out.count[s.name];
    const std::int64_t begin = std::max(s.start_ns, root_span.start_ns);
    const std::int64_t end = std::min(s.end_ns, root_span.end_ns);
    if (end <= begin) continue;
    events.push_back(Event{begin, true, d, i});
    events.push_back(Event{end, false, d, i});
  }
  // Closes before opens at equal times; parents open before their children
  // and close after them.
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.open != b.open) return !a.open;
    return a.open ? a.depth < b.depth : a.depth > b.depth;
  });

  std::vector<int> running_children(spans.size(), 0);
  std::vector<bool> running(spans.size(), false);
  std::set<std::size_t> leaves;
  const auto parent_index = [&](std::size_t i) -> std::ptrdiff_t {
    const std::uint32_t p = spans[i].parent;
    if (p == root) return -1;
    return static_cast<std::ptrdiff_t>(by_id.at(p));
  };

  std::int64_t last = events.empty() ? 0 : events.front().at;
  for (const Event& e : events) {
    if (e.at > last && !leaves.empty()) {
      const double share = static_cast<double>(e.at - last) * 1e-9 /
                           static_cast<double>(leaves.size());
      for (const std::size_t leaf : leaves) out.by_name_s[spans[leaf].name] += share;
      out.covered_s += static_cast<double>(e.at - last) * 1e-9;
    }
    last = e.at;
    const std::ptrdiff_t p = parent_index(e.span);
    if (e.open) {
      running[e.span] = true;
      if (running_children[e.span] == 0) leaves.insert(e.span);
      if (p >= 0) {
        if (running_children[static_cast<std::size_t>(p)]++ == 0) {
          leaves.erase(static_cast<std::size_t>(p));
        }
      }
    } else {
      running[e.span] = false;
      leaves.erase(e.span);
      if (p >= 0) {
        const auto pi = static_cast<std::size_t>(p);
        if (--running_children[pi] == 0 && running[pi]) leaves.insert(pi);
      }
    }
  }
  for (const auto& [name, s] : out.by_name_s) out.by_layer_s[layer_of(name)] += s;
  return out;
}

}  // namespace perfbench
