#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "obs/trace.hpp"

namespace vstream::obs {

FixedHistogram::FixedHistogram(std::vector<double> upper_bounds)
    : bounds_{std::move(upper_bounds)} {
  if (bounds_.empty()) throw std::invalid_argument{"FixedHistogram: no buckets"};
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::invalid_argument{"FixedHistogram: bounds must be sorted"};
  }
  counts_.assign(bounds_.size() + 1, 0);
}

void FixedHistogram::observe(double v) {
  // First bucket whose inclusive upper edge admits the value; everything
  // above the last bound lands in the overflow bucket.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  ++count_;
  sum_ += v;
}

void FixedHistogram::merge_from(const FixedHistogram& other) {
  if (bounds_ != other.bounds_) {
    throw std::invalid_argument{
        "FixedHistogram::merge_from: bucket bounds differ; refusing to misalign buckets"};
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
  sum_ += other.sum_;
}

double FixedHistogram::percentile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count_);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double in_bucket = static_cast<double>(counts_[i]);
    if (in_bucket <= 0.0) continue;
    if (cumulative + in_bucket < rank) {
      cumulative += in_bucket;
      continue;
    }
    // Overflow bucket has no upper edge: clamp to the last known bound.
    if (i >= bounds_.size()) return bounds_.back();
    const double upper = bounds_[i];
    // The first bucket interpolates from 0 (our measured quantities are
    // non-negative); negative bounds fall back to the edge itself.
    const double lower = i == 0 ? std::min(0.0, upper) : bounds_[i - 1];
    const double fraction = (rank - cumulative) / in_bucket;
    return lower + (upper - lower) * fraction;
  }
  return bounds_.back();
}

void MetricsSnapshot::merge_from(const MetricsSnapshot& other) {
  for (const auto& [name, v] : other.counters) counters[name] += v;
  for (const auto& [name, v] : other.gauges) {
    auto [it, inserted] = gauges.emplace(name, v);
    if (!inserted) it->second = std::max(it->second, v);
  }
  for (const auto& [name, h] : other.histograms) {
    auto [it, inserted] = histograms.emplace(name, h);
    if (!inserted) it->second.merge_from(h);
  }
}

namespace {

void append_double(std::ostringstream& out, double v) {
  if (!std::isfinite(v)) {
    out << "null";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out << buf;
}

void append_quoted(std::ostringstream& out, const std::string& s) {
  out << '"' << json_escape(s) << '"';
}

}  // namespace

std::string MetricsSnapshot::to_json() const {
  std::ostringstream out;
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : counters) {
    if (!first) out << ',';
    first = false;
    append_quoted(out, name);
    out << ':' << v;
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gauges) {
    if (!first) out << ',';
    first = false;
    append_quoted(out, name);
    out << ':';
    append_double(out, v);
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) out << ',';
    first = false;
    append_quoted(out, name);
    out << ":{\"bounds\":[";
    for (std::size_t i = 0; i < h.bounds().size(); ++i) {
      if (i != 0) out << ',';
      append_double(out, h.bounds()[i]);
    }
    out << "],\"counts\":[";
    for (std::size_t i = 0; i < h.counts().size(); ++i) {
      if (i != 0) out << ',';
      out << h.counts()[i];
    }
    out << "],\"count\":" << h.count() << ",\"sum\":";
    append_double(out, h.sum());
    out << ",\"p50\":";
    append_double(out, h.percentile(0.50));
    out << ",\"p90\":";
    append_double(out, h.percentile(0.90));
    out << ",\"p99\":";
    append_double(out, h.percentile(0.99));
    out << '}';
  }
  out << "}}";
  return out.str();
}

}  // namespace vstream::obs
