#include "obs/telemetry.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <ostream>
#include <sstream>

#include "common/error.h"

namespace ms::obs {

namespace {

std::atomic<bool> g_enabled{true};

thread_local TelemetryShard* tls_shard = nullptr;
thread_local TraceClock tls_clock{};

struct Aggregate {
  std::mutex m;
  TelemetryShard shard;
};
Aggregate& agg() {
  static Aggregate a;
  return a;
}

}  // namespace

namespace detail {

/// Deterministic double rendering: shortest round-trip-safe form would
/// do, but %.17g is simpler and stable across runs, which is what the
/// determinism contract needs.  Integral values print without the
/// trailing ".0000..." noise.
std::string json_number(double v) {
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace detail

namespace {
using detail::json_escape;
std::string fmt_double(double v) { return detail::json_number(v); }
}  // namespace

// --- TelemetryShard ---------------------------------------------------

TelemetryShard::Slot& TelemetryShard::slot(MetricId id) {
  if (id >= slots_.size()) slots_.resize(id + 1);
  return slots_[id];
}

const TelemetryShard::Slot* TelemetryShard::find(MetricId id) const {
  return id < slots_.size() ? &slots_[id] : nullptr;
}

void TelemetryShard::add(MetricId id, std::uint64_t n) {
  slot(id).count += n;
}

void TelemetryShard::set(MetricId id, double value) {
  Slot& s = slot(id);
  s.value = value;
  s.written = true;
}

void TelemetryShard::observe(MetricId id, double value) {
  Slot& s = slot(id);
  // One locked registry lookup per slot; the def never moves, so the
  // bounds are read through the span without a lock after that.
  if (s.bounds.empty()) s.bounds = metric_def(id).bounds;
  const std::span<const double> bounds = s.bounds;
  if (s.buckets.empty())
    s.buckets.assign(bounds.size() + 1, 0);  // sized on first touch
  std::size_t b = bounds.size();  // overflow bucket
  for (std::size_t i = 0; i < bounds.size(); ++i)
    if (value <= bounds[i]) {
      b = i;
      break;
    }
  ++s.buckets[b];
  s.value += value;  // histogram sum
  ++s.count;         // histogram n
}

void TelemetryShard::record_event(const TraceEvent& ev) {
  if (events_.size() >= kEventCapacity) {
    ++events_dropped_;
    return;
  }
  events_.push_back(ev);
}

void TelemetryShard::merge_from(const TelemetryShard& src) {
  if (src.slots_.size() > slots_.size()) slots_.resize(src.slots_.size());
  for (std::size_t id = 0; id < src.slots_.size(); ++id) {
    const Slot& from = src.slots_[id];
    Slot& to = slots_[id];
    to.count += from.count;
    if (!from.buckets.empty()) {
      if (to.buckets.empty()) to.buckets.assign(from.buckets.size(), 0);
      MS_CHECK(to.buckets.size() == from.buckets.size());
      for (std::size_t b = 0; b < from.buckets.size(); ++b)
        to.buckets[b] += from.buckets[b];
      to.value += from.value;  // histogram sum
    } else if (from.written) {
      to.value = from.value;  // gauge: last write in merge order wins
      to.written = true;
    }
  }
  events_.insert(events_.end(), src.events_.begin(), src.events_.end());
  events_dropped_ += src.events_dropped_;
}

void TelemetryShard::clear() {
  slots_.clear();
  events_.clear();
  events_dropped_ = 0;
}

std::uint64_t TelemetryShard::counter_value(MetricId id) const {
  const Slot* s = find(id);
  return s ? s->count : 0;
}

bool TelemetryShard::gauge_written(MetricId id) const {
  const Slot* s = find(id);
  return s && s->written;
}

double TelemetryShard::gauge_value(MetricId id) const {
  const Slot* s = find(id);
  return s && s->written ? s->value : 0.0;
}

TelemetryShard::HistogramRef TelemetryShard::histogram_ref(
    MetricId id) const {
  if (const Slot* s = find(id); s && !s->buckets.empty())
    return {std::span<const std::uint64_t>(s->buckets), s->value, s->count};
  return {};
}

TelemetryShard::HistogramValue TelemetryShard::histogram_value(
    MetricId id) const {
  HistogramValue out;
  out.counts.assign(metric_def(id).bounds.size() + 1, 0);
  if (const Slot* s = find(id); s && !s->buckets.empty()) {
    out.counts = s->buckets;
    out.sum = s->value;
    out.n = s->count;
  }
  return out;
}

bool TelemetryShard::slot_used(MetricId id) const {
  const Slot* s = find(id);
  return s && (s->count != 0 || s->written || !s->buckets.empty());
}

void TelemetryShard::restore_histogram(MetricId id,
                                       const std::vector<std::uint64_t>& counts,
                                       double sum, std::uint64_t n) {
  MS_CHECK(counts.size() == metric_def(id).bounds.size() + 1);
  Slot& s = slot(id);
  s.buckets = counts;
  s.value = sum;
  s.count = n;
}

// --- enable switch / thread-local plumbing ----------------------------

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

namespace detail {
TelemetryShard* current_shard() { return tls_shard; }
}  // namespace detail

ShardScope::ShardScope(TelemetryShard* shard) : prev_(tls_shard) {
  tls_shard = enabled() ? shard : nullptr;
}

ShardScope::~ShardScope() { tls_shard = prev_; }

void set_trace_cell(std::uint32_t point, std::uint32_t trial) {
  tls_clock.point = point;
  tls_clock.trial = trial;
  tls_clock.sim_time = 0.0;
}

void set_sim_time(double t) { tls_clock.sim_time = t; }

TraceClock trace_clock() { return tls_clock; }

// --- aggregate --------------------------------------------------------

void aggregate_merge(const TelemetryShard& shard) {
  Aggregate& a = agg();
  std::lock_guard<std::mutex> lk(a.m);
  a.shard.merge_from(shard);
}

const TelemetryShard& aggregate() { return agg().shard; }

void reset_aggregate() {
  Aggregate& a = agg();
  std::lock_guard<std::mutex> lk(a.m);
  a.shard.clear();
}

// --- serialization ----------------------------------------------------

void write_metrics_json(std::ostream& out) {
  Aggregate& a = agg();
  std::lock_guard<std::mutex> lk(a.m);

  // Sort by name: registration order depends on which instrumentation
  // site ran first, which is scheduling-dependent — names are not.
  std::map<std::string, MetricId> counters, gauges, histograms;
  for (MetricId id = 0; id < metric_count(); ++id) {
    const MetricDef& def = metric_def(id);
    switch (def.kind) {
      case MetricKind::Counter: counters[def.name] = id; break;
      case MetricKind::Gauge: gauges[def.name] = id; break;
      case MetricKind::Histogram: histograms[def.name] = id; break;
    }
  }

  out << "{\n  \"schema\": \"ms.metrics.v1\",\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, id] : counters) {
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
        << "\": " << a.shard.counter_value(id);
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, id] : gauges) {
    if (!a.shard.gauge_written(id)) continue;
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
        << "\": " << fmt_double(a.shard.gauge_value(id));
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, id] : histograms) {
    const MetricDef& def = metric_def(id);
    const TelemetryShard::HistogramValue h = a.shard.histogram_value(id);
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
        << "\": {\"bounds\": [";
    for (std::size_t i = 0; i < def.bounds.size(); ++i)
      out << (i ? ", " : "") << fmt_double(def.bounds[i]);
    out << "], \"counts\": [";
    for (std::size_t i = 0; i < h.counts.size(); ++i)
      out << (i ? ", " : "") << h.counts[i];
    out << "], \"sum\": " << fmt_double(h.sum) << ", \"count\": " << h.n
        << "}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"events_dropped\": "
      << a.shard.events_dropped() << "\n}\n";
}

std::string metrics_json_string() {
  std::ostringstream ss;
  write_metrics_json(ss);
  return ss.str();
}

void write_metrics_json_file(const std::string& path) {
  std::ofstream f(path);
  MS_CHECK_MSG(f.is_open(), "cannot open metrics output for write: " + path);
  write_metrics_json(f);
  MS_CHECK_MSG(f.good(), "metrics write failed: " + path);
}

void write_trace_jsonl(std::ostream& out) {
  Aggregate& a = agg();
  std::lock_guard<std::mutex> lk(a.m);
  for (const TraceEvent& ev : a.shard.events())
    out << event_to_json(ev) << "\n";
}

void write_trace_jsonl_file(const std::string& path) {
  std::ofstream f(path);
  MS_CHECK_MSG(f.is_open(), "cannot open trace output for write: " + path);
  write_trace_jsonl(f);
  MS_CHECK_MSG(f.good(), "trace write failed: " + path);
}

}  // namespace ms::obs
