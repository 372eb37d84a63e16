#include "obs/metrics.h"

#include <algorithm>
#include <deque>
#include <mutex>
#include <unordered_map>

#include "common/error.h"
#include "obs/telemetry.h"

namespace ms::obs {

namespace {

struct Registry {
  std::mutex m;
  std::deque<MetricDef> defs;  ///< push_back never moves an element
  std::unordered_map<std::string, MetricId> by_name;
};

Registry& registry() {
  static Registry r;
  return r;
}

MetricId register_metric(const char* name, MetricKind kind,
                         std::span<const double> bounds) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.m);
  const auto it = r.by_name.find(name);
  if (it != r.by_name.end()) {
    const MetricDef& def = r.defs[it->second];
    MS_CHECK_MSG(def.kind == kind,
                 "metric '" + std::string(name) +
                     "' re-registered with a different kind");
    if (kind == MetricKind::Histogram)
      MS_CHECK_MSG(std::equal(def.bounds.begin(), def.bounds.end(),
                              bounds.begin(), bounds.end()),
                   "histogram '" + std::string(name) +
                       "' re-registered with different bucket bounds");
    return it->second;
  }
  if (kind == MetricKind::Histogram) {
    MS_CHECK_MSG(!bounds.empty(), "histogram '" + std::string(name) +
                                      "' needs at least one bucket bound");
    MS_CHECK_MSG(std::is_sorted(bounds.begin(), bounds.end()),
                 "histogram '" + std::string(name) +
                     "' bucket bounds must be ascending");
  }
  const MetricId id = static_cast<MetricId>(r.defs.size());
  r.defs.push_back({name, kind, {bounds.begin(), bounds.end()}});
  r.by_name.emplace(name, id);
  return id;
}

}  // namespace

MetricId counter(const char* name) {
  return register_metric(name, MetricKind::Counter, {});
}

MetricId gauge(const char* name) {
  return register_metric(name, MetricKind::Gauge, {});
}

MetricId histogram(const char* name, std::span<const double> upper_bounds) {
  return register_metric(name, MetricKind::Histogram, upper_bounds);
}

void add(MetricId id, std::uint64_t n) {
  if (TelemetryShard* s = detail::current_shard()) s->add(id, n);
}

void set(MetricId id, double value) {
  if (TelemetryShard* s = detail::current_shard()) s->set(id, value);
}

void observe(MetricId id, double value) {
  if (TelemetryShard* s = detail::current_shard()) s->observe(id, value);
}

std::size_t metric_count() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.m);
  return r.defs.size();
}

const MetricDef& metric_def(MetricId id) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.m);
  MS_CHECK_MSG(id < r.defs.size(), "unknown metric id " + std::to_string(id));
  return r.defs[id];
}

}  // namespace ms::obs
