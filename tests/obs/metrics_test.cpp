// Metrics registry + shard semantics: registration is idempotent by
// name, kind/bounds conflicts throw, and shard merges follow the
// documented rules (counters add, gauges last-write-wins, histograms
// add) that the determinism contract rests on.  Histogram observe()
// reads its bounds without the registry lock, so one test records from
// several threads while another registers new metrics.
#include <latch>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"

namespace ms::obs {
namespace {

TEST(MetricsRegistry, RegistrationDedupesByName) {
  const MetricId a = counter("test.metrics.dedupe");
  const MetricId b = counter("test.metrics.dedupe");
  EXPECT_EQ(a, b);
  const MetricDef def = metric_def(a);
  EXPECT_EQ(def.name, "test.metrics.dedupe");
  EXPECT_EQ(def.kind, MetricKind::Counter);
}

TEST(MetricsRegistry, KindConflictThrows) {
  counter("test.metrics.kind_conflict");
  EXPECT_THROW(gauge("test.metrics.kind_conflict"), Error);
  EXPECT_THROW(histogram("test.metrics.kind_conflict",
                         std::vector<double>{1.0}),
               Error);
}

TEST(MetricsRegistry, HistogramBoundsFixedAtFirstRegistration) {
  const std::vector<double> b1 = {1.0, 2.0};
  const std::vector<double> b2 = {1.0, 3.0};
  const MetricId h = histogram("test.metrics.bounds_fixed", b1);
  EXPECT_EQ(histogram("test.metrics.bounds_fixed", b1), h);
  EXPECT_THROW(histogram("test.metrics.bounds_fixed", b2), Error);
}

TEST(MetricsRegistry, HistogramBoundsMustAscendAndBeNonEmpty) {
  EXPECT_THROW(histogram("test.metrics.bounds_desc",
                         std::vector<double>{2.0, 1.0}),
               Error);
  EXPECT_THROW(histogram("test.metrics.bounds_empty", std::vector<double>{}),
               Error);
}

TEST(MetricsRegistry, ConflictErrorsNameTheOffendingMetric) {
  counter("test.metrics.named_conflict");
  try {
    gauge("test.metrics.named_conflict");
    FAIL() << "kind conflict did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("test.metrics.named_conflict"),
              std::string::npos)
        << "kind-conflict message must name the metric: " << e.what();
  }
  const std::vector<double> b1 = {1.0, 2.0};
  histogram("test.metrics.named_bounds_conflict", b1);
  try {
    histogram("test.metrics.named_bounds_conflict",
              std::vector<double>{1.0, 5.0});
    FAIL() << "bounds conflict did not throw";
  } catch (const Error& e) {
    EXPECT_NE(
        std::string(e.what()).find("test.metrics.named_bounds_conflict"),
        std::string::npos)
        << "bounds-conflict message must name the metric: " << e.what();
  }
}

TEST(Shard, HistogramUpperBoundsAreInclusive) {
  // The bucketing rule is value <= bound: a value exactly equal to a
  // bucket's upper bound lands in THAT bucket, never the next one.
  const MetricId h = histogram("test.shard.boundary",
                               std::vector<double>{1.0, 2.0, 4.0});
  TelemetryShard s;
  {
    ShardScope scope(&s);
    observe(h, 1.0);  // == bounds[0] -> bucket 0
    observe(h, 2.0);  // == bounds[1] -> bucket 1
    observe(h, 4.0);  // == bounds[2] (last finite bound) -> bucket 2
  }
  const auto hv = s.histogram_value(h);
  ASSERT_EQ(hv.counts.size(), 4u);
  EXPECT_EQ(hv.counts[0], 1u);
  EXPECT_EQ(hv.counts[1], 1u);
  EXPECT_EQ(hv.counts[2], 1u);
  EXPECT_EQ(hv.counts[3], 0u);
}

TEST(Shard, HistogramOverflowBucketCatchesAboveLastBound) {
  const MetricId h = histogram("test.shard.overflow",
                               std::vector<double>{1.0, 2.0});
  TelemetryShard s;
  {
    ShardScope scope(&s);
    observe(h, 2.0000001);  // just past the last finite bound
    observe(h, 1e12);
  }
  const auto hv = s.histogram_value(h);
  ASSERT_EQ(hv.counts.size(), 3u);
  EXPECT_EQ(hv.counts[0], 0u);
  EXPECT_EQ(hv.counts[1], 0u);
  EXPECT_EQ(hv.counts[2], 2u);  // implicit +inf bucket
  EXPECT_EQ(hv.n, 2u);
}

TEST(Shard, RecordsThroughInstalledScope) {
  const MetricId c = counter("test.shard.counter");
  const MetricId g = gauge("test.shard.gauge");
  const MetricId h =
      histogram("test.shard.hist", std::vector<double>{1.0, 2.0});
  TelemetryShard s;
  {
    ShardScope scope(&s);
    add(c, 3);
    add(c);
    set(g, 7.5);
    observe(h, 0.5);   // bucket 0 (<= 1)
    observe(h, 2.0);   // bucket 1 (<= 2, inclusive upper bound)
    observe(h, 99.0);  // overflow bucket
  }
  EXPECT_EQ(s.counter_value(c), 4u);
  EXPECT_TRUE(s.gauge_written(g));
  EXPECT_DOUBLE_EQ(s.gauge_value(g), 7.5);
  const auto hv = s.histogram_value(h);
  ASSERT_EQ(hv.counts.size(), 3u);
  EXPECT_EQ(hv.counts[0], 1u);
  EXPECT_EQ(hv.counts[1], 1u);
  EXPECT_EQ(hv.counts[2], 1u);
  EXPECT_EQ(hv.n, 3u);
  EXPECT_DOUBLE_EQ(hv.sum, 101.5);
}

TEST(Shard, WritesAreNoOpsWithoutScope) {
  const MetricId c = counter("test.shard.unscoped");
  add(c, 5);  // no shard installed on this thread: must not crash
  TelemetryShard s;
  EXPECT_EQ(s.counter_value(c), 0u);
}

TEST(Shard, MergeSemantics) {
  const MetricId c = counter("test.merge.counter");
  const MetricId g = gauge("test.merge.gauge");
  const MetricId h =
      histogram("test.merge.hist", std::vector<double>{10.0});

  TelemetryShard a, b, merged;
  {
    ShardScope scope(&a);
    add(c, 2);
    set(g, 1.0);
    observe(h, 5.0);
  }
  {
    ShardScope scope(&b);
    add(c, 3);
    set(g, 2.0);
    observe(h, 50.0);
  }
  merged.merge_from(a);
  merged.merge_from(b);

  EXPECT_EQ(merged.counter_value(c), 5u);
  // Gauge: last write in merge order wins.
  EXPECT_DOUBLE_EQ(merged.gauge_value(g), 2.0);
  const auto hv = merged.histogram_value(h);
  ASSERT_EQ(hv.counts.size(), 2u);
  EXPECT_EQ(hv.counts[0], 1u);
  EXPECT_EQ(hv.counts[1], 1u);
  EXPECT_DOUBLE_EQ(hv.sum, 55.0);
}

TEST(Shard, MergeSkipsUnwrittenGauge) {
  const MetricId g = gauge("test.merge.gauge_unwritten");
  TelemetryShard wrote, empty, merged;
  {
    ShardScope scope(&wrote);
    set(g, 4.0);
  }
  merged.merge_from(wrote);
  merged.merge_from(empty);  // no write: must not clobber the value
  EXPECT_TRUE(merged.gauge_written(g));
  EXPECT_DOUBLE_EQ(merged.gauge_value(g), 4.0);
}

TEST(Shard, DisabledTelemetryInstallsNothing) {
  const MetricId c = counter("test.shard.disabled");
  TelemetryShard s;
  set_enabled(false);
  {
    ShardScope scope(&s);
    add(c, 9);
  }
  set_enabled(true);
  EXPECT_EQ(s.counter_value(c), 0u);
}

// One worker's fixed workload: round r samples the first r + 1 ids, so
// first touches (the one registry lookup per slot) are spread out.
void record_histograms(TelemetryShard& shard, std::span<const MetricId> ids,
                       std::size_t worker) {
  ShardScope scope(&shard);
  for (std::size_t r = 0; r < 200; ++r)
    for (std::size_t k = 0; k < ids.size() && k <= r; ++k)
      observe(ids[k],
              static_cast<double>((worker * 31 + r * 7 + k) % 40) - 5.0);
}

TEST(Shard, ObserveRacesRegistrationWithoutChangingTheJson) {
  constexpr std::size_t kWorkers = 4;
  const std::vector<double> bounds = {0.0, 5.0, 10.0, 20.0};
  std::vector<MetricId> ids;
  for (int k = 0; k < 32; ++k)
    ids.push_back(
        histogram(("test.concurrent.hist" + std::to_string(k)).c_str(),
                  bounds));

  const auto merged_json = [&](bool threaded) {
    std::vector<TelemetryShard> shards(kWorkers);
    if (threaded) {
      std::latch start(kWorkers + 1);
      std::vector<std::thread> threads;
      threads.emplace_back([&] {
        start.arrive_and_wait();
        for (int k = 0; k < 500; ++k)
          histogram(("test.concurrent.grow" + std::to_string(k)).c_str(),
                    bounds);
      });
      for (std::size_t w = 0; w < kWorkers; ++w)
        threads.emplace_back([&, w] {
          start.arrive_and_wait();
          record_histograms(shards[w], ids, w);
        });
      for (std::thread& t : threads) t.join();
    } else {
      for (std::size_t w = 0; w < kWorkers; ++w)
        record_histograms(shards[w], ids, w);
    }
    reset_aggregate();
    for (const TelemetryShard& s : shards) aggregate_merge(s);
    std::uint64_t n = 0;
    for (MetricId id : ids) n += aggregate().histogram_value(id).n;
    EXPECT_EQ(n, kWorkers * (32 * 200 - 32 * 31 / 2));
    std::string json = metrics_json_string();
    reset_aggregate();
    return json;
  };
  // Threaded first, so both renders see all 500 late registrations.
  const std::string threaded = merged_json(true);
  EXPECT_EQ(threaded, merged_json(false));
  EXPECT_NE(threaded.find("test.concurrent.grow499"), std::string::npos);
}

TEST(MetricsJson, SortedSchemaAndRoundTrip) {
  reset_aggregate();
  const MetricId c = counter("test.json.zeta");
  const MetricId c2 = counter("test.json.alpha");
  TelemetryShard s;
  {
    ShardScope scope(&s);
    add(c, 1);
    add(c2, 2);
  }
  aggregate_merge(s);
  const std::string json = metrics_json_string();
  EXPECT_NE(json.find("\"schema\": \"ms.metrics.v1\""), std::string::npos);
  // Name-sorted output: alpha before zeta regardless of registration
  // or write order.
  EXPECT_LT(json.find("test.json.alpha"), json.find("test.json.zeta"));
  reset_aggregate();
}

}  // namespace
}  // namespace ms::obs
