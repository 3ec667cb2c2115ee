// Metric registry (src/obs/): histogram bucket math and percentile accuracy
// against a sorted-vector oracle, wait-free concurrent recording, snapshot
// merge/delta round-trips, exposition formats, Stage feeding one segment to
// a histogram and a sink, and end-to-end QueryEngine integration (per-query
// traces and registry counters for a real batch).
#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/random.h"
#include "src/core/coconut_tree.h"
#include "src/exec/query_engine.h"
#include "src/exec/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/obs/query_trace.h"
#include "src/obs/stage.h"
#include "tests/test_util.h"

namespace coconut {
namespace {

using testing::MakeDatasetFile;
using testing::ScratchDir;

// --- Counter ---

TEST(Counter, AccumulatesAcrossStripes) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(Counter, ConcurrentIncrementsAreExact) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
}

// --- Histogram bucket math ---

TEST(Histogram, SmallValuesGetExactBuckets) {
  for (uint64_t v = 0; v < 8; ++v) {
    EXPECT_EQ(Histogram::BucketFor(v), v);
    EXPECT_EQ(Histogram::BucketLowerBound(v), v);
  }
}

TEST(Histogram, BucketBoundsBracketEveryValue) {
  // Sweep values across many octaves: each value must fall inside the
  // [lower, next-lower) range of its own bucket, and bucket indices must be
  // non-decreasing in the value.
  size_t prev_bucket = 0;
  for (uint64_t v = 0; v < (1u << 20); v = v < 256 ? v + 1 : v + v / 7 + 1) {
    const size_t b = Histogram::BucketFor(v);
    ASSERT_LT(b, Histogram::kNumBuckets);
    ASSERT_GE(b, prev_bucket);
    prev_bucket = b;
    ASSERT_LE(Histogram::BucketLowerBound(b), v) << "value " << v;
    if (b + 1 < Histogram::kNumBuckets) {
      ASSERT_LT(v, Histogram::BucketLowerBound(b + 1)) << "value " << v;
    }
  }
  // Extremes: the top of the 64-bit range still maps inside the table.
  EXPECT_LT(Histogram::BucketFor(~uint64_t{0}), Histogram::kNumBuckets);
}

TEST(Histogram, BucketRelativeWidthBoundsQuantileError) {
  // The reported quantile is the bucket upper bound, so the worst-case
  // relative error is (upper - lower) / lower, which the 8-way octave split
  // bounds by 1/8.
  for (size_t b = 8; b + 1 < Histogram::kNumBuckets; ++b) {
    const uint64_t lo = Histogram::BucketLowerBound(b);
    const uint64_t hi = Histogram::BucketLowerBound(b + 1) - 1;
    ASSERT_GT(lo, 0u);
    EXPECT_LE(static_cast<double>(hi - lo) / static_cast<double>(lo), 0.125)
        << "bucket " << b;
  }
}

// --- Percentiles vs a sorted-vector oracle ---

TEST(Histogram, QuantilesMatchOracleWithin12Percent) {
  Histogram h;
  Rng rng(7);
  std::vector<uint64_t> values;
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform spread so every octave gets samples.
    const uint64_t v = uint64_t{1} << rng.UniformInt(28);
    const uint64_t sample = v + rng.UniformInt(v);
    values.push_back(sample);
    h.Record(sample);
  }
  std::sort(values.begin(), values.end());
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, values.size());
  EXPECT_EQ(snap.max, values.back());
  for (double q : {0.5, 0.9, 0.95, 0.99, 1.0}) {
    // Mirror ValueAtQuantile's rank rule: 1-based floor(q*n) clamped to
    // [1, n]; the oracle is that order statistic from the sorted samples.
    uint64_t rank =
        static_cast<uint64_t>(q * static_cast<double>(values.size()));
    rank = std::max<uint64_t>(1, std::min<uint64_t>(rank, values.size()));
    const uint64_t oracle = values[rank - 1];
    const uint64_t reported = snap.ValueAtQuantile(q);
    // Reported value is the bucket upper bound (clamped to max): never below
    // the true order statistic's bucket lower bound, never more than 12.5%
    // above the true value.
    EXPECT_GE(reported, Histogram::BucketLowerBound(Histogram::BucketFor(oracle)))
        << "q=" << q;
    EXPECT_LE(static_cast<double>(reported),
              static_cast<double>(oracle) * 1.125 + 1.0)
        << "q=" << q;
  }
  // Degenerate cases.
  Histogram empty;
  EXPECT_EQ(empty.Snapshot().ValueAtQuantile(0.99), 0u);
}

TEST(Histogram, ConcurrentRecordingKeepsTotals) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<uint64_t>(t) * 1000 + (i % 997));
      }
    });
  }
  for (auto& t : threads) t.join();
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  EXPECT_EQ(snap.max, 7 * 1000 + 996u);
}

// --- Snapshot merge / delta round-trips ---

TEST(HistogramSnapshot, MergeAndDeltaRoundTrip) {
  Histogram a, b;
  for (uint64_t v : {3u, 70u, 900u, 40000u}) a.Record(v);
  for (uint64_t v : {5u, 80u, 1000u}) b.Record(v);
  HistogramSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  EXPECT_EQ(merged.count, 7u);
  EXPECT_EQ(merged.sum, 3 + 70 + 900 + 40000 + 5 + 80 + 1000u);
  EXPECT_EQ(merged.max, 40000u);

  // Delta recovers exactly the samples recorded between two snapshots.
  const HistogramSnapshot before = a.Snapshot();
  a.Record(123456);
  a.Record(99);
  const HistogramSnapshot delta = a.Snapshot().Delta(before);
  EXPECT_EQ(delta.count, 2u);
  EXPECT_EQ(delta.sum, 123456 + 99u);
  EXPECT_GE(delta.ValueAtQuantile(1.0), 123456u);
}

TEST(MetricRegistry, SnapshotMergeAndExposition) {
  MetricRegistry reg;
  reg.GetCounter("test.ops")->Add(5);
  reg.GetGauge("test.depth")->Set(-3);
  reg.GetHistogram("test.lat_ns")->Record(1000);
  // Same name returns the same object.
  EXPECT_EQ(reg.GetCounter("test.ops"), reg.GetCounter("test.ops"));

  RegistrySnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("test.ops"), 5u);
  EXPECT_EQ(snap.gauges.at("test.depth"), -3);
  EXPECT_EQ(snap.histograms.at("test.lat_ns").count, 1u);

  // Merging a second snapshot accumulates overlapping names and unions the
  // rest.
  MetricRegistry other;
  other.GetCounter("test.ops")->Add(7);
  other.GetCounter("test.other")->Add(1);
  snap.Merge(other.Snapshot());
  EXPECT_EQ(snap.counters.at("test.ops"), 12u);
  EXPECT_EQ(snap.counters.at("test.other"), 1u);

  const std::string prom = snap.ToPrometheusText();
  EXPECT_NE(prom.find("coconut_test_ops 12"), std::string::npos) << prom;
  EXPECT_NE(prom.find("coconut_test_lat_ns"), std::string::npos) << prom;
  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"test.ops\""), std::string::npos) << json;
}

TEST(MetricRegistry, PrometheusExpositionGoldenFormat) {
  // Exact-string golden for the full exposition of one counter, one gauge,
  // and one histogram. Guards the cumulative-histogram contract scrapers
  // depend on: `_bucket{le="..."}` counts are monotone cumulative, the
  // `le="+Inf"` bucket equals `_count`, `le` bounds are the histogram's
  // native-unit bucket upper bounds, and quantiles/max live under derived
  // gauge names (one TYPE per metric name).
  MetricRegistry reg;
  reg.GetCounter("golden.ops")->Add(42);
  reg.GetGauge("golden.depth")->Set(-3);
  Histogram* h = reg.GetHistogram("golden.lat_ns");
  h->Record(2);  // values 0..7 land in exact unit-wide buckets
  h->Record(2);
  h->Record(5);

  const std::string expected =
      "# TYPE coconut_golden_ops counter\n"
      "coconut_golden_ops 42\n"
      "# TYPE coconut_golden_depth gauge\n"
      "coconut_golden_depth -3\n"
      "# TYPE coconut_golden_lat_ns histogram\n"
      "coconut_golden_lat_ns_bucket{le=\"2\"} 2\n"
      "coconut_golden_lat_ns_bucket{le=\"5\"} 3\n"
      "coconut_golden_lat_ns_bucket{le=\"+Inf\"} 3\n"
      "coconut_golden_lat_ns_sum 9\n"
      "coconut_golden_lat_ns_count 3\n"
      "# TYPE coconut_golden_lat_ns_max gauge\n"
      "coconut_golden_lat_ns_max 5\n"
      "# TYPE coconut_golden_lat_ns_quantiles gauge\n"
      "coconut_golden_lat_ns_quantiles{quantile=\"0.5\"} 2\n"
      "coconut_golden_lat_ns_quantiles{quantile=\"0.95\"} 2\n"
      "coconut_golden_lat_ns_quantiles{quantile=\"0.99\"} 2\n";
  EXPECT_EQ(reg.Snapshot().ToPrometheusText(), expected);
}

TEST(MetricRegistry, PrometheusBucketsStayCumulativeAcrossOctaves) {
  // Property check on wide-range samples: every emitted _bucket count is
  // monotone nondecreasing and the series ends exactly at _count.
  MetricRegistry reg;
  Histogram* h = reg.GetHistogram("wide.lat_ns");
  for (uint64_t v : {3u, 900u, 1000u, 65536u, 1u << 30}) h->Record(v);
  const std::string prom = reg.Snapshot().ToPrometheusText();

  std::istringstream lines(prom);
  uint64_t prev = 0, last = 0, inf = 0;
  size_t bucket_lines = 0;
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("coconut_wide_lat_ns_bucket{", 0) != 0) continue;
    ++bucket_lines;
    const uint64_t v = std::stoull(line.substr(line.rfind(' ') + 1));
    EXPECT_GE(v, prev) << line;
    prev = v;
    last = v;
    if (line.find("le=\"+Inf\"") != std::string::npos) inf = v;
  }
  EXPECT_EQ(bucket_lines, 6u);  // 5 distinct buckets + the +Inf bucket
  EXPECT_EQ(inf, 5u);
  EXPECT_EQ(last, inf);  // +Inf is last and equals _count
  EXPECT_NE(prom.find("coconut_wide_lat_ns_count 5"), std::string::npos);
}

// --- Stage consumers ---

TEST(Stage, FeedsOneSegmentToHistogramAndSink) {
  Histogram h;
  uint64_t sink = 1000;  // a sink accumulates (+=), never overwrites
  uint64_t dur = 0;
  {
    Stage stage(nullptr, nullptr, &h, &sink);
    dur = stage.End();
  }  // already ended: the destructor records nothing more
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.sum, dur);  // histogram and sink saw the same segment
  EXPECT_EQ(sink, 1000 + dur);
  {
    Stage stage(nullptr, nullptr, &h);  // RAII: closes at scope exit
  }
  EXPECT_EQ(h.Snapshot().count, 2u);
  {
    Stage stage(nullptr, nullptr, nullptr, nullptr);  // null consumers
    EXPECT_EQ(stage.End(), 0u);
  }
}

TEST(Stage, MarkRoutesEachSegmentToItsOwnConsumers) {
  Histogram first_hist, second_hist;
  uint64_t first = 0, second = 0;
  {
    Stage stage(nullptr, nullptr, &first_hist, &first);
    stage.Mark(nullptr, nullptr, &second_hist, &second);
    EXPECT_EQ(stage.End(), second);
  }
  EXPECT_EQ(first_hist.Snapshot().count, 1u);
  EXPECT_EQ(first_hist.Snapshot().sum, first);
  EXPECT_EQ(second_hist.Snapshot().count, 1u);
  EXPECT_EQ(second_hist.Snapshot().sum, second);
  // A timed segment after an untimed one (no clock read at open) is still
  // recorded, and vice versa.
  Histogram late;
  {
    Stage stage(nullptr, nullptr);
    stage.Mark(nullptr, nullptr, &late);
    stage.Mark(nullptr, nullptr);
  }
  EXPECT_EQ(late.Snapshot().count, 1u);
}

// --- QueryEngine integration: a real batch populates traces + registry ---

TEST(QueryEngineObs, BatchPopulatesTracesAndRegistry) {
  ScratchDir dir;
  const std::string raw = dir.File("data.bin");
  const size_t kCount = 800, kLength = 64;
  auto data = MakeDatasetFile(raw, DatasetKind::kRandomWalk, kCount, kLength, 3);

  CoconutOptions opts;
  opts.summary.series_length = kLength;
  opts.summary.segments = 8;
  opts.leaf_capacity = 32;
  opts.tmp_dir = dir.path();
  ASSERT_OK(CoconutTree::Build(raw, dir.File("t.idx"), opts));
  std::unique_ptr<CoconutTree> tree;
  ASSERT_OK(CoconutTree::Open(dir.File("t.idx"), raw, &tree));

  const RegistrySnapshot before = MetricRegistry::Default().Snapshot();

  ThreadPool pool(2);
  QueryEngine engine(&pool);
  std::vector<Series> qs(data.begin(), data.begin() + 8);
  QuerySpec spec;
  spec.mode = QuerySpec::Mode::kExact;
  std::vector<SearchResult> results;
  std::vector<QueryTrace> traces;
  ASSERT_OK(engine.ExecuteBatch(*tree, qs, spec, &results, &traces));
  ASSERT_EQ(results.size(), qs.size());
  ASSERT_EQ(traces.size(), qs.size());

  for (size_t i = 0; i < traces.size(); ++i) {
    // Each query visited at least its own leaf and fetched records; the
    // trace's fetch count is the same counter SearchResult reports.
    EXPECT_GT(traces[i].leaves_visited, 0u) << "query " << i;
    EXPECT_GT(traces[i].records_fetched, 0u) << "query " << i;
    EXPECT_EQ(traces[i].records_fetched, results[i].visited_records)
        << "query " << i;
    EXPECT_GT(traces[i].total_ns, 0u) << "query " << i;
  }

  // The registry saw the batch: query counters and stage timers moved.
  const RegistrySnapshot after = MetricRegistry::Default().Snapshot();
  auto counter_delta = [&](const std::string& name) {
    const auto now = after.counters.find(name);
    const auto then = before.counters.find(name);
    return (now == after.counters.end() ? 0 : now->second) -
           (then == before.counters.end() ? 0 : then->second);
  };
  EXPECT_EQ(counter_delta("query.count"), qs.size());
  EXPECT_EQ(counter_delta("query.batches"), 1u);
  EXPECT_GT(counter_delta("query.leaves_visited"), 0u);
  EXPECT_GT(counter_delta("query.records_fetched"), 0u);
  EXPECT_GT(counter_delta("query.stage.refine_ns"), 0u);
  const auto lat = after.histograms.find("query.exact.latency_ns");
  ASSERT_NE(lat, after.histograms.end());
  HistogramSnapshot d = lat->second;
  const auto lat_before = before.histograms.find("query.exact.latency_ns");
  if (lat_before != before.histograms.end()) d = d.Delta(lat_before->second);
  EXPECT_EQ(d.count, qs.size());
  EXPECT_GT(d.ValueAtQuantile(0.99), 0u);
}

}  // namespace
}  // namespace coconut
