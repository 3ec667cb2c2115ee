// The three workloads. Each run sets up kSetupReps times (timed; the last
// setup is kept), then makes one measured pass with tracing off. With
// --trace 1 a traced setup and a traced pass follow: their counters give the
// per-layer metrics, and their end-to-end figures set against the untraced
// ones give the tracing overhead.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <random>
#include <thread>

#include "perfbench/perfbench.h"
#include "src/common/env.h"
#include "src/core/coconut_tree.h"
#include "src/exec/query_engine.h"
#include "src/exec/thread_pool.h"
#include "src/obs/query_trace.h"
#include "src/simd/kernels.h"
#include "src/store/sharded_store.h"
#include "src/summary/breakpoints.h"

namespace perfbench {
namespace {

using coconut::CoconutOptions;
using coconut::CoconutTree;
using coconut::GetIoComponent;
using coconut::IoSnapshot;
using coconut::IoStats;
using coconut::QueryEngine;
using coconut::QuerySpec;
using coconut::QueryTrace;
using coconut::SearchResult;
using coconut::ShardedStore;
using coconut::StoreOptions;
using coconut::ThreadPool;
using coconut::TreeBuildStats;
using Metrics = std::map<std::string, Metric>;

constexpr int kSetupReps = 5;
constexpr double kSeriesBytes = kSeriesLength * sizeof(Value);
constexpr double kMiB = 1024.0 * 1024.0;

// Generator streams for DeriveSeed: indexed data and query pools never
// share a stream, so every pool query is out of sample.
constexpr uint64_t kDataStream = 1;
constexpr uint64_t kQueryStream = 2;

// The closed-loop query pools are fixed: the same queries run against every
// seed's data, so a run-to-run change in query latency reflects the index
// and not which queries a seed happened to draw.
constexpr uint64_t kQueryPoolSeed = 0xC0C0;
constexpr uint64_t kNoiseStream = 3;

// Distinct query series per pool: enough that latency quantiles describe
// the query population of a seed rather than a few hard queries. The size is
// odd, hence coprime with the 3:1 mode cycle, so every pool series runs both
// exactly and approximately.
constexpr size_t kQueryPool = 255;

// Closed loops run at least this many queries (past their time budget if
// need be); approx_error is taken over the approximate queries among them,
// so it is the same for every run of a seed.
constexpr uint64_t kMinQueries = 256;

// bulk_build: CTree-Full over 400k series, sort buffer ~1/13 of the data.
constexpr size_t kBuildSeries = 400000;
constexpr size_t kBuildLeafCapacity = 2000;
constexpr size_t kBuildMemoryBudget = 32u << 20;

// store_query: 200k series preloaded in 2048-series batches, uncompacted.
constexpr size_t kStoreSeries = 200000;
constexpr size_t kStoreBatch = 2048;

// ingest_query: 400k series streamed in 512-series batches beside an
// open-loop reader of slightly perturbed copies of recent series.
constexpr size_t kIngestSeries = 400000;
constexpr size_t kIngestBatch = 512;
constexpr double kIngestReaderRate = 16.0;  // queries per second
constexpr size_t kIngestRecentWindow = 2048;
constexpr float kIngestNoise = 0.05f;
// Oracle-checked sample: queries 0 (exact) and 7 (approximate) of every 8.
constexpr size_t kIngestCheckEvery = 8;

constexpr size_t kStoreK = 10;

StoreOptions MakeStoreOptions() {
  StoreOptions opts;
  opts.num_shards = 4;
  opts.forest.memtable_series = 2048;
  opts.forest.max_runs = 16;
  opts.forest.tree.num_threads = 1;
  return opts;
}

QuerySpec MakeSpec(bool exact, size_t k) {
  QuerySpec spec;
  spec.mode = exact ? QuerySpec::Mode::kExact : QuerySpec::Mode::kApprox;
  spec.k = k;
  spec.approx_leaves = 1;  // CTree(1): one leaf window, also the exact seed
  return spec;
}

std::vector<const Value*> Pointers(const std::vector<Series>& series) {
  std::vector<const Value*> out;
  out.reserve(series.size());
  for (const Series& s : series) out.push_back(s.data());
  return out;
}

// ---------------------------------------------------------------------------
// Query bookkeeping.

/// Per-mode sums over the queries of one pass.
struct QueryAgg {
  uint64_t count = 0;
  double route_ns = 0, approx_ns = 0, refine_ns = 0, merge_ns = 0;
  double records = 0, leaves = 0, pruned = 0, memtable = 0;
  double entries = 0;     // entries visible to the query
  double lb_entries = 0;  // entries that get a SIMS lower bound (runs only)
  double work_ns = 0, wall_ns = 0, pool_wall_ns = 0;
  double read_ops = 0, random_read_ops = 0, bytes_read = 0;

  void Add(const QueryTrace& t, const IoSnapshot& io, double wall,
           unsigned pool_threads, double visible, double lower_bounded) {
    ++count;
    route_ns += t.route_ns;
    approx_ns += t.approx_ns;
    refine_ns += t.refine_ns;
    merge_ns += t.merge_ns;
    records += t.records_fetched;
    leaves += t.leaves_visited;
    pruned += t.pruned_mindist;
    memtable += t.memtable_scanned;
    entries += visible;
    lb_entries += lower_bounded;
    work_ns += t.total_ns;
    wall_ns += wall;
    pool_wall_ns += wall * pool_threads;
    read_ops += io.read_ops;
    random_read_ops += io.random_read_ops;
    bytes_read += io.bytes_read;
  }
  double PerQuery(double sum) const { return count == 0 ? 0.0 : sum / count; }
};

/// Latencies and sums of one measured query phase. Samples are kept in
/// completion order.
struct QueryPass {
  std::vector<double> exact_ms, approx_ms;
  std::vector<double> done_s;  // completion times, seconds into the phase
  QueryAgg exact, approx;
  std::vector<double> approx_ratio;  // approximate k-th / exact k-th distance
  Clock::time_point start = Clock::now();
  double wall_s = 0.0;
};

// Timings are summarized per window: the time-ordered samples of a phase
// are cut into kWindows equal slices, the statistic is taken per slice, and
// the median over slices is reported. A burst of load from elsewhere on the
// machine then moves one slice, not the figure.
constexpr size_t kWindows = 5;

double WindowedQuantile(const std::vector<double>& v, double q) {
  if (v.size() < kWindows * 20) return Quantile(v, q);  // too few to slice
  std::vector<double> per_window;
  for (size_t w = 0; w < kWindows; ++w) {
    per_window.push_back(
        Quantile(std::vector<double>(v.begin() + v.size() * w / kWindows,
                                     v.begin() + v.size() * (w + 1) / kWindows),
                 q));
  }
  return Median(per_window);
}

/// Completions per second: the median over kWindows equal time slices of
/// [0, wall_s].
double WindowedRate(const std::vector<double>& done_s, double wall_s) {
  if (wall_s <= 0) return 0.0;
  std::vector<double> count(kWindows, 0.0);
  for (double t : done_s) {
    const size_t w = std::min(kWindows - 1,
                              static_cast<size_t>(t / wall_s * kWindows));
    ++count[w];
  }
  for (double& c : count) c /= wall_s / kWindows;
  return Median(count);
}

/// One single-query ExecuteBatch call, timed, inside a span that carries
/// the call's QueryTrace and query-I/O delta.
struct QueryCall {
  Status status;
  double wall_ns = 0;
  IoSnapshot io;
};

template <typename Exec>
QueryCall TimedQuery(SpanRecorder* rec, bool exact, const Exec& exec,
                     const std::vector<QueryTrace>& traces) {
  QueryCall call;
  const IoSnapshot io0 = GetIoComponent("query").Snapshot();
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan span(rec, exact ? "exec.ExecuteBatch.exact"
                               : "exec.ExecuteBatch.approx",
                    NextRequestId());
    call.status = exec();
    if (span.active() && call.status.ok()) {
      const QueryTrace& t = traces[0];
      span.Add("query.leaves_visited", t.leaves_visited);
      span.Add("query.records_fetched", t.records_fetched);
      span.Add("query.pruned_mindist", t.pruned_mindist);
      span.Add("query.memtable_scanned", t.memtable_scanned);
      span.Add("query.route_ns", t.route_ns);
      span.Add("query.approx_ns", t.approx_ns);
      span.Add("query.refine_ns", t.refine_ns);
      span.Add("query.merge_ns", t.merge_ns);
      span.Add("query.total_ns", t.total_ns);
      span.Add("query.cpu_ns", t.cpu_ns);
      span.AddIo("io.query", GetIoComponent("query").Snapshot() - io0);
    }
  }
  call.wall_ns = SecondsSince(t0) * 1e9;
  call.io = GetIoComponent("query").Snapshot() - io0;
  return call;
}

/// One InsertBatch call, timed, inside a span carrying the writer-side
/// registry counters it changed (reads running beside it are excluded).
Status TimedInsert(ShardedStore* store, const std::vector<Series>& batch,
                   SpanRecorder* rec, std::vector<double>* latency_ms) {
  ScopedSpan span(rec, "store.ShardedStore::InsertBatch", NextRequestId());
  RegistryDelta d;
  if (span.active()) d.before = RegistryNow();
  const Clock::time_point t0 = Clock::now();
  const Status st = store->InsertBatch(batch);
  latency_ms->push_back(SecondsSince(t0) * 1e3);
  if (span.active()) {
    d.after = RegistryNow();
    for (const auto& [name, value] : d.Changed()) {
      if (name.rfind("query.", 0) == 0 || name.rfind("io.query.", 0) == 0 ||
          name.rfind("exec.", 0) == 0) {
        continue;
      }
      span.Add(name, value);
    }
    span.Add("series", static_cast<double>(batch.size()));
  }
  return st;
}

/// Flags drift in counters that must repeat exactly for the same seed:
/// within a run (a query executed again, a build repeated, the traced pass)
/// and across runs, through a per-seed file of every counter seen so far.
class DriftCheck {
 public:
  void Observe(size_t query, bool exact, const QueryTrace& t,
               const IoSnapshot& io, RunResult* r) {
    const std::string p =
        (exact ? "exact.q" : "approx.q") + std::to_string(query) + ".";
    ObserveScalar(p + "records_fetched", t.records_fetched, r);
    ObserveScalar(p + "leaves_visited", t.leaves_visited, r);
    ObserveScalar(p + "pruned_mindist", t.pruned_mindist, r);
    ObserveScalar(p + "io.query.read_ops", io.read_ops, r);
  }

  void ObserveScalar(const std::string& name, double value, RunResult* r) {
    auto [it, inserted] = values_.emplace(name, value);
    if (inserted || it->second == value) return;
    r->Mismatch(Describe(name, value, it->second, "within the run"));
  }

  /// Compares every counter with the value an earlier run of the same
  /// sources, workload and seed recorded, then records the union.
  void CheckAcrossRuns(const RunConfig& cfg, RunResult* r) {
    if (values_.empty()) return;  // ingest_query's counters follow timing
    const std::string path = coconut::JoinPath(
        cfg.state_dir, "counters-" + cfg.workload + "-" +
                           std::to_string(cfg.seed) + "-" + cfg.source_id);
    std::map<std::string, double> all;
    {
      std::ifstream in(path);
      std::string name;
      double value = 0;
      while (in >> name >> value) all[name] = value;
    }
    size_t compared = 0;
    for (const auto& [name, value] : values_) {
      auto [it, inserted] = all.emplace(name, value);
      if (inserted) continue;
      ++compared;
      if (it->second != value) {
        r->Mismatch(Describe(name, value, it->second, "across runs"));
      }
    }
    std::ofstream out(path);
    out.precision(17);
    for (const auto& [name, value] : all) out << name << " " << value << "\n";
    r->notes.push_back("deterministic counters: " +
                       std::to_string(values_.size()) + " recorded, " +
                       std::to_string(compared) +
                       " compared with earlier runs of this seed");
  }

 private:
  static std::string Describe(const std::string& name, double now,
                              double before, const char* where) {
    char buf[240];
    std::snprintf(buf, sizeof(buf), "counter drift %s on %s: %.17g vs %.17g",
                  where, name.c_str(), now, before);
    return buf;
  }

  std::map<std::string, double> values_;
};

// ---------------------------------------------------------------------------
// Metric assembly.

void PutQueryMetrics(const QueryPass& q, Metrics* m) {
  (*m)["query_per_s"] = {WindowedRate(q.done_s, q.wall_s), "q/s"};
  (*m)["exact_p50_ms"] = {WindowedQuantile(q.exact_ms, 0.5), "ms"};
  (*m)["exact_p90_ms"] = {WindowedQuantile(q.exact_ms, 0.90), "ms"};
  (*m)["approx_p50_ms"] = {WindowedQuantile(q.approx_ms, 0.5), "ms"};
  (*m)["approx_p90_ms"] = {WindowedQuantile(q.approx_ms, 0.90), "ms"};
  (*m)["approx_error"] = {Mean(q.approx_ratio), "ratio"};
}

std::string ListNote(const char* label, const std::vector<double>& v) {
  std::string line = label;
  char buf[32];
  for (double x : v) {
    std::snprintf(buf, sizeof(buf), " %.4f", x);
    line += buf;
  }
  return line;
}

std::string TimingNote(const std::string& name, const std::vector<double>& v) {
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "%s: n=%zu p50 %.4g ms, p90 %.4g, p99 %.4g, p99.5 %.4g, max %.4g",
                name.c_str(), v.size(), Quantile(v, 0.5), Quantile(v, 0.90),
                Quantile(v, 0.99), Quantile(v, 0.995), Quantile(v, 1.0));
  return buf;
}

void PutQueryLayerMetrics(const QueryPass& q, RunResult* r) {
  Metrics& pl = r->per_layer;
  for (const bool exact : {true, false}) {
    const QueryAgg& a = exact ? q.exact : q.approx;
    const std::string p = exact ? "core.exact." : "core.approx.";
    pl[p + "route_us"] = {a.PerQuery(a.route_ns) / 1e3, "us"};
    pl[p + "approx_us"] = {a.PerQuery(a.approx_ns) / 1e3, "us"};
    pl[p + "refine_us"] = {a.PerQuery(a.refine_ns) / 1e3, "us"};
    pl[p + "merge_us"] = {a.PerQuery(a.merge_ns) / 1e3, "us"};
    pl[p + "records_fetched"] = {a.PerQuery(a.records), "count"};
    pl[p + "leaves_visited"] = {a.PerQuery(a.leaves), "count"};
    pl[p + "pruning_ratio"] = {a.entries > 0 ? a.pruned / a.entries : 0.0,
                               "ratio"};
    pl[p + "memtable_scanned"] = {a.PerQuery(a.memtable), "count"};
  }
  const QueryAgg& e = q.exact;
  pl["io.query.read_ops"] = {e.PerQuery(e.read_ops), "count"};
  pl["io.query.read_kb"] = {e.PerQuery(e.bytes_read) / 1024.0, "KiB"};
  pl["io.query.random_share"] = {
      e.read_ops > 0 ? e.random_read_ops / e.read_ops : 0.0, "ratio"};
  const double work = q.exact.work_ns + q.approx.work_ns;
  const double capacity = q.exact.pool_wall_ns + q.approx.pool_wall_ns;
  pl["exec.fanout_efficiency"] = {capacity > 0 ? work / capacity : 0.0,
                                  "ratio"};
}

/// Share of the index-construction writes (`io.build`) that were random.
double BuildRandomWriteShare(const RegistryDelta& d) {
  const double writes = static_cast<double>(d.Counter("io.build.write_ops"));
  return writes > 0 ? d.Counter("io.build.random_write_ops") / writes : 0.0;
}

/// Per-layer metrics from a registry delta. Sort and build-I/O figures are
/// divided by `builds` (per Build call on bulk_build); the rest are totals
/// or per-event means over the delta's interval.
void PutRegistryLayerMetrics(const RegistryDelta& d, double builds,
                             RunResult* r) {
  Metrics& pl = r->per_layer;
  const double per = builds > 0 ? builds : 1.0;
  auto io = [&d](const std::string& component, const char* field) {
    return static_cast<double>(d.Counter("io." + component + "." + field));
  };
  pl["sort.run_gen_s"] = {d.Histogram("sort.run_gen_ns").sum / 1e9 / per, "s"};
  pl["sort.merge_s"] = {d.Histogram("sort.merge_ns").sum / 1e9 / per, "s"};
  pl["sort.runs_spilled"] = {d.Counter("sort.runs_spilled") / per, "count"};
  pl["sort.spill_mb"] = {d.Counter("sort.spill_bytes") / kMiB / per, "MiB"};
  pl["forest.flush_s"] = {d.Histogram("forest.flush_ns").sum / 1e9, "s"};
  const coconut::HistogramSnapshot compaction =
      d.Histogram("forest.compaction_ns");
  pl["forest.compaction_s"] = {compaction.sum / 1e9, "s"};
  pl["forest.compactions"] = {static_cast<double>(compaction.count), "count"};
  pl["forest.compaction_fan_in"] = {
      d.Histogram("forest.compaction.merge_fan_in").Mean(), "runs"};
  pl["store.commit.stage_ms"] = {
      d.Histogram("store.commit.stage_ns").Mean() / 1e6, "ms"};
  pl["store.commit.publish_ms"] = {
      d.Histogram("store.commit.publish_ns").Mean() / 1e6, "ms"};
  pl["store.commit.epoch_ms"] = {
      d.Histogram("store.commit.epoch_ns").Mean() / 1e6, "ms"};
  pl["store.journal_mb"] = {d.Counter("store.journal.bytes") / kMiB, "MiB"};
  pl["io.build.write_mb"] = {io("build", "bytes_written") / kMiB / per, "MiB"};
  pl["io.build.random_write_share"] = {BuildRandomWriteShare(d), "ratio"};
  pl["io.sort.write_mb"] = {io("sort", "bytes_written") / kMiB / per, "MiB"};
  pl["io.commit.write_mb"] = {io("commit", "bytes_written") / kMiB, "MiB"};
}

/// Per-layer metrics of the query side of a registry delta.
void PutExecLayerMetrics(const RegistryDelta& d, RunResult* r) {
  r->per_layer["exec.queue_wait_us"] = {
      d.Histogram("exec.queue_wait_ns").Mean() / 1e3, "us"};
  r->per_layer["exec.admission_shed"] = {
      static_cast<double>(d.Counter("exec.admission.shed")), "count"};
  r->per_layer["io.retry_attempts"] = {
      static_cast<double>(d.Counter("io.retry.attempts")), "count"};
}

/// Paper-claim checks on the benchmark's own data: bottom-up loading packs
/// leaves to the fill factor, and index construction writes sequentially.
void CheckClaims(double leaf_fill, double fill_factor, const RegistryDelta& d,
                 RunResult* r) {
  const double random_share = BuildRandomWriteShare(d);
  const bool fill_holds = leaf_fill >= 0.99 * fill_factor;
  const bool seq_holds = random_share <= 0.01;
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "claim: bottom-up loading packs leaves to the fill factor "
                "(mean leaf fill %.4f >= 0.99 x %.2f): %s",
                leaf_fill, fill_factor, fill_holds ? "HOLDS" : "FAILS");
  r->notes.push_back(buf);
  std::snprintf(buf, sizeof(buf),
                "claim: index construction writes sequentially (random share "
                "of %llu build writes %.4f <= 0.01): %s",
                (unsigned long long)d.Counter("io.build.write_ops"),
                random_share, seq_holds ? "HOLDS" : "FAILS");
  r->notes.push_back(buf);
}

/// Store shape: runs per shard, entry skew across shards, and the
/// entry-weighted leaf fill of the bulk-loaded runs.
void PutStoreShapeMetrics(const ShardedStore& store, RunResult* r) {
  double runs_sum = 0, runs_max = 0, entries_sum = 0, entries_max = 0;
  double fill_weighted = 0, run_entries = 0;
  const ShardedStore::Snapshot snap = store.GetSnapshot();
  for (const auto& shard : snap.shards) {
    const double runs = static_cast<double>(shard.runs.size());
    runs_sum += runs;
    runs_max = std::max(runs_max, runs);
    const double entries = static_cast<double>(shard.num_entries());
    entries_sum += entries;
    entries_max = std::max(entries_max, entries);
    for (const auto& run : shard.runs) {
      fill_weighted += run->AvgLeafFill() * run->num_entries();
      run_entries += run->num_entries();
    }
  }
  const double shards = static_cast<double>(snap.shards.size());
  r->per_layer["forest.runs_per_shard_mean"] = {runs_sum / shards, "runs"};
  r->per_layer["forest.runs_per_shard_max"] = {runs_max, "runs"};
  r->per_layer["store.shard_skew"] = {
      entries_sum > 0 ? entries_max / (entries_sum / shards) : 0.0, "ratio"};
  r->per_layer["core.leaf_fill"] = {
      run_entries > 0 ? fill_weighted / run_entries : 0.0, "ratio"};
}

/// Entries of a store snapshot that get a SIMS lower bound (run entries).
double LowerBoundedEntries(const ShardedStore::Snapshot& snap) {
  double total = 0;
  for (const auto& shard : snap.shards) {
    total += static_cast<double>(shard.num_entries() - shard.memtable_count);
  }
  return total;
}

/// Calibrated per-call costs of the dispatched SIMD kernels, measured on
/// the workload's own series: one true distance, and one SIMS lower bound
/// (per entry of the batched kernel the lower-bound pass calls).
struct KernelCost {
  double dist_ns = 0;
  double mindist_ns = 0;
};

KernelCost CalibrateKernels(const std::vector<const Value*>& sample) {
  const coconut::simd::KernelTable& kt = coconut::simd::Kernels();
  const coconut::SummaryOptions sum;  // the indexes' defaults
  const size_t n = sample.size();
  const size_t w = sum.segments;
  std::vector<double> paa(n * w);
  for (size_t i = 0; i < n; ++i) {
    kt.paa_transform(sample[i], kSeriesLength, w, &paa[i * w]);
  }
  const double* edges =
      coconut::SaxBreakpoints::Get().EdgeTable(sum.cardinality_bits);
  const size_t regions = size_t{1} << sum.cardinality_bits;
  std::vector<uint8_t> sax(n * w);
  for (size_t i = 0; i < n * w; ++i) {  // region s spans [edges[s], edges[s+1])
    const double* above = std::upper_bound(edges + 1, edges + regions, paa[i]);
    sax[i] = static_cast<uint8_t>(above - (edges + 1));
  }
  std::vector<double> out(n);
  double sink = 0;
  std::vector<double> dist_trials, mindist_trials;
  for (int trial = 0; trial < 7; ++trial) {
    Clock::time_point t0 = Clock::now();
    for (int rep = 0; rep < 4; ++rep) {
      for (size_t i = 0; i + 1 < n; ++i) {
        sink += kt.squared_euclidean(sample[i], sample[i + 1], kSeriesLength);
      }
    }
    dist_trials.push_back(SecondsSince(t0) * 1e9 / (4.0 * (n - 1)));
    t0 = Clock::now();
    for (size_t rep = 0; rep < 32; ++rep) {
      kt.mindist_paa_sax_batch(&paa[rep * w], sax.data(), w, n, edges, w,
                               sum.segment_size(), out.data());
      sink += out[rep];
    }
    mindist_trials.push_back(SecondsSince(t0) * 1e9 / (32.0 * n));
  }
  if (!(sink >= 0)) std::fprintf(stderr, "calibration produced NaN\n");
  return KernelCost{Median(dist_trials), Median(mindist_trials)};
}

/// Reconciles the exact-query layers against the measured per-query time.
void Reconcile(const QueryPass& q, const std::vector<const Value*>& sample,
               unsigned sims_threads, RunResult* r) {
  const KernelCost kc = CalibrateKernels(sample);
  r->per_layer["simd.dist_ns"] = {kc.dist_ns, "ns"};
  r->per_layer["simd.mindist_ns"] = {kc.mindist_ns, "ns"};
  const QueryAgg& e = q.exact;
  const double stages = e.route_ns + e.approx_ns + e.refine_ns + e.merge_ns;
  // Lower bounds run over the run entries, split across the SIMS threads;
  // fetched records and memtable entries each cost one true distance.
  const double predicted = kc.dist_ns * (e.records + e.memtable) +
                           kc.mindist_ns * e.lb_entries / sims_threads;
  const double work = e.work_ns;
  const double stage_share = work > 0 ? stages / work : 0.0;
  const double predicted_share = work > 0 ? predicted / work : 0.0;
  r->per_layer["core.exact.stage_sum_share"] = {stage_share, "ratio"};
  r->per_layer["core.exact.predicted_compute_share"] = {predicted_share,
                                                        "ratio"};
  r->per_layer["core.unexplained_share"] = {1.0 - predicted_share, "ratio"};
  char buf[400];
  std::snprintf(
      buf, sizeof(buf),
      "reconcile exact (per query): wall %.1f us, summed work %.1f us, stage "
      "sum %.1f us (%.1f%% of work), predicted compute %.1f us (%.1f%%: "
      "%.1f ns/distance x %.0f records, %.2f ns/lower bound x %.0f entries / "
      "%u threads), unexplained %.1f%%",
      e.PerQuery(e.wall_ns) / 1e3, e.PerQuery(work) / 1e3,
      e.PerQuery(stages) / 1e3, 100 * stage_share,
      e.PerQuery(predicted) / 1e3, 100 * predicted_share, kc.dist_ns,
      e.PerQuery(e.records + e.memtable), kc.mindist_ns,
      e.PerQuery(e.lb_entries), sims_threads, 100 * (1.0 - predicted_share));
  r->notes.push_back(buf);
}

/// Per-layer metrics a workload's layers do not produce are reported as
/// zero work, so every run prints the full list.
void ZeroUnset(RunResult* r) {
  static const std::pair<const char*, const char*> kAll[] = {
      {"summary.summarize_s", "s"},
      {"sort.sort_s", "s"},
      {"core.load_s", "s"},
      {"forest.runs_per_shard_mean", "runs"},
      {"forest.runs_per_shard_max", "runs"},
      {"store.shard_skew", "ratio"}};
  for (const auto& [name, unit] : kAll) r->per_layer.emplace(name, Metric{0.0, unit});
}

// ---------------------------------------------------------------------------
// Workloads.

class Workload {
 public:
  Workload(const RunConfig& cfg, RunResult* r) : cfg_(cfg), r_(r) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  void Run() {
    // Setups and the oracle run untraced; the traced pass repeats one setup
    // with spans on, so its figures set against the untraced ones give the
    // tracing overhead of every end-to-end metric.
    std::vector<double> setup_s;
    for (int rep = 0; rep < kSetupReps; ++rep) setup_s.push_back(TimedSetup());
    PrepareOracle();  // ground truth is the benchmark's own work: untimed
    r_->notes.push_back(ListNote("setup s:", setup_s));
    Metrics untraced;
    r_->notes.push_back("-- untraced pass");
    MeasuredPass(&untraced);
    untraced["setup_s"] = {Median(setup_s), "s"};
    r_->end_to_end = untraced;
    if (cfg_.trace) {
      Metrics traced;
      rec_ = &recorder_;
      r_->notes.push_back("-- traced pass");
      ClearSetupFigures();
      traced["setup_s"] = {TimedSetup(), "s"};
      {
        ScopedSpan span(Recorder(), "perfbench.traced_pass", NextRequestId());
        MeasuredPass(&traced);
      }
      ReportOverhead(untraced, traced);
      ZeroUnset(r_);
      r_->per_layer["trace.spans"] = {static_cast<double>(recorder_.size()),
                                      "count"};
      const std::string path = coconut::JoinPath(
          cfg_.state_dir, "spans-" + cfg_.workload + ".json");
      const Status st = recorder_.WriteChromeTrace(path, cfg_.provenance);
      if (!st.ok()) r_->Fail("writing spans: " + st.ToString());
      r_->notes.push_back("spans written to " + path);
    }
    drift_.CheckAcrossRuns(cfg_, r_);
  }

 private:
  double TimedSetup() {
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(Recorder(), "perfbench.setup", NextRequestId());
      Setup();
    }
    return SecondsSince(t0);
  }

  /// One pass, with peak_rss_mb: the growth of resident memory over the
  /// pass (peak during it minus the RSS at its start), so the inputs the
  /// benchmark holds in memory do not dilute the library's working memory.
  /// A pass that measures it per round reports its own figure instead.
  void MeasuredPass(Metrics* m) {
    const double rss0 = StartRssWindow();
    Pass(m);
    m->emplace("peak_rss_mb", Metric{PeakRssMb() - rss0, "MiB"});
  }

 protected:
  /// Data generation and preload; timed as setup_s, repeated kSetupReps
  /// times, and the last repetition's state is measured.
  virtual void Setup() = 0;
  /// Drops figures earlier setups collected, before the traced setup.
  virtual void ClearSetupFigures() {}
  virtual void PrepareOracle() {}
  virtual void Pass(Metrics* m) = 0;

  /// Resets the peak RSS; returns the RSS the window starts from.
  double StartRssWindow() {
    if (!ResetPeakRss()) r_->Fail("cannot reset the peak RSS (clear_refs)");
    return RssMb();
  }

  /// Span recorder of the current phase: null when tracing is off, and
  /// until the traced setup when it is on.
  SpanRecorder* Recorder() const { return rec_; }

  /// Records closed-loop query `i`: status, oracle check, latency,
  /// counters, and — among the first kMinQueries — its approximation error.
  void Record(uint64_t i, const QueryCall& call, const SearchResult& res,
              const QueryTrace& trace, const std::vector<double>& truth,
              bool exact, unsigned pool_threads, double visible,
              double lower_bounded, QueryPass* q) {
    ++r_->attempted;
    if (!call.status.ok()) {
      r_->Fail("ExecuteBatch: " + call.status.ToString());
      return;
    }
    q->done_s.push_back(SecondsSince(q->start));
    const std::string bad = CheckAnswer(res, truth, exact);
    if (!bad.empty()) r_->Mismatch(bad);
    (exact ? q->exact_ms : q->approx_ms).push_back(call.wall_ns / 1e6);
    (exact ? q->exact : q->approx)
        .Add(trace, call.io, call.wall_ns, pool_threads, visible,
             lower_bounded);
    if (!exact && i < kMinQueries && !truth.empty() && truth.back() > 0 &&
        res.neighbors.size() == truth.size()) {
      q->approx_ratio.push_back(res.neighbors.back().distance / truth.back());
    }
  }

  /// One untimed exact query before the closed loop, so lazily loaded
  /// state (each index's SIMS summary array) is in place, as it is for a
  /// long-running reader; otherwise the first query's I/O counts differ.
  void Warmup(const Status& st) {
    ++r_->attempted;
    if (!st.ok()) r_->Fail("warm-up query: " + st.ToString());
  }

  void ReportOverhead(const Metrics& untraced, const Metrics& traced) {
    std::string line = "trace overhead (traced - untraced):";
    for (const auto& [name, m] : untraced) {
      auto it = traced.find(name);
      if (it == traced.end()) continue;
      char buf[96];
      std::snprintf(buf, sizeof(buf), " %s %+.4g %s (%+.1f%%);", name.c_str(),
                    it->second.value - m.value, m.unit.c_str(),
                    m.value != 0 ? 100 * (it->second.value / m.value - 1) : 0.0);
      line += buf;
    }
    r_->notes.push_back(line);
    const auto a = untraced.find("exact_p50_ms");
    const auto b = traced.find("exact_p50_ms");
    r_->per_layer["trace.exact_p50_overhead_ms"] = {
        a != untraced.end() && b != traced.end() ? b->second.value - a->second.value
                                                 : 0.0,
        "ms"};
  }

  const RunConfig& cfg_;
  RunResult* r_;
  DriftCheck drift_;

 private:
  SpanRecorder recorder_{cfg_.trace};
  SpanRecorder* rec_ = nullptr;
};

// --- bulk_build -------------------------------------------------------------

class BulkBuild : public Workload {
 public:
  using Workload::Workload;

 private:
  void Setup() override {
    data_.clear();
    data_ = GenerateSeries(cfg_.seed, kDataStream, kBuildSeries, cfg_.nproc);
    data_ptrs_ = Pointers(data_);
    raw_path_ = coconut::JoinPath(cfg_.work_dir, "raw.bin");
    std::FILE* f = std::fopen(raw_path_.c_str(), "wb");
    bool ok = f != nullptr;
    for (size_t i = 0; ok && i < data_.size(); ++i) {
      ok = std::fwrite(data_[i].data(), sizeof(Value), kSeriesLength, f) ==
           kSeriesLength;
    }
    if (f != nullptr && std::fclose(f) != 0) ok = false;
    if (!ok) r_->Fail("writing " + raw_path_);
    queries_ =
        GenerateSeries(kQueryPoolSeed, kQueryStream, kQueryPool, cfg_.nproc);
    single_.clear();
    for (const Series& q : queries_) single_.push_back({q});
  }

  void PrepareOracle() override {
    truth_ = OracleKnnBatch(data_ptrs_,
                            std::vector<size_t>(kQueryPool, data_.size()),
                            Pointers(queries_), 1, cfg_.nproc);
  }

  void Pass(Metrics* m) override {
    const Clock::time_point start = Clock::now();
    const std::string index_dir = coconut::JoinPath(cfg_.work_dir, "index");
    const std::string index_path = coconut::JoinPath(index_dir, "tree.idx");
    CoconutOptions opts;
    opts.materialized = true;
    opts.leaf_capacity = kBuildLeafCapacity;
    opts.memory_budget_bytes = kBuildMemoryBudget;
    opts.tmp_dir = index_dir;
    const double raw_bytes = kBuildSeries * kSeriesBytes;

    // Builds: at least three, over about 40% of the run.
    std::vector<double> build_ms, write_amp, space_amp;
    std::vector<double> summarize_s, sort_s, load_s;
    RegistryDelta builds;
    builds.before = RegistryNow();
    while (build_ms.size() < 3 ||
           (SecondsSince(start) < 0.4 * cfg_.seconds && build_ms.size() < 12)) {
      (void)coconut::RemoveAll(index_dir);
      (void)coconut::MakeDirs(index_dir);
      const IoSnapshot io0 = IoStats::Instance().Snapshot();
      TreeBuildStats stats;
      Status st;
      const Clock::time_point t0 = Clock::now();
      {
        ScopedSpan span(Recorder(), "core.CoconutTree::Build", NextRequestId());
        RegistryDelta d;
        if (span.active()) d.before = RegistryNow();
        st = CoconutTree::Build(raw_path_, index_path, opts, &stats);
        if (span.active()) {
          d.after = RegistryNow();
          span.Add("build.summarize_s", stats.summarize_seconds);
          span.Add("build.sort_s", stats.sort_seconds);
          span.Add("build.load_s", stats.load_seconds);
          span.Add("build.spilled_runs", static_cast<double>(stats.spilled_runs));
          span.AddIo("io", IoStats::Instance().Snapshot() - io0);
          span.AddAll(d.Changed());
        }
      }
      const double wall = SecondsSince(t0);
      ++r_->attempted;
      if (!st.ok()) {
        r_->Fail("Build: " + st.ToString());
        return;
      }
      const IoSnapshot io = IoStats::Instance().Snapshot() - io0;
      build_ms.push_back(wall * 1e3);
      write_amp.push_back(io.bytes_written / raw_bytes);
      space_amp.push_back(DirBytes(index_dir) / raw_bytes);
      summarize_s.push_back(stats.summarize_seconds);
      sort_s.push_back(stats.sort_seconds);
      load_s.push_back(stats.load_seconds);
      drift_.ObserveScalar("sort.runs_spilled",
                           static_cast<double>(stats.spilled_runs), r_);
      drift_.ObserveScalar("build.bytes_written",
                           static_cast<double>(io.bytes_written), r_);
    }
    builds.after = RegistryNow();

    std::unique_ptr<CoconutTree> tree;
    const Status open = CoconutTree::Open(index_path, raw_path_, &tree);
    ++r_->attempted;
    if (!open.ok()) {
      r_->Fail("Open: " + open.ToString());
      return;
    }

    // Queries: one closed-loop client, one query per ExecuteBatch call.
    ThreadPool pool(1);
    QueryEngine engine(&pool);
    std::vector<SearchResult> results;
    std::vector<QueryTrace> traces;
    Warmup(engine.ExecuteBatch(*tree, single_[0], MakeSpec(true, 1), &results));
    QueryPass q;
    RegistryDelta qreg;
    qreg.before = RegistryNow();
    const double budget = std::max(1.0, cfg_.seconds - SecondsSince(start));
    const double entries = static_cast<double>(tree->num_entries());
    q.start = Clock::now();
    for (uint64_t i = 0; i < kMinQueries || SecondsSince(q.start) < budget;
         ++i) {
      const size_t qi = i % kQueryPool;
      const bool exact = i % 4 != 3;  // exact : approximate = 3 : 1
      const QuerySpec spec = MakeSpec(exact, 1);
      const QueryCall call = TimedQuery(
          Recorder(), exact,
          [&] {
            return engine.ExecuteBatch(*tree, single_[qi], spec, &results,
                                       &traces);
          },
          traces);
      Record(i, call, results[0], traces[0], truth_[qi], exact,
             pool.parallelism(), entries, entries, &q);
      if (!call.status.ok()) continue;
      CheckOffsets(results[0], queries_[qi]);
      drift_.Observe(qi, exact, traces[0], call.io, r_);
    }
    q.wall_s = SecondsSince(q.start);
    qreg.after = RegistryNow();
    drift_.ObserveScalar("approx_error", Mean(q.approx_ratio), r_);

    // A static index ingests by building: its write calls are Build calls.
    const double build_rate = kBuildSeries / (Median(build_ms) / 1e3);
    (*m)["build_series_per_s"] = {build_rate, "series/s"};
    (*m)["ingest_series_per_s"] = {build_rate, "series/s"};
    (*m)["insert_p50_ms"] = {Quantile(build_ms, 0.5), "ms"};
    (*m)["insert_p99.5_ms"] = {Quantile(build_ms, 0.995), "ms"};
    (*m)["write_amp"] = {Median(write_amp), "ratio"};
    (*m)["space_amp"] = {Median(space_amp), "ratio"};
    PutQueryMetrics(q, m);
    r_->notes.push_back(TimingNote("Build", build_ms));
    r_->notes.push_back(TimingNote("exact 1-NN", q.exact_ms));
    r_->notes.push_back(TimingNote("approx CTree(1) 1-NN", q.approx_ms));

    const bool traced = Recorder() != nullptr;
    if (!traced) {
      CheckClaims(tree->AvgLeafFill(), opts.fill_factor, builds, r_);
      return;
    }
    const double n_builds = static_cast<double>(build_ms.size());
    PutRegistryLayerMetrics(builds, n_builds, r_);
    PutExecLayerMetrics(qreg, r_);
    r_->per_layer["summary.summarize_s"] = {Median(summarize_s), "s"};
    r_->per_layer["sort.sort_s"] = {Median(sort_s), "s"};
    r_->per_layer["core.load_s"] = {Median(load_s), "s"};
    r_->per_layer["core.leaf_fill"] = {tree->AvgLeafFill(), "ratio"};
    PutQueryLayerMetrics(q, r_);
    Reconcile(q, std::vector<const Value*>(data_ptrs_.begin(),
                                           data_ptrs_.begin() + 4096),
              ThreadPool::Shared()->parallelism(), r_);
  }

  /// The tree answers with raw-file byte offsets: each neighbor must be the
  /// series at its offset, at the reported distance.
  void CheckOffsets(const SearchResult& res, const Series& query) {
    const uint64_t stride = static_cast<uint64_t>(kSeriesBytes);
    for (const auto& nb : res.neighbors) {
      const uint64_t idx = nb.offset / stride;
      if (nb.offset % stride != 0 || idx >= data_.size()) {
        r_->Mismatch("neighbor offset " + std::to_string(nb.offset) +
                     " is not a series of the dataset");
        return;
      }
      const double d = std::sqrt(OracleDistanceSq(data_ptrs_[idx], query.data()));
      if (std::fabs(d - nb.distance) > 1e-4 * std::max(1.0, d)) {
        r_->Mismatch("neighbor at offset " + std::to_string(nb.offset) +
                     " reported at distance " + std::to_string(nb.distance) +
                     ", actual " + std::to_string(d));
        return;
      }
    }
  }

  std::vector<Series> data_;
  std::vector<const Value*> data_ptrs_;
  std::vector<Series> queries_;
  std::vector<std::vector<Series>> single_;
  std::vector<std::vector<double>> truth_;
  std::string raw_path_;
};

// --- store_query ------------------------------------------------------------

class StoreQuery : public Workload {
 public:
  using Workload::Workload;

 private:
  void Setup() override {
    store_.reset();
    data_.clear();
    data_ = GenerateSeries(cfg_.seed, kDataStream, kStoreSeries, cfg_.nproc);
    queries_ =
        GenerateSeries(kQueryPoolSeed, kQueryStream, kQueryPool, cfg_.nproc);
    single_.clear();
    for (const Series& q : queries_) single_.push_back({q});

    // Preload through the write path; the store is left uncompacted.
    const std::string dir = coconut::JoinPath(cfg_.work_dir, "store");
    (void)coconut::RemoveAll(dir);
    ++r_->attempted;
    Status st = ShardedStore::Open(dir, MakeStoreOptions(), &store_);
    if (!st.ok()) {
      r_->Fail("Open: " + st.ToString());
      return;
    }
    preload_.before = RegistryNow();
    const IoSnapshot io0 = IoStats::Instance().Snapshot();
    const Clock::time_point t0 = Clock::now();
    std::vector<Series> batch;
    for (size_t i = 0; i < data_.size(); i += kStoreBatch) {
      batch.assign(data_.begin() + i,
                   data_.begin() + std::min(data_.size(), i + kStoreBatch));
      ++r_->attempted;
      st = TimedInsert(store_.get(), batch, Recorder(), &insert_ms_);
      if (!st.ok()) r_->Fail("InsertBatch: " + st.ToString());
    }
    preload_s_.push_back(SecondsSince(t0));
    preload_.after = RegistryNow();
    const double raw_bytes = kStoreSeries * kSeriesBytes;
    const IoSnapshot io = IoStats::Instance().Snapshot() - io0;
    write_amp_.push_back(io.bytes_written / raw_bytes);
    drift_.ObserveScalar("preload.bytes_written",
                         static_cast<double>(io.bytes_written), r_);
    space_amp_.push_back(DirBytes(dir) / raw_bytes);
  }

  void ClearSetupFigures() override {
    preload_s_.clear();
    insert_ms_.clear();
    write_amp_.clear();
    space_amp_.clear();
  }

  void PrepareOracle() override {
    truth_ = OracleKnnBatch(Pointers(data_),
                            std::vector<size_t>(kQueryPool, data_.size()),
                            Pointers(queries_), kStoreK, cfg_.nproc);
  }

  void Pass(Metrics* m) override {
    if (store_ == nullptr) return;
    // One closed-loop client; each query fans out over the shards on an
    // engine pool of nproc threads (the library's shared pool is 1 thread,
    // so the per-run lower-bound pass does not nest).
    ThreadPool pool(cfg_.nproc);
    QueryEngine engine(&pool);
    const ShardedStore::Snapshot snap = store_->GetSnapshot();
    const double visible = static_cast<double>(snap.num_entries());
    const double lower_bounded = LowerBoundedEntries(snap);
    std::vector<SearchResult> results;
    std::vector<QueryTrace> traces;
    Warmup(engine.ExecuteBatch(*store_, snap, single_[0],
                               MakeSpec(true, kStoreK), &results));
    QueryPass q;
    RegistryDelta qreg;
    qreg.before = RegistryNow();
    q.start = Clock::now();
    for (uint64_t i = 0;
         i < kMinQueries || SecondsSince(q.start) < cfg_.seconds; ++i) {
      const size_t qi = i % kQueryPool;
      const bool exact = i % 4 != 3;
      const QuerySpec spec = MakeSpec(exact, kStoreK);
      const QueryCall call = TimedQuery(
          Recorder(), exact,
          [&] {
            return engine.ExecuteBatch(*store_, snap, single_[qi], spec,
                                       &results, &traces);
          },
          traces);
      Record(i, call, results[0], traces[0], truth_[qi], exact,
             pool.parallelism(), visible, lower_bounded, &q);
      if (call.status.ok()) drift_.Observe(qi, exact, traces[0], call.io, r_);
    }
    q.wall_s = SecondsSince(q.start);
    qreg.after = RegistryNow();
    drift_.ObserveScalar("approx_error", Mean(q.approx_ratio), r_);

    // The store's write path ran in setup: its figures come from the
    // preloads (every setup repetition).
    std::vector<double> rates;
    for (double s : preload_s_) rates.push_back(kStoreSeries / s);
    (*m)["build_series_per_s"] = {Median(rates), "series/s"};
    (*m)["ingest_series_per_s"] = {Median(rates), "series/s"};
    (*m)["insert_p50_ms"] = {WindowedQuantile(insert_ms_, 0.5), "ms"};
    (*m)["insert_p99.5_ms"] = {WindowedQuantile(insert_ms_, 0.995), "ms"};
    (*m)["write_amp"] = {Median(write_amp_), "ratio"};
    (*m)["space_amp"] = {Median(space_amp_), "ratio"};
    PutQueryMetrics(q, m);
    r_->notes.push_back(TimingNote("preload InsertBatch", insert_ms_));
    r_->notes.push_back(ListNote("preload s:", preload_s_));
    r_->notes.push_back(TimingNote("exact 10-NN", q.exact_ms));
    r_->notes.push_back(TimingNote("approx 10-NN", q.approx_ms));

    PutStoreShapeMetrics(*store_, r_);
    if (Recorder() == nullptr) return;
    PutRegistryLayerMetrics(preload_, 0, r_);
    PutExecLayerMetrics(qreg, r_);
    PutQueryLayerMetrics(q, r_);
    const std::vector<const Value*> ptrs = Pointers(data_);
    Reconcile(q, std::vector<const Value*>(ptrs.begin(), ptrs.begin() + 4096),
              ThreadPool::Shared()->parallelism(), r_);
  }

  std::vector<Series> data_;
  std::vector<Series> queries_;
  std::vector<std::vector<Series>> single_;
  std::vector<std::vector<double>> truth_;
  std::unique_ptr<ShardedStore> store_;
  RegistryDelta preload_;  // the last setup's preload
  std::vector<double> preload_s_, insert_ms_, write_amp_, space_amp_;
};

// --- ingest_query -----------------------------------------------------------

class IngestQuery : public Workload {
 public:
  using Workload::Workload;

 private:
  struct Sample {
    Series query;
    size_t visible;
    bool exact;
    SearchResult result;
  };

  void Setup() override {
    batches_.clear();
    std::vector<Series> data =
        GenerateSeries(cfg_.seed, kDataStream, kIngestSeries, cfg_.nproc);
    for (size_t i = 0; i < data.size(); i += kIngestBatch) {
      const size_t end = std::min(data.size(), i + kIngestBatch);
      batches_.emplace_back(std::make_move_iterator(data.begin() + i),
                            std::make_move_iterator(data.begin() + end));
    }
    data_ptrs_.clear();
    for (const auto& b : batches_) {
      for (const Series& s : b) data_ptrs_.push_back(s.data());
    }
  }

  /// Figures pooled over the rounds of one pass.
  struct Pooled {
    QueryPass q;
    std::vector<double> lag_ms, insert_ms, ingest_rate, compact_rate;
    std::vector<double> write_amp, space_amp, rss_growth_mb;
    size_t checked = 0;
    RegistryDelta reg;  // ingest phase of the last round
  };

  void Pass(Metrics* m) override {
    // Rounds of the whole stream into a fresh store, until the run's time
    // is used; every round is measured.
    Pooled p;
    const Clock::time_point start = Clock::now();
    do {
      Round(&p);
    } while (SecondsSince(start) < cfg_.seconds && r_->failed == 0);

    (*m)["build_series_per_s"] = {Median(p.compact_rate), "series/s"};
    (*m)["ingest_series_per_s"] = {Median(p.ingest_rate), "series/s"};
    (*m)["insert_p50_ms"] = {WindowedQuantile(p.insert_ms, 0.5), "ms"};
    (*m)["insert_p99.5_ms"] = {WindowedQuantile(p.insert_ms, 0.995), "ms"};
    (*m)["write_amp"] = {Median(p.write_amp), "ratio"};
    (*m)["space_amp"] = {Median(p.space_amp), "ratio"};
    // The peak of one round depends on how flushes, compactions and reads
    // happened to overlap; the median round is the steadier figure.
    (*m)["peak_rss_mb"] = {Median(p.rss_growth_mb), "MiB"};
    PutQueryMetrics(p.q, m);
    r_->notes.push_back(ListNote("round RSS growth MiB:", p.rss_growth_mb));
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "ingest: %zu rounds of %zu series, %.0f series/s; reader "
                  "%.1f q/s target, %zu completed, %zu oracle-checked",
                  p.ingest_rate.size(), kIngestSeries, Median(p.ingest_rate),
                  kIngestReaderRate, p.q.done_s.size(),
                  p.checked);
    r_->notes.push_back(buf);
    r_->notes.push_back(TimingNote("InsertBatch", p.insert_ms));
    r_->notes.push_back(TimingNote("reader lateness", p.lag_ms));
    r_->notes.push_back(TimingNote("exact 10-NN (from due time)", p.q.exact_ms));
    r_->notes.push_back(
        TimingNote("approx 10-NN (from due time)", p.q.approx_ms));

    if (Recorder() == nullptr) return;
    PutRegistryLayerMetrics(p.reg, 0, r_);
    PutExecLayerMetrics(p.reg, r_);
    PutQueryLayerMetrics(p.q, r_);
    Reconcile(p.q, std::vector<const Value*>(data_ptrs_.begin(),
                                             data_ptrs_.begin() + 4096),
              ThreadPool::Shared()->parallelism(), r_);
  }

  void Round(Pooled* p) {
    SpanRecorder* rec = Recorder();
    const std::string dir = coconut::JoinPath(cfg_.work_dir, "store");
    (void)coconut::RemoveAll(dir);
    const double rss0 = StartRssWindow();
    std::unique_ptr<ShardedStore> store;
    ++r_->attempted;
    Status st = ShardedStore::Open(dir, MakeStoreOptions(), &store);
    if (!st.ok()) {
      r_->Fail("Open: " + st.ToString());
      return;
    }
    const unsigned reader_threads =
        std::max(1u, cfg_.nproc - SharedPoolThreads(cfg_.workload, cfg_.nproc));
    ThreadPool pool(reader_threads);
    QueryEngine engine(&pool);

    std::atomic<bool> writer_done{false};
    QueryPass& q = p->q;
    std::vector<Sample> samples;
    uint64_t reader_attempted = 0, reader_failed = 0;
    std::string reader_error;

    p->reg.before = RegistryNow();
    const IoSnapshot io0 = IoStats::Instance().Snapshot();
    const Clock::time_point start = Clock::now();
    const double offset_s = q.wall_s;  // earlier rounds' reader time

    // Open-loop reader: query i is due at start + i / rate; its latency is
    // measured from that due time, so writer stalls show as queueing. Slots
    // that fall before the first batch is visible are skipped.
    std::thread reader([&] {
      std::vector<SearchResult> results;
      std::vector<QueryTrace> traces;
      std::vector<Series> one(1, Series(kSeriesLength));
      for (uint64_t i = 0;; ++i) {
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(i / kIngestReaderRate));
        std::this_thread::sleep_until(due);
        if (writer_done.load()) break;
        const ShardedStore::Snapshot snap = store->GetSnapshot();
        const size_t visible = snap.num_entries();
        if (visible == 0) continue;
        p->lag_ms.push_back(SecondsSince(due) * 1e3);
        std::mt19937_64 rng(DeriveSeed(cfg_.seed, kNoiseStream, i));
        const size_t window = std::min(visible, kIngestRecentWindow);
        const size_t src = visible - 1 - rng() % window;
        std::normal_distribution<float> noise(0.0f, kIngestNoise);
        for (size_t j = 0; j < kSeriesLength; ++j) {
          one[0][j] = data_ptrs_[src][j] + noise(rng);
        }
        const bool exact = i % 2 == 0;  // 1:1, so both modes get samples
        const QuerySpec spec = MakeSpec(exact, kStoreK);
        const QueryCall call = TimedQuery(
            rec, exact,
            [&] {
              return engine.ExecuteBatch(*store, snap, one, spec, &results,
                                         &traces);
            },
            traces);
        ++reader_attempted;
        if (!call.status.ok()) {
          ++reader_failed;
          if (reader_error.empty()) reader_error = call.status.ToString();
          continue;
        }
        q.done_s.push_back(offset_s + SecondsSince(start));
        (exact ? q.exact_ms : q.approx_ms).push_back(SecondsSince(due) * 1e3);
        (exact ? q.exact : q.approx)
            .Add(traces[0], call.io, call.wall_ns, pool.parallelism(),
                 static_cast<double>(visible), LowerBoundedEntries(snap));
        if (i % kIngestCheckEvery == 0 ||
            i % kIngestCheckEvery == kIngestCheckEvery - 1) {
          samples.push_back(Sample{one[0], visible, exact, results[0]});
        }
      }
    });

    // Writer: back-to-back InsertBatch calls on the calling thread.
    for (const auto& batch : batches_) {
      ++r_->attempted;
      st = TimedInsert(store.get(), batch, rec, &p->insert_ms);
      if (!st.ok()) {
        r_->Fail("InsertBatch: " + st.ToString());
        break;
      }
    }
    const double ingest_s = SecondsSince(start);
    writer_done.store(true);
    reader.join();
    q.wall_s += ingest_s;
    p->reg.after = RegistryNow();
    const double raw_bytes = kIngestSeries * kSeriesBytes;
    p->ingest_rate.push_back(kIngestSeries / ingest_s);
    p->write_amp.push_back(
        (IoStats::Instance().Snapshot() - io0).bytes_written / raw_bytes);
    p->space_amp.push_back(DirBytes(dir) / raw_bytes);
    PutStoreShapeMetrics(*store, r_);
    r_->attempted += reader_attempted;
    for (uint64_t i = 0; i < reader_failed; ++i) {
      r_->Fail("ExecuteBatch: " + reader_error);
    }

    // The store's full index build: merge every shard's runs bottom-up.
    const Clock::time_point c0 = Clock::now();
    {
      ScopedSpan span(rec, "store.ShardedStore::CompactAll", NextRequestId());
      st = store->CompactAll();
    }
    p->compact_rate.push_back(kIngestSeries / SecondsSince(c0));
    ++r_->attempted;
    if (!st.ok()) r_->Fail("CompactAll: " + st.ToString());
    p->rss_growth_mb.push_back(PeakRssMb() - rss0);

    // Oracle check of the sampled queries over the prefix each one saw.
    std::vector<const Value*> sample_queries;
    std::vector<size_t> prefixes;
    for (const Sample& s : samples) {
      sample_queries.push_back(s.query.data());
      prefixes.push_back(s.visible);
    }
    const auto truth = OracleKnnBatch(data_ptrs_, prefixes, sample_queries,
                                      kStoreK, cfg_.nproc);
    for (size_t i = 0; i < samples.size(); ++i) {
      const Sample& s = samples[i];
      const std::string bad = CheckAnswer(s.result, truth[i], s.exact);
      if (!bad.empty()) r_->Mismatch(bad);
      if (!s.exact && truth[i].back() > 0 &&
          s.result.neighbors.size() == truth[i].size()) {
        q.approx_ratio.push_back(s.result.neighbors.back().distance /
                                 truth[i].back());
      }
    }
    p->checked += samples.size();
  }

  std::vector<std::vector<Series>> batches_;
  std::vector<const Value*> data_ptrs_;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"bulk_build", "store_query",
                                                  "ingest_query"};
  return kNames;
}

unsigned SharedPoolThreads(const std::string& workload, unsigned nproc) {
  // store_query fans each query out on its own engine pool instead.
  if (workload == "store_query") return 1;
  // ingest_query: half for the writer's staging and compactions, the rest
  // for the reader's engine pool.
  if (workload == "ingest_query") return std::max(1u, nproc / 2);
  return std::max(1u, nproc);
}

void RunWorkload(const RunConfig& config, RunResult* result) {
  std::unique_ptr<Workload> w;
  if (config.workload == "bulk_build") {
    w = std::make_unique<BulkBuild>(config, result);
  } else if (config.workload == "store_query") {
    w = std::make_unique<StoreQuery>(config, result);
  } else {
    w = std::make_unique<IngestQuery>(config, result);
  }
  w->Run();
}

}  // namespace perfbench
