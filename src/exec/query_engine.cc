#include "src/exec/query_engine.h"

#include <algorithm>

#include "src/common/sync.h"
#include "src/common/timer.h"
#include "src/io/io_stats.h"
#include "src/io/retry.h"
#include "src/obs/metrics.h"
#include "src/obs/slow_query_log.h"
#include "src/obs/stage.h"

namespace coconut {

namespace {

/// Registry endpoints every batch records into; resolved once.
struct QueryMetrics {
  Histogram* exact_latency_ns;
  Histogram* approx_latency_ns;
  Histogram* exact_cpu_ns;
  Histogram* approx_cpu_ns;
  Histogram* batch_ns;
  Counter* queries;
  Counter* batches;
  Counter* leaves_visited;
  Counter* records_fetched;
  Counter* pruned_mindist;
  Counter* memtable_scanned;
  Counter* route_ns;
  Counter* approx_stage_ns;
  Counter* refine_ns;
  Counter* merge_ns;
};

QueryMetrics& Metrics() {
  static QueryMetrics m = []() {
    MetricRegistry& reg = MetricRegistry::Default();
    return QueryMetrics{
        reg.GetHistogram("query.exact.latency_ns"),
        reg.GetHistogram("query.approx.latency_ns"),
        reg.GetHistogram("query.exact.cpu_ns"),
        reg.GetHistogram("query.approx.cpu_ns"),
        reg.GetHistogram("query.batch_ns"),
        reg.GetCounter("query.count"),
        reg.GetCounter("query.batches"),
        reg.GetCounter("query.leaves_visited"),
        reg.GetCounter("query.records_fetched"),
        reg.GetCounter("query.pruned_mindist"),
        reg.GetCounter("query.memtable_scanned"),
        reg.GetCounter("query.stage.route_ns"),
        reg.GetCounter("query.stage.approx_ns"),
        reg.GetCounter("query.stage.refine_ns"),
        reg.GetCounter("query.stage.merge_ns"),
    };
  }();
  return m;
}

/// Flushes one finished query's trace into the registry: one histogram
/// record plus a handful of relaxed counter adds — the only shared-state
/// touch the whole query makes.
void FlushQueryTrace(const QueryTrace& t, bool exact) {
  QueryMetrics& m = Metrics();
  (exact ? m.exact_latency_ns : m.approx_latency_ns)->Record(t.total_ns);
  (exact ? m.exact_cpu_ns : m.approx_cpu_ns)->Record(t.cpu_ns);
  SlowQueryLog::Default().Record(t, exact);
  m.queries->Increment();
  m.leaves_visited->Add(t.leaves_visited);
  m.records_fetched->Add(t.records_fetched);
  m.pruned_mindist->Add(t.pruned_mindist);
  m.memtable_scanned->Add(t.memtable_scanned);
  m.route_ns->Add(t.route_ns);
  m.approx_stage_ns->Add(t.approx_ns);
  m.refine_ns->Add(t.refine_ns);
  m.merge_ns->Add(t.merge_ns);
}

/// Runs `one(i, scratch)` for every work index on the pool, collecting the
/// first failure. Chunks share a per-chunk scratch (of type `Scratch`); the
/// chunk size keeps a few chunks per thread for load balancing without
/// allocating scratch per query.
///
/// Each item executes under a fresh QueryTrace hung off the scratch; hot
/// loops bump the trace's plain fields and the finished trace is flushed to
/// the registry here, once per item (skipped when `flush_per_item` is
/// false — the store path aggregates its per-cell traces into per-query
/// traces first). When `item_traces` is non-null it must be pre-sized to
/// `num_items` and receives every item's trace.
template <typename Scratch, typename Fn>
Status RunBatch(ThreadPool* pool, size_t num_items, bool exact,
                bool flush_per_item, std::vector<QueryTrace>* item_traces,
                const Context& ctx, const Fn& one) {
  Status first_error = Status::OK();
  Mutex error_mu;
  // Hot-path form of the context: null when the batch carries no deadline
  // and no cancel token, so the per-leaf polls inside the searches stay a
  // single pointer compare.
  const Context* item_ctx =
      (ctx.has_deadline() || ctx.cancel_token() != nullptr) ? &ctx : nullptr;
  pool->ParallelFor(
      0, num_items, /*grain=*/0,
      [&](uint64_t lo, uint64_t hi) {
        // Attribute this chunk's file reads to the query component
        // ("io.query.*"). Per-thread: nested fan-out (SIMS lower bounds)
        // does no file I/O, so the coarse scope is accurate.
        IoComponentScope io_scope("query");
        // Ambient context for the I/O layer: retry backoff under this chunk
        // never sleeps past the batch deadline (src/io/retry.h).
        IoDeadlineScope io_deadline(item_ctx);
        Scratch scratch;
        scratch.context = item_ctx;
        for (uint64_t i = lo; i < hi; ++i) {
          // Give up before dispatching an item once the batch is dead; the
          // first DeadlineExceeded/Aborted is kept as the batch status.
          if (item_ctx != nullptr) {
            Status ctx_st = item_ctx->Check("query.item");
            if (!ctx_st.ok()) {
              MutexLock lock(&error_mu);
              if (first_error.ok()) first_error = ctx_st;
              return;
            }
          }
          QueryTrace trace;
          scratch.trace = &trace;
          // Both clocks start at this item's dispatch (not batch start):
          // wall for end-to-end latency, thread-CPU for oversubscription-
          // independent per-query cost (see QueryTrace::cpu_ns).
          ThreadCpuStopwatch cpu;
          Stage stage(exact ? "query.exact" : "query.approx", "query",
                      nullptr, &trace.total_ns);
          Status st = one(i, &scratch);
          stage.End();
          trace.cpu_ns = cpu.ElapsedNanos();
          scratch.trace = nullptr;
          if (!st.ok()) {
            MutexLock lock(&error_mu);
            if (first_error.ok()) first_error = st;
            return;
          }
          if (flush_per_item) FlushQueryTrace(trace, exact);
          if (item_traces != nullptr) (*item_traces)[i] = trace;
        }
      });
  return first_error;
}

/// Tree and trie share one search signature.
template <typename Index>
auto IndexSearch(const Index& index, const QuerySpec& spec) {
  return [&index, &spec](const Value* q, bool exact, SearchResult* r,
                         QueryScratch* scratch) {
    return exact ? index.ExactSearch(q, spec.approx_leaves, r, spec.k, scratch)
                 : index.ApproxSearch(q, spec.approx_leaves, r, spec.k,
                                      scratch);
  };
}

}  // namespace

template <typename Body>
Status QueryEngine::WithBatchPrologue(const std::vector<Series>& queries,
                                     std::vector<SearchResult>* results,
                                     std::vector<QueryTrace>* traces,
                                     const Body& body) const {
  AdmissionController::Ticket ticket;
  if (admission_ != nullptr) {
    size_t bytes = 0;
    for (const Series& q : queries) bytes += q.size() * sizeof(Value);
    COCONUT_RETURN_IF_ERROR(admission_->Admit(bytes, &ticket));
  }
  Metrics().batches->Increment();
  Stage batch(nullptr, nullptr, Metrics().batch_ns);
  results->assign(queries.size(), SearchResult{});
  if (traces != nullptr) traces->assign(queries.size(), QueryTrace{});
  return body();
}

template <typename Search>
Status QueryEngine::RunSearchBatch(const std::vector<Series>& queries,
                                   const QuerySpec& spec,
                                   std::vector<SearchResult>* results,
                                   std::vector<QueryTrace>* traces,
                                   const Context& ctx,
                                   const Search& search) const {
  const bool exact = spec.mode == QuerySpec::Mode::kExact;
  return WithBatchPrologue(queries, results, traces, [&]() {
    return RunBatch<QueryScratch>(
        pool_, queries.size(), exact, /*flush_per_item=*/true, traces, ctx,
        [&](uint64_t i, QueryScratch* scratch) {
          return search(queries[i].data(), exact, &(*results)[i], scratch);
        });
  });
}

Status QueryEngine::ExecuteBatch(const CoconutTree& tree,
                                 const std::vector<Series>& queries,
                                 const QuerySpec& spec,
                                 std::vector<SearchResult>* results,
                                 std::vector<QueryTrace>* traces,
                                 const Context& ctx) const {
  return RunSearchBatch(queries, spec, results, traces, ctx,
                        IndexSearch(tree, spec));
}

Status QueryEngine::ExecuteBatch(const CoconutTrie& trie,
                                 const std::vector<Series>& queries,
                                 const QuerySpec& spec,
                                 std::vector<SearchResult>* results,
                                 std::vector<QueryTrace>* traces,
                                 const Context& ctx) const {
  return RunSearchBatch(queries, spec, results, traces, ctx,
                        IndexSearch(trie, spec));
}

Status QueryEngine::ExecuteBatch(const CoconutForest& forest,
                                 const std::vector<Series>& queries,
                                 const QuerySpec& spec,
                                 std::vector<SearchResult>* results,
                                 std::vector<QueryTrace>* traces,
                                 const Context& ctx) const {
  return ExecuteBatch(forest, forest.GetSnapshot(), queries, spec, results,
                      traces, ctx);
}

Status QueryEngine::ExecuteBatch(const CoconutForest& forest,
                                 const CoconutForest::Snapshot& snapshot,
                                 const std::vector<Series>& queries,
                                 const QuerySpec& spec,
                                 std::vector<SearchResult>* results,
                                 std::vector<QueryTrace>* traces,
                                 const Context& ctx) const {
  return RunSearchBatch(
      queries, spec, results, traces, ctx,
      [&](const Value* q, bool exact, SearchResult* r, QueryScratch* scratch) {
        return exact ? forest.ExactSearch(snapshot, q, r, spec.k, scratch)
                     : forest.ApproxSearch(snapshot, q, spec.approx_leaves, r,
                                           spec.k, scratch);
      });
}

Status QueryEngine::ExecuteBatch(const ShardedStore& store,
                                 const std::vector<Series>& queries,
                                 const QuerySpec& spec,
                                 std::vector<SearchResult>* results,
                                 std::vector<QueryTrace>* traces,
                                 const Context& ctx) const {
  return ExecuteBatch(store, store.GetSnapshot(), queries, spec, results,
                      traces, ctx);
}

Status QueryEngine::ExecuteBatch(const ShardedStore& store,
                                 const ShardedStore::Snapshot& snapshot,
                                 const std::vector<Series>& queries,
                                 const QuerySpec& spec,
                                 std::vector<SearchResult>* results,
                                 std::vector<QueryTrace>* traces,
                                 const Context& ctx) const {
  return WithBatchPrologue(queries, results, traces, [&]() -> Status {
    const size_t num_shards = snapshot.shards.size();
    if (num_shards != store.num_shards()) {
      return Status::InvalidArgument("snapshot shard count mismatch");
    }
    if (queries.empty()) return Status::OK();
    if (snapshot.num_entries() == 0) return Status::NotFound("empty store");
    const bool exact = spec.mode == QuerySpec::Mode::kExact;

    // Cross-shard routing: the work grid is (query, shard) cells so a batch
    // saturates the pool even when it is smaller than the thread count;
    // each cell is the store's own per-shard step, as in a direct search.
    std::vector<SearchResult> cells(queries.size() * num_shards);
    std::vector<QueryTrace> cell_traces(cells.size());
    COCONUT_RETURN_IF_ERROR(RunBatch<QueryScratch>(
        pool_, cells.size(), exact, /*flush_per_item=*/false, &cell_traces,
        ctx, [&](uint64_t cell, QueryScratch* scratch) {
          const size_t qi = static_cast<size_t>(cell) / num_shards;
          return store.SearchShard(snapshot, cell % num_shards,
                                   queries[qi].data(), exact,
                                   spec.approx_leaves, spec.k, &cells[cell],
                                   scratch);
        }));
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      QueryTrace qtrace;
      for (size_t si = 0; si < num_shards; ++si) {
        qtrace.MergeFrom(cell_traces[qi * num_shards + si]);
      }
      ThreadCpuStopwatch merge_cpu;
      Stage merge("query.merge", "query", nullptr, &qtrace.merge_ns);
      ShardedStore::MergeShardResults(snapshot,
                                      {&cells[qi * num_shards], num_shards},
                                      spec.k, &(*results)[qi]);
      qtrace.total_ns += merge.End();
      qtrace.cpu_ns += merge_cpu.ElapsedNanos();
      FlushQueryTrace(qtrace, exact);
      if (traces != nullptr) (*traces)[qi] = qtrace;
    }
    return Status::OK();
  });
}

}  // namespace coconut
