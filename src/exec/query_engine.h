// QueryEngine: concurrent batch execution of approximate/exact k-NN queries
// over Coconut indexes.
//
// A batch is distributed over the shared ThreadPool; each worker carries a
// per-thread QueryScratch so the (const, thread-safe) read paths never
// contend on shared buffers.
// Forest batches take ONE snapshot up front, so every query in the batch
// observes the same point-in-time state while writers keep
// inserting/flushing/compacting underneath. Store batches do the same with
// one ShardedStore::Snapshot, and additionally fan each query out across
// the per-shard snapshots: the work grid is (query x shard) cells under
// ParallelFor, so even a single expensive query uses every core. Cells and
// merges are ShardedStore::SearchShard/MergeShardResults, so a store batch
// quarantines and degrades exactly like ShardedStore::ExactSearch.
//
// Batch visibility: a store snapshot is captured under the store's
// visibility lock and is stamped with the last committed cross-shard epoch
// (Snapshot::epoch), so a batch never observes half of a concurrent
// multi-shard InsertBatch — the read-skew window where some shards showed
// their slice of a batch and others did not is closed at the store layer
// (see src/store/README.md, "Cross-shard atomic commit").
//
// Results are positionally aligned with the input queries and identical to
// running the same queries serially (the engine only parallelizes across
// queries and shards; each individual per-shard query is the ordinary
// search algorithm).
#ifndef COCONUT_EXEC_QUERY_ENGINE_H_
#define COCONUT_EXEC_QUERY_ENGINE_H_

#include <cstddef>
#include <vector>

#include "src/common/context.h"
#include "src/common/status.h"
#include "src/core/coconut_forest.h"
#include "src/core/coconut_tree.h"
#include "src/core/coconut_trie.h"
#include "src/exec/admission_controller.h"
#include "src/exec/thread_pool.h"
#include "src/obs/query_trace.h"
#include "src/series/series.h"
#include "src/store/sharded_store.h"

namespace coconut {

/// What to run for every query in a batch.
struct QuerySpec {
  enum class Mode { kExact, kApprox };
  Mode mode = Mode::kExact;
  /// Neighbors to return per query.
  size_t k = 1;
  /// Leaf-window radius: the window for kApprox, and the seeding window
  /// for kExact over a tree or trie. Forest and store exact search ignore
  /// it: every run is seeded from its one target leaf.
  size_t approx_leaves = 1;
};

class QueryEngine {
 public:
  /// Uses the given pool (defaults to the process-wide shared pool). When
  /// `admission` is non-null every batch passes its gates first and may be
  /// shed with ResourceExhausted before any work is queued (see
  /// src/exec/admission_controller.h); null = no gating, no overhead.
  explicit QueryEngine(ThreadPool* pool = ThreadPool::Shared(),
                       AdmissionController* admission = nullptr)
      : pool_(pool), admission_(admission) {}

  /// Runs every query against `tree`; `results` is resized to match
  /// `queries` and results are positionally aligned. On error the first
  /// failing status is returned (remaining queries may or may not have run).
  ///
  /// Every overload records per-query latency and work counters into the
  /// process-wide MetricRegistry ("query.*"), and — when `traces` is
  /// non-null — additionally returns the per-query QueryTrace, positionally
  /// aligned with `queries`.
  ///
  /// `ctx` bounds the batch: its deadline/cancellation is polled at leaf-
  /// fetch granularity inside every search (default Background() = no
  /// deadline, one pointer compare per poll). On DeadlineExceeded/Aborted
  /// the first failing status is returned; `results` entries for queries
  /// that had not finished are unspecified (default-constructed or partial
  /// never dangling). `ctx` must outlive the call only — it is not retained.
  Status ExecuteBatch(const CoconutTree& tree,
                      const std::vector<Series>& queries,
                      const QuerySpec& spec,
                      std::vector<SearchResult>* results,
                      std::vector<QueryTrace>* traces = nullptr,
                      const Context& ctx = Context::Background()) const;

  /// Snapshot-isolated batch over a forest: takes one snapshot and runs
  /// every query against it, concurrently with any writers.
  Status ExecuteBatch(const CoconutForest& forest,
                      const std::vector<Series>& queries,
                      const QuerySpec& spec,
                      std::vector<SearchResult>* results,
                      std::vector<QueryTrace>* traces = nullptr,
                      const Context& ctx = Context::Background()) const;

  /// Same, against a caller-held snapshot (e.g. to run several batches
  /// against the exact same state).
  Status ExecuteBatch(const CoconutForest& forest,
                      const CoconutForest::Snapshot& snapshot,
                      const std::vector<Series>& queries,
                      const QuerySpec& spec,
                      std::vector<SearchResult>* results,
                      std::vector<QueryTrace>* traces = nullptr,
                      const Context& ctx = Context::Background()) const;

  /// Runs every query against a (const, thread-safe) trie.
  Status ExecuteBatch(const CoconutTrie& trie,
                      const std::vector<Series>& queries,
                      const QuerySpec& spec,
                      std::vector<SearchResult>* results,
                      std::vector<QueryTrace>* traces = nullptr,
                      const Context& ctx = Context::Background()) const;

  /// Store-wide snapshot-isolated batch: takes one ShardedStore::Snapshot
  /// and fans every query out across the per-shard snapshots (the work
  /// grid is query x shard), merging per-shard answers per query. A
  /// query's trace is the merge of its per-shard cell traces (its
  /// total_ns is summed work time, not wall time, since cells run
  /// concurrently).
  Status ExecuteBatch(const ShardedStore& store,
                      const std::vector<Series>& queries,
                      const QuerySpec& spec,
                      std::vector<SearchResult>* results,
                      std::vector<QueryTrace>* traces = nullptr,
                      const Context& ctx = Context::Background()) const;

  /// Same, against a caller-held store snapshot.
  Status ExecuteBatch(const ShardedStore& store,
                      const ShardedStore::Snapshot& snapshot,
                      const std::vector<Series>& queries,
                      const QuerySpec& spec,
                      std::vector<SearchResult>* results,
                      std::vector<QueryTrace>* traces = nullptr,
                      const Context& ctx = Context::Background()) const;

 private:
  /// The prologue every batch shares, then `body()`: passes the admission
  /// gates (no-op without a controller; the ticket holds the batch's
  /// budget until `body` returns), counts and times the batch
  /// ("query.batches", "query.batch_ns"), and sizes `results` (and
  /// `traces`, when non-null) to `queries`.
  template <typename Body>
  Status WithBatchPrologue(const std::vector<Series>& queries,
                           std::vector<SearchResult>* results,
                           std::vector<QueryTrace>* traces,
                           const Body& body) const;

  /// The body shared by the tree, trie and forest-snapshot batches: run
  /// `search(query, exact, result, scratch)` for every query on the pool.
  template <typename Search>
  Status RunSearchBatch(const std::vector<Series>& queries,
                        const QuerySpec& spec,
                        std::vector<SearchResult>* results,
                        std::vector<QueryTrace>* traces, const Context& ctx,
                        const Search& search) const;

  ThreadPool* pool_;
  AdmissionController* admission_;
};

}  // namespace coconut

#endif  // COCONUT_EXEC_QUERY_ENGINE_H_
