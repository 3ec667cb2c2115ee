// ShardedStore: a key-space partitioned forest of forests.
//
// Coconut's bottom-up design makes summarizations sortable, which is what
// lets the LSM-style CoconutForest be *range-partitioned* by invSAX key:
// the store splits the 256-bit z-order key space into N contiguous ranges
// and backs each range with its own CoconutForest in its own directory
// (which may live on its own device). A crash-safe text manifest
// (src/store/manifest.h) pins the shard count and boundaries so a store
// reopened after a restart routes keys identically.
//
// Writes route by invSAX key to the owning shard; batch inserts are split
// per shard and the sub-batches staged concurrently on the shared
// ThreadPool (the calling thread works one sub-batch itself, so a saturated
// pool degrades to serial execution, never deadlock). Each shard compacts
// independently — CompactAll runs the per-shard compactions concurrently,
// and within one shard the runs-merge is itself chunked over the pool
// (CoconutForest::MergeRunsParallel) — the two levels of parallel
// compaction.
//
// Cross-shard batches are ATOMIC and crash-consistent (the group-commit
// epoch protocol, see src/store/README.md and journal.h): a multi-shard
// InsertBatch is stamped with a store-wide epoch, journaled before any
// shard is touched, staged durably per shard, journal-committed, and only
// then published — all shards' slices become visible in one step, so a
// concurrent snapshot never sees half a batch, and a crash at any point
// reopens to exactly the prefix of fully-committed epochs (torn shard
// tails are truncated on recovery). Single-shard batches skip the journal
// entirely: one raw-file append is already atomic on recovery.
//
// Queries take a store snapshot (one CoconutForest::Snapshot per shard) and
// fan out across shards; per-shard k-NN answers merge through KnnCollector.
// Shards partition the data, so the merged per-shard exact top-k is the
// global top-k — the same argument that makes the forest's per-run merge
// exact. A QueryEngine batch takes ONE store snapshot up front, so snapshot
// isolation holds across the whole store: every query in the batch sees the
// same point-in-time state on every shard, and only fully-committed
// cross-shard epochs.
//
// Offsets: each shard has its own raw dataset file, so a neighbor's
// raw-file offset is only meaningful within its shard. Store-level results
// carry an *encoded* offset with the shard id in the high bits
// (EncodeOffset/DecodeOffset); a single-shard store encodes to the plain
// local offset, bit-for-bit compatible with an unsharded forest.
#ifndef COCONUT_STORE_SHARDED_STORE_H_
#define COCONUT_STORE_SHARDED_STORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/context.h"
#include "src/common/status.h"
#include "src/common/sync.h"
#include "src/common/zkey.h"
#include "src/core/coconut_forest.h"
#include "src/exec/thread_pool.h"
#include "src/series/series.h"
#include "src/store/journal.h"
#include "src/store/manifest.h"

namespace coconut {

// Fault injection: the cross-shard commit protocol exposes one failpoint
// site per kill point, in protocol order (src/common/failpoint.h; arm with
// Failpoints::Default().Arm*/ArmCallback or COCONUT_FAILPOINTS):
//
//   store.commit.after_begin            begin record durable, no shard
//                                       touched yet
//   store.commit.shard_stage            about to stage one shard's
//                                       sub-batch (arg = shard id); failing
//                                       here leaves OTHER shards' slices on
//                                       disk — torn-batch recovery rolls
//                                       them back
//   store.commit.before_journal_commit  every shard durable, commit record
//                                       not yet written
//   store.commit.after_journal_commit   commit record durable, nothing
//                                       published; the batch must SURVIVE
//                                       reopen
//
// A failure at any site fails the batch and poisons the store until it is
// reopened, exactly as a real I/O error at that point would.

struct StoreOptions {
  /// Per-shard forest configuration (memtable size, run threshold, tree).
  ForestOptions forest;
  /// Shards to create for a NEW store. Reopening an existing store always
  /// uses the shard count and boundaries pinned in its manifest.
  size_t num_shards = 4;

  /// Size-triggered journal checkpointing: after a cross-shard commit, if
  /// the JOURNAL has grown past this many bytes the store re-commits the
  /// manifest (which durably records the committed-epoch floor) and resets
  /// the journal, bounding both its size and the next open's replay.
  /// 0 disables the trigger (Flush/CompactAll still checkpoint).
  uint64_t journal_checkpoint_bytes = 4u << 20;

  Status Validate() const {
    COCONUT_RETURN_IF_ERROR(forest.Validate());
    if (num_shards == 0 || num_shards > kMaxShards) {
      return Status::InvalidArgument("num_shards must be in [1, 4096]");
    }
    return Status::OK();
  }

  static constexpr size_t kMaxShards = 4096;
};

class ShardedStore {
 public:
  /// Bits of an encoded offset reserved for the local raw-file offset; the
  /// shard id lives in the bits above (48 bits ≈ 256 TiB per shard file).
  static constexpr unsigned kShardOffsetBits = 48;

  /// A point-in-time view of the whole store: one forest snapshot per
  /// shard, indexed by shard id. Cheap to copy; queries against it never
  /// block, and are never affected by, concurrent writers. Captured under
  /// the store's visibility lock, so it exposes whole cross-shard epochs
  /// only — never half a batch.
  struct Snapshot {
    std::vector<CoconutForest::Snapshot> shards;
    /// Last cross-shard epoch committed (and published) at capture time.
    uint64_t epoch = 0;
    /// True when at least one shard was quarantined at capture time: the
    /// snapshot covers only the healthy shards (quarantined entries appear
    /// empty) and results computed from it carry the same flag.
    bool degraded = false;

    uint64_t num_entries() const {
      uint64_t total = 0;
      for (const auto& s : shards) total += s.num_entries();
      return total;
    }
  };

  /// Opens (creating if needed) the store rooted at `dir`. A new store is
  /// partitioned into options.num_shards even key ranges and its manifest
  /// committed before any data is written; an existing store is reopened
  /// from its manifest (each shard forest recovers its runs from the
  /// shard's raw dataset file).
  ///
  /// Degraded reopen: a shard whose raw file fails its checksum scan is
  /// first salvaged (truncated back to the longest checksum-valid prefix,
  /// CoconutForest::SalvageRaw) and retried; if it still cannot open, the
  /// shard is QUARANTINED instead of failing the whole open: reads continue
  /// over the healthy shards with results flagged `degraded`, and writes
  /// are refused until the operator repairs and reopens. Store-level
  /// corruption (manifest, journal interior) still fails the open — there
  /// is no healthy subset to serve.
  static Status Open(const std::string& dir, const StoreOptions& options,
                     std::unique_ptr<ShardedStore>* out);

  /// Routes one series to its owning shard. Store-level writers are
  /// serialized by the commit lock.
  Status Insert(const Series& series);

  /// Splits the batch by invSAX key and stages the per-shard sub-batches
  /// concurrently on the shared pool. A batch touching a single shard
  /// (always true for 1-shard stores) takes the journal-free fast path; a
  /// multi-shard batch commits atomically under the epoch protocol. OK
  /// means the whole batch is committed and published (deferred
  /// compaction hiccups never fail a committed batch — they resurface
  /// from the next Flush/CompactAll); on a torn commit the returned
  /// Status names every failed shard and the store refuses further writes
  /// until reopened (recovery rolls the torn epoch back).
  ///
  /// `ctx` bounds the batch (default: no deadline). The deadline is polled
  /// at the commit protocol's stage boundaries; where the abort lands
  /// decides the cleanup (see docs/ROBUSTNESS.md): before the epoch's
  /// begin record is journaled the batch returns DeadlineExceeded with no
  /// side effects; between begin and the journal commit record the abort
  /// rides the torn-epoch machinery (store poisons, reopen rolls the epoch
  /// back — nothing is ever published); after the commit record the epoch
  /// is durable, so publication proceeds and the batch reports OK.
  Status InsertBatch(const std::vector<Series>& batch,
                     const Context& ctx = Context::Background());

  /// Flushes every shard's memtable (concurrently) and re-commits the
  /// manifest with fresh advisory entry counts. `ctx` is polled per shard:
  /// a deadline abort between shards leaves some memtables flushed and
  /// others not (safe — flushes are independently crash-consistent) and
  /// skips the manifest re-commit.
  Status Flush(const Context& ctx = Context::Background());

  /// Compacts every shard to a single run. Shards compact concurrently and
  /// each shard's runs-merge is itself parallel — see CoconutForest. `ctx`
  /// is polled per shard, like Flush.
  Status CompactAll(const Context& ctx = Context::Background());

  /// Captures a store-wide snapshot (one per-shard snapshot each).
  Snapshot GetSnapshot() const;

  /// Exact k nearest neighbors across every shard. Neighbor offsets are
  /// encoded with EncodeOffset.
  Status ExactSearch(const Value* query, SearchResult* result,
                     size_t k = 1) const;
  Status ExactSearch(const Snapshot& snapshot, const Value* query,
                     SearchResult* result, size_t k = 1,
                     QueryScratch* scratch = nullptr) const;

  /// Approximate search: best k candidates across every shard's memtable
  /// and target leaf windows.
  Status ApproxSearch(const Value* query, size_t num_leaves,
                      SearchResult* result, size_t k = 1) const;
  Status ApproxSearch(const Snapshot& snapshot, const Value* query,
                      size_t num_leaves, SearchResult* result, size_t k = 1,
                      QueryScratch* scratch = nullptr) const;

  /// Searches shard `i` of `snapshot` (a snapshot of this store) into
  /// `cell` (exact, or approximate over `num_leaves` leaves): the step of
  /// every store fan-out, including QueryEngine's query x shard cells. A quarantined shard, or one whose
  /// search fails with Corruption (which quarantines it), leaves `cell`
  /// empty and `degraded` and returns OK; other failures name the shard.
  Status SearchShard(const Snapshot& snapshot, size_t i, const Value* query,
                     bool exact, size_t num_leaves, size_t k,
                     SearchResult* cell, QueryScratch* scratch) const;

  /// Merges one query's per-shard cells (indexed by shard id), retagging
  /// offsets with the shard id; `degraded` if the snapshot or a cell is.
  static void MergeShardResults(const Snapshot& snapshot,
                                std::span<const SearchResult> cells, size_t k,
                                SearchResult* out);

  static uint64_t EncodeOffset(size_t shard, uint64_t local_offset) {
    return (static_cast<uint64_t>(shard) << kShardOffsetBits) | local_offset;
  }
  static void DecodeOffset(uint64_t encoded, size_t* shard,
                           uint64_t* local_offset) {
    *shard = static_cast<size_t>(encoded >> kShardOffsetBits);
    *local_offset = encoded & ((uint64_t{1} << kShardOffsetBits) - 1);
  }

  /// Shard id owning `key` (binary search over the manifest boundaries).
  size_t ShardForKey(const ZKey& key) const;
  /// Shard id owning `series` (summarize, then route).
  size_t ShardForSeries(const Series& series) const;

  /// Write-path health: OK while the store accepts writes, or the poison
  /// status after a torn cross-shard commit / the quarantine status while
  /// shards are quarantined (every write is refused until the store is
  /// reopened). The admin server's /healthz maps a non-OK result to HTTP
  /// 503 — except quarantine, which it reports as 200 "degraded" via
  /// QuarantinedShards (reads still work).
  Status WriteHealth() const;

  /// Number of quarantined shards; when non-zero and `detail` is non-null,
  /// fills it with a human-readable summary (shard ids and causes).
  size_t QuarantinedShards(std::string* detail = nullptr) const;

  size_t num_shards() const { return shards_.size(); }
  /// Total entries across shards (direct per-shard sums under the
  /// visibility lock — no store snapshot is materialized).
  uint64_t num_entries() const;
  /// Last cross-shard epoch committed and published.
  uint64_t committed_epoch() const {
    return committed_epoch_.load(std::memory_order_acquire);
  }
  /// The shard's raw dataset file (local offsets point into this).
  const std::string& shard_raw_path(size_t i) const { return raw_paths_[i]; }
  const StoreManifest& manifest() const { return manifest_; }

 private:
  ShardedStore() = default;

  /// ExactSearch/ApproxSearch: SearchShard over every shard, then merge.
  Status Search(const Snapshot& snapshot, const Value* query, bool exact,
                size_t num_leaves, size_t k, SearchResult* result,
                QueryScratch* scratch) const;
  /// Runs `fn(shard)` for every shard concurrently on the pool (the caller
  /// executes one shard itself) and returns the first failure.
  Status ForEachShardParallel(
      const std::function<Status(size_t)>& fn) const;
  /// Re-commits the manifest with current advisory entry counts and the
  /// last committed epoch, then checkpoints (resets) the journal — its
  /// records are all obsolete once the manifest holds the epoch floor.
  /// The store must not be poisoned.
  Status CommitManifestLocked() REQUIRES(commit_mu_);
  /// Journal replay at Open: truncates torn shard tails (uncommitted
  /// epochs, torn single-series writes) and advances the epoch floor.
  static Status RecoverFromJournal(const std::string& dir,
                                   StoreManifest* manifest,
                                   uint64_t* next_epoch);
  /// The atomic multi-shard commit (epoch + journal + staged publication).
  Status CommitCrossShardLocked(std::vector<std::vector<Series>> buckets,
                                const Context& ctx) REQUIRES(commit_mu_);
  /// Marks shard `i` quarantined with `cause` (idempotent; const because
  /// the read path quarantines on checksum failure) and updates the
  /// store.shard.quarantined gauge.
  void QuarantineShard(size_t i, const Status& cause) const;
  bool IsQuarantined(size_t i) const EXCLUDES(quarantine_mu_) {
    MutexLock lock(&quarantine_mu_);
    return quarantined_[i];
  }
  /// Non-OK while any shard is quarantined (writes are refused: a write
  /// routed to a quarantined shard would silently drop, and rebalancing is
  /// an operator decision).
  Status QuarantineWriteCheck() const;
  /// Marks the store write-poisoned after a torn commit (writers are
  /// serialized, so only a commit_mu_ holder ever poisons). Returns `cause`
  /// for convenient chaining.
  Status Poison(const Status& cause) REQUIRES(commit_mu_);
  /// Current poison status under its own innermost lock, so health probes
  /// (and the write entry points' pre-checks) never wait behind an
  /// in-flight epoch commit holding commit_mu_.
  Status PoisonStatus() const EXCLUDES(poison_mu_) {
    MutexLock lock(&poison_mu_);
    return poison_;
  }

  StoreOptions options_;
  std::string dir_;
  StoreManifest manifest_;
  ThreadPool* pool_ = nullptr;
  std::vector<std::unique_ptr<CoconutForest>> shards_;
  std::vector<std::string> raw_paths_;
  std::unique_ptr<CommitJournal> journal_;

  // Store-level writers (Insert/InsertBatch/Flush/CompactAll) serialize on
  // commit_mu_: epochs are assigned, journaled, staged, and published in
  // order (the group-commit discipline — batching concurrent writers into
  // one epoch is the named follow-on). The manifest is also re-committed
  // under this lock.
  mutable Mutex commit_mu_;
  // Next epoch to assign; always above every epoch ever journaled, even
  // across reopens.
  uint64_t next_epoch_ GUARDED_BY(commit_mu_) = 1;
  // Set after a torn cross-shard commit: every later write returns this
  // status until the store is reopened (recovery rolls the epoch back).
  // Guarded by its own innermost mutex (ordering: commit_mu_ before
  // poison_mu_) so WriteHealth stays responsive while a long epoch commit
  // holds commit_mu_ — a health probe must report, not hang.
  mutable Mutex poison_mu_;
  Status poison_ GUARDED_BY(poison_mu_);
  // Degraded-mode state: per-shard quarantine flags plus their causes.
  // Innermost like poison_mu_ (never held across I/O or other locks);
  // quarantined_count_ mirrors the flag count so snapshot capture and the
  // search hot path can check for degradation without the mutex.
  mutable Mutex quarantine_mu_;
  mutable std::vector<bool> quarantined_ GUARDED_BY(quarantine_mu_);
  mutable std::vector<std::string> quarantine_causes_
      GUARDED_BY(quarantine_mu_);
  mutable std::atomic<size_t> quarantined_count_{0};
  // Last epoch committed AND published (atomic so snapshots can stamp
  // themselves without taking commit_mu_).
  std::atomic<uint64_t> committed_epoch_{0};
  // Publication/visibility lock: multi-shard publications hold it
  // exclusively (short, no I/O), snapshots and counts hold it shared — a
  // snapshot can never observe half an epoch.
  mutable SharedMutex visibility_mu_;
};

}  // namespace coconut

#endif  // COCONUT_STORE_SHARDED_STORE_H_
