// Coconut-Tree (paper §4.3): a balanced B+-tree over sortable invSAX
// summarizations, bulk-loaded bottom-up from an externally sorted stream of
// (invSAX, position) pairs (Algorithm 3). The index is contiguous on disk,
// balanced, and densely packed (median/packed splits instead of prefix
// splits).
//
// Queries:
//  * ApproxSearch (Algorithm 4): descend to the leaf where the query's
//    invSAX key would reside and compute true distances over a window of
//    neighboring (contiguous) leaves.
//  * ExactSearch (Algorithm 5, "CoconutTreeSIMS"): seed a best-so-far with
//    the approximate answer, compute lower bounds over the in-memory
//    summarization array with parallel threads, then perform a
//    skip-sequential pass over the data fetching only unpruned series.
//
// Both queries accept k >= 1 and return the k nearest neighbors.
//
// Both run on the SIMS core shared with Coconut-Trie (sims_common.h); the
// tree supplies only its routing (LocateLeaf) and its leaf layout.
//
// Thread safety: the query paths (ApproxSearch/ExactSearch/ReadLeaf*) are
// const and safe to call concurrently from many threads — per-query scratch
// buffers replace shared mutable state, and the lazily-loaded SIMS arrays
// are guarded by a load-once latch (SimsSidecar). MergeBatch is a writer
// and must not run concurrently with queries on the same object
// (CoconutForest provides snapshot isolation on top for that).
//
// Updates: batches are ingested by sorting the new entries and
// merge-rebuilding the contiguous leaf run (sequential I/O), the bulk
// analogue the paper's Fig 10a exercises.
#ifndef COCONUT_CORE_COCONUT_TREE_H_
#define COCONUT_CORE_COCONUT_TREE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/zkey.h"
#include "src/core/coconut_options.h"
#include "src/core/query_scratch.h"
#include "src/core/sims_common.h"
#include "src/core/tree_format.h"
#include "src/io/file.h"
#include "src/series/dataset.h"
#include "src/series/series.h"
#include "src/sort/external_sort.h"

namespace coconut {

/// Construction statistics reported by the benchmark harnesses.
struct TreeBuildStats {
  double summarize_seconds = 0.0;  // raw scan + invSAX computation
  double sort_seconds = 0.0;       // external sort (incl. spills/merges)
  double load_seconds = 0.0;       // bottom-up bulk load
  size_t spilled_runs = 0;
  uint64_t num_entries = 0;

  double total_seconds() const {
    return summarize_seconds + sort_seconds + load_seconds;
  }
};

class CoconutTree {
 public:
  /// Builds an index over the raw dataset at `raw_path` into `index_path`
  /// (plus a `<index_path>.sax` sidecar holding the in-memory-scan summary
  /// array). Algorithm 3 of the paper.
  static Status Build(const std::string& raw_path,
                      const std::string& index_path,
                      const CoconutOptions& options,
                      TreeBuildStats* stats = nullptr);

  /// Opens an existing index. `raw_path` must be the dataset the index was
  /// built over (used by non-materialized lookups).
  static Status Open(const std::string& index_path,
                     const std::string& raw_path,
                     std::unique_ptr<CoconutTree>* out);

  /// Approximate k-NN search: visits a window of `num_leaves` contiguous
  /// leaf pages centered on the query's would-be position (paper's CTree(r)
  /// notation: CTree(1) visits one page, CTree(10) visits ten). A null
  /// `scratch` allocates one for this call.
  Status ApproxSearch(const Value* query, size_t num_leaves,
                      SearchResult* result, size_t k = 1,
                      QueryScratch* scratch = nullptr) const;

  /// Exact k-NN search via CoconutTreeSIMS. `approx_leaves` is the radius
  /// given to the seeding approximate search.
  Status ExactSearch(const Value* query, size_t approx_leaves,
                     SearchResult* result, size_t k = 1,
                     QueryScratch* scratch = nullptr) const;

  /// Bulk-ingests a batch: appends the series to the raw dataset file and
  /// merge-rebuilds the index sequentially. The in-memory state is
  /// refreshed. Not safe to run concurrently with queries on this object.
  Status MergeBatch(const std::vector<Series>& batch);

  // --- introspection (used by tests and the space-overhead benches) ---
  uint64_t num_entries() const { return super_.num_entries; }
  uint64_t num_leaves() const { return super_.num_leaves; }
  /// Tree height including the leaf level.
  uint64_t height() const { return super_.num_internal_levels + 1; }
  /// Mean leaf occupancy relative to leaf_capacity.
  double AvgLeafFill() const;
  /// Total index size on disk (index file + sidecar).
  Status IndexSizeBytes(uint64_t* bytes) const;
  const CoconutOptions& options() const { return options_; }
  const std::string& index_path() const { return index_path_; }

  /// Entries of one leaf, decoded (used by tests and the trie comparison).
  Status ReadLeafEntries(uint64_t leaf, std::vector<ZKey>* keys,
                         std::vector<uint64_t>* offsets) const;

  /// Raw bytes of one leaf page plus its live entry count (used by the
  /// sequential merge in MergeBatch).
  Status ReadLeafEntriesRaw(uint64_t leaf, std::vector<uint8_t>* page,
                            size_t* entry_count) const;

 private:
  friend class CoconutTreeBuilder;
  CoconutTree() = default;

  Status LoadInternalLevels();
  /// Walks the in-memory internal levels; returns the leaf index whose key
  /// range covers `key`.
  uint64_t LocateLeaf(const ZKey& key) const;
  /// Live entries of leaf `leaf` (the last leaf may be short).
  size_t LeafEntries(uint64_t leaf) const;
  /// Read-side view for the shared SIMS core.
  SimsIndex Sims() const;

  CoconutOptions options_;
  TreeSuperblock super_;
  std::string index_path_;
  std::string raw_path_;
  std::unique_ptr<RandomAccessFile> index_file_;
  std::unique_ptr<RawSeriesFile> raw_file_;
  SimsSidecar sidecar_;

  struct InternalLevel {
    // Concatenated (first_key, child) entries of all pages of the level;
    // pages need not be distinguished once in memory.
    std::vector<ZKey> keys;
    std::vector<uint64_t> children;
  };
  // levels_[0] is the level directly above the leaves; back() is the root.
  std::vector<InternalLevel> levels_;

  // v2 integrity section, loaded at Open: expected CRC32C of each on-disk
  // leaf page (verified by every page read) and of the internal region
  // (verified while loading it). Empty/zero for v1 files.
  std::vector<uint32_t> leaf_crcs_;
  uint32_t internal_crc_ = 0;
};

/// Shared bulk-loading machinery, reused by Build, MergeBatch, and the
/// ablation benches. Consumes a sorted stream of encoded leaf entries.
class CoconutTreeBuilder {
 public:
  /// Writes a complete index file (+ .sax sidecar) from `stream`, whose
  /// records are leaf entries (tree_format.h layout) sorted by key.
  static Status BulkLoad(SortedRecordStream* stream,
                         const CoconutOptions& options,
                         const std::string& index_path);

  /// Scans the dataset, computes invSAX keys (in parallel on the shared
  /// pool unless options.num_threads == 1), external-sorts the entries, and
  /// bulk-loads. `stats` (optional) receives phase timings.
  static Status BuildFromDataset(const std::string& raw_path,
                                 const std::string& index_path,
                                 const CoconutOptions& options,
                                 TreeBuildStats* stats);
};

}  // namespace coconut

#endif  // COCONUT_CORE_COCONUT_TREE_H_
