// Options shared by the Coconut indexes (Tree and Trie variants).
#ifndef COCONUT_CORE_COCONUT_OPTIONS_H_
#define COCONUT_CORE_COCONUT_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/common/status.h"
#include "src/summary/options.h"

namespace coconut {

/// Resolves a `num_threads` option: 0 = hardware concurrency.
inline unsigned EffectiveThreads(unsigned num_threads) {
  if (num_threads > 0) return num_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 4;
}

struct CoconutOptions {
  SummaryOptions summary;

  /// Maximum data series records per leaf node. The paper's evaluation uses
  /// 2000 records for every index.
  size_t leaf_capacity = 2000;

  /// Bulk-load fill factor in (0, 1]: fraction of leaf_capacity that
  /// bulk-loading actually packs into each leaf (paper §4.3: "a fill-factor
  /// that can be controlled by the user"). 1.0 = fully packed.
  double fill_factor = 1.0;

  /// Materialized indexes store the raw series inside the leaves
  /// (Coconut-Tree-Full / Coconut-Trie-Full); non-materialized ones store
  /// (invSAX, file position) pairs only.
  bool materialized = false;

  /// Memory budget for index construction (external sort buffers, raw-data
  /// caching). This emulates the paper's varying-RAM experiments.
  size_t memory_budget_bytes = 256ull * 1024 * 1024;

  /// Scratch directory for sort runs; empty = alongside the index file.
  std::string tmp_dir;

  /// Worker threads for the parallel lower-bound scan in SIMS (paper
  /// Algorithm 5 line 10). 0 = hardware concurrency.
  unsigned num_threads = 0;

  unsigned EffectiveThreads() const {
    return coconut::EffectiveThreads(num_threads);
  }

  size_t EntriesPerLeaf() const {
    const double epl = static_cast<double>(leaf_capacity) * fill_factor;
    return epl < 1.0 ? 1 : static_cast<size_t>(epl);
  }

  Status Validate() const {
    COCONUT_RETURN_IF_ERROR(summary.Validate());
    if (leaf_capacity == 0) {
      return Status::InvalidArgument("leaf_capacity must be > 0");
    }
    if (fill_factor <= 0.0 || fill_factor > 1.0) {
      return Status::InvalidArgument("fill_factor must be in (0, 1]");
    }
    if (memory_budget_bytes < 1024 * 1024) {
      return Status::InvalidArgument("memory budget must be at least 1 MiB");
    }
    return Status::OK();
  }
};

/// One answer of a k-NN search.
struct Neighbor {
  /// Byte offset of the series in the raw dataset file.
  uint64_t offset = 0;
  /// Euclidean distance from the query.
  double distance = 0.0;
};

/// Result of an approximate or exact nearest-neighbor search. Searches take
/// a `k` parameter (default 1); `neighbors` holds up to k answers in
/// ascending distance order, and the legacy top-1 fields always mirror
/// `neighbors.front()`.
struct SearchResult {
  /// Byte offset of the nearest answer in the raw dataset file.
  uint64_t offset = 0;
  /// Euclidean distance from the query to the nearest answer.
  double distance = 0.0;
  /// Number of raw series whose true distance was computed.
  uint64_t visited_records = 0;
  /// Number of leaf pages fetched from the index.
  uint64_t leaves_read = 0;
  /// k nearest answers, ascending by distance (size <= requested k).
  std::vector<Neighbor> neighbors;
  /// True when the answer was computed over a partial view — some shard of
  /// a sharded store was quarantined after a checksum failure and skipped.
  /// The neighbors are exact over the healthy shards, but a better answer
  /// may exist in the quarantined data.
  bool degraded = false;
};

}  // namespace coconut

#endif  // COCONUT_CORE_COCONUT_OPTIONS_H_
