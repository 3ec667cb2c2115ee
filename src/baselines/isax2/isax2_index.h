// iSAX 2.0 (Camerra et al., ICDM 2010) — the top-down insertion baseline the
// paper builds its analysis around (§2, §3.1, Figure 3).
//
// Every node is identified by one symbol prefix per segment. The root fans
// out on the first bit of every segment; an internal node splits one segment
// by one additional bit (the segment whose next unprefixed bit divides the
// resident series most evenly). Inserts are buffered in memory (the FBL);
// when the buffer budget is exhausted, all buffers are flushed: each touched
// leaf is re-read from disk, merged, and re-written — the O(N) random-I/O
// pattern the paper contrasts with bulk-loading. Leaf pages are allocated
// append-first-fit, so sibling leaves produced by splits are NOT contiguous.
//
// The index is also the substrate for ADS/ADS+/ADSFull (src/baselines/ads).
#ifndef COCONUT_BASELINES_ISAX2_ISAX2_INDEX_H_
#define COCONUT_BASELINES_ISAX2_ISAX2_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/core/coconut_options.h"
#include "src/io/file.h"
#include "src/series/dataset.h"
#include "src/series/series.h"

namespace coconut {

class KnnCollector;

struct Isax2Options {
  SummaryOptions summary;
  size_t leaf_capacity = 2000;
  /// Materialized leaves store the raw series inline.
  bool materialized = false;
  /// FBL buffer budget; exceeding it flushes every buffered leaf.
  size_t memory_budget_bytes = 256ull * 1024 * 1024;
  unsigned num_threads = 0;

  Status Validate() const {
    COCONUT_RETURN_IF_ERROR(summary.Validate());
    if (leaf_capacity == 0) {
      return Status::InvalidArgument("leaf_capacity must be > 0");
    }
    return Status::OK();
  }
};

class Isax2Index {
 public:
  /// Creates an empty index whose leaf pages live in `storage_path`;
  /// `raw_path` is the dataset file offsets refer to.
  static Status Create(const Isax2Options& options,
                       const std::string& storage_path,
                       const std::string& raw_path,
                       std::unique_ptr<Isax2Index>* out);

  /// Inserts one series (top-down). `offset` is its byte position in the
  /// raw file. The series payload is stored only when materialized.
  Status Insert(const Value* series, uint64_t offset);

  /// Inserts by precomputed SAX word (used by ADS, which indexes
  /// summarizations without touching the raw payload).
  Status InsertSummary(const uint8_t* sax, uint64_t offset,
                       const Value* series);

  /// Flushes all FBL buffers to disk (also invoked automatically when the
  /// memory budget is exceeded, and lazily before queries).
  Status FlushAll();

  /// Approximate k-NN search: descends to the most promising leaf and
  /// computes true distances over its entries.
  Status ApproxSearch(const Value* query, SearchResult* result, size_t k = 1);

  /// Exact k-NN search: best-first traversal ordered by per-node iSAX
  /// MINDIST lower bounds, seeded by the approximate answers.
  Status ExactSearch(const Value* query, SearchResult* result, size_t k = 1);

  /// Splits the leaf containing `sax` until every piece holds at most
  /// `target` entries (ADS+ on-access refinement). No-op on small leaves.
  Status RefineLeafFor(const uint8_t* sax, size_t target);

  /// Re-opens the raw dataset file after it has grown (update workloads
  /// append new series before inserting them).
  Status ReopenRaw();

  /// Converts a non-materialized index into a materialized one by fetching
  /// every entry's raw series and rewriting all leaves into
  /// `storage_path` (the ADSFull second pass). If the raw file fits in
  /// `memory_budget_bytes` it is cached; otherwise each series is fetched
  /// with a random read, the regime where ADSFull degrades (paper Fig 8a/8d).
  Status MaterializeInto(const std::string& storage_path);

  // --- introspection ---
  uint64_t num_entries() const { return num_entries_; }
  uint64_t num_leaves() const { return num_leaves_; }
  uint64_t num_pages() const { return next_page_; }
  double AvgLeafFill() const;
  /// Bytes of leaf storage allocated on disk.
  uint64_t StorageBytes() const;
  const Isax2Options& options() const { return options_; }

  /// Entry layout: [sax: segments bytes][offset: 8][series?: 4 * length].
  size_t entry_bytes() const { return entry_bytes_; }

 private:
  Isax2Index() = default;

  struct Node {
    // Identity: full-cardinality symbols with `bits[j]` significant prefix
    // bits per segment.
    std::vector<uint8_t> symbols;
    std::vector<uint8_t> bits;
    bool is_leaf = true;
    int split_segment = -1;
    int64_t children[2] = {-1, -1};
    // Leaf state: disk pages (in allocation order) + in-memory FBL buffer.
    std::vector<int64_t> pages;
    uint64_t disk_count = 0;
    std::vector<uint8_t> buffer;  // buffered entries, entry_bytes_ each
    uint64_t total_count = 0;
    bool unsplittable = false;  // identical summaries; grows overflow pages
  };

  Status DescendToLeaf(const uint8_t* sax, int64_t* leaf_id);
  /// Lookup-only variant: returns -1 when the query's root subtree does not
  /// exist (never creates nodes; used by query-side refinement).
  int64_t FindLeaf(const uint8_t* sax) const;
  Status AppendToLeaf(int64_t leaf_id, const uint8_t* entry);
  Status FlushLeaf(int64_t leaf_id);
  Status ReadLeafEntries(const Node& node, std::vector<uint8_t>* out);
  Status WriteLeafEntries(Node* node, const std::vector<uint8_t>& entries);
  Status SplitLeaf(int64_t leaf_id, std::vector<uint8_t> entries,
                   size_t target);
  /// Best balancing segment for the given entries; -1 when unsplittable.
  int ChooseSplitSegment(const Node& node,
                         const std::vector<uint8_t>& entries) const;
  int64_t AllocNode();
  Status LeafTrueDistances(const Node& node, const Value* query,
                           KnnCollector* knn, uint64_t* visited,
                           uint64_t* pages_read);

  Isax2Options options_;
  size_t entry_bytes_ = 0;
  std::string storage_path_;
  std::unique_ptr<WritableFile> storage_write_;
  std::unique_ptr<RandomAccessFile> storage_read_;
  std::unique_ptr<RawSeriesFile> raw_file_;
  std::vector<Node> nodes_;
  // Root children keyed by the first bit of every segment (<= 32 segments).
  std::unordered_map<uint32_t, int64_t> root_children_;
  int64_t next_page_ = 0;
  uint64_t num_entries_ = 0;
  uint64_t num_leaves_ = 0;
  size_t buffered_bytes_ = 0;
  std::vector<Value> fetch_buf_;
};

}  // namespace coconut

#endif  // COCONUT_BASELINES_ISAX2_ISAX2_INDEX_H_
