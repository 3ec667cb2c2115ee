// Coconut-Trie (paper §4.2, Algorithm 2): a prefix-split iSAX-style trie
// bulk-loaded bottom-up from externally sorted invSAX keys.
//
// Because invSAX interleaves segment bits level by level, a common prefix of
// the z-order key corresponds exactly to an iSAX node identity (a per-segment
// symbol prefix, extended round-robin across segments). The construction
// therefore builds a path-compressed binary trie over the sorted keys with
// the classic stack/LCP bottom-up algorithm (insertBottomUp), then compacts
// it (CompactSubtree): any subtree whose total entry count fits in one leaf
// collapses into a single leaf.
//
// Leaves are written left-to-right as fixed-size pages, so the index is
// contiguous — the property Coconut-Trie adds over the state of the art.
// Prefix splitting still cannot balance occupancy, so many leaves stay
// sparse; the resulting space amplification is exactly what paper Fig 8c
// measures against the median-split Coconut-Tree.
//
// The materialized variant (Coconut-Trie-Full) sorts only the
// summarizations, then loads the raw series into the sorted leaves in a last
// pass — random I/O when the raw file exceeds the memory budget, which is
// why CTrieFull degrades with constrained memory in paper Fig 8a.
//
// Queries run on the SIMS core shared with Coconut-Tree (sims_common.h);
// the trie supplies only its descent (DescendToLeaf) and its page -> leaf
// map.
//
// On-disk format, version 2 (single file plus a `.sax` sidecar):
//   [superblock: 4096 bytes]
//   [leaf pages: num_pages x leaf_page_bytes]  <- leaves left to right; a
//                                                leaf spans >= 1 page
//   [node table: num_nodes x 32 bytes]         <- preorder, at
//                                                node_region_offset
//   [page CRC32C x num_pages][node-table CRC32C]  <- 4 bytes LE each, at
//                                                   integrity_offset
// Leaf entries use the tree's layout (tree_format.h). The superblock also
// carries sidecar_crc (CRC32C of the whole `.sax` file) and superblock_crc
// (CRC32C of the struct with that field zeroed, stamped last). Open verifies
// the superblock and the node table, every page read verifies its page CRC,
// and the sidecar is verified when it is first loaded — the same framing and
// code as the tree's v2 format. Version 1 files (no checksums) are rejected
// as Corruption; rebuild them.
#ifndef COCONUT_CORE_COCONUT_TRIE_H_
#define COCONUT_CORE_COCONUT_TRIE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/zkey.h"
#include "src/core/coconut_options.h"
#include "src/core/query_scratch.h"
#include "src/core/sims_common.h"
#include "src/io/file.h"
#include "src/series/dataset.h"
#include "src/series/series.h"

namespace coconut {

struct TrieBuildStats {
  double summarize_seconds = 0.0;
  double sort_seconds = 0.0;
  double build_seconds = 0.0;      // insertBottomUp + CompactSubtree
  double write_seconds = 0.0;      // leaf pages (+ materialization pass)
  size_t spilled_runs = 0;
  uint64_t num_entries = 0;

  double total_seconds() const {
    return summarize_seconds + sort_seconds + build_seconds + write_seconds;
  }
};

inline constexpr uint64_t kTrieMagic = 0x31454952544E4343ull;  // "CCNTRIE1"

struct TrieSuperblock {
  uint64_t magic = kTrieMagic;
  uint64_t version = 2;
  uint64_t materialized = 0;
  uint64_t series_length = 0;
  uint64_t segments = 0;
  uint64_t cardinality_bits = 0;
  uint64_t leaf_capacity = 0;
  uint64_t entry_bytes = 0;
  uint64_t leaf_page_bytes = 0;
  uint64_t num_entries = 0;
  uint64_t num_leaves = 0;
  uint64_t num_pages = 0;
  uint64_t num_nodes = 0;
  uint64_t node_region_offset = 0;
  /// File offset of the integrity section.
  uint64_t integrity_offset = 0;
  /// CRC32C of the entire .sax sidecar file.
  uint32_t sidecar_crc = 0;
  /// CRC32C of this struct with this field zeroed. Stamped last.
  uint32_t superblock_crc = 0;

  Status Check() const {
    if (magic != kTrieMagic) return Status::Corruption("bad trie magic");
    if (version != 2) return Status::Corruption("unsupported trie version");
    return Status::OK();
  }

  bool has_checksums() const { return version >= 2; }
};
static_assert(std::is_trivially_copyable_v<TrieSuperblock>);

class CoconutTrie {
 public:
  /// Builds the trie index over `raw_path` into `index_path` (plus a
  /// `<index_path>.sax` sidecar). Algorithm 2 of the paper.
  static Status Build(const std::string& raw_path,
                      const std::string& index_path,
                      const CoconutOptions& options,
                      TrieBuildStats* stats = nullptr);

  static Status Open(const std::string& index_path,
                     const std::string& raw_path,
                     std::unique_ptr<CoconutTrie>* out);

  /// Approximate k-NN search: descends to the most promising leaf and scans
  /// a window of `num_pages` contiguous leaf pages around it. A null
  /// `scratch` allocates one for this call.
  Status ApproxSearch(const Value* query, size_t num_pages,
                      SearchResult* result, size_t k = 1,
                      QueryScratch* scratch = nullptr) const;

  /// Exact k-NN search via the SIMS skip-sequential scan (paper §4.2 "we
  /// employee the SIMS algorithm" for exact search over the trie as well).
  Status ExactSearch(const Value* query, size_t approx_pages,
                     SearchResult* result, size_t k = 1,
                     QueryScratch* scratch = nullptr) const;

  // --- introspection ---
  uint64_t num_entries() const { return super_.num_entries; }
  uint64_t num_leaves() const { return super_.num_leaves; }
  uint64_t num_pages() const { return super_.num_pages; }
  /// Mean page occupancy relative to leaf_capacity (sparse for prefix
  /// splitting; paper reports ~10%).
  double AvgLeafFill() const;
  /// Longest root-to-leaf path (node count).
  uint64_t Height() const;
  Status IndexSizeBytes(uint64_t* bytes) const;
  const CoconutOptions& options() const { return options_; }

  /// In-memory trie node, exposed for structural tests.
  struct Node {
    uint32_t depth = 0;   // interleaved key bits fixed above this node
    bool is_leaf = false;
    // Leaf fields: range in the global sorted entry order plus first page.
    uint64_t entry_begin = 0;
    uint64_t entry_count = 0;
    uint64_t first_page = 0;
    // Internal fields: child node ids (left = next bit 0, right = 1).
    int64_t left = -1;
    int64_t right = -1;
  };
  const std::vector<Node>& nodes() const { return nodes_; }
  int64_t root() const { return root_; }

 private:
  CoconutTrie() = default;

  Status LoadNodes();
  /// Leaf node id whose key range covers `key` (pure descent).
  int64_t DescendToLeaf(const ZKey& key) const;
  /// Leaf owning global entry index `i` (binary search over entry_begin).
  size_t LeafIndexForEntry(uint64_t i) const;
  /// Live entries of page `page` of its leaf.
  size_t PageEntries(uint64_t page) const;
  /// Read-side view for the shared SIMS core.
  SimsIndex Sims() const;

  CoconutOptions options_;
  TrieSuperblock super_;
  std::string index_path_;
  std::string raw_path_;
  std::unique_ptr<RandomAccessFile> index_file_;
  std::unique_ptr<RawSeriesFile> raw_file_;
  SimsSidecar sidecar_;
  std::vector<uint32_t> page_crcs_;  // integrity section, loaded at Open

  std::vector<Node> nodes_;
  int64_t root_ = -1;
  // Leaves in left-to-right order; used to map entries/pages to leaves.
  std::vector<int64_t> leaf_order_;
  std::vector<uint64_t> page_owner_;  // page -> index into leaf_order_
};

}  // namespace coconut

#endif  // COCONUT_CORE_COCONUT_TRIE_H_
