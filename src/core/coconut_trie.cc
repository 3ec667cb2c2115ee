// Coconut-Trie construction (Algorithm 2: external sort -> insertBottomUp ->
// CompactSubtree -> contiguous leaf pages) and queries.
#include "src/core/coconut_trie.h"

#include <algorithm>
#include <cstring>

#include "src/common/crc32c.h"
#include "src/common/env.h"
#include "src/common/timer.h"
#include "src/core/tree_format.h"
#include "src/io/buffered_io.h"
#include "src/sort/external_sort.h"
#include "src/summary/invsax.h"
#include "src/summary/paa.h"
#include "src/summary/sax.h"

namespace coconut {

namespace {

constexpr size_t kNodeRecordBytes = 32;

const SimsSites kTrieSites = {"trie.route",       "trie.approx",
                              "trie.refine",      "trie.approx.page",
                              "trie.approx.fetch", "trie.exact.page",
                              "trie.exact.fetch"};
constexpr size_t kSortedEntryBytes = ZKey::kBytes + 8;  // (key, offset)

struct BuildNode {
  uint32_t depth = 0;
  bool is_leaf = false;
  uint64_t entry_begin = 0;
  uint64_t entry_count = 0;  // subtree count once aggregated
  int64_t left = -1;
  int64_t right = -1;
};

/// Distinct invSAX key and its run of entries in the sorted order.
struct KeyGroup {
  ZKey key;
  uint64_t entry_begin;
  uint64_t count;
};

/// insertBottomUp (paper Algorithm 2): builds a path-compressed binary trie
/// over the sorted distinct keys with the classic stack/LCP construction:
/// consecutive keys are joined at a split node whose depth is their longest
/// common prefix — exactly the star-masking of least significant interleaved
/// bits the paper describes (Example 4.1). Returns the root id.
int64_t InsertBottomUp(const std::vector<KeyGroup>& groups, size_t key_bits,
                       std::vector<BuildNode>* arena) {
  std::vector<int64_t> stack;
  ZKey prev_key;
  for (size_t g = 0; g < groups.size(); ++g) {
    const int64_t leaf = static_cast<int64_t>(arena->size());
    BuildNode ln;
    ln.depth = static_cast<uint32_t>(key_bits);
    ln.is_leaf = true;
    ln.entry_begin = groups[g].entry_begin;
    ln.entry_count = groups[g].count;
    arena->push_back(ln);
    if (stack.empty()) {
      stack.push_back(leaf);
      prev_key = groups[g].key;
      continue;
    }
    const size_t lcp = ZKey::CommonPrefixBits(prev_key, groups[g].key);
    // Pop the rightmost-path nodes deeper than the common prefix; the last
    // popped subtree becomes the left child of the new split node. With a
    // binary alphabet and sorted input, no existing node can sit exactly at
    // depth lcp, so a fresh internal node is always created.
    int64_t last = -1;
    while (!stack.empty() &&
           (*arena)[stack.back()].depth > static_cast<uint32_t>(lcp)) {
      last = stack.back();
      stack.pop_back();
    }
    BuildNode in;
    in.depth = static_cast<uint32_t>(lcp);
    in.left = last;
    in.right = leaf;
    const int64_t internal = static_cast<int64_t>(arena->size());
    arena->push_back(in);
    if (!stack.empty()) {
      (*arena)[stack.back()].right = internal;
    }
    stack.push_back(internal);
    stack.push_back(leaf);
    prev_key = groups[g].key;
  }
  return stack.empty() ? -1 : stack.front();
}

/// Post-order aggregation of subtree entry counts and leftmost entry_begin.
void AggregateCounts(std::vector<BuildNode>* arena, int64_t root) {
  std::vector<std::pair<int64_t, bool>> stack = {{root, false}};
  while (!stack.empty()) {
    auto [id, expanded] = stack.back();
    stack.pop_back();
    BuildNode& n = (*arena)[id];
    if (n.is_leaf) continue;
    if (!expanded) {
      stack.push_back({id, true});
      stack.push_back({n.left, false});
      stack.push_back({n.right, false});
    } else {
      n.entry_count =
          (*arena)[n.left].entry_count + (*arena)[n.right].entry_count;
      n.entry_begin = (*arena)[n.left].entry_begin;
    }
  }
}

/// CompactSubtree (Algorithm 2 line 23): every maximal subtree whose total
/// entries fit in one leaf collapses into a single leaf (the fixed point of
/// the paper's iterative sibling merging). Emits the compacted trie in
/// preorder, assigning leaf pages left-to-right, and returns the new root
/// (always 0). Recursion depth is bounded by the key width (<= 256).
int64_t EmitCompacted(const std::vector<BuildNode>& arena, int64_t src,
                      size_t leaf_capacity, std::vector<CoconutTrie::Node>* out,
                      uint64_t* next_page) {
  const BuildNode& s = arena[src];
  const int64_t dst = static_cast<int64_t>(out->size());
  out->push_back({});
  CoconutTrie::Node node;
  node.depth = s.depth;
  if (s.is_leaf || s.entry_count <= leaf_capacity) {
    node.is_leaf = true;
    node.entry_begin = s.entry_begin;
    node.entry_count = s.entry_count;
    node.first_page = *next_page;
    *next_page += std::max<uint64_t>(
        1, (s.entry_count + leaf_capacity - 1) / leaf_capacity);
    (*out)[dst] = node;
    return dst;
  }
  node.is_leaf = false;
  (*out)[dst] = node;
  const int64_t l =
      EmitCompacted(arena, s.left, leaf_capacity, out, next_page);
  const int64_t r =
      EmitCompacted(arena, s.right, leaf_capacity, out, next_page);
  (*out)[dst].left = l;
  (*out)[dst].right = r;
  return dst;
}

void PackNode(const CoconutTrie::Node& n, uint8_t* out) {
  std::memcpy(out, &n.depth, 4);
  const uint32_t flags = n.is_leaf ? 1u : 0u;
  std::memcpy(out + 4, &flags, 4);
  uint64_t a, b, c;
  if (n.is_leaf) {
    a = n.entry_begin;
    b = n.entry_count;
    c = n.first_page;
  } else {
    a = static_cast<uint64_t>(n.left);
    b = static_cast<uint64_t>(n.right);
    c = 0;
  }
  std::memcpy(out + 8, &a, 8);
  std::memcpy(out + 16, &b, 8);
  std::memcpy(out + 24, &c, 8);
}

CoconutTrie::Node UnpackNode(const uint8_t* in) {
  CoconutTrie::Node n;
  uint32_t flags;
  std::memcpy(&n.depth, in, 4);
  std::memcpy(&flags, in + 4, 4);
  n.is_leaf = (flags & 1u) != 0;
  uint64_t a, b, c;
  std::memcpy(&a, in + 8, 8);
  std::memcpy(&b, in + 16, 8);
  std::memcpy(&c, in + 24, 8);
  if (n.is_leaf) {
    n.entry_begin = a;
    n.entry_count = b;
    n.first_page = c;
  } else {
    n.left = static_cast<int64_t>(a);
    n.right = static_cast<int64_t>(b);
  }
  return n;
}

}  // namespace

Status CoconutTrie::Build(const std::string& raw_path,
                          const std::string& index_path,
                          const CoconutOptions& options,
                          TrieBuildStats* stats) {
  COCONUT_RETURN_IF_ERROR(options.Validate());
  TrieBuildStats local;
  TrieBuildStats* st_out = stats != nullptr ? stats : &local;

  std::string tmp_dir = options.tmp_dir;
  bool owns_tmp = false;
  if (tmp_dir.empty()) {
    COCONUT_RETURN_IF_ERROR(MakeTempDir("coconut-trie-", &tmp_dir));
    owns_tmp = true;
  }
  auto cleanup = [&](const Status& st) {
    if (owns_tmp) (void)RemoveAll(tmp_dir);
    return st;
  };

  // --- Phase 1: scan + summarize; the trie always sorts only the
  // (invSAX, position) pairs (Algorithm 2 line 8); materialization happens
  // in a final pass. ---
  Stopwatch watch;
  ExternalSortOptions sort_opts;
  sort_opts.record_bytes = kSortedEntryBytes;
  sort_opts.key_bytes = ZKey::kBytes;
  sort_opts.memory_budget_bytes = options.memory_budget_bytes;
  sort_opts.tmp_dir = tmp_dir;
  sort_opts.num_threads = options.num_threads;
  ExternalSorter sorter(sort_opts);
  {
    DatasetScanner scanner;
    Status st = scanner.Open(raw_path, options.summary.series_length);
    if (!st.ok()) return cleanup(st);
    std::vector<Value> series(options.summary.series_length);
    std::vector<double> paa(options.summary.segments);
    std::vector<uint8_t> sax(options.summary.segments);
    // Stage summarized records and hand them to the sorter in bulk; the
    // scan order is preserved, which the sorter's stability turns into a
    // deterministic sorted output.
    constexpr size_t kStageRecords = 1024;
    std::vector<uint8_t> staged(kStageRecords * kSortedEntryBytes);
    size_t staged_count = 0;
    uint64_t position = 0;
    const uint64_t series_bytes =
        options.summary.series_length * sizeof(Value);
    while (scanner.Next(series.data(), &st)) {
      PaaTransform(series.data(), options.summary.series_length,
                   options.summary.segments, paa.data());
      SaxFromPaa(paa.data(), options.summary, sax.data());
      uint8_t* record = staged.data() + staged_count * kSortedEntryBytes;
      InvSaxFromSax(sax.data(), options.summary).SerializeBE(record);
      std::memcpy(record + ZKey::kBytes, &position, 8);
      position += series_bytes;
      if (++staged_count == kStageRecords) {
        Status add = sorter.AddBatch(staged.data(), staged_count);
        if (!add.ok()) return cleanup(add);
        staged_count = 0;
      }
    }
    if (!st.ok()) return cleanup(st);
    if (staged_count > 0) {
      Status add = sorter.AddBatch(staged.data(), staged_count);
      if (!add.ok()) return cleanup(add);
    }
  }
  st_out->summarize_seconds = watch.ElapsedSeconds();

  // --- Phase 2: external sort. ---
  watch.Restart();
  std::unique_ptr<SortedRecordStream> sorted;
  {
    Status st = sorter.Finish(&sorted);
    if (!st.ok()) return cleanup(st);
  }
  st_out->sort_seconds = watch.ElapsedSeconds();
  st_out->spilled_runs = sorter.spilled_runs();
  st_out->num_entries = sorted->count();
  if (sorted->count() == 0) {
    return cleanup(Status::InvalidArgument("cannot build an empty trie"));
  }

  // --- Phase 3: spool the sorted entries and collect distinct-key groups,
  // then insertBottomUp + CompactSubtree. ---
  watch.Restart();
  const std::string entries_path = JoinPath(tmp_dir, "sorted-entries.bin");
  std::vector<KeyGroup> groups;
  {
    BufferedWriter spool;
    Status st = spool.Open(entries_path);
    if (!st.ok()) return cleanup(st);
    uint8_t record[kSortedEntryBytes];
    uint64_t idx = 0;
    while (sorted->Next(record, &st)) {
      const ZKey key = ZKey::DeserializeBE(record);
      if (groups.empty() || !(groups.back().key == key)) {
        groups.push_back(KeyGroup{key, idx, 0});
      }
      ++groups.back().count;
      Status ws = spool.Write(record, kSortedEntryBytes);
      if (!ws.ok()) return cleanup(ws);
      ++idx;
    }
    if (!st.ok()) return cleanup(st);
    st = spool.Finish();
    if (!st.ok()) return cleanup(st);
  }
  std::vector<BuildNode> arena;
  arena.reserve(groups.size() * 2);
  const int64_t raw_root =
      InsertBottomUp(groups, options.summary.key_bits(), &arena);
  AggregateCounts(&arena, raw_root);
  std::vector<Node> nodes;
  uint64_t total_pages = 0;
  EmitCompacted(arena, raw_root, options.leaf_capacity, &nodes, &total_pages);
  arena.clear();
  arena.shrink_to_fit();
  st_out->build_seconds = watch.ElapsedSeconds();

  // --- Phase 4: write the index file: leaf pages (optionally materialized),
  // node table, sidecar. ---
  watch.Restart();
  const size_t entry_bytes = LeafEntryBytes(options);
  const size_t leaf_page_bytes = options.leaf_capacity * entry_bytes;
  const size_t series_len = options.summary.series_length;

  TrieSuperblock super;
  super.materialized = options.materialized ? 1 : 0;
  super.series_length = series_len;
  super.segments = options.summary.segments;
  super.cardinality_bits = options.summary.cardinality_bits;
  super.leaf_capacity = options.leaf_capacity;
  super.entry_bytes = entry_bytes;
  super.leaf_page_bytes = leaf_page_bytes;
  super.num_entries = st_out->num_entries;
  super.num_pages = total_pages;
  super.num_nodes = nodes.size();

  // Raw-data source for materialization: cache the whole file if the memory
  // budget allows (ample-memory regime of Fig 8a); otherwise fetch each
  // series individually — random I/O, since leaf order != file order.
  std::unique_ptr<RawSeriesFile> raw;
  std::vector<Value> raw_cache;
  bool raw_cached = false;
  if (options.materialized) {
    Status st = RawSeriesFile::Open(raw_path, series_len, &raw);
    if (!st.ok()) return cleanup(st);
    if (raw->size_bytes() <= options.memory_budget_bytes) {
      st = raw->LoadAll(options.memory_budget_bytes, &raw_cache);
      if (!st.ok()) return cleanup(st);
      raw_cached = true;
    }
  }

  std::unique_ptr<WritableFile> file;
  {
    Status st = WritableFile::Create(index_path, &file);
    if (!st.ok()) return cleanup(st);
  }
  std::vector<uint8_t> zero(kSuperblockBytes, 0);
  {
    Status st = file->Append(zero.data(), zero.size());
    if (!st.ok()) return cleanup(st);
  }
  BufferedWriter sidecar;
  {
    Status st = sidecar.Open(index_path + ".sax");
    if (!st.ok()) return cleanup(st);
  }
  // Integrity section: one CRC per leaf page, then the node-table CRC.
  std::vector<uint8_t> page_crcs;

  {
    BufferedReader entries;
    Status st = entries.Open(entries_path);
    if (!st.ok()) return cleanup(st);
    std::vector<uint8_t> page(leaf_page_bytes);
    page_crcs.reserve((total_pages + 1) * 4);
    std::vector<uint8_t> sidecar_rec;
    std::vector<Value> series(series_len);
    uint8_t record[kSortedEntryBytes];
    uint64_t num_leaves = 0;
    // Leaves appear in `nodes` preorder in left-to-right key order, which is
    // also the order of the sorted entry spool.
    for (const Node& n : nodes) {
      if (!n.is_leaf) continue;
      ++num_leaves;
      uint64_t remaining = n.entry_count;
      while (remaining > 0) {
        const size_t in_page = static_cast<size_t>(
            std::min<uint64_t>(remaining, options.leaf_capacity));
        std::fill(page.begin(), page.end(), 0);
        for (size_t i = 0; i < in_page; ++i) {
          st = entries.Read(record, kSortedEntryBytes);
          if (!st.ok()) return cleanup(st);
          const ZKey key = ZKey::DeserializeBE(record);
          uint64_t offset;
          std::memcpy(&offset, record + ZKey::kBytes, 8);
          uint8_t* slot = page.data() + i * entry_bytes;
          const Value* src = nullptr;
          if (options.materialized && raw_cached) {
            src = raw_cache.data() + offset / sizeof(Value);
          } else if (options.materialized) {
            st = raw->ReadAt(offset, series.data());
            if (!st.ok()) return cleanup(st);
            src = series.data();
          }
          EncodeLeafEntry(key, offset, src, series_len, slot);
          st = AppendSidecarRecord(slot, options.summary, &sidecar_rec,
                                   &sidecar, &super.sidecar_crc);
          if (!st.ok()) return cleanup(st);
        }
        AppendCrcLE(crc32c::Value(page.data(), page.size()), &page_crcs);
        st = file->Append(page.data(), page.size());
        if (!st.ok()) return cleanup(st);
        remaining -= in_page;
      }
    }
    super.num_leaves = num_leaves;
    st = sidecar.Finish();
    if (!st.ok()) return cleanup(st);
  }

  // Node table, then the integrity section. Both are written before the
  // superblock is stamped, so a crash mid-build leaves a file whose
  // superblock (all zeroes) fails the magic check.
  super.node_region_offset = file->size();
  {
    std::vector<uint8_t> table(nodes.size() * kNodeRecordBytes);
    for (size_t i = 0; i < nodes.size(); ++i) {
      PackNode(nodes[i], table.data() + i * kNodeRecordBytes);
    }
    AppendCrcLE(crc32c::Value(table.data(), table.size()), &page_crcs);
    Status st = file->Append(table.data(), table.size());
    if (!st.ok()) return cleanup(st);
    super.integrity_offset = file->size();
    st = file->Append(page_crcs.data(), page_crcs.size());
    if (!st.ok()) return cleanup(st);
  }

  super.superblock_crc = SuperblockCrc(super);
  std::vector<uint8_t> sb(kSuperblockBytes, 0);
  std::memcpy(sb.data(), &super, sizeof(super));
  {
    Status st = file->WriteAt(0, sb.data(), sb.size());
    if (!st.ok()) return cleanup(st);
    st = file->Close();
    if (!st.ok()) return cleanup(st);
  }
  st_out->write_seconds = watch.ElapsedSeconds();
  return cleanup(Status::OK());
}

Status CoconutTrie::Open(const std::string& index_path,
                         const std::string& raw_path,
                         std::unique_ptr<CoconutTrie>* out) {
  std::unique_ptr<CoconutTrie> trie(new CoconutTrie());
  trie->index_path_ = index_path;
  trie->raw_path_ = raw_path;
  COCONUT_RETURN_IF_ERROR(
      RandomAccessFile::Open(index_path, &trie->index_file_));
  TrieSuperblock& super = trie->super_;
  COCONUT_RETURN_IF_ERROR(
      ReadSuperblock(trie->index_file_.get(), &super, &trie->options_));
  COCONUT_RETURN_IF_ERROR(RawSeriesFile::Open(
      raw_path, trie->options_.summary.series_length, &trie->raw_file_));
  trie->sidecar_.Open(index_path + ".sax", super.num_entries, super.segments,
                      &super.sidecar_crc);
  COCONUT_RETURN_IF_ERROR(trie->LoadNodes());
  *out = std::move(trie);
  return Status::OK();
}

Status CoconutTrie::LoadNodes() {
  uint32_t table_crc = 0;
  COCONUT_RETURN_IF_ERROR(ReadIntegritySection(index_file_.get(),
                                               super_.integrity_offset,
                                               super_.num_pages, &page_crcs_,
                                               &table_crc));
  const uint64_t table_bytes = super_.num_nodes * kNodeRecordBytes;
  if (super_.num_nodes == 0 ||
      super_.node_region_offset + table_bytes > super_.integrity_offset) {
    return Status::Corruption("trie node table out of range: " + index_path_);
  }
  std::vector<uint8_t> table(table_bytes);
  COCONUT_RETURN_IF_ERROR(index_file_->Read(super_.node_region_offset,
                                            table.size(), table.data()));
  COCONUT_RETURN_IF_ERROR(VerifyCrc(crc32c::Value(table.data(), table.size()),
                                    table_crc, "trie node table",
                                    index_path_));
  nodes_.clear();
  nodes_.reserve(super_.num_nodes);
  for (uint64_t i = 0; i < super_.num_nodes; ++i) {
    nodes_.push_back(UnpackNode(table.data() + i * kNodeRecordBytes));
  }
  root_ = 0;

  // Leaves in serialized (preorder) order are in left-to-right key order.
  leaf_order_.clear();
  page_owner_.assign(super_.num_pages, 0);
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (!n.is_leaf) continue;
    const uint64_t pages = std::max<uint64_t>(
        1, (n.entry_count + super_.leaf_capacity - 1) / super_.leaf_capacity);
    for (uint64_t p = 0; p < pages; ++p) {
      if (n.first_page + p >= super_.num_pages) {
        return Status::Corruption("leaf page range out of bounds");
      }
      page_owner_[n.first_page + p] = leaf_order_.size();
    }
    leaf_order_.push_back(static_cast<int64_t>(i));
  }
  if (leaf_order_.size() != super_.num_leaves) {
    return Status::Corruption("leaf count mismatch in node table");
  }
  return Status::OK();
}

int64_t CoconutTrie::DescendToLeaf(const ZKey& key) const {
  int64_t id = root_;
  while (id >= 0 && !nodes_[id].is_leaf) {
    const Node& n = nodes_[id];
    id = key.GetBit(n.depth) ? n.right : n.left;
  }
  return id;
}

size_t CoconutTrie::PageEntries(uint64_t page) const {
  const Node& leaf = nodes_[leaf_order_[page_owner_[page]]];
  const uint64_t before = (page - leaf.first_page) * super_.leaf_capacity;
  return static_cast<size_t>(std::min<uint64_t>(
      super_.leaf_capacity,
      leaf.entry_count > before ? leaf.entry_count - before : 0));
}

size_t CoconutTrie::LeafIndexForEntry(uint64_t i) const {
  // leaf_order_ is key-ordered, so entry_begin ascends along it; the first
  // leaf begins at entry 0.
  const auto it = std::upper_bound(
      leaf_order_.begin(), leaf_order_.end(), i,
      [this](uint64_t e, int64_t id) { return e < nodes_[id].entry_begin; });
  return static_cast<size_t>(it - leaf_order_.begin()) - 1;
}

SimsIndex CoconutTrie::Sims() const {
  return {&kTrieSites,           index_file_.get(),
          raw_file_.get(),       &sidecar_,
          &page_crcs_,           &options_.summary,
          options_.materialized, options_.num_threads,
          super_.entry_bytes,    super_.leaf_page_bytes,
          super_.num_pages,      super_.num_entries};
}

Status CoconutTrie::ApproxSearch(const Value* query, size_t num_pages,
                                 SearchResult* result, size_t k,
                                 QueryScratch* scratch) const {
  QueryScratch local;
  return SimsApproxSearch(
      Sims(), query, num_pages, k, scratch != nullptr ? scratch : &local,
      result,
      [this](const ZKey& key) {
        return nodes_[DescendToLeaf(key)].first_page;
      },
      [this](uint64_t page) { return PageEntries(page); });
}

Status CoconutTrie::ExactSearch(const Value* query, size_t approx_pages,
                                SearchResult* result, size_t k,
                                QueryScratch* scratch) const {
  QueryScratch local;
  if (scratch == nullptr) scratch = &local;
  return SimsExactSearch(
      Sims(), query, k, scratch, result,
      [&](SearchResult* approx) {
        return ApproxSearch(query, approx_pages, approx, k, scratch);
      },
      [this](uint64_t i) {
        const Node& leaf = nodes_[leaf_order_[LeafIndexForEntry(i)]];
        const uint64_t in_leaf = i - leaf.entry_begin;
        return EntryLocation{
            leaf.first_page + in_leaf / super_.leaf_capacity,
            static_cast<size_t>(in_leaf % super_.leaf_capacity)};
      });
}

double CoconutTrie::AvgLeafFill() const {
  if (super_.num_pages == 0) return 0.0;
  return static_cast<double>(super_.num_entries) /
         (static_cast<double>(super_.num_pages) *
          static_cast<double>(super_.leaf_capacity));
}

uint64_t CoconutTrie::Height() const {
  if (root_ < 0) return 0;
  uint64_t max_depth = 0;
  std::vector<std::pair<int64_t, uint64_t>> stack = {{root_, 1}};
  while (!stack.empty()) {
    auto [id, depth] = stack.back();
    stack.pop_back();
    const Node& n = nodes_[id];
    if (n.is_leaf) {
      max_depth = std::max(max_depth, depth);
    } else {
      stack.push_back({n.left, depth + 1});
      stack.push_back({n.right, depth + 1});
    }
  }
  return max_depth;
}

Status CoconutTrie::IndexSizeBytes(uint64_t* bytes) const {
  return coconut::IndexSizeBytes(index_path_, bytes);
}

}  // namespace coconut
