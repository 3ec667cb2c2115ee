// Coconut-Tree open/query paths: in-memory internal levels, approximate
// radius search (Algorithm 4), CoconutTreeSIMS exact search (Algorithm 5),
// and sequential merge-based batch updates.
#include "src/core/coconut_tree.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "src/common/crc32c.h"
#include "src/common/env.h"
#include "src/summary/invsax.h"

namespace coconut {

namespace {

const SimsSites kTreeSites = {"tree.route",       "tree.approx",
                              "tree.refine",      "tree.approx.leaf",
                              "tree.approx.fetch", "tree.exact.leaf",
                              "tree.exact.fetch"};

}  // namespace

Status CoconutTree::Open(const std::string& index_path,
                         const std::string& raw_path,
                         std::unique_ptr<CoconutTree>* out) {
  std::unique_ptr<CoconutTree> tree(new CoconutTree());
  tree->index_path_ = index_path;
  tree->raw_path_ = raw_path;
  COCONUT_RETURN_IF_ERROR(
      RandomAccessFile::Open(index_path, &tree->index_file_));
  TreeSuperblock& super = tree->super_;
  COCONUT_RETURN_IF_ERROR(
      ReadSuperblock(tree->index_file_.get(), &super, &tree->options_));
  if (super.has_checksums()) {
    // One CRC per leaf page, then the internal-region CRC
    // (LoadInternalLevels below verifies against it).
    COCONUT_RETURN_IF_ERROR(ReadIntegritySection(
        tree->index_file_.get(), super.integrity_offset, super.num_leaves,
        &tree->leaf_crcs_, &tree->internal_crc_));
  }
  tree->options_.fill_factor = static_cast<double>(super.entries_per_leaf) /
                               static_cast<double>(super.leaf_capacity);

  COCONUT_RETURN_IF_ERROR(RawSeriesFile::Open(
      raw_path, tree->options_.summary.series_length, &tree->raw_file_));
  tree->sidecar_.Open(index_path + ".sax", super.num_entries, super.segments,
                      super.has_checksums() ? &super.sidecar_crc : nullptr);
  COCONUT_RETURN_IF_ERROR(tree->LoadInternalLevels());
  *out = std::move(tree);
  return Status::OK();
}

Status CoconutTree::LoadInternalLevels() {
  levels_.clear();
  levels_.resize(super_.num_internal_levels);
  std::vector<uint8_t> page(kInternalPageBytes);
  // Pages are read in the builder's write order, so one running CRC over
  // them reproduces the internal-region CRC of the integrity section.
  uint32_t crc = 0;
  for (size_t lvl = 0; lvl < super_.num_internal_levels; ++lvl) {
    InternalLevel& level = levels_[lvl];
    for (uint64_t p = 0; p < super_.level_page_count[lvl]; ++p) {
      const uint64_t off =
          super_.level_file_offset[lvl] + p * kInternalPageBytes;
      COCONUT_RETURN_IF_ERROR(
          index_file_->Read(off, kInternalPageBytes, page.data()));
      crc = crc32c::Extend(crc, page.data(), page.size());
      uint64_t cnt;
      std::memcpy(&cnt, page.data(), 8);
      if (cnt > kInternalFanout) {
        return Status::Corruption("internal page count out of range");
      }
      for (uint64_t i = 0; i < cnt; ++i) {
        const uint8_t* slot = page.data() + 8 + i * kInternalEntryBytes;
        level.keys.push_back(ZKey::DeserializeBE(slot));
        uint64_t child;
        std::memcpy(&child, slot + ZKey::kBytes, 8);
        level.children.push_back(child);
      }
    }
  }
  if (!super_.has_checksums()) return Status::OK();
  return VerifyCrc(crc, internal_crc_, "tree internal-level", index_path_);
}

uint64_t CoconutTree::LocateLeaf(const ZKey& key) const {
  if (levels_.empty()) return 0;
  // Walk from the root down. At each level the search is confined to the
  // page the parent pointed at; at the root the whole (single-page) level is
  // searched. Keys are the first keys of the children, so the child covering
  // `key` is the last entry with first_key <= key.
  size_t lvl = levels_.size() - 1;
  size_t lo = 0;
  size_t hi = levels_[lvl].keys.size();
  while (true) {
    const InternalLevel& level = levels_[lvl];
    auto begin = level.keys.begin() + lo;
    auto end = level.keys.begin() + hi;
    auto it = std::upper_bound(begin, end, key);
    const size_t idx = (it == begin)
                           ? lo
                           : static_cast<size_t>(it - level.keys.begin()) - 1;
    const uint64_t child = level.children[idx];
    if (lvl == 0) return child;  // leaf index
    --lvl;
    // `child` is a page index in the level below.
    lo = static_cast<size_t>(child) * kInternalFanout;
    hi = std::min(levels_[lvl].keys.size(), lo + kInternalFanout);
  }
}

size_t CoconutTree::LeafEntries(uint64_t leaf) const {
  const uint64_t epl = super_.entries_per_leaf;
  return (leaf + 1 == super_.num_leaves)
             ? static_cast<size_t>(super_.num_entries - leaf * epl)
             : static_cast<size_t>(epl);
}

SimsIndex CoconutTree::Sims() const {
  return {&kTreeSites,           index_file_.get(),
          raw_file_.get(),       &sidecar_,
          &leaf_crcs_,           &options_.summary,
          options_.materialized, options_.num_threads,
          super_.entry_bytes,    super_.leaf_page_bytes,
          super_.num_leaves,     super_.num_entries};
}

Status CoconutTree::ApproxSearch(const Value* query, size_t num_leaves,
                                 SearchResult* result, size_t k,
                                 QueryScratch* scratch) const {
  QueryScratch local;
  return SimsApproxSearch(
      Sims(), query, num_leaves, k, scratch != nullptr ? scratch : &local,
      result, [this](const ZKey& key) { return LocateLeaf(key); },
      [this](uint64_t leaf) { return LeafEntries(leaf); });
}

Status CoconutTree::ExactSearch(const Value* query, size_t approx_leaves,
                                SearchResult* result, size_t k,
                                QueryScratch* scratch) const {
  QueryScratch local;
  if (scratch == nullptr) scratch = &local;
  // Leaves are uniformly packed: entry i sits in leaf i / epl.
  const uint64_t epl = super_.entries_per_leaf;
  return SimsExactSearch(
      Sims(), query, k, scratch, result,
      [&](SearchResult* approx) {
        return ApproxSearch(query, approx_leaves, approx, k, scratch);
      },
      [epl](uint64_t i) {
        return EntryLocation{i / epl, static_cast<size_t>(i % epl)};
      });
}

double CoconutTree::AvgLeafFill() const {
  if (super_.num_leaves == 0) return 0.0;
  return static_cast<double>(super_.num_entries) /
         (static_cast<double>(super_.num_leaves) *
          static_cast<double>(super_.leaf_capacity));
}

Status CoconutTree::IndexSizeBytes(uint64_t* bytes) const {
  return coconut::IndexSizeBytes(index_path_, bytes);
}

Status CoconutTree::ReadLeafEntries(uint64_t leaf, std::vector<ZKey>* keys,
                                    std::vector<uint64_t>* offsets) const {
  std::vector<uint8_t> page;
  size_t cnt;
  COCONUT_RETURN_IF_ERROR(ReadLeafEntriesRaw(leaf, &page, &cnt));
  keys->clear();
  offsets->clear();
  for (size_t i = 0; i < cnt; ++i) {
    const uint8_t* entry = page.data() + i * super_.entry_bytes;
    keys->push_back(DecodeLeafEntryKey(entry));
    offsets->push_back(DecodeLeafEntryOffset(entry));
  }
  return Status::OK();
}

namespace {

/// Merge of the existing leaf entries (read sequentially from the old index
/// file) with an in-memory sorted batch of new entries; feeds BulkLoad for
/// the rebuild. Both inputs are sorted by key, so this is a single
/// sequential pass (paper Fig 10a: bulk-loading "has to perform less splits
/// when larger pieces of data are loaded").
class MergeStream : public SortedRecordStream {
 public:
  MergeStream(CoconutTree* tree, const TreeSuperblock& super,
              std::vector<uint8_t> new_records, size_t entry_bytes)
      : tree_(tree),
        super_(super),
        new_records_(std::move(new_records)),
        entry_bytes_(entry_bytes) {}

  bool Next(uint8_t* out, Status* status) override {
    *status = Status::OK();
    const bool old_ok = old_index_ < super_.num_entries;
    const bool new_ok = new_pos_ < new_records_.size();
    if (!old_ok && !new_ok) return false;
    if (old_ok && page_pos_ == page_count_) {
      *status = FillPage();
      if (!status->ok()) return false;
    }
    bool take_old;
    if (!old_ok) {
      take_old = false;
    } else if (!new_ok) {
      take_old = true;
    } else {
      take_old = std::memcmp(page_.data() + page_pos_ * entry_bytes_,
                             new_records_.data() + new_pos_,
                             ZKey::kBytes) <= 0;
    }
    if (take_old) {
      std::memcpy(out, page_.data() + page_pos_ * entry_bytes_, entry_bytes_);
      ++page_pos_;
      ++old_index_;
    } else {
      std::memcpy(out, new_records_.data() + new_pos_, entry_bytes_);
      new_pos_ += entry_bytes_;
    }
    return true;
  }

  uint64_t count() const override {
    return super_.num_entries + new_records_.size() / entry_bytes_;
  }

 private:
  Status FillPage() {
    COCONUT_RETURN_IF_ERROR(tree_->ReadLeafEntriesRaw(next_leaf_, &page_,
                                                      &page_count_));
    ++next_leaf_;
    page_pos_ = 0;
    return Status::OK();
  }

  CoconutTree* tree_;
  const TreeSuperblock& super_;
  std::vector<uint8_t> new_records_;
  size_t entry_bytes_;
  uint64_t old_index_ = 0;
  uint64_t next_leaf_ = 0;
  std::vector<uint8_t> page_;
  size_t page_count_ = 0;
  size_t page_pos_ = 0;
  size_t new_pos_ = 0;
};

}  // namespace

Status CoconutTree::ReadLeafEntriesRaw(uint64_t leaf,
                                       std::vector<uint8_t>* page,
                                       size_t* entry_count) const {
  COCONUT_RETURN_IF_ERROR(Sims().ReadPage(leaf, page));
  *entry_count = LeafEntries(leaf);
  return Status::OK();
}

Status CoconutTree::MergeBatch(const std::vector<Series>& batch) {
  if (batch.empty()) return Status::OK();
  const SummaryOptions& sum = options_.summary;
  for (const Series& s : batch) {
    if (s.size() != sum.series_length) {
      return Status::InvalidArgument("batch series length mismatch");
    }
  }
  const uint64_t old_raw_bytes = raw_file_->size_bytes();
  COCONUT_RETURN_IF_ERROR(AppendToDataset(raw_path_, batch));

  // Encode and sort the new entries in memory (a batch is small relative to
  // the index; the paper's update experiment bulk-loads arriving batches).
  const size_t entry_bytes = super_.entry_bytes;
  std::vector<uint8_t> recs(batch.size() * entry_bytes);
  const uint64_t series_bytes = sum.series_length * sizeof(Value);
  for (size_t i = 0; i < batch.size(); ++i) {
    const ZKey key = InvSaxFromSeries(batch[i].data(), sum);
    EncodeLeafEntry(key, old_raw_bytes + i * series_bytes,
                    options_.materialized ? batch[i].data() : nullptr,
                    sum.series_length, recs.data() + i * entry_bytes);
  }
  std::vector<uint32_t> order(batch.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return std::memcmp(recs.data() + size_t{a} * entry_bytes,
                       recs.data() + size_t{b} * entry_bytes,
                       ZKey::kBytes) < 0;
  });
  std::vector<uint8_t> sorted(recs.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    std::memcpy(sorted.data() + i * entry_bytes,
                recs.data() + size_t{order[i]} * entry_bytes, entry_bytes);
  }

  // Sequentially merge old leaves with the sorted batch into a new file.
  const std::string tmp_index = index_path_ + ".rebuild";
  {
    MergeStream stream(this, super_, std::move(sorted), entry_bytes);
    COCONUT_RETURN_IF_ERROR(
        CoconutTreeBuilder::BulkLoad(&stream, options_, tmp_index));
  }
  COCONUT_RETURN_IF_ERROR(RenameFile(tmp_index, index_path_));
  COCONUT_RETURN_IF_ERROR(RenameFile(tmp_index + ".sax", index_path_ + ".sax"));

  // Refresh in-memory state from the rebuilt file.
  std::unique_ptr<CoconutTree> reopened;
  COCONUT_RETURN_IF_ERROR(Open(index_path_, raw_path_, &reopened));
  options_ = reopened->options_;
  super_ = reopened->super_;
  index_file_ = std::move(reopened->index_file_);
  raw_file_ = std::move(reopened->raw_file_);
  levels_ = std::move(reopened->levels_);
  leaf_crcs_ = std::move(reopened->leaf_crcs_);
  internal_crc_ = reopened->internal_crc_;
  sidecar_.Open(index_path_ + ".sax", super_.num_entries, super_.segments,
                super_.has_checksums() ? &super_.sidecar_crc : nullptr);
  return Status::OK();
}

}  // namespace coconut
