#include "src/core/coconut_forest.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>
#include <numeric>

#include "src/common/crc32c.h"
#include "src/common/env.h"
#include "src/core/knn.h"
#include "src/io/file.h"
#include "src/exec/thread_pool.h"
#include "src/obs/stage.h"
#include "src/series/distance.h"
#include "src/summary/invsax.h"

namespace coconut {

namespace {

/// Sorted in-memory entries (a flushed memtable) as a record stream.
class VectorStream : public SortedRecordStream {
 public:
  VectorStream(std::vector<uint8_t> data, size_t record_bytes)
      : data_(std::move(data)), record_bytes_(record_bytes) {}

  bool Next(uint8_t* out, Status* status) override {
    *status = Status::OK();
    if (pos_ + record_bytes_ > data_.size()) return false;
    std::memcpy(out, data_.data() + pos_, record_bytes_);
    pos_ += record_bytes_;
    return true;
  }
  uint64_t count() const override { return data_.size() / record_bytes_; }

 private:
  std::vector<uint8_t> data_;
  size_t record_bytes_;
  size_t pos_ = 0;
};

/// Streaming k-way merge over the (already sorted) leaf entries of several
/// runs: O(runs x page) memory. The fallback merge when the in-memory
/// parallel merge would exceed the configured memory budget.
class MergedRunStream : public SortedRecordStream {
 public:
  MergedRunStream(std::vector<const CoconutTree*> runs, size_t entry_bytes)
      : entry_bytes_(entry_bytes) {
    for (const CoconutTree* run : runs) {
      cursors_.push_back(Cursor{run, 0, 0, {}, 0});
      total_ += run->num_entries();
    }
  }

  bool Next(uint8_t* out, Status* status) override {
    *status = Status::OK();
    int best = -1;
    for (size_t i = 0; i < cursors_.size(); ++i) {
      Cursor& c = cursors_[i];
      if (!EnsurePage(&c, status)) {
        if (!status->ok()) return false;
        continue;  // exhausted
      }
      if (best < 0 ||
          std::memcmp(CurrentEntry(c), CurrentEntry(cursors_[best]),
                      ZKey::kBytes) < 0) {
        best = static_cast<int>(i);
      }
    }
    if (best < 0) return false;
    Cursor& c = cursors_[best];
    std::memcpy(out, CurrentEntry(c), entry_bytes_);
    ++c.slot;
    return true;
  }

  uint64_t count() const override { return total_; }

 private:
  struct Cursor {
    const CoconutTree* run;
    uint64_t next_leaf;
    size_t slot;
    std::vector<uint8_t> page;
    size_t page_count;
  };

  const uint8_t* CurrentEntry(const Cursor& c) const {
    return c.page.data() + c.slot * entry_bytes_;
  }

  /// Loads the next leaf page when the current one is exhausted; returns
  /// false when the run has no entries left.
  bool EnsurePage(Cursor* c, Status* status) {
    while (c->page.empty() || c->slot >= c->page_count) {
      if (c->next_leaf >= c->run->num_leaves()) return false;
      *status = c->run->ReadLeafEntriesRaw(c->next_leaf, &c->page,
                                           &c->page_count);
      if (!status->ok()) return false;
      ++c->next_leaf;
      c->slot = 0;
    }
    return true;
  }

  std::vector<Cursor> cursors_;
  size_t entry_bytes_;
  uint64_t total_ = 0;
};

/// First index in the sorted record array `records` whose key is >= `key`.
size_t LowerBoundByKey(const std::vector<uint8_t>& records, size_t entry_bytes,
                       const uint8_t* key) {
  size_t lo = 0, hi = records.size() / entry_bytes;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (std::memcmp(records.data() + mid * entry_bytes, key, ZKey::kBytes) <
        0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Encodes and key-sorts `count` memtable entries into leaf-entry records.
std::vector<uint8_t> EncodeSortedRecords(
    const std::vector<CoconutForest::MemEntry>& entries, size_t count,
    const CoconutOptions& tree_opts) {
  const size_t entry_bytes = LeafEntryBytes(tree_opts);
  const SummaryOptions& sum = tree_opts.summary;
  std::vector<uint8_t> records(count * entry_bytes);
  for (size_t i = 0; i < count; ++i) {
    const ZKey key = InvSaxFromSeries(entries[i].series.data(), sum);
    EncodeLeafEntry(key, entries[i].offset,
                    tree_opts.materialized ? entries[i].series.data()
                                           : nullptr,
                    sum.series_length, records.data() + i * entry_bytes);
  }
  std::vector<uint32_t> order(count);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return std::memcmp(records.data() + size_t{a} * entry_bytes,
                       records.data() + size_t{b} * entry_bytes,
                       ZKey::kBytes) < 0;
  });
  std::vector<uint8_t> sorted(records.size());
  for (size_t i = 0; i < count; ++i) {
    std::memcpy(sorted.data() + i * entry_bytes,
                records.data() + size_t{order[i]} * entry_bytes, entry_bytes);
  }
  return sorted;
}

/// The raw dataset's checksum sidecar: one 4-byte little-endian CRC32C per
/// series, appended in lockstep with the raw appends. It is advisory the
/// way a WAL checksum is — verified (and repaired) at Open, never consulted
/// on the query path.
constexpr size_t kRawCrcBytes = 4;

std::string RawSidecarPath(const std::string& raw_path) {
  return raw_path + ".crc";
}

void EncodeCrcLE(uint32_t crc, uint8_t* out) {
  out[0] = static_cast<uint8_t>(crc);
  out[1] = static_cast<uint8_t>(crc >> 8);
  out[2] = static_cast<uint8_t>(crc >> 16);
  out[3] = static_cast<uint8_t>(crc >> 24);
}

uint32_t DecodeCrcLE(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

/// Appends one CRC per series of `batch` to the sidecar. Called after the
/// raw append: a crash between the two leaves the sidecar short, which Open
/// repairs by backfilling (the raw bytes were never acknowledged torn-free,
/// exactly like a missing legacy sidecar).
Status AppendRawCrcs(const std::string& raw_path,
                     const std::vector<Series>& batch) {
  std::unique_ptr<WritableFile> file;
  COCONUT_RETURN_IF_ERROR(
      WritableFile::OpenForAppend(RawSidecarPath(raw_path), &file));
  std::vector<uint8_t> buf(batch.size() * kRawCrcBytes);
  for (size_t i = 0; i < batch.size(); ++i) {
    const Series& s = batch[i];
    EncodeCrcLE(crc32c::Value(s.data(), s.size() * sizeof(Value)),
                buf.data() + i * kRawCrcBytes);
  }
  COCONUT_RETURN_IF_ERROR(file->Append(buf.data(), buf.size()));
  COCONUT_RETURN_IF_ERROR(file->Sync());
  return file->Close();
}

/// Loads the sidecar, trimmed to whole records and to the raw file's series
/// count (recovery may have truncated the raw file; the sidecar follows in
/// lockstep here). Missing sidecar loads as empty.
Status LoadTrimmedSidecar(const std::string& side_path, uint64_t count,
                          std::vector<uint8_t>* side) {
  side->clear();
  if (!FileExists(side_path)) return Status::OK();
  std::unique_ptr<RandomAccessFile> f;
  COCONUT_RETURN_IF_ERROR(RandomAccessFile::Open(side_path, &f));
  const uint64_t covered =
      std::min<uint64_t>(f->size() / kRawCrcBytes, count);
  const uint64_t keep = covered * kRawCrcBytes;
  side->resize(keep);
  if (keep > 0) COCONUT_RETURN_IF_ERROR(f->Read(0, keep, side->data()));
  if (f->size() != keep) {
    // Torn sidecar append or a recovery-truncated raw file: drop the tail
    // so the next append lands record-aligned.
    COCONUT_RETURN_IF_ERROR(TruncateFile(side_path, keep));
  }
  return Status::OK();
}

/// Verifies every raw series against the sidecar and backfills CRCs the
/// sidecar is missing (legacy files, crash between raw append and sidecar
/// append). A mismatch is Corruption naming the series and byte offset —
/// the caller (ShardedStore) decides between failing the open and
/// salvaging. Runs once per Open; the bulk load scans the same bytes anyway.
Status VerifyOrRepairRawCrcs(const std::string& raw_path,
                             size_t series_bytes) {
  static Counter* verified =
      MetricRegistry::Default().GetCounter("io.checksum.verified");
  static Counter* failed =
      MetricRegistry::Default().GetCounter("io.checksum.failed");
  uint64_t raw_size = 0;
  COCONUT_RETURN_IF_ERROR(FileSize(raw_path, &raw_size));
  const uint64_t count = raw_size / series_bytes;
  const std::string side_path = RawSidecarPath(raw_path);
  std::vector<uint8_t> side;
  COCONUT_RETURN_IF_ERROR(LoadTrimmedSidecar(side_path, count, &side));
  const uint64_t covered = side.size() / kRawCrcBytes;
  if (count == 0) return Status::OK();

  std::unique_ptr<RandomAccessFile> raw;
  COCONUT_RETURN_IF_ERROR(RandomAccessFile::Open(raw_path, &raw));
  const uint64_t chunk_series =
      std::max<uint64_t>(1, (4u << 20) / series_bytes);
  std::vector<uint8_t> buf;
  std::vector<uint8_t> backfill;
  for (uint64_t i = 0; i < count; i += chunk_series) {
    const uint64_t n = std::min<uint64_t>(chunk_series, count - i);
    buf.resize(n * series_bytes);
    COCONUT_RETURN_IF_ERROR(
        raw->Read(i * series_bytes, buf.size(), buf.data()));
    for (uint64_t j = 0; j < n; ++j) {
      const uint32_t crc =
          crc32c::Value(buf.data() + j * series_bytes, series_bytes);
      const uint64_t idx = i + j;
      if (idx < covered) {
        if (DecodeCrcLE(side.data() + idx * kRawCrcBytes) != crc) {
          failed->Increment();
          return Status::Corruption(
              "raw checksum mismatch at series " + std::to_string(idx) +
              " (byte offset " + std::to_string(idx * series_bytes) +
              "): " + raw_path);
        }
      } else {
        backfill.resize(backfill.size() + kRawCrcBytes);
        EncodeCrcLE(crc, backfill.data() + backfill.size() - kRawCrcBytes);
      }
    }
  }
  verified->Add(covered);
  if (!backfill.empty()) {
    std::unique_ptr<WritableFile> f;
    COCONUT_RETURN_IF_ERROR(WritableFile::OpenForAppend(side_path, &f));
    COCONUT_RETURN_IF_ERROR(f->Append(backfill.data(), backfill.size()));
    COCONUT_RETURN_IF_ERROR(f->Sync());
    COCONUT_RETURN_IF_ERROR(f->Close());
  }
  return Status::OK();
}

}  // namespace

std::string CoconutForest::RunPath(uint64_t id) const {
  return JoinPath(dir_, "run-" + std::to_string(id) + ".ctree");
}

Status CoconutForest::Open(const std::string& raw_path,
                           const std::string& dir,
                           const ForestOptions& options,
                           std::unique_ptr<CoconutForest>* out) {
  COCONUT_RETURN_IF_ERROR(options.Validate());
  std::unique_ptr<CoconutForest> forest(new CoconutForest());
  // Not shared with any other thread yet, but the guarded members still
  // demand their locks; both are uncontended here.
  MutexLock writer_lock(&forest->writer_mu_);
  WriterLock state_lock(&forest->state_mu_);
  forest->options_ = options;
  forest->raw_path_ = raw_path;
  forest->dir_ = dir;
  forest->memtable_ = std::make_shared<std::vector<MemEntry>>();
  forest->memtable_->reserve(options.memtable_series);
  COCONUT_RETURN_IF_ERROR(MakeDirs(dir));

  if (!FileExists(raw_path)) {
    std::unique_ptr<WritableFile> f;
    COCONUT_RETURN_IF_ERROR(WritableFile::Create(raw_path, &f));
    COCONUT_RETURN_IF_ERROR(f->Close());
  }
  COCONUT_RETURN_IF_ERROR(FileSize(raw_path, &forest->raw_bytes_));
  // Integrity gate: every series the bulk load below would index must match
  // its sidecar CRC (missing entries are backfilled — see the helper).
  COCONUT_RETURN_IF_ERROR(VerifyOrRepairRawCrcs(
      raw_path, options.tree.summary.series_length * sizeof(Value)));
  if (forest->raw_bytes_ > 0) {
    // Existing data becomes the first run (a plain bulk load).
    const std::string path = forest->RunPath(forest->next_run_id_++);
    COCONUT_RETURN_IF_ERROR(
        CoconutTree::Build(raw_path, path, options.tree));
    std::unique_ptr<CoconutTree> run;
    COCONUT_RETURN_IF_ERROR(CoconutTree::Open(path, raw_path, &run));
    forest->runs_.emplace_back(std::move(run));
  }
  *out = std::move(forest);
  return Status::OK();
}

Status CoconutForest::Insert(const Series& series) {
  return InsertBatch({series});
}

Status CoconutForest::InsertBatch(const std::vector<Series>& batch) {
  const size_t n = options_.tree.summary.series_length;
  for (const Series& s : batch) {
    if (s.size() != n) {
      return Status::InvalidArgument("series length mismatch");
    }
  }
  MutexLock writer_lock(&writer_mu_);
  COCONUT_RETURN_IF_ERROR(AppendToDataset(raw_path_, batch));
  COCONUT_RETURN_IF_ERROR(AppendRawCrcs(raw_path_, batch));
  // The whole batch is on disk now; advance raw_bytes_ up front so it can
  // never desync from the file even if a flush below fails mid-batch (the
  // un-published tail is then orphaned bytes, not mis-addressed entries).
  uint64_t offset = raw_bytes_;
  raw_bytes_ += batch.size() * n * sizeof(Value);
  for (const Series& s : batch) {
    if (MemtableCountWriterLocked() >= options_.memtable_series) {
      // Reachable when an earlier flush failed, or when a staged publish
      // filled the memtable exactly to capacity: the flush must succeed
      // before another push_back, or the vector would reallocate under
      // lock-free snapshot readers.
      COCONUT_RETURN_IF_ERROR(FlushWriterLocked());
    }
    {
      // Publish the entry: the vector never reallocates (capacity is
      // reserved up to memtable_series, the flush threshold), so snapshot
      // holders reading entries below the published count are unaffected.
      StateWriteLock state_lock(this);
      memtable_->push_back(MemEntry{s, offset});
      ++memtable_count_;
    }
    offset += n * sizeof(Value);
    if (MemtableCountWriterLocked() >= options_.memtable_series) {
      COCONUT_RETURN_IF_ERROR(FlushWriterLocked());
    }
  }
  if (NumRunsWriterLocked() > options_.max_runs) {
    COCONUT_RETURN_IF_ERROR(CompactWriterLocked());
  }
  return Status::OK();
}

Status CoconutForest::StageBatch(const std::vector<Series>& batch,
                                 StagedBatch* out) {
  const size_t n = options_.tree.summary.series_length;
  for (const Series& s : batch) {
    if (s.size() != n) {
      return Status::InvalidArgument("series length mismatch");
    }
  }
  if (batch.empty()) return Status::InvalidArgument("empty staged batch");
  MutexLock writer_lock(&writer_mu_);
  out->pre_raw_bytes = raw_bytes_;
  out->raw_bytes = batch.size() * n * sizeof(Value);
  COCONUT_RETURN_IF_ERROR(AppendToDataset(raw_path_, batch));
  COCONUT_RETURN_IF_ERROR(AppendRawCrcs(raw_path_, batch));
  uint64_t offset = raw_bytes_;
  raw_bytes_ += out->raw_bytes;
  if (batch.size() > options_.memtable_series) {
    // The slice cannot fit even an empty memtable: pre-build it as its own
    // sorted run now, in stage phase, so publication is an O(1) run-set
    // push instead of an impossible sequence of flushes under the store's
    // visibility lock.
    std::vector<MemEntry> entries;
    entries.reserve(batch.size());
    for (const Series& s : batch) {
      entries.push_back(MemEntry{s, offset});
      offset += n * sizeof(Value);
    }
    std::vector<uint8_t> sorted =
        EncodeSortedRecords(entries, entries.size(), options_.tree);
    const size_t entry_bytes = LeafEntryBytes(options_.tree);
    const std::string path = RunPath(next_run_id_++);
    {
      VectorStream stream(std::move(sorted), entry_bytes);
      COCONUT_RETURN_IF_ERROR(
          CoconutTreeBuilder::BulkLoad(&stream, options_.tree, path));
    }
    std::unique_ptr<CoconutTree> run;
    COCONUT_RETURN_IF_ERROR(CoconutTree::Open(path, raw_path_, &run));
    out->run = std::move(run);
    return Status::OK();
  }
  if (MemtableCountWriterLocked() + batch.size() > options_.memtable_series) {
    // Make room now so PublishStaged never has to flush.
    COCONUT_RETURN_IF_ERROR(FlushWriterLocked());
  }
  out->entries.reserve(batch.size());
  for (const Series& s : batch) {
    out->entries.push_back(MemEntry{s, offset});
    offset += n * sizeof(Value);
  }
  return Status::OK();
}

bool CoconutForest::StagedFits(const StagedBatch& staged) const {
  if (staged.run != nullptr) return true;  // run install is always O(1)
  MutexLock writer_lock(&writer_mu_);
  return MemtableCountWriterLocked() + staged.entries.size() <=
         options_.memtable_series;
}

Status CoconutForest::PublishStaged(StagedBatch&& staged) {
  MutexLock writer_lock(&writer_mu_);
  if (staged.run == nullptr &&
      MemtableCountWriterLocked() + staged.entries.size() >
          options_.memtable_series) {
    // Impossible under the store's commit lock (StageBatch made room, no
    // writer ran in between, and the store re-checked StagedFits);
    // publishing anyway would reallocate the memtable under lock-free
    // snapshot readers.
    return Status::Internal("staged batch no longer fits the memtable");
  }
  StateWriteLock state_lock(this);
  if (staged.run != nullptr) {
    runs_.push_back(std::move(staged.run));
  } else {
    for (MemEntry& e : staged.entries) {
      memtable_->push_back(std::move(e));
      ++memtable_count_;
    }
  }
  return Status::OK();
}

Status CoconutForest::CompactIfNeeded() {
  MutexLock writer_lock(&writer_mu_);
  if (NumRunsWriterLocked() > options_.max_runs) {
    return CompactWriterLocked();
  }
  return Status::OK();
}

Status CoconutForest::TruncateRawForRecovery(const std::string& raw_path,
                                             uint64_t target_bytes) {
  if (!FileExists(raw_path)) {
    if (target_bytes == 0) return Status::OK();
    return Status::Corruption("raw file missing but committed epochs expect " +
                              std::to_string(target_bytes) + " bytes: " +
                              raw_path);
  }
  uint64_t size = 0;
  COCONUT_RETURN_IF_ERROR(FileSize(raw_path, &size));
  if (size < target_bytes) {
    return Status::Corruption("raw file shorter than committed epoch extent: " +
                              raw_path);
  }
  if (size == target_bytes) return Status::OK();
  return TruncateFile(raw_path, target_bytes);
}

Status CoconutForest::SalvageRaw(const std::string& raw_path,
                                 size_t series_bytes,
                                 uint64_t* salvaged_bytes) {
  *salvaged_bytes = 0;
  if (!FileExists(raw_path)) return Status::OK();
  uint64_t raw_size = 0;
  COCONUT_RETURN_IF_ERROR(FileSize(raw_path, &raw_size));
  const uint64_t count = raw_size / series_bytes;
  const std::string side_path = RawSidecarPath(raw_path);
  std::vector<uint8_t> side;
  COCONUT_RETURN_IF_ERROR(LoadTrimmedSidecar(side_path, count, &side));
  const uint64_t covered = side.size() / kRawCrcBytes;

  // Longest prefix of whole series whose CRCs verify. Series beyond the
  // sidecar's coverage are unverifiable (crash-window appends); they are
  // kept only when everything before them verified, same trust rule as the
  // Open-time backfill.
  uint64_t keep = count;
  if (count > 0) {
    std::unique_ptr<RandomAccessFile> raw;
    COCONUT_RETURN_IF_ERROR(RandomAccessFile::Open(raw_path, &raw));
    std::vector<uint8_t> buf(series_bytes);
    for (uint64_t i = 0; i < covered; ++i) {
      COCONUT_RETURN_IF_ERROR(
          raw->Read(i * series_bytes, series_bytes, buf.data()));
      if (crc32c::Value(buf.data(), series_bytes) !=
          DecodeCrcLE(side.data() + i * kRawCrcBytes)) {
        keep = i;
        break;
      }
    }
  }
  *salvaged_bytes = keep * series_bytes;
  if (*salvaged_bytes < raw_size) {
    COCONUT_RETURN_IF_ERROR(TruncateFile(raw_path, *salvaged_bytes));
  }
  if (FileExists(side_path)) {
    const uint64_t side_keep = std::min<uint64_t>(covered, keep) * kRawCrcBytes;
    if (side_keep < side.size()) {
      COCONUT_RETURN_IF_ERROR(TruncateFile(side_path, side_keep));
    }
  }
  return Status::OK();
}

uint64_t CoconutForest::raw_size() const {
  MutexLock writer_lock(&writer_mu_);
  return raw_bytes_;
}

Status CoconutForest::Flush() {
  MutexLock writer_lock(&writer_mu_);
  return FlushWriterLocked();
}

Status CoconutForest::FlushWriterLocked() {
  // Encode and sort the memtable entries, then bulk-load a new run — the
  // sequential LSM flush. All of this happens before readers are touched:
  // the memtable entries below memtable_count_ are immutable, so the run
  // can be built without holding state_mu_. The run is published and the
  // memtable retired in one atomic swap at the end, so a snapshot sees the
  // flushed entries exactly once (either in the memtable or in the run).
  size_t count = 0;
  std::shared_ptr<std::vector<MemEntry>> mem;
  {
    ReaderLock state_lock(&state_mu_);
    count = memtable_count_;
    mem = memtable_;
  }
  if (count == 0) return Status::OK();
  static Histogram* flush_ns =
      MetricRegistry::Default().GetHistogram("forest.flush_ns");
  static Counter* flush_entries =
      MetricRegistry::Default().GetCounter("forest.flush_entries");
  Stage stage("forest.flush", "forest", flush_ns);
  flush_entries->Add(count);
  std::vector<uint8_t> sorted =
      EncodeSortedRecords(*mem, count, options_.tree);
  const size_t entry_bytes = LeafEntryBytes(options_.tree);
  const std::string path = RunPath(next_run_id_++);
  {
    VectorStream stream(std::move(sorted), entry_bytes);
    COCONUT_RETURN_IF_ERROR(
        CoconutTreeBuilder::BulkLoad(&stream, options_.tree, path));
  }
  std::unique_ptr<CoconutTree> run;
  COCONUT_RETURN_IF_ERROR(CoconutTree::Open(path, raw_path_, &run));
  auto fresh = std::make_shared<std::vector<MemEntry>>();
  fresh->reserve(options_.memtable_series);
  {
    StateWriteLock state_lock(this);
    runs_.emplace_back(std::move(run));
    memtable_ = std::move(fresh);
    memtable_count_ = 0;
  }
  return Status::OK();
}

Status CoconutForest::CompactAll() {
  MutexLock writer_lock(&writer_mu_);
  return CompactWriterLocked();
}

Status CoconutForest::MergeRunsParallel(
    const std::vector<std::shared_ptr<const CoconutTree>>& inputs,
    std::vector<uint8_t>* out) const {
  assert(!state_write_locked_.load(std::memory_order_relaxed) &&
         "runs merge must never execute under the reader-visible state lock");
  const size_t entry_bytes = LeafEntryBytes(options_.tree);
  ThreadPool* pool = ThreadPool::Shared();
  Status first_error;
  Mutex error_mu;
  auto record_error = [&](const Status& st) {
    MutexLock lock(&error_mu);
    if (first_error.ok()) first_error = st;
  };

  // Stage 1: load every run's (already sorted) leaf entries into memory,
  // one run per chunk — page reads of distinct runs are independent. The
  // transient working set is ~2x the merged leaf region (per-run buffers
  // plus the output); CompactWriterLocked only routes here when that fits
  // options_.tree.memory_budget_bytes, falling back to the streaming merge
  // otherwise (materialized leaves carry the full series payload, so the
  // budget check is what keeps large materialized compactions bounded).
  std::vector<std::vector<uint8_t>> run_entries(inputs.size());
  pool->ParallelFor(0, inputs.size(), 1, [&](uint64_t lo, uint64_t hi) {
    for (uint64_t r = lo; r < hi; ++r) {
      const CoconutTree& run = *inputs[r];
      std::vector<uint8_t>& dst = run_entries[r];
      dst.reserve(static_cast<size_t>(run.num_entries()) * entry_bytes);
      std::vector<uint8_t> page;
      size_t count = 0;
      for (uint64_t leaf = 0; leaf < run.num_leaves(); ++leaf) {
        const Status st = run.ReadLeafEntriesRaw(leaf, &page, &count);
        if (!st.ok()) {
          record_error(st);
          return;
        }
        dst.insert(dst.end(), page.data(), page.data() + count * entry_bytes);
      }
    }
  });
  COCONUT_RETURN_IF_ERROR(first_error);

  uint64_t total = 0;
  size_t largest = 0;
  for (size_t r = 0; r < run_entries.size(); ++r) {
    total += run_entries[r].size() / entry_bytes;
    if (run_entries[r].size() > run_entries[largest].size()) largest = r;
  }
  out->resize(static_cast<size_t>(total) * entry_bytes);
  if (total == 0) return Status::OK();

  // Stage 2: partition the key space so the merge itself can be chunked
  // over the pool. Pivots are evenly spaced keys of the largest run (a good
  // sample of the global distribution); every run is split at the same
  // pivot keys with lower-bound semantics, so each entry lands in exactly
  // one chunk and chunk-local merges are independent.
  constexpr uint64_t kMinEntriesPerChunk = 2048;
  const uint64_t largest_count = run_entries[largest].size() / entry_bytes;
  size_t chunks = static_cast<size_t>(
      std::min<uint64_t>(uint64_t{pool->parallelism()} * 2,
                         std::max<uint64_t>(1, total / kMinEntriesPerChunk)));
  chunks = static_cast<size_t>(
      std::min<uint64_t>(chunks, std::max<uint64_t>(1, largest_count)));

  // splits[r][c] .. splits[r][c+1] is run r's subrange for chunk c.
  std::vector<std::vector<size_t>> splits(inputs.size());
  for (size_t r = 0; r < run_entries.size(); ++r) {
    splits[r].push_back(0);
    for (size_t c = 1; c < chunks; ++c) {
      const uint8_t* pivot =
          run_entries[largest].data() +
          (largest_count * c / chunks) * entry_bytes;
      splits[r].push_back(LowerBoundByKey(run_entries[r], entry_bytes, pivot));
    }
    splits[r].push_back(run_entries[r].size() / entry_bytes);
  }
  std::vector<size_t> chunk_offset(chunks + 1, 0);
  for (size_t c = 0; c < chunks; ++c) {
    size_t size = 0;
    for (size_t r = 0; r < run_entries.size(); ++r) {
      size += splits[r][c + 1] - splits[r][c];
    }
    chunk_offset[c + 1] = chunk_offset[c] + size;
  }

  // Stage 3: chunk-local k-way merges, in parallel, each writing its own
  // disjoint slice of the output.
  pool->ParallelFor(0, chunks, 1, [&](uint64_t lo, uint64_t hi) {
    for (uint64_t c = lo; c < hi; ++c) {
      struct Cursor {
        const uint8_t* next;
        const uint8_t* end;
      };
      std::vector<Cursor> cursors;
      cursors.reserve(run_entries.size());
      for (size_t r = 0; r < run_entries.size(); ++r) {
        cursors.push_back(
            Cursor{run_entries[r].data() + splits[r][c] * entry_bytes,
                   run_entries[r].data() + splits[r][c + 1] * entry_bytes});
      }
      uint8_t* dst = out->data() + chunk_offset[c] * entry_bytes;
      while (true) {
        int best = -1;
        for (size_t r = 0; r < cursors.size(); ++r) {
          if (cursors[r].next == cursors[r].end) continue;
          if (best < 0 || std::memcmp(cursors[r].next, cursors[best].next,
                                      ZKey::kBytes) < 0) {
            best = static_cast<int>(r);
          }
        }
        if (best < 0) break;
        std::memcpy(dst, cursors[best].next, entry_bytes);
        dst += entry_bytes;
        cursors[best].next += entry_bytes;
      }
    }
  });
  return Status::OK();
}

Status CoconutForest::CompactWriterLocked() {
  COCONUT_RETURN_IF_ERROR(FlushWriterLocked());
  // The writer lock excludes every mutator of runs_; the copy still takes a
  // brief shared acquisition, and the merge below then runs on immutable
  // trees outside any lock.
  std::vector<std::shared_ptr<const CoconutTree>> inputs;
  {
    ReaderLock state_lock(&state_mu_);
    inputs = runs_;
  }
  if (inputs.size() <= 1) return Status::OK();
  static Histogram* compaction_ns =
      MetricRegistry::Default().GetHistogram("forest.compaction_ns");
  static Histogram* merge_fan_in =
      MetricRegistry::Default().GetHistogram("forest.compaction.merge_fan_in");
  Stage stage("forest.compaction", "forest", compaction_ns);
  merge_fan_in->Record(inputs.size());
  const size_t entry_bytes = LeafEntryBytes(options_.tree);
  const std::string path = RunPath(next_run_id_++);
  uint64_t total_entries = 0;
  for (const auto& run : inputs) total_entries += run->num_entries();
  // The parallel merge materializes the runs plus the merged output
  // (~2x the leaf region, and materialized entries embed the raw series);
  // only take it when that fits the configured memory budget.
  const bool merge_in_memory =
      2 * total_entries * entry_bytes <= options_.tree.memory_budget_bytes;
  if (merge_in_memory) {
    std::vector<uint8_t> merged_records;
    COCONUT_RETURN_IF_ERROR(MergeRunsParallel(inputs, &merged_records));
    VectorStream stream(std::move(merged_records), entry_bytes);
    COCONUT_RETURN_IF_ERROR(
        CoconutTreeBuilder::BulkLoad(&stream, options_.tree, path));
  } else {
    std::vector<const CoconutTree*> raw_inputs;
    raw_inputs.reserve(inputs.size());
    for (const auto& run : inputs) raw_inputs.push_back(run.get());
    MergedRunStream stream(std::move(raw_inputs), entry_bytes);
    COCONUT_RETURN_IF_ERROR(
        CoconutTreeBuilder::BulkLoad(&stream, options_.tree, path));
  }
  std::unique_ptr<CoconutTree> merged;
  COCONUT_RETURN_IF_ERROR(CoconutTree::Open(path, raw_path_, &merged));
  {
    StateWriteLock state_lock(this);
    runs_.clear();
    runs_.emplace_back(std::move(merged));
  }
  // Unlink the merged-away files; snapshot holders that still reference the
  // old trees keep reading through their open descriptors.
  for (const auto& run : inputs) {
    (void)RemoveAll(run->index_path());
    (void)RemoveAll(run->index_path() + ".sax");
  }
  return Status::OK();
}

CoconutForest::Snapshot CoconutForest::GetSnapshot() const {
  ReaderLock state_lock(&state_mu_);
  Snapshot snap;
  snap.memtable = memtable_;
  snap.memtable_count = memtable_count_;
  snap.runs = runs_;
  return snap;
}

size_t CoconutForest::num_runs() const {
  ReaderLock state_lock(&state_mu_);
  return runs_.size();
}

uint64_t CoconutForest::num_entries() const { return GetSnapshot().num_entries(); }

uint64_t CoconutForest::memtable_size() const {
  ReaderLock state_lock(&state_mu_);
  return memtable_count_;
}

template <typename RunSearch>
Status CoconutForest::SearchParts(const Snapshot& snapshot, const Value* query,
                                  size_t k, QueryScratch* scratch,
                                  SearchResult* result,
                                  const RunSearch& search_run) const {
  if (snapshot.num_entries() == 0) return Status::NotFound("empty forest");
  QueryScratch local_scratch;
  if (scratch == nullptr) scratch = &local_scratch;
  const size_t n = options_.tree.summary.series_length;
  KnnCollector knn(k);
  uint64_t visited = 0;
  uint64_t leaves_read = 0;
  // Memtable: brute force (it is small by construction).
  for (size_t i = 0; i < snapshot.memtable_count; ++i) {
    const MemEntry& e = (*snapshot.memtable)[i];
    knn.Offer(e.offset, SquaredEuclidean(e.series.data(), query, n));
    ++visited;
  }
  if (QueryTrace* t = scratch->trace) {
    t->memtable_scanned += snapshot.memtable_count;
    t->records_fetched += snapshot.memtable_count;
  }
  // Runs: per-run k-NN answers; runs partition the data, so the merged
  // top-k of per-run exact answers is the global top-k.
  for (const auto& run : snapshot.runs) {
    SearchResult r;
    COCONUT_RETURN_IF_ERROR(search_run(*run, &r, scratch));
    visited += r.visited_records;
    leaves_read += r.leaves_read;
    knn.Seed(r);
  }
  knn.Finalize(result);
  result->visited_records = visited;
  result->leaves_read = leaves_read;
  return Status::OK();
}

Status CoconutForest::ExactSearch(const Value* query, SearchResult* result,
                                  size_t k) const {
  return ExactSearch(GetSnapshot(), query, result, k);
}

Status CoconutForest::ExactSearch(const Snapshot& snapshot,
                                  const Value* query, SearchResult* result,
                                  size_t k,
                                  QueryScratch* scratch) const {
  return SearchParts(snapshot, query, k, scratch, result,
                     [&](const CoconutTree& run, SearchResult* r,
                         QueryScratch* s) {
                       return run.ExactSearch(query, 1, r, k, s);
                     });
}

Status CoconutForest::ApproxSearch(const Value* query, size_t num_leaves,
                                   SearchResult* result, size_t k) const {
  return ApproxSearch(GetSnapshot(), query, num_leaves, result, k);
}

Status CoconutForest::ApproxSearch(const Snapshot& snapshot,
                                   const Value* query, size_t num_leaves,
                                   SearchResult* result, size_t k,
                                   QueryScratch* scratch) const {
  return SearchParts(snapshot, query, k, scratch, result,
                     [&](const CoconutTree& run, SearchResult* r,
                         QueryScratch* s) {
                       return run.ApproxSearch(query, num_leaves, r, k, s);
                     });
}

}  // namespace coconut
