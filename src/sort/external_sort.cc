#include "src/sort/external_sort.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "src/common/env.h"
#include "src/exec/thread_pool.h"
#include "src/io/io_stats.h"
#include "src/io/retry.h"
#include "src/obs/stage.h"
#include "src/sort/loser_tree.h"
#include "src/sort/record_sort.h"

namespace coconut {

namespace {

/// Hard floor for one merge input buffer: below one page the buffered
/// reader degenerates to per-record I/O.
constexpr size_t kMergeInputFloorBytes = 4 * 1024;

/// Preferred merge input buffer: drives how many runs one pass may consume.
constexpr size_t kMergeInputPreferredBytes = 64 * 1024;

/// Key-range partitions are only worth their boundary searches when each
/// gets a few thousand records.
constexpr uint64_t kMinRecordsPerPartition = 4096;

// The preferred size bounding fan-in must dominate the floor by enough
// that a legal group's buffers (double-buffered, so 2x) always fit the
// share without the floor binding — the invariant MergePlan asserts.
static_assert(kMergeInputPreferredBytes >= 4 * kMergeInputFloorBytes);

/// Single source of truth for merge-phase memory accounting. The merge
/// phase owns half the memory budget (run-generation buffers own the other
/// half); `share` is that half divided by the number of merges (or
/// key-range partitions) running concurrently. Fan-in is how many inputs
/// fit a share at the preferred buffer size, and the per-input size is the
/// share split over the actual group — so fan-in and buffer size can never
/// disagree about the budget, which the seed implementation's independent
/// 64 KiB clamps allowed.
struct MergePlan {
  size_t fan_in;
  size_t share;

  /// Buffer size for one of `k` inputs; `double_buffered` (the prefetching
  /// reader) halves it so the pair of blocks still fits the share.
  size_t InputBufferBytes(size_t k, bool double_buffered) const {
    // Every caller must group within the fan-in this plan derived from the
    // same share — the disagreement the seed implementation allowed.
    assert(k <= fan_in);
    const size_t ways = std::max<size_t>(1, k) * (double_buffered ? 2 : 1);
    const size_t per = std::max(kMergeInputFloorBytes, share / ways);
    // The total stays within the share except when the budget is already
    // below the physical minimum of fan_in == 2 floor-sized buffers (the
    // tiny-budget escape Validate permits); a fan-in derived from the
    // preferred size can never trigger the floor otherwise.
    assert(ways * per <= share || share < ways * kMergeInputFloorBytes);
    return per;
  }
};

MergePlan MakeMergePlan(const ExternalSortOptions& options,
                        size_t concurrent) {
  MergePlan plan;
  plan.share =
      options.memory_budget_bytes / 2 / std::max<size_t>(1, concurrent);
  plan.fan_in = std::max<size_t>(
      2, std::min(options.max_fan_in,
                  plan.share / kMergeInputPreferredBytes));
  return plan;
}

/// Stream over an in-memory sorted buffer.
class MemoryStream : public SortedRecordStream {
 public:
  MemoryStream(std::vector<uint8_t> data, size_t record_bytes)
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

/// Stream over a record range of a sorted run file. With a pool the reader
/// prefetches the next block in the background.
class FileStream : public SortedRecordStream {
 public:
  FileStream(size_t record_bytes, size_t buffer_bytes)
      : record_bytes_(record_bytes), reader_(buffer_bytes) {}

  Status Open(const std::string& path, ThreadPool* prefetch_pool) {
    COCONUT_RETURN_IF_ERROR(reader_.Open(path));
    count_ = reader_.file_size() / record_bytes_;
    if (prefetch_pool != nullptr) reader_.EnablePrefetch(prefetch_pool);
    return Status::OK();
  }

  /// Opens records [first, first + n) of the run at `path`. Reads are
  /// capped at the slice end so prefetch never crosses into the byte range
  /// another partition is consuming.
  Status OpenSlice(const std::string& path, uint64_t first, uint64_t n,
                   ThreadPool* prefetch_pool) {
    COCONUT_RETURN_IF_ERROR(reader_.Open(path));
    COCONUT_RETURN_IF_ERROR(reader_.Skip(first * record_bytes_));
    reader_.LimitReadsTo((first + n) * record_bytes_);
    count_ = n;
    if (prefetch_pool != nullptr) reader_.EnablePrefetch(prefetch_pool);
    return Status::OK();
  }

  bool Next(uint8_t* out, Status* status) override {
    *status = Status::OK();
    if (read_ >= count_) return false;
    *status = reader_.Read(out, record_bytes_);
    if (!status->ok()) return false;
    ++read_;
    return true;
  }

  uint64_t count() const override { return count_; }

 private:
  size_t record_bytes_;
  BufferedReader reader_;
  uint64_t count_ = 0;
  uint64_t read_ = 0;
};

/// Concatenation of sorted slices: the key-range partitioned final merge
/// writes one file per range, and chaining them in range order *is* the
/// fully sorted output — no extra copy pass.
class ChainStream : public SortedRecordStream {
 public:
  explicit ChainStream(std::vector<std::unique_ptr<SortedRecordStream>> parts)
      : parts_(std::move(parts)) {
    for (const auto& p : parts_) count_ += p->count();
  }

  bool Next(uint8_t* out, Status* status) override {
    *status = Status::OK();
    while (cur_ < parts_.size()) {
      if (parts_[cur_]->Next(out, status)) return true;
      if (!status->ok()) return false;
      ++cur_;
    }
    return false;
  }

  uint64_t count() const override { return count_; }

 private:
  std::vector<std::unique_ptr<SortedRecordStream>> parts_;
  size_t cur_ = 0;
  uint64_t count_ = 0;
};

/// Loser-tree k-way merge of `inputs` into `writer`. Ties break on the
/// input index, so runs listed in arrival order merge stably.
Status MergeStreams(std::vector<std::unique_ptr<FileStream>>* inputs,
                    size_t record_bytes, size_t key_bytes,
                    BufferedWriter* writer) {
  const size_t k = inputs->size();
  if (k == 0) return Status::OK();
  struct Cursor {
    FileStream* stream;
    std::vector<uint8_t> record;
    bool valid = false;
  };
  std::vector<Cursor> cursors(k);
  for (size_t i = 0; i < k; ++i) {
    cursors[i].stream = (*inputs)[i].get();
    cursors[i].record.resize(record_bytes);
    Status st;
    cursors[i].valid = cursors[i].stream->Next(cursors[i].record.data(), &st);
    COCONUT_RETURN_IF_ERROR(st);
  }
  auto less = [&cursors, key_bytes](size_t a, size_t b) {
    if (!cursors[a].valid) return false;
    if (!cursors[b].valid) return true;
    const int cmp = std::memcmp(cursors[a].record.data(),
                                cursors[b].record.data(), key_bytes);
    if (cmp != 0) return cmp < 0;
    return a < b;
  };
  LoserTree<decltype(less)> tree(k, less);
  while (cursors[tree.winner()].valid) {
    Cursor& c = cursors[tree.winner()];
    COCONUT_RETURN_IF_ERROR(writer->Write(c.record.data(), record_bytes));
    Status st;
    c.valid = c.stream->Next(c.record.data(), &st);
    COCONUT_RETURN_IF_ERROR(st);
    tree.Replay();
  }
  return Status::OK();
}

/// Index of the first record in the run whose key is >= `pivot` (binary
/// search over positional key reads). Equal keys land entirely on one side,
/// which is what keeps range-partitioned merging byte-identical to a global
/// merge.
Status LowerBoundRecord(RandomAccessFile* file, size_t record_bytes,
                        size_t key_bytes, const uint8_t* pivot, uint64_t n,
                        uint64_t* out) {
  uint64_t lo = 0, hi = n;
  std::vector<uint8_t> key(key_bytes);
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    COCONUT_RETURN_IF_ERROR(
        file->Read(mid * record_bytes, key_bytes, key.data()));
    if (std::memcmp(key.data(), pivot, key_bytes) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  *out = lo;
  return Status::OK();
}

/// Opens a reader over final sorted output. One budget rule for both exits
/// of Finish: `ways` concurrent drain buffers (doubled under prefetch)
/// share the merge half of the budget, capped at the default block size.
/// The stream may outlive the sorter, so it prefetches on the
/// never-destroyed shared pool, not a possibly sorter-owned one.
Status OpenDrainStream(const ExternalSortOptions& options, bool parallel,
                       const std::string& path, size_t ways,
                       std::unique_ptr<FileStream>* out) {
  const size_t drain_bytes = std::clamp<size_t>(
      options.memory_budget_bytes / 2 / (ways * (parallel ? 2 : 1)),
      kMergeInputFloorBytes, kDefaultIoBufferBytes);
  auto stream =
      std::make_unique<FileStream>(options.record_bytes, drain_bytes);
  COCONUT_RETURN_IF_ERROR(
      stream->Open(path, parallel ? ThreadPool::Shared() : nullptr));
  *out = std::move(stream);
  return Status::OK();
}

unsigned ResolveSortThreads(unsigned requested) {
  if (const char* env = std::getenv("COCONUT_SORT_THREADS")) {
    const unsigned long v = std::strtoul(env, nullptr, 10);
    if (v > 0) {
      requested = static_cast<unsigned>(
          std::min<unsigned long>(v, std::numeric_limits<unsigned>::max()));
    }
  }
  return requested;
}

}  // namespace

std::string ExternalSorter::SpillPath(const char* kind) {
  return JoinPath(options_.tmp_dir,
                  "sort-" + std::to_string(instance_token_) + "-" + kind +
                      "-" + std::to_string(next_run_id_++) + ".bin");
}

ExternalSorter::ExternalSorter(ExternalSortOptions options)
    : options_(std::move(options)) {
  static std::atomic<uint64_t> next_token{0};
  instance_token_ = next_token.fetch_add(1, std::memory_order_relaxed);
  const unsigned requested = ResolveSortThreads(options_.num_threads);
  if (requested == 1) {
    pool_ = nullptr;
    threads_ = 1;
  } else {
    ThreadPool* shared = ThreadPool::Shared();
    if (requested == 0 || requested == shared->parallelism()) {
      pool_ = shared;
      threads_ = shared->parallelism();
    } else {
      // An explicit width different from the shared pool gets its own
      // right-sized pool: num_threads then bounds run-generation chunking
      // too, not just merge concurrency.
      owned_pool_ = std::make_unique<ThreadPool>(requested);
      pool_ = owned_pool_.get();
      threads_ = requested;
    }
    if (threads_ < 2) {  // a 1-wide pool degenerates to serial
      owned_pool_.reset();
      pool_ = nullptr;
      threads_ = 1;
    }
  }
  // Reserve half the budget for run generation; the other half is available
  // to merge input buffers later (so the whole sorter respects the budget).
  // The serial path holds exactly one such buffer (records are written
  // through the sort permutation, no sorted copy); the parallel spill
  // pipeline holds two — one filling, one sorting/writing — so its ingest
  // peak is the full budget, the price of never stalling on the disk.
  buffer_capacity_records_ = std::min<size_t>(
      std::numeric_limits<uint32_t>::max(),
      std::max<size_t>(2, options_.memory_budget_bytes / 2 /
                              std::max<size_t>(1, options_.record_bytes)));
}

ExternalSorter::~ExternalSorter() {
  (void)WaitForSpill();
  for (const std::string& p : run_paths_) {
    (void)RemoveAll(p);
  }
}

Status ExternalSorter::WaitForSpill() {
  if (spill_task_ == nullptr) return Status::OK();
  spill_task_->Wait();
  spill_task_.reset();
  return spill_status_;
}

Status ExternalSorter::Add(const uint8_t* record) {
  return AddBatch(record, 1);
}

Status ExternalSorter::AddBatch(const uint8_t* records, size_t n) {
  if (finished_) return Status::Internal("Add after Finish");
  const size_t record_bytes = options_.record_bytes;
  if (buffer_.capacity() == 0 && n > 0) {
    // One reservation per buffer lifetime instead of record-by-record
    // growth: the capacity never changes, so inserts below never reallocate.
    buffer_.reserve(buffer_capacity_records_ * record_bytes);
  }
  while (n > 0) {
    const size_t staged = buffer_.size() / record_bytes;
    const size_t take = std::min(n, buffer_capacity_records_ - staged);
    buffer_.insert(buffer_.end(), records, records + take * record_bytes);
    records += take * record_bytes;
    n -= take;
    total_records_ += take;
    if (staged + take >= buffer_capacity_records_) {
      COCONUT_RETURN_IF_ERROR(SpillBuffer());
    }
  }
  return Status::OK();
}

Status ExternalSorter::SpillBuffer() {
  const size_t count = buffer_.size() / options_.record_bytes;
  if (count == 0) return Status::OK();
  // Run boundary: give up before sorting/writing another run once the
  // caller's deadline is gone (spilled runs are cleaned by the destructor).
  COCONUT_CHECK_CONTEXT(options_.context, "sort.spill");
  const std::string path = SpillPath("run");
  run_paths_.push_back(path);
  ++generated_runs_;
  if (pool_ == nullptr) {
    // Serial in-place mode: sort and write on the calling thread.
    Status st = SortAndWriteRun(buffer_, count, path);
    buffer_.clear();
    return st;
  }
  // Double-buffered spill: join the previous background spill, swap the
  // full buffer out, and keep ingesting into the (already reserved) other
  // buffer while the pool sorts and writes this one.
  COCONUT_RETURN_IF_ERROR(WaitForSpill());
  buffer_.swap(spill_buffer_);
  buffer_.clear();
  buffer_.reserve(buffer_capacity_records_ * options_.record_bytes);
  spill_task_ = std::make_shared<OneShotTask>([this, count, path]() {
    spill_status_ = SortAndWriteRun(spill_buffer_, count, path);
  });
  OneShotTask::Schedule(pool_, spill_task_);
  return Status::OK();
}

Status ExternalSorter::SortAndWriteRun(const std::vector<uint8_t>& records,
                                       size_t count,
                                       const std::string& path) {
  static Histogram* run_gen_ns =
      MetricRegistry::Default().GetHistogram("sort.run_gen_ns");
  static Histogram* spill_write_ns =
      MetricRegistry::Default().GetHistogram("sort.spill_write_ns");
  static Counter* spill_bytes =
      MetricRegistry::Default().GetCounter("sort.spill_bytes");
  static Counter* runs_spilled =
      MetricRegistry::Default().GetCounter("sort.runs_spilled");
  // This may run on a pool worker (the double-buffered background spill),
  // so establish the I/O attribution scope here, not in the caller.
  IoComponentScope io_scope("sort");
  IoDeadlineScope io_deadline(options_.context);

  Stage stage("sort.run_gen", "sort", run_gen_ns);
  RecordSortSpec spec;
  spec.base = records.data();
  spec.record_bytes = options_.record_bytes;
  spec.key_bytes = options_.key_bytes;
  spec.count = count;
  spec.use_radix = options_.use_radix;
  spec.pool = pool_;
  std::vector<uint32_t> order;
  StableSortRecords(spec, &order);

  stage.Mark("sort.spill_write", "sort", spill_write_ns);
  BufferedWriter writer;
  if (pool_ != nullptr) writer.EnableAsyncFlush(pool_);
  COCONUT_RETURN_IF_ERROR(writer.Open(path));
  const size_t record_bytes = options_.record_bytes;
  for (size_t i = 0; i < count; ++i) {
    COCONUT_RETURN_IF_ERROR(writer.Write(
        records.data() + size_t{order[i]} * record_bytes, record_bytes));
  }
  spill_bytes->Add(count * record_bytes);
  runs_spilled->Increment();
  return writer.Finish();
}

Status ExternalSorter::MergeGroup(const std::vector<std::string>& inputs,
                                  const std::string& output,
                                  size_t input_buffer_bytes) {
  static Histogram* merge_ns =
      MetricRegistry::Default().GetHistogram("sort.merge_ns");
  Stage stage("sort.merge", "sort", merge_ns);
  IoComponentScope io_scope("sort");
  IoDeadlineScope io_deadline(options_.context);
  // Merge boundary: a group merge is all-or-nothing, so poll before
  // starting one rather than mid-stream.
  COCONUT_CHECK_CONTEXT(options_.context, "sort.merge_group");
  std::vector<std::unique_ptr<FileStream>> streams;
  streams.reserve(inputs.size());
  for (const std::string& path : inputs) {
    auto stream = std::make_unique<FileStream>(options_.record_bytes,
                                               input_buffer_bytes);
    COCONUT_RETURN_IF_ERROR(stream->Open(path, pool_));
    streams.push_back(std::move(stream));
  }
  BufferedWriter writer;
  if (pool_ != nullptr) writer.EnableAsyncFlush(pool_);
  COCONUT_RETURN_IF_ERROR(writer.Open(output));
  COCONUT_RETURN_IF_ERROR(MergeStreams(&streams, options_.record_bytes,
                                       options_.key_bytes, &writer));
  return writer.Finish();
}

Status ExternalSorter::PartitionedFinalMerge(
    const std::vector<std::string>& inputs,
    std::unique_ptr<SortedRecordStream>* out) {
  static Histogram* merge_ns =
      MetricRegistry::Default().GetHistogram("sort.merge_ns");
  Stage stage("sort.final_merge", "sort", merge_ns);
  IoComponentScope io_scope("sort");
  const size_t record_bytes = options_.record_bytes;
  const size_t key_bytes = options_.key_bytes;
  const size_t k = inputs.size();

  // Per-run record counts, and the partition count the data supports.
  std::vector<std::unique_ptr<RandomAccessFile>> files(k);
  std::vector<uint64_t> counts(k);
  uint64_t total = 0;
  for (size_t i = 0; i < k; ++i) {
    COCONUT_RETURN_IF_ERROR(RandomAccessFile::Open(inputs[i], &files[i]));
    counts[i] = files[i]->size() / record_bytes;
    total += counts[i];
  }
  const size_t partitions = static_cast<size_t>(std::min<uint64_t>(
      threads_, std::max<uint64_t>(1, total / kMinRecordsPerPartition)));

  // Pivots from evenly spaced key samples of every run. Any pivot choice
  // yields the same output bytes (equal keys never straddle a boundary);
  // sampling just balances the ranges.
  std::vector<std::vector<uint8_t>> pivots;
  if (partitions > 1) {
    constexpr uint64_t kSamplesPerRun = 32;
    std::vector<std::vector<uint8_t>> samples;
    for (size_t i = 0; i < k; ++i) {
      const uint64_t s = std::min(kSamplesPerRun, counts[i]);
      for (uint64_t j = 0; j < s; ++j) {
        const uint64_t pos = counts[i] * (2 * j + 1) / (2 * s);
        std::vector<uint8_t> key(key_bytes);
        COCONUT_RETURN_IF_ERROR(
            files[i]->Read(pos * record_bytes, key_bytes, key.data()));
        samples.push_back(std::move(key));
      }
    }
    std::sort(samples.begin(), samples.end());
    for (size_t t = 1; t < partitions; ++t) {
      pivots.push_back(samples[t * samples.size() / partitions]);
    }
  }

  // boundaries[i] = record index in run i of each partition start.
  std::vector<std::vector<uint64_t>> boundaries(k);
  for (size_t i = 0; i < k; ++i) {
    boundaries[i].assign(partitions + 1, 0);
    boundaries[i][partitions] = counts[i];
    for (size_t t = 0; t < pivots.size(); ++t) {
      COCONUT_RETURN_IF_ERROR(
          LowerBoundRecord(files[i].get(), record_bytes, key_bytes,
                           pivots[t].data(), counts[i], &boundaries[i][t + 1]));
    }
  }
  files.clear();

  const MergePlan plan = MakeMergePlan(options_, partitions);
  const size_t input_bytes = plan.InputBufferBytes(k, pool_ != nullptr);

  // Each partition merges its slice of every run into an independent output
  // file; concurrent partitions touch disjoint byte ranges of the inputs
  // (pread) and their own outputs.
  std::vector<std::string> slices(partitions);
  for (size_t t = 0; t < partitions; ++t) {
    slices[t] = SpillPath("slice");
    run_paths_.push_back(slices[t]);
  }
  std::vector<Status> results(partitions);
  auto merge_partition = [&](size_t t) {
    IoDeadlineScope io_deadline(options_.context);
    std::vector<std::unique_ptr<FileStream>> streams;
    // Partition boundary poll: concurrent partitions each give up before
    // opening their slice once the deadline is gone.
    Status st = options_.context != nullptr
                    ? options_.context->Check("sort.final_merge.partition")
                    : Status::OK();
    for (size_t i = 0; i < k && st.ok(); ++i) {
      const uint64_t first = boundaries[i][t];
      const uint64_t n = boundaries[i][t + 1] - first;
      if (n == 0) continue;  // dropping empties keeps run order intact
      auto stream = std::make_unique<FileStream>(record_bytes, input_bytes);
      st = stream->OpenSlice(inputs[i], first, n, pool_);
      streams.push_back(std::move(stream));
    }
    BufferedWriter writer;
    if (pool_ != nullptr) writer.EnableAsyncFlush(pool_);
    if (st.ok()) st = writer.Open(slices[t]);
    if (st.ok()) st = MergeStreams(&streams, record_bytes, key_bytes, &writer);
    if (st.ok()) st = writer.Finish();
    results[t] = st;
  };
  if (pool_ == nullptr || partitions == 1) {
    for (size_t t = 0; t < partitions; ++t) merge_partition(t);
  } else {
    pool_->ParallelFor(0, partitions, 1, [&](uint64_t lo, uint64_t hi) {
      for (uint64_t t = lo; t < hi; ++t) merge_partition(t);
    });
  }
  for (const Status& st : results) COCONUT_RETURN_IF_ERROR(st);

  // The inputs are fully consumed; only the slices remain on disk.
  for (const std::string& path : inputs) {
    COCONUT_RETURN_IF_ERROR(RemoveAll(path));
    run_paths_.erase(std::remove(run_paths_.begin(), run_paths_.end(), path),
                     run_paths_.end());
  }

  std::vector<std::unique_ptr<SortedRecordStream>> parts;
  uint64_t streamed = 0;
  for (size_t t = 0; t < partitions; ++t) {
    std::unique_ptr<FileStream> stream;
    COCONUT_RETURN_IF_ERROR(OpenDrainStream(options_, pool_ != nullptr,
                                            slices[t], partitions, &stream));
    streamed += stream->count();
    parts.push_back(std::move(stream));
  }
  if (streamed != total) {
    return Status::Internal("partitioned merge lost records");
  }
  *out = std::make_unique<ChainStream>(std::move(parts));
  return Status::OK();
}

Status ExternalSorter::Finish(std::unique_ptr<SortedRecordStream>* out) {
  if (finished_) return Status::Internal("Finish called twice");
  finished_ = true;
  COCONUT_RETURN_IF_ERROR(options_.Validate());

  if (run_paths_.empty()) {
    // Everything fits in memory: sort and serve directly, no disk I/O.
    const size_t count = buffer_.size() / options_.record_bytes;
    RecordSortSpec spec;
    spec.base = buffer_.data();
    spec.record_bytes = options_.record_bytes;
    spec.key_bytes = options_.key_bytes;
    spec.count = count;
    spec.use_radix = options_.use_radix;
    spec.pool = pool_;
    std::vector<uint32_t> order;
    StableSortRecords(spec, &order);
    const size_t record_bytes = options_.record_bytes;
    std::vector<uint8_t> sorted(count * record_bytes);
    auto gather = [&](uint64_t lo, uint64_t hi) {
      for (uint64_t i = lo; i < hi; ++i) {
        std::memcpy(sorted.data() + i * record_bytes,
                    buffer_.data() + size_t{order[i]} * record_bytes,
                    record_bytes);
      }
    };
    if (pool_ == nullptr) {
      gather(0, count);
    } else {
      pool_->ParallelFor(0, count, 0, gather);
    }
    buffer_.clear();
    buffer_.shrink_to_fit();
    *out = std::make_unique<MemoryStream>(std::move(sorted),
                                          options_.record_bytes);
    return Status::OK();
  }

  // Spill any tail so that all data is in runs, and join the pipeline.
  Status tail = SpillBuffer();
  Status join = WaitForSpill();
  COCONUT_RETURN_IF_ERROR(tail);
  COCONUT_RETURN_IF_ERROR(join);
  buffer_.clear();
  buffer_.shrink_to_fit();
  spill_buffer_.clear();
  spill_buffer_.shrink_to_fit();

  std::vector<std::string> current = run_paths_;
  while (true) {
    // Pass boundary: each merge pass rewrites every surviving byte, so
    // this is the coarsest point where abandoning the build saves work.
    COCONUT_CHECK_CONTEXT(options_.context, "sort.merge_pass");
    if (current.size() == 1) {
      std::unique_ptr<FileStream> stream;
      COCONUT_RETURN_IF_ERROR(OpenDrainStream(options_, pool_ != nullptr,
                                              current[0], /*ways=*/1,
                                              &stream));
      *out = std::move(stream);
      return Status::OK();
    }
    // The final pass runs one key-range partitioned merge over all
    // remaining runs; it fits when every run gets an input buffer in each
    // partition's share.
    {
      const MergePlan final_plan = MakeMergePlan(options_, threads_);
      if (current.size() <= final_plan.fan_in) {
        return PartitionedFinalMerge(current, out);
      }
    }
    // Intermediate pass: merge fan-in-sized groups, concurrently when the
    // pool allows; the budget share accounts for that concurrency.
    const size_t concurrent =
        std::min<size_t>(threads_, (current.size() + 1) / 2);
    const MergePlan plan = MakeMergePlan(options_, concurrent);
    std::vector<std::vector<std::string>> groups;
    for (size_t i = 0; i < current.size(); i += plan.fan_in) {
      const size_t end = std::min(current.size(), i + plan.fan_in);
      groups.emplace_back(current.begin() + i, current.begin() + end);
    }
    std::vector<std::string> next_level(groups.size());
    std::vector<Status> results(groups.size());
    auto merge_group = [&](size_t g) {
      if (groups[g].size() == 1) {
        next_level[g] = groups[g][0];
        results[g] = Status::OK();
        return;
      }
      const std::string merged = next_level[g];
      results[g] = MergeGroup(
          groups[g], merged,
          plan.InputBufferBytes(groups[g].size(), pool_ != nullptr));
    };
    for (size_t g = 0; g < groups.size(); ++g) {
      if (groups[g].size() > 1) {
        next_level[g] = SpillPath("run");
        run_paths_.push_back(next_level[g]);
      }
    }
    if (pool_ == nullptr) {
      for (size_t g = 0; g < groups.size(); ++g) merge_group(g);
    } else {
      // Waves of at most `concurrent` merges keep the buffer total within
      // the budget share even when the pool is wider than num_threads.
      for (size_t g0 = 0; g0 < groups.size(); g0 += concurrent) {
        const size_t g1 = std::min(groups.size(), g0 + concurrent);
        pool_->ParallelFor(g0, g1, 1, [&](uint64_t lo, uint64_t hi) {
          for (uint64_t g = lo; g < hi; ++g) merge_group(g);
        });
      }
    }
    for (const Status& st : results) COCONUT_RETURN_IF_ERROR(st);
    for (const auto& group : groups) {
      if (group.size() == 1) continue;
      for (const std::string& path : group) {
        COCONUT_RETURN_IF_ERROR(RemoveAll(path));
        run_paths_.erase(
            std::remove(run_paths_.begin(), run_paths_.end(), path),
            run_paths_.end());
      }
    }
    current.swap(next_level);
  }
}

}  // namespace coconut
