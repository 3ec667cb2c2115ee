#include "src/core/sims_common.h"

#include <algorithm>
#include <cstring>

#include "src/common/crc32c.h"
#include "src/common/env.h"
#include "src/exec/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/summary/mindist.h"

namespace coconut {

void ParallelMindists(const double* query_paa, const uint8_t* sax_array,
                      uint64_t n, const SummaryOptions& opts, unsigned threads,
                      std::vector<double>* out) {
  out->resize(n);
  if (threads == 0) threads = 1;
  const size_t w = opts.segments;
  double* dst = out->data();
  // One batched-kernel call per contiguous chunk of SAX records (record
  // stride == w bytes here) instead of a per-entry call: the SIMD backend
  // amortizes its table setup and the call overhead across the chunk.
  const auto body = [&](uint64_t begin, uint64_t end) {
    MindistSqPaaToSaxBatch(query_paa, sax_array + begin * w, w, end - begin,
                           opts, dst + begin);
  };
  if (threads == 1 || n < 2) {
    body(0, n);  // serial fallback: no pool round-trip for 1-thread configs
    return;
  }
  // Route through the shared pool instead of spawning std::threads per
  // query; `threads` bounds the chunking, the pool bounds the parallelism.
  const uint64_t grain = std::max<uint64_t>(1, (n + threads - 1) / threads);
  ThreadPool::Shared()->ParallelFor(0, n, grain, body);
}

Status VerifyCrc(uint32_t actual, uint32_t expected, const char* what,
                 const std::string& path) {
  static Counter* verified =
      MetricRegistry::Default().GetCounter("io.checksum.verified");
  static Counter* failed =
      MetricRegistry::Default().GetCounter("io.checksum.failed");
  if (actual != expected) {
    failed->Increment();
    return Status::Corruption(std::string(what) + " checksum mismatch: " +
                              path);
  }
  verified->Increment();
  return Status::OK();
}

Status ReadIntegritySection(RandomAccessFile* file, uint64_t offset,
                            uint64_t num_pages,
                            std::vector<uint32_t>* page_crcs,
                            uint32_t* region_crc) {
  const uint64_t need = (num_pages + 1) * 4;
  if (offset < kSuperblockBytes || offset + need > file->size()) {
    return Status::Corruption("integrity section out of range: " +
                              file->path());
  }
  std::vector<uint8_t> crcs(need);
  COCONUT_RETURN_IF_ERROR(file->Read(offset, need, crcs.data()));
  page_crcs->resize(num_pages);
  for (uint64_t i = 0; i < num_pages; ++i) {
    (*page_crcs)[i] = DecodeCrc32LE(crcs.data() + i * 4);
  }
  *region_crc = DecodeCrc32LE(crcs.data() + num_pages * 4);
  return Status::OK();
}

Status AppendSidecarRecord(const uint8_t* entry, const SummaryOptions& sum,
                           std::vector<uint8_t>* scratch,
                           BufferedWriter* sidecar, uint32_t* sidecar_crc) {
  scratch->resize(sum.segments + 8);
  SaxFromInvSax(DecodeLeafEntryKey(entry), sum, scratch->data());
  const uint64_t offset = DecodeLeafEntryOffset(entry);
  std::memcpy(scratch->data() + sum.segments, &offset, 8);
  *sidecar_crc = crc32c::Extend(*sidecar_crc, scratch->data(),
                                scratch->size());
  return sidecar->Write(scratch->data(), scratch->size());
}

Status IndexSizeBytes(const std::string& index_path, uint64_t* bytes) {
  uint64_t index_bytes = 0;
  uint64_t sidecar_bytes = 0;
  COCONUT_RETURN_IF_ERROR(FileSize(index_path, &index_bytes));
  COCONUT_RETURN_IF_ERROR(FileSize(index_path + ".sax", &sidecar_bytes));
  *bytes = index_bytes + sidecar_bytes;
  return Status::OK();
}

void SimsSidecar::Open(const std::string& path, uint64_t num_entries,
                       size_t segments, const uint32_t* expected_crc) {
  path_ = path;
  num_entries_ = num_entries;
  segments_ = segments;
  has_crc_ = expected_crc != nullptr;
  crc_ = has_crc_ ? *expected_crc : 0;
  loaded_.store(false, std::memory_order_release);
  sax_.clear();
  offsets_.clear();
  file_.reset();
  (void)RandomAccessFile::Open(path_, &file_);
}

Status SimsSidecar::Load() const {
  if (loaded_.load(std::memory_order_acquire)) return Status::OK();
  MutexLock lock(&mu_);
  if (loaded_.load(std::memory_order_relaxed)) return Status::OK();
  if (file_ == nullptr) {
    // Open() tolerated a missing sidecar (approx-only usage); retry here
    // so a later-restored file still works.
    COCONUT_RETURN_IF_ERROR(RandomAccessFile::Open(path_, &file_));
  }
  const size_t w = segments_;
  const uint64_t n = num_entries_;
  const size_t rec_bytes = w + 8;
  if (file_->size() != n * rec_bytes) {
    return Status::Corruption("sidecar size mismatch: " + path_);
  }
  std::vector<uint8_t> sax(n * w);
  std::vector<uint64_t> offsets(n);
  // Read through the handle opened at Open() time: the file may already be
  // unlinked (compaction), but the descriptor keeps its data reachable.
  // Large chunks keep this O(N/B) block reads, not O(N) syscalls.
  const size_t chunk_recs =
      std::max<size_t>(1, (4u << 20) / rec_bytes);  // ~4 MiB per read
  std::vector<uint8_t> buf(chunk_recs * rec_bytes);
  uint32_t crc = 0;
  for (uint64_t base = 0; base < n; base += chunk_recs) {
    const uint64_t m = std::min<uint64_t>(chunk_recs, n - base);
    COCONUT_RETURN_IF_ERROR(
        file_->Read(base * rec_bytes, m * rec_bytes, buf.data()));
    crc = crc32c::Extend(crc, buf.data(), m * rec_bytes);
    for (uint64_t i = 0; i < m; ++i) {
      const uint8_t* rec = buf.data() + i * rec_bytes;
      std::memcpy(sax.data() + (base + i) * w, rec, w);
      std::memcpy(&offsets[base + i], rec + w, 8);
    }
  }
  if (has_crc_) {
    COCONUT_RETURN_IF_ERROR(VerifyCrc(crc, crc_, "sidecar", path_));
  }
  sax_ = std::move(sax);
  offsets_ = std::move(offsets);
  loaded_.store(true, std::memory_order_release);
  return Status::OK();
}

Status SimsIndex::ReadPage(uint64_t page, std::vector<uint8_t>* buf) const {
  if (page >= num_pages) {
    return Status::InvalidArgument("leaf page index out of range");
  }
  buf->resize(page_bytes);
  COCONUT_RETURN_IF_ERROR(
      file->Read(kSuperblockBytes + page * page_bytes, page_bytes, buf->data()));
  if (page_crcs->empty()) return Status::OK();
  // The page was read whole anyway; the CRC pass is cache-resident work.
  return VerifyCrc(crc32c::Value(buf->data(), buf->size()),
                   (*page_crcs)[page], "leaf page", file->path());
}

}  // namespace coconut
