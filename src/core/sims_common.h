// The one SIMS search core (paper Algorithm 5) shared by Coconut-Tree,
// Coconut-Trie and the ADS baseline: the load-once, CRC-verified `.sax`
// sidecar (SimsSidecar), CRC-verified leaf-page reads (SimsIndex::ReadPage),
// the approximate window scan (SimsApproxSearch, Algorithm 4), and the
// parallel MINDIST pass plus skip-sequential refine (SimsRefine,
// SimsExactSearch). Each index supplies only what differs — how a key routes
// to a page, how many live entries a page holds, where entry i of the sorted
// order lives — as template callbacks (lambdas), so the hot loops pay no
// indirect call.
#ifndef COCONUT_CORE_SIMS_COMMON_H_
#define COCONUT_CORE_SIMS_COMMON_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/common/context.h"
#include "src/common/sync.h"
#include "src/core/knn.h"
#include "src/core/query_scratch.h"
#include "src/core/tree_format.h"
#include "src/io/buffered_io.h"
#include "src/io/file.h"
#include "src/obs/stage.h"
#include "src/series/dataset.h"
#include "src/series/distance.h"
#include "src/summary/invsax.h"
#include "src/summary/paa.h"
#include "src/summary/sax.h"

namespace coconut {

/// Computes MindistSqPaaToSax(query_paa, sax[i]) for every i in [0, n) into
/// `out` (resized), splitting the range across `threads` workers.
void ParallelMindists(const double* query_paa, const uint8_t* sax_array,
                      uint64_t n, const SummaryOptions& opts, unsigned threads,
                      std::vector<double>* out);

/// Counts one checksum comparison in io.checksum.{verified,failed}; on a
/// mismatch returns Corruption("<what> checksum mismatch: <path>").
Status VerifyCrc(uint32_t actual, uint32_t expected, const char* what,
                 const std::string& path);

/// Reads the superblock of a tree or trie index file, checks its magic and
/// version, verifies its CRC when the format has one, and derives the
/// options the index was built with.
template <typename Superblock>
Status ReadSuperblock(RandomAccessFile* file, Superblock* super,
                      CoconutOptions* options) {
  std::vector<uint8_t> sb(kSuperblockBytes);
  COCONUT_RETURN_IF_ERROR(file->Read(0, kSuperblockBytes, sb.data()));
  std::memcpy(super, sb.data(), sizeof(Superblock));
  COCONUT_RETURN_IF_ERROR(super->Check());
  if (super->has_checksums()) {
    COCONUT_RETURN_IF_ERROR(VerifyCrc(SuperblockCrc(*super),
                                      super->superblock_crc, "superblock",
                                      file->path()));
  }
  options->summary.series_length = super->series_length;
  options->summary.segments = super->segments;
  options->summary.cardinality_bits =
      static_cast<unsigned>(super->cardinality_bits);
  options->leaf_capacity = super->leaf_capacity;
  options->materialized = super->materialized != 0;
  return Status::OK();
}

/// Reads the integrity section at `offset`: one CRC per leaf page, then the
/// CRC of the index's other region (tree internal levels, trie node table).
Status ReadIntegritySection(RandomAccessFile* file, uint64_t offset,
                            uint64_t num_pages,
                            std::vector<uint32_t>* page_crcs,
                            uint32_t* region_crc);

/// Writes the sidecar record (SAX word + raw offset) for one leaf entry; the
/// SAX word is recovered from the interleaved key, so the sidecar costs no
/// extra information (paper §4.1: the transform is invertible).
Status AppendSidecarRecord(const uint8_t* entry, const SummaryOptions& sum,
                           std::vector<uint8_t>* scratch,
                           BufferedWriter* sidecar, uint32_t* sidecar_crc);

/// Total on-disk size of an index: its file plus its `.sax` sidecar.
Status IndexSizeBytes(const std::string& index_path, uint64_t* bytes);

/// The `.sax` sidecar of a tree or trie: [SAX word: segments bytes][raw
/// offset: 8 bytes LE] per entry, in leaf order. The handle is opened with
/// the index (so a snapshot holder can still load it after compaction
/// unlinks the file); the arrays load on the first exact query.
class SimsSidecar {
 public:
  /// (Re)opens `path` best-effort and drops any loaded arrays: a missing
  /// sidecar is tolerated until Load, since approximate search does not
  /// need it. `expected_crc` is the CRC32C of the whole file, or null when
  /// the format has none. Not safe to run concurrently with Load.
  void Open(const std::string& path, uint64_t num_entries, size_t segments,
            const uint32_t* expected_crc);

  /// Load-once latch: the first caller reads and verifies the file;
  /// concurrent callers block on the mutex and find it loaded. The arrays
  /// are immutable afterwards, so the steady state is one acquire-load.
  Status Load() const;

  const uint8_t* sax() const { return sax_.data(); }
  const uint64_t* offsets() const { return offsets_.data(); }

 private:
  std::string path_;
  uint64_t num_entries_ = 0;
  size_t segments_ = 0;
  bool has_crc_ = false;
  uint32_t crc_ = 0;
  // Mutable: Load may retry the open under mu_. The arrays carry no
  // GUARDED_BY: after the latch publishes, readers touch them without the
  // mutex (the release/acquire pair on loaded_ is the ordering).
  mutable Mutex mu_;
  mutable std::atomic<bool> loaded_{false};
  mutable std::unique_ptr<RandomAccessFile> file_;
  mutable std::vector<uint8_t> sax_;
  mutable std::vector<uint64_t> offsets_;
};

/// Span and context-poll names one index reports its searches under.
struct SimsSites {
  const char* route;         // span: key -> target page
  const char* approx;        // span: window scan
  const char* refine;        // span: lower bounds + skip-sequential pass
  const char* approx_page;   // poll per window page
  const char* approx_fetch;  // poll per raw fetch in the window
  const char* exact_page;    // poll per materialized page in the refine
  const char* exact_fetch;   // poll per raw fetch in the refine
};

/// Where entry i of the sorted order lives in a materialized index.
struct EntryLocation {
  uint64_t page;
  size_t slot;
};

/// Read-side view of one tree or trie, built per query by the index.
struct SimsIndex {
  const SimsSites* sites;
  RandomAccessFile* file;           // index file
  RawSeriesFile* raw;               // dataset (non-materialized fetches)
  const SimsSidecar* sidecar;
  const std::vector<uint32_t>* page_crcs;  // empty: unchecked (v1 tree)
  const SummaryOptions* summary;
  bool materialized;
  unsigned num_threads;             // lower-bound pass; 0 = all cores
  size_t entry_bytes;
  size_t page_bytes;
  uint64_t num_pages;
  uint64_t num_entries;

  /// Reads leaf page `page` into `buf` and verifies its CRC.
  Status ReadPage(uint64_t page, std::vector<uint8_t>* buf) const;

  /// One raw-file fetch + distance. Each fetch is real I/O, so the context
  /// is polled per fetch (a per-page poll is too coarse here).
  Status RawDistanceSq(uint64_t offset, const Value* query, double bound_sq,
                       QueryScratch* scratch, const char* fetch_site,
                       double* dist_sq) const {
    COCONUT_CHECK_CONTEXT(scratch->context, fetch_site);
    COCONUT_RETURN_IF_ERROR(raw->ReadAt(offset, scratch->fetch.data()));
    *dist_sq = SquaredEuclideanEarlyAbandon(
        scratch->fetch.data(), query, summary->series_length, bound_sq);
    return Status::OK();
  }
};

/// SIMS lower-bound pass and skip-sequential refine over `n` summaries
/// (`sax`, stride summary.segments). `fetch(i, bound_sq, &offset, &dist_sq)`
/// computes the true distance of entry i; it runs only for entries whose
/// MINDIST is under the current k-th best distance. Returns the number of
/// entries fetched in `*visited`. scratch->paa must hold the query's PAA.
template <typename Fetch>
Status SimsRefine(const uint8_t* sax, uint64_t n, const SummaryOptions& sum,
                  unsigned threads, KnnCollector* knn, QueryScratch* scratch,
                  uint64_t* visited, const Fetch& fetch) {
  std::vector<double>& mindists = scratch->mindists;
  ParallelMindists(scratch->paa.data(), sax, n, sum, threads, &mindists);
  *visited = 0;
  for (uint64_t i = 0; i < n; ++i) {
    if (mindists[i] >= knn->bound_sq()) continue;
    uint64_t offset;
    double d;
    COCONUT_RETURN_IF_ERROR(fetch(i, knn->bound_sq(), &offset, &d));
    ++*visited;
    knn->Offer(offset, d);
  }
  return Status::OK();
}

/// Approximate k-NN (Algorithm 4): `route(key)` names the page the query's
/// invSAX key falls in; a window of `window` contiguous pages centred on
/// it is scanned. `page_entries(p)` is the live entry count of page p.
template <typename Route, typename PageEntries>
Status SimsApproxSearch(const SimsIndex& ix, const Value* query,
                        size_t window, size_t k, QueryScratch* scratch,
                        SearchResult* result, const Route& route,
                        const PageEntries& page_entries) {
  if (window == 0) window = 1;
  QueryTrace* const trace = scratch->trace;
  Stage stage(ix.sites->route, "query", nullptr,
              trace != nullptr ? &trace->route_ns : nullptr);
  const SummaryOptions& sum = *ix.summary;
  scratch->Prepare(sum.series_length, sum.segments);
  PaaTransform(query, sum.series_length, sum.segments, scratch->paa.data());
  SaxFromPaa(scratch->paa.data(), sum, scratch->sax.data());
  const uint64_t target = route(InvSaxFromSax(scratch->sax.data(), sum));
  stage.Mark(ix.sites->approx, "query", nullptr,
             trace != nullptr ? &trace->approx_ns : nullptr);
  // Window of `window` contiguous pages centred on the target (paper: "all
  // data series in a specific radius from this specific point").
  uint64_t lo = target > (window - 1) / 2 ? target - (window - 1) / 2 : 0;
  const uint64_t hi = std::min<uint64_t>(ix.num_pages - 1, lo + window - 1);
  lo = (hi + 1 >= window) ? hi + 1 - window : 0;

  KnnCollector knn(k);
  uint64_t visited = 0;
  std::vector<uint8_t>& page = scratch->page;
  for (uint64_t p = lo; p <= hi; ++p) {
    COCONUT_CHECK_CONTEXT(scratch->context, ix.sites->approx_page);
    COCONUT_RETURN_IF_ERROR(ix.ReadPage(p, &page));
    const size_t cnt = page_entries(p);
    for (size_t i = 0; i < cnt; ++i) {
      const uint8_t* entry = page.data() + i * ix.entry_bytes;
      double d;
      if (ix.materialized) {
        d = SquaredEuclideanEarlyAbandon(LeafEntrySeries(entry), query,
                                         sum.series_length, knn.bound_sq());
      } else {
        COCONUT_RETURN_IF_ERROR(ix.RawDistanceSq(
            DecodeLeafEntryOffset(entry), query, knn.bound_sq(), scratch,
            ix.sites->approx_fetch, &d));
      }
      ++visited;
      knn.Offer(DecodeLeafEntryOffset(entry), d);
    }
  }
  knn.Finalize(result);
  result->visited_records = visited;
  result->leaves_read = hi - lo + 1;
  stage.End();
  if (trace != nullptr) {
    trace->leaves_visited += hi - lo + 1;
    trace->records_fetched += visited;
  }
  return Status::OK();
}

/// Exact k-NN (Algorithm 5): loads the sidecar once, seeds the best-so-far
/// set with `seed(&approx)` (the index's approximate search), then runs
/// SimsRefine in sorted order. Materialized entries are read from their
/// leaf pages — `locate(i)` names entry i's page and slot, and one page is
/// cached — otherwise from the raw file at the sidecar's offset.
template <typename Seed, typename Locate>
Status SimsExactSearch(const SimsIndex& ix, const Value* query, size_t k,
                       QueryScratch* scratch, SearchResult* result,
                       const Seed& seed, const Locate& locate) {
  // Lines 3-4: load the in-memory summarizations once.
  COCONUT_RETURN_IF_ERROR(ix.sidecar->Load());
  // Line 6: seed the best-so-far set with the approximate answers.
  SearchResult approx;
  COCONUT_RETURN_IF_ERROR(seed(&approx));
  KnnCollector knn(k);
  knn.Seed(approx);

  // Refine stage: lower bounds + skip-sequential scan.
  QueryTrace* const trace = scratch->trace;
  Stage stage(ix.sites->refine, "query", nullptr,
              trace != nullptr ? &trace->refine_ns : nullptr);
  const SummaryOptions& sum = *ix.summary;
  scratch->Prepare(sum.series_length, sum.segments);
  PaaTransform(query, sum.series_length, sum.segments, scratch->paa.data());

  std::vector<uint8_t>& page = scratch->page;
  uint64_t cached_page = std::numeric_limits<uint64_t>::max();
  uint64_t pages_read = 0;
  const uint64_t* offsets = ix.sidecar->offsets();
  uint64_t visited = 0;
  COCONUT_RETURN_IF_ERROR(SimsRefine(
      ix.sidecar->sax(), ix.num_entries, sum,
      EffectiveThreads(ix.num_threads), &knn, scratch,
      &visited,
      [&](uint64_t i, double bound_sq, uint64_t* offset,
          double* dist_sq) -> Status {
        if (!ix.materialized) {
          *offset = offsets[i];
          return ix.RawDistanceSq(*offset, query, bound_sq, scratch,
                                  ix.sites->exact_fetch, dist_sq);
        }
        const EntryLocation loc = locate(i);
        if (loc.page != cached_page) {
          COCONUT_CHECK_CONTEXT(scratch->context, ix.sites->exact_page);
          COCONUT_RETURN_IF_ERROR(ix.ReadPage(loc.page, &page));
          cached_page = loc.page;
          ++pages_read;
        }
        const uint8_t* entry = page.data() + loc.slot * ix.entry_bytes;
        *offset = DecodeLeafEntryOffset(entry);
        *dist_sq = SquaredEuclideanEarlyAbandon(
            LeafEntrySeries(entry), query, sum.series_length, bound_sq);
        return Status::OK();
      }));

  knn.Finalize(result);
  result->visited_records = approx.visited_records + visited;
  result->leaves_read = approx.leaves_read + pages_read;
  stage.End();
  if (trace != nullptr) {
    trace->leaves_visited += pages_read;
    trace->records_fetched += visited;
    trace->pruned_mindist += ix.num_entries - visited;
  }
  return Status::OK();
}

}  // namespace coconut

#endif  // COCONUT_CORE_SIMS_COMMON_H_
