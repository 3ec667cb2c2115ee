// ADS / ADS+ / ADSFull (Zoumpatianos et al., VLDB J. 2016) — the
// state-of-the-art baseline the paper compares against.
//
// ADS builds an iSAX-style index over the summarizations only (one pass over
// the raw file), keeping the SAX words of the whole dataset in memory for
// the SIMS exact-search scan. Variants:
//  * ADS+    — non-materialized; leaves hold (SAX, position) and are
//              adaptively split into smaller leaves when queries visit them.
//  * ADSFull — a second pass materializes the raw series into the leaves
//              (random I/O when the raw file exceeds the memory budget).
//
// Exact search is SIMS (Zoumpatianos et al.): a skip-sequential scan of the
// in-memory SAX array in raw-file order, seeded by an approximate answer —
// the algorithm CoconutTreeSIMS (Algorithm 5) adapts to sorted order.
#ifndef COCONUT_BASELINES_ADS_ADS_INDEX_H_
#define COCONUT_BASELINES_ADS_ADS_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/baselines/isax2/isax2_index.h"
#include "src/common/status.h"
#include "src/core/coconut_options.h"
#include "src/series/dataset.h"

namespace coconut {

struct AdsOptions {
  SummaryOptions summary;
  size_t leaf_capacity = 2000;
  /// ADSFull materializes leaves in a second pass.
  bool materialized = false;
  size_t memory_budget_bytes = 256ull * 1024 * 1024;
  /// ADS+ splits any visited leaf down to this many entries (the adaptive
  /// refinement). 0 disables refinement (plain ADS).
  size_t adaptive_leaf_target = 200;
  unsigned num_threads = 0;

  Status Validate() const {
    COCONUT_RETURN_IF_ERROR(summary.Validate());
    if (leaf_capacity == 0) {
      return Status::InvalidArgument("leaf_capacity must be > 0");
    }
    return Status::OK();
  }
};

struct AdsBuildStats {
  double pass1_seconds = 0.0;       // summarize + top-down inserts
  double materialize_seconds = 0.0;  // ADSFull second pass
  uint64_t num_entries = 0;

  double total_seconds() const { return pass1_seconds + materialize_seconds; }
};

class AdsIndex {
 public:
  /// Builds the index over `raw_path`. Leaf pages are stored in
  /// `storage_path` (plus `<storage_path>.mat` for the ADSFull pass).
  static Status Build(const std::string& raw_path,
                      const std::string& storage_path,
                      const AdsOptions& options,
                      std::unique_ptr<AdsIndex>* out,
                      AdsBuildStats* stats = nullptr);

  /// Approximate k-NN search; for ADS+ this first adaptively refines the
  /// target leaf (split-on-access).
  Status ApproxSearch(const Value* query, SearchResult* result, size_t k = 1);

  /// Exact k-NN search via SIMS over the in-memory SAX array (raw-file
  /// order).
  Status ExactSearch(const Value* query, SearchResult* result, size_t k = 1);

  /// Top-down insertion of new series already appended to the raw file at
  /// `first_offset` (Fig 10a update workload).
  Status InsertBatch(const std::vector<Series>& batch, uint64_t first_offset);

  uint64_t num_entries() const { return core_->num_entries(); }
  uint64_t num_leaves() const { return core_->num_leaves(); }
  double AvgLeafFill() const { return core_->AvgLeafFill(); }
  /// Disk footprint: leaf pages (+ materialized pages for ADSFull).
  uint64_t StorageBytes() const;
  const AdsOptions& options() const { return options_; }

 private:
  AdsIndex() = default;

  Status MaterializeLeaves();

  AdsOptions options_;
  std::string raw_path_;
  std::unique_ptr<Isax2Index> core_;
  std::unique_ptr<RawSeriesFile> raw_file_;
  // SIMS state: SAX words of every series in raw-file order.
  std::vector<uint8_t> sax_array_;
};

}  // namespace coconut

#endif  // COCONUT_BASELINES_ADS_ADS_INDEX_H_
