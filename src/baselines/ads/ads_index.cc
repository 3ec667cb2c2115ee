#include "src/baselines/ads/ads_index.h"

#include "src/common/timer.h"
#include "src/core/sims_common.h"

namespace coconut {

Status AdsIndex::Build(const std::string& raw_path,
                       const std::string& storage_path,
                       const AdsOptions& options,
                       std::unique_ptr<AdsIndex>* out, AdsBuildStats* stats) {
  COCONUT_RETURN_IF_ERROR(options.Validate());
  AdsBuildStats local;
  AdsBuildStats* st_out = stats != nullptr ? stats : &local;

  std::unique_ptr<AdsIndex> index(new AdsIndex());
  index->options_ = options;
  index->raw_path_ = raw_path;

  Isax2Options core_opts;
  core_opts.summary = options.summary;
  core_opts.leaf_capacity = options.leaf_capacity;
  core_opts.materialized = false;  // pass 1 always indexes summaries only
  core_opts.memory_budget_bytes = options.memory_budget_bytes;
  core_opts.num_threads = options.num_threads;
  COCONUT_RETURN_IF_ERROR(Isax2Index::Create(core_opts, storage_path,
                                             raw_path, &index->core_));
  COCONUT_RETURN_IF_ERROR(RawSeriesFile::Open(
      raw_path, options.summary.series_length, &index->raw_file_));

  // Pass 1: sequential scan; top-down insertion of (SAX, position) pairs.
  Stopwatch watch;
  {
    DatasetScanner scanner;
    COCONUT_RETURN_IF_ERROR(
        scanner.Open(raw_path, options.summary.series_length));
    const size_t w = options.summary.segments;
    std::vector<Value> series(options.summary.series_length);
    std::vector<uint8_t> sax(w);
    index->sax_array_.reserve(scanner.count() * w);
    Status st;
    uint64_t position = 0;
    const uint64_t series_bytes =
        options.summary.series_length * sizeof(Value);
    while (scanner.Next(series.data(), &st)) {
      SaxFromSeries(series.data(), options.summary, sax.data());
      COCONUT_RETURN_IF_ERROR(
          index->core_->InsertSummary(sax.data(), position, nullptr));
      index->sax_array_.insert(index->sax_array_.end(), sax.begin(),
                               sax.end());
      position += series_bytes;
    }
    COCONUT_RETURN_IF_ERROR(st);
    COCONUT_RETURN_IF_ERROR(index->core_->FlushAll());
  }
  st_out->pass1_seconds = watch.ElapsedSeconds();
  st_out->num_entries = index->core_->num_entries();

  // Pass 2 (ADSFull only): materialize the raw series into the leaves.
  if (options.materialized) {
    watch.Restart();
    COCONUT_RETURN_IF_ERROR(index->MaterializeLeaves());
    st_out->materialize_seconds = watch.ElapsedSeconds();
  }

  *out = std::move(index);
  return Status::OK();
}

Status AdsIndex::MaterializeLeaves() {
  return core_->MaterializeInto(raw_path_ + ".ads-mat");
}

Status AdsIndex::ApproxSearch(const Value* query, SearchResult* result,
                              size_t k) {
  // ADS+ refines (splits) the leaf the query lands in before answering,
  // which is how leaf sizes shrink adaptively during query answering.
  if (options_.adaptive_leaf_target > 0 && !options_.materialized) {
    std::vector<uint8_t> sax(options_.summary.segments);
    SaxFromSeries(query, options_.summary, sax.data());
    COCONUT_RETURN_IF_ERROR(
        core_->RefineLeafFor(sax.data(), options_.adaptive_leaf_target));
  }
  return core_->ApproxSearch(query, result, k);
}

Status AdsIndex::ExactSearch(const Value* query, SearchResult* result,
                             size_t k) {
  SearchResult approx;
  COCONUT_RETURN_IF_ERROR(ApproxSearch(query, &approx, k));
  KnnCollector knn(k);
  knn.Seed(approx);

  const SummaryOptions& sum = options_.summary;
  QueryScratch scratch;
  scratch.Prepare(sum.series_length, sum.segments);
  PaaTransform(query, sum.series_length, sum.segments, scratch.paa.data());

  // Skip-sequential scan in raw-file order: the i-th summary corresponds to
  // the series at byte i * series_bytes.
  const uint64_t series_bytes = sum.series_length * sizeof(Value);
  uint64_t visited = 0;
  COCONUT_RETURN_IF_ERROR(SimsRefine(
      sax_array_.data(), sax_array_.size() / sum.segments, sum,
      EffectiveThreads(options_.num_threads), &knn, &scratch, &visited,
      [&](uint64_t i, double bound_sq, uint64_t* offset,
          double* dist_sq) -> Status {
        *offset = i * series_bytes;
        COCONUT_RETURN_IF_ERROR(
            raw_file_->ReadAt(*offset, scratch.fetch.data()));
        *dist_sq = SquaredEuclideanEarlyAbandon(
            scratch.fetch.data(), query, sum.series_length, bound_sq);
        return Status::OK();
      }));

  knn.Finalize(result);
  result->visited_records = approx.visited_records + visited;
  result->leaves_read = approx.leaves_read;
  return Status::OK();
}

Status AdsIndex::InsertBatch(const std::vector<Series>& batch,
                             uint64_t first_offset) {
  const SummaryOptions& sum = options_.summary;
  const uint64_t series_bytes = sum.series_length * sizeof(Value);
  std::vector<uint8_t> sax(sum.segments);
  for (size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].size() != sum.series_length) {
      return Status::InvalidArgument("batch series length mismatch");
    }
    SaxFromSeries(batch[i].data(), sum, sax.data());
    const uint64_t offset = first_offset + i * series_bytes;
    COCONUT_RETURN_IF_ERROR(core_->InsertSummary(
        sax.data(), offset,
        options_.materialized ? batch[i].data() : nullptr));
    sax_array_.insert(sax_array_.end(), sax.begin(), sax.end());
  }
  // The raw file grew: reopen both handles so fetches see the new series.
  COCONUT_RETURN_IF_ERROR(
      RawSeriesFile::Open(raw_path_, sum.series_length, &raw_file_));
  COCONUT_RETURN_IF_ERROR(core_->ReopenRaw());
  return Status::OK();
}

uint64_t AdsIndex::StorageBytes() const { return core_->StorageBytes(); }

}  // namespace coconut
