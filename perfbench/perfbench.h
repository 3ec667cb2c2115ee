// End-to-end benchmark for the Coconut library: shared pieces of the three
// workloads (bulk_build, store_query, ingest_query) — run configuration,
// result collection, sample statistics, the brute-force oracle, and the
// span recorder used by traced runs. See perfbench/README.md.
#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/core/coconut_options.h"
#include "src/io/io_stats.h"
#include "src/obs/metrics.h"
#include "src/series/series.h"

namespace perfbench {

using coconut::Series;
using coconut::Status;
using coconut::Value;

constexpr size_t kSeriesLength = 256;

// ---------------------------------------------------------------------------
// Run configuration and result.

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;    // scratch directory, removed by the caller
  std::string state_dir;   // persists across runs: span and counter files
  std::string source_id;   // digest of the library sources being measured
  std::string provenance;  // JSON object describing machine and build
  unsigned nproc = 1;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run produces. `end_to_end` comes from the untraced
/// pass, `per_layer` from the traced pass (empty when tracing is off).
struct RunResult {
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  uint64_t attempted = 0;
  uint64_t failed = 0;       // non-OK status from the library
  uint64_t mismatched = 0;   // oracle mismatches and counter drift
  std::vector<std::string> problems;  // first few failure descriptions
  std::vector<std::string> notes;     // human-readable report lines

  void Fail(const std::string& what);
  void Mismatch(const std::string& what);
};

/// Workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Threads the library's shared pool may use under `workload`, so that the
/// benchmark never keeps more than `nproc` threads busy.
unsigned SharedPoolThreads(const std::string& workload, unsigned nproc);

/// Runs one named workload. With tracing on, writes the spans to
/// `<state_dir>/spans-<workload>.json`.
void RunWorkload(const RunConfig& config, RunResult* result);

// ---------------------------------------------------------------------------
// Time and statistics.

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Quantile with linear interpolation between closest ranks (q in [0, 1]).
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }
double Mean(const std::vector<double>& v);

/// Resident set size of this process, MiB: now, and the peak since the
/// process started or since the last ResetPeakRss().
double RssMb();
double PeakRssMb();

/// Hands freed heap pages back to the kernel (glibc), so that memory reused
/// from then on counts as resident again, and resets the peak RSS to the
/// current RSS (Linux /proc/self/clear_refs). Returns false when the kernel
/// refuses the reset.
bool ResetPeakRss();

/// Total bytes of regular files under `dir` (recursive).
uint64_t DirBytes(const std::string& dir);

// ---------------------------------------------------------------------------
// Data generation (deterministic in the seed, independent of thread count).

/// `count` random-walk series of length kSeriesLength, z-normalized,
/// generated in fixed 4096-series chunks, each from its own derived seed.
std::vector<Series> GenerateSeries(uint64_t seed, uint64_t stream,
                                   size_t count, unsigned threads);

/// SplitMix64 step: derives independent seeds from (seed, stream, index).
uint64_t DeriveSeed(uint64_t seed, uint64_t stream, uint64_t index);

// ---------------------------------------------------------------------------
// Brute-force oracle. Independent of the library's SIMD kernels: a plain
// eight-lane float accumulation summed in double.

double OracleDistanceSq(const Value* a, const Value* b);

/// Ascending k smallest Euclidean distances from each query to a prefix of
/// `data` (query i over the first prefixes[i] series), spread over
/// `threads` threads.
std::vector<std::vector<double>> OracleKnnBatch(
    const std::vector<const Value*>& data, const std::vector<size_t>& prefixes,
    const std::vector<const Value*>& queries, size_t k, unsigned threads);

/// Tie-aware comparison of a returned neighbor list against the oracle's
/// distances. Exact: every rank matches within tolerance. Approximate:
/// no rank beats the exact answer at that rank. Returns "" when the answer
/// is correct, otherwise a description of the first difference.
std::string CheckAnswer(const coconut::SearchResult& got,
                        const std::vector<double>& truth, bool exact);

// ---------------------------------------------------------------------------
// Registry deltas.

struct RegistryDelta {
  coconut::RegistrySnapshot before;
  coconut::RegistrySnapshot after;

  uint64_t Counter(const std::string& name) const;
  coconut::HistogramSnapshot Histogram(const std::string& name) const;
  /// Every counter that changed and the count/sum of every histogram that
  /// recorded samples, as (name, delta) pairs.
  std::vector<std::pair<std::string, double>> Changed() const;
};

coconut::RegistrySnapshot RegistryNow();

// ---------------------------------------------------------------------------
// Span recorder. One span per call the benchmark makes into a library
// layer: name, start, end, parent span, request id, and the counter deltas
// the call produced. Spans stay in memory and are written out by
// WriteChromeTrace at exit. With tracing off every operation is a no-op.

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t request = 0;
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    uint32_t thread = 0;
    std::vector<std::pair<std::string, double>> counters;
  };

  /// Writes the spans as Chrome trace-event JSON, with `header` (a JSON
  /// object) stored under "metadata", and a per-name self-time table.
  Status WriteChromeTrace(const std::string& path,
                          const std::string& header) const;
  size_t size() const;

 private:
  friend class ScopedSpan;
  void Commit(Span span);

  bool enabled_;
  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span: nests under the calling thread's innermost open span and
/// inherits its request id unless one is given.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  bool active() const { return recorder_ != nullptr; }
  void Add(const std::string& key, double value);
  void AddAll(const std::vector<std::pair<std::string, double>>& counters);
  void AddIo(const std::string& prefix, const coconut::IoSnapshot& delta);

 private:
  SpanRecorder* recorder_;  // null when tracing is off
  SpanRecorder::Span span_;
  uint64_t saved_parent_ = 0;
  uint64_t saved_request_ = 0;
};

/// Fresh request id for a top-level operation.
uint64_t NextRequestId();

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
