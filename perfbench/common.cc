// Statistics, data generation, oracle, registry deltas and span recording
// shared by the workloads.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <thread>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "perfbench/perfbench.h"
#include "src/series/generator.h"

namespace perfbench {

void RunResult::Fail(const std::string& what) {
  ++failed;
  if (problems.size() < 8) problems.push_back("failed: " + what);
}

void RunResult::Mismatch(const std::string& what) {
  ++mismatched;
  if (problems.size() < 8) problems.push_back("mismatch: " + what);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

namespace {

/// A "<field>:   <n> kB" line of /proc/self/status, in MiB; -1 if absent.
double StatusFieldMb(const char* field) {
  std::ifstream in("/proc/self/status");
  const std::string prefix = std::string(field) + ":";
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr) / 1024.0;
    }
  }
  return -1.0;
}

}  // namespace

double RssMb() { return StatusFieldMb("VmRSS"); }

double PeakRssMb() { return StatusFieldMb("VmHWM"); }

bool ResetPeakRss() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  std::ofstream out("/proc/self/clear_refs");
  out << "5";  // 5: reset the peak RSS to the current RSS
  out.flush();
  return static_cast<bool>(out);
}

uint64_t DirBytes(const std::string& dir) {
  namespace fs = std::filesystem;
  uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

// ---------------------------------------------------------------------------

uint64_t DeriveSeed(uint64_t seed, uint64_t stream, uint64_t index) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xBF58476D1CE4E5B9ull +
               index * 0x94D049BB133111EBull + 0x2545F4914F6CDD1Dull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

namespace {

/// Runs fn(i) for i in [0, n) on `threads` threads (the caller included),
/// claiming indices from a shared cursor; joins them before returning.
void ParallelIndices(size_t n, unsigned threads,
                     const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  auto worker = [&]() {
    for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
  };
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < std::max(1u, threads); ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
}

}  // namespace

std::vector<Series> GenerateSeries(uint64_t seed, uint64_t stream,
                                   size_t count, unsigned threads) {
  constexpr size_t kChunk = 4096;
  std::vector<Series> out(count);
  const size_t chunks = (count + kChunk - 1) / kChunk;
  ParallelIndices(chunks, threads, [&](size_t c) {
    coconut::RandomWalkGenerator gen(kSeriesLength, DeriveSeed(seed, stream, c));
    const size_t end = std::min(count, (c + 1) * kChunk);
    for (size_t i = c * kChunk; i < end; ++i) out[i] = gen.NextSeries();
  });
  return out;
}

// ---------------------------------------------------------------------------

double OracleDistanceSq(const Value* a, const Value* b) {
  double total = 0.0;
  for (size_t block = 0; block < kSeriesLength; block += 32) {
    float lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    for (size_t i = block; i < block + 32; i += 8) {
      for (size_t j = 0; j < 8; ++j) {
        const float d = a[i + j] - b[i + j];
        lanes[j] += d * d;
      }
    }
    for (float lane : lanes) total += lane;
  }
  return total;
}

namespace {

/// Ascending k smallest Euclidean distances from `query` to the first
/// `prefix` series of `data`.
std::vector<double> OracleKnn(const std::vector<const Value*>& data,
                              size_t prefix, const Value* query, size_t k) {
  std::vector<double> best;  // max-heap of the k smallest squared distances
  best.reserve(k + 1);
  for (size_t i = 0; i < prefix; ++i) {
    const double d = OracleDistanceSq(data[i], query);
    if (best.size() < k) {
      best.push_back(d);
      std::push_heap(best.begin(), best.end());
    } else if (d < best.front()) {
      std::pop_heap(best.begin(), best.end());
      best.back() = d;
      std::push_heap(best.begin(), best.end());
    }
  }
  std::sort(best.begin(), best.end());
  for (double& d : best) d = std::sqrt(d);
  return best;
}

}  // namespace

std::vector<std::vector<double>> OracleKnnBatch(
    const std::vector<const Value*>& data, const std::vector<size_t>& prefixes,
    const std::vector<const Value*>& queries, size_t k, unsigned threads) {
  std::vector<std::vector<double>> out(queries.size());
  ParallelIndices(queries.size(), threads, [&](size_t q) {
    out[q] = OracleKnn(data, prefixes[q], queries[q], k);
  });
  return out;
}

std::string CheckAnswer(const coconut::SearchResult& got,
                        const std::vector<double>& truth, bool exact) {
  // The index computes distances in its own kernel; allow float rounding.
  auto tol = [](double d) { return 1e-4 * std::max(1.0, d); };
  char buf[160];
  if (got.neighbors.size() != truth.size()) {
    std::snprintf(buf, sizeof(buf), "%zu neighbors returned, expected %zu",
                  got.neighbors.size(), truth.size());
    return buf;
  }
  for (size_t i = 0; i < truth.size(); ++i) {
    const double d = got.neighbors[i].distance;
    const bool ok = exact ? std::fabs(d - truth[i]) <= tol(truth[i])
                          : d >= truth[i] - tol(truth[i]);
    if (!ok || !std::isfinite(d)) {
      std::snprintf(buf, sizeof(buf), "%s rank %zu: distance %.6f, oracle %.6f",
                    exact ? "exact" : "approx", i, d, truth[i]);
      return buf;
    }
  }
  return "";
}

// ---------------------------------------------------------------------------

coconut::RegistrySnapshot RegistryNow() {
  return coconut::MetricRegistry::Default().Snapshot();
}

uint64_t RegistryDelta::Counter(const std::string& name) const {
  auto a = after.counters.find(name);
  if (a == after.counters.end()) return 0;
  auto b = before.counters.find(name);
  return a->second - (b == before.counters.end() ? 0 : b->second);
}

coconut::HistogramSnapshot RegistryDelta::Histogram(
    const std::string& name) const {
  auto a = after.histograms.find(name);
  if (a == after.histograms.end()) return {};
  auto b = before.histograms.find(name);
  if (b == before.histograms.end()) return a->second;
  return a->second.Delta(b->second);
}

std::vector<std::pair<std::string, double>> RegistryDelta::Changed() const {
  std::vector<std::pair<std::string, double>> out;
  for (const auto& entry : after.counters) {
    const uint64_t d = Counter(entry.first);
    if (d != 0) out.emplace_back(entry.first, static_cast<double>(d));
  }
  for (const auto& entry : after.histograms) {
    const coconut::HistogramSnapshot d = Histogram(entry.first);
    if (d.count == 0) continue;
    out.emplace_back(entry.first + ".count", static_cast<double>(d.count));
    out.emplace_back(entry.first + ".sum", static_cast<double>(d.sum));
  }
  return out;
}

// ---------------------------------------------------------------------------

namespace {

thread_local uint64_t t_open_span = 0;
thread_local uint64_t t_open_request = 0;
std::atomic<uint64_t> g_next_span{1};
std::atomic<uint64_t> g_next_request{1};
std::atomic<uint32_t> g_next_thread{1};

uint32_t ThreadTag() {
  thread_local const uint32_t tag = g_next_thread.fetch_add(1);
  return tag;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

uint64_t NextRequestId() { return g_next_request.fetch_add(1); }

ScopedSpan::ScopedSpan(SpanRecorder* recorder, const char* name,
                       uint64_t request)
    : recorder_(recorder != nullptr && recorder->enabled() ? recorder
                                                           : nullptr) {
  if (recorder_ == nullptr) return;
  span_.id = g_next_span.fetch_add(1);
  span_.parent = t_open_span;
  span_.request = request != 0 ? request : t_open_request;
  span_.name = name;
  span_.thread = ThreadTag();
  saved_parent_ = t_open_span;
  saved_request_ = t_open_request;
  t_open_span = span_.id;
  t_open_request = span_.request;
  span_.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - recorder_->origin_)
                       .count();
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ == nullptr) return;
  span_.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     Clock::now() - recorder_->origin_)
                     .count();
  t_open_span = saved_parent_;
  t_open_request = saved_request_;
  recorder_->Commit(std::move(span_));
}

void ScopedSpan::Add(const std::string& key, double value) {
  if (recorder_ != nullptr) span_.counters.emplace_back(key, value);
}

void ScopedSpan::AddAll(
    const std::vector<std::pair<std::string, double>>& counters) {
  if (recorder_ == nullptr) return;
  span_.counters.insert(span_.counters.end(), counters.begin(), counters.end());
}

void ScopedSpan::AddIo(const std::string& prefix,
                       const coconut::IoSnapshot& d) {
  if (recorder_ == nullptr) return;
  Add(prefix + ".read_ops", static_cast<double>(d.read_ops));
  Add(prefix + ".random_read_ops", static_cast<double>(d.random_read_ops));
  Add(prefix + ".bytes_read", static_cast<double>(d.bytes_read));
  Add(prefix + ".write_ops", static_cast<double>(d.write_ops));
  Add(prefix + ".random_write_ops", static_cast<double>(d.random_write_ops));
  Add(prefix + ".bytes_written", static_cast<double>(d.bytes_written));
}

void SpanRecorder::Commit(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

Status SpanRecorder::WriteChromeTrace(const std::string& path,
                                      const std::string& header) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Self time per span name: duration minus the time covered by direct
  // children (children of one span never overlap: each is a call the
  // parent's thread made and waited for).
  std::map<uint64_t, int64_t> child_ns;
  for (const Span& s : spans_) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  struct Totals {
    uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Totals> by_name;
  for (const Span& s : spans_) {
    Totals& t = by_name[s.name];
    const int64_t dur = s.end_ns - s.start_ns;
    ++t.count;
    t.total_ms += dur / 1e6;
    auto it = child_ns.find(s.id);
    t.self_ms += (dur - (it == child_ns.end() ? 0 : it->second)) / 1e6;
  }

  std::ofstream out(path);
  if (!out) return Status::IOError("cannot write " + path);
  out << "{\"metadata\": " << header << ",\n\"self_time\": {";
  bool first = true;
  for (const auto& [name, t] : by_name) {
    out << (first ? "" : ",") << "\n  \"" << JsonEscape(name)
        << "\": {\"count\": " << t.count << ", \"total_ms\": " << t.total_ms
        << ", \"self_ms\": " << t.self_ms << "}";
    first = false;
  }
  out << "},\n\"traceEvents\": [";
  first = true;
  char num[64];
  for (const Span& s : spans_) {
    out << (first ? "" : ",") << "\n{\"name\":\"" << JsonEscape(s.name)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
        << ",\"ts\":" << s.start_ns / 1000.0
        << ",\"dur\":" << (s.end_ns - s.start_ns) / 1000.0
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request;
    for (const auto& [key, value] : s.counters) {
      std::snprintf(num, sizeof(num), "%.17g", value);
      out << ",\"" << JsonEscape(key) << "\":" << num;
    }
    out << "}}";
    first = false;
  }
  out << "\n]}\n";
  out.close();
  if (!out) return Status::IOError("short write to " + path);
  return Status::OK();
}

}  // namespace perfbench
