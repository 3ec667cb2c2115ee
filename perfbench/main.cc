// perfbench: end-to-end benchmark binary for the Coconut library.
//
//   perfbench --workload <bulk_build|store_query|ingest_query> --seed <n>
//             --seconds <s> --trace <0|1> --work-dir <dir> --state-dir <dir>
//             [--source-id <id>] [--git-commit <sha>]
//
// Prints report lines, a provenance line, and as its last line one JSON
// object: {"correct", "attempted", "failed", "metrics"}. The end-to-end
// metrics come from a pass with tracing off; with --trace 1 the metrics are
// the per-layer ones from an additional traced setup and pass.
// perfbench/run.py builds this binary and supplies the directories.
#include <sched.h>
#include <unistd.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "perfbench/perfbench.h"
#include "src/common/env.h"
#include "src/exec/thread_pool.h"
#include "src/simd/kernels.h"

namespace {

using perfbench::Metric;

unsigned OnlineCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    out += (first ? "" : ", ") + JsonString(name) + ": {\"value\": " +
           JsonNumber(m.value) + ", \"unit\": " + JsonString(m.unit) + "}";
    first = false;
  }
  return out + "}";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir> --state-dir "
               "<dir> [--source-id <id>] [--git-commit <sha>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  std::string git_commit = "unknown";
  cfg.source_id = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      cfg.workload = value;
    } else if (key == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      cfg.trace = value == "1";
    } else if (key == "--work-dir") {
      cfg.work_dir = value;
    } else if (key == "--state-dir") {
      cfg.state_dir = value;
    } else if (key == "--source-id") {
      cfg.source_id = value;
    } else if (key == "--git-commit") {
      git_commit = value;
    } else {
      return Usage(("unknown argument " + key).c_str());
    }
  }
  const auto& names = perfbench::WorkloadNames();
  if (std::find(names.begin(), names.end(), cfg.workload) == names.end()) {
    return Usage("unknown workload");
  }
  if (cfg.work_dir.empty() || cfg.state_dir.empty() || !(cfg.seconds > 0)) {
    return Usage("--work-dir, --state-dir and a positive --seconds are required");
  }
  cfg.nproc = OnlineCpus();

  // One malloc arena: with one arena per thread, how much freed memory stays
  // resident depends on which pool thread happened to allocate what, and
  // peak_rss_mb jumps by ~20% between runs of the same seed.
  int malloc_arenas = 0;  // 0: the allocator's default
#ifdef __GLIBC__
  if (mallopt(M_ARENA_MAX, 1) == 1) malloc_arenas = 1;
#endif

  // Pool sizes and flush policy are fixed before the library's first use:
  // the shared pool reads COCONUT_THREADS once; commits never fdatasync.
  const unsigned shared = perfbench::SharedPoolThreads(cfg.workload, cfg.nproc);
  setenv("COCONUT_THREADS", std::to_string(shared).c_str(), 1);
  setenv("COCONUT_SYNC", "0", 1);
  (void)coconut::MakeDirs(cfg.work_dir);
  (void)coconut::MakeDirs(cfg.state_dir);

  const char* simd_override = std::getenv("COCONUT_SIMD");
  cfg.provenance =
      "{\"workload\": " + JsonString(cfg.workload) +
      ", \"seed\": " + std::to_string(cfg.seed) +
      ", \"seconds\": " + JsonNumber(cfg.seconds) +
      ", \"trace\": " + (cfg.trace ? "true" : "false") +
      ", \"nproc\": " + std::to_string(cfg.nproc) +
      ", \"cpu_model\": " + JsonString(CpuModel()) +
      ", \"simd_backend\": " + JsonString(coconut::simd::Kernels().name) +
      ", \"simd_override\": " +
      JsonString(simd_override != nullptr ? simd_override : "") +
      ", \"shared_pool_threads\": " +
      std::to_string(coconut::ThreadPool::Shared()->parallelism()) +
      ", \"flush_policy\": \"no fdatasync (COCONUT_SYNC=0)\"" +
      ", \"malloc_arena_max\": " + std::to_string(malloc_arenas) +
      ", \"compiler\": " + JsonString(PERFBENCH_COMPILER) +
      ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
      ", \"git_commit\": " + JsonString(git_commit) +
      ", \"source_id\": " + JsonString(cfg.source_id) + "}";

  perfbench::RunResult result;
  perfbench::RunWorkload(cfg, &result);
  (void)coconut::RemoveAll(cfg.work_dir);

  const auto& metrics = cfg.trace ? result.per_layer : result.end_to_end;
  for (const auto& [name, m] : metrics) {
    if (!std::isfinite(m.value)) result.Mismatch("metric " + name + " is not finite");
  }
  const uint64_t bad = result.failed + result.mismatched;
  const double attempted = static_cast<double>(std::max<uint64_t>(1, result.attempted));
  const double error_ratio = bad / attempted;
  if (!cfg.trace) {
    result.end_to_end["op_success_ratio"] = {1.0 - error_ratio, "ratio"};
  }

  for (const std::string& note : result.notes) std::printf("%s\n", note.c_str());
  for (const std::string& p : result.problems) std::printf("%s\n", p.c_str());
  std::printf("op_error_ratio %.6g (%llu failed, %llu mismatched of %llu)\n",
              error_ratio, (unsigned long long)result.failed,
              (unsigned long long)result.mismatched,
              (unsigned long long)result.attempted);
  std::printf("provenance %s\n", cfg.provenance.c_str());

  std::map<std::string, Metric> out = cfg.trace ? result.per_layer
                                                : result.end_to_end;
  for (auto& [name, m] : out) {
    if (!std::isfinite(m.value)) m.value = 0.0;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              bad == 0 ? "true" : "false",
              (unsigned long long)std::max<uint64_t>(1, result.attempted),
              (unsigned long long)bad, MetricsJson(out).c_str());
  std::fflush(stdout);
  return 0;
}
