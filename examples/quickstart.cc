// Quickstart: generate a dataset, bulk-load a Coconut-Tree, and run
// approximate and exact nearest-neighbor queries.
//
//   $ ./build/quickstart
//
// The public API in a nutshell:
//   1. Datasets are headerless float32 files (WriteDataset / RawSeriesFile).
//   2. CoconutTree::Build externally sorts (invSAX, position) pairs and
//      bulk-loads a balanced, contiguous index (paper Algorithm 3).
//   3. ApproxSearch visits a window of contiguous leaves (Algorithm 4);
//      ExactSearch runs the CoconutTreeSIMS scan (Algorithm 5).
#include <cstdio>

#include "src/common/env.h"
#include "src/core/coconut_tree.h"
#include "src/series/dataset.h"
#include "src/series/generator.h"

using namespace coconut;

int main() {
  std::string dir;
  if (!MakeTempDir("coconut-quickstart-", &dir).ok()) return 1;
  const std::string raw_path = JoinPath(dir, "walks.bin");
  const std::string index_path = JoinPath(dir, "walks.ctree");

  // 1. Generate 50,000 random-walk series of 256 points (~50 MB).
  const size_t kCount = 50000, kLength = 256;
  RandomWalkGenerator gen(kLength, /*seed=*/42);
  if (!WriteDataset(raw_path, &gen, kCount).ok()) return 1;
  std::printf("dataset: %zu series of %zu points at %s\n", kCount, kLength,
              raw_path.c_str());

  // 2. Build the index. Options default to the paper's configuration
  //    (16 segments, 8-bit symbols, 2000-record leaves, fill factor 1.0).
  CoconutOptions options;
  options.summary.series_length = kLength;
  TreeBuildStats stats;
  Status st = CoconutTree::Build(raw_path, index_path, options, &stats);
  if (!st.ok()) {
    std::printf("build failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf(
      "built in %.2fs (summarize %.2fs, sort %.2fs, bulk-load %.2fs)\n",
      stats.total_seconds(), stats.summarize_seconds, stats.sort_seconds,
      stats.load_seconds);

  std::unique_ptr<CoconutTree> tree;
  if (!CoconutTree::Open(index_path, raw_path, &tree).ok()) return 1;
  std::printf("index: %llu entries, %llu leaves, height %llu, fill %.2f\n",
              (unsigned long long)tree->num_entries(),
              (unsigned long long)tree->num_leaves(),
              (unsigned long long)tree->height(), tree->AvgLeafFill());

  // 3. Query: approximate (fast, one leaf) then exact (SIMS).
  RandomWalkGenerator qgen(kLength, /*seed=*/7);
  Series query = qgen.NextSeries();
  SearchResult approx, exact;
  if (!tree->ApproxSearch(query.data(), /*num_leaves=*/1, &approx).ok()) {
    return 1;
  }
  if (!tree->ExactSearch(query.data(), /*approx_leaves=*/1, &exact).ok()) {
    return 1;
  }
  std::printf("approximate NN: distance %.4f (visited %llu records)\n",
              approx.distance, (unsigned long long)approx.visited_records);
  std::printf("exact NN:       distance %.4f (visited %llu records, "
              "series at byte offset %llu)\n",
              exact.distance, (unsigned long long)exact.visited_records,
              (unsigned long long)exact.offset);

  (void)RemoveAll(dir);
  return 0;
}
