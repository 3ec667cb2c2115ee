#include "tests/test_util.h"

#include <cstdlib>
#include <limits>

#include "src/series/distance.h"

namespace coconut {
namespace testing {

ScratchDir::ScratchDir() {
  Status st = MakeTempDir("coconut-test-", &path_);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

ScratchDir::~ScratchDir() {
  if (!path_.empty()) (void)RemoveAll(path_);
}

std::vector<Series> MakeDatasetFile(const std::string& path, DatasetKind kind,
                                    size_t count, size_t length,
                                    uint64_t seed) {
  auto gen = MakeGenerator(kind, length, seed);
  std::vector<Series> data;
  data.reserve(count);
  BufferedWriter writer;
  Status st = writer.Open(path);
  EXPECT_TRUE(st.ok()) << st.ToString();
  for (size_t i = 0; i < count; ++i) {
    data.push_back(gen->NextSeries());
    st = writer.Write(data.back().data(), length * sizeof(Value));
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  st = writer.Finish();
  EXPECT_TRUE(st.ok()) << st.ToString();
  return data;
}

uint64_t TortureSeed() {
  const char* env = std::getenv("COCONUT_TORTURE_SEED");
  if (env == nullptr || *env == '\0') return 1;
  return std::strtoull(env, nullptr, 10);
}

std::pair<size_t, double> BruteForceNn(const std::vector<Series>& data,
                                       const Series& query) {
  size_t best = 0;
  double best_sq = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < data.size(); ++i) {
    const double d =
        SquaredEuclidean(data[i].data(), query.data(), query.size());
    if (d < best_sq) {
      best_sq = d;
      best = i;
    }
  }
  return {best, std::sqrt(best_sq)};
}

}  // namespace testing
}  // namespace coconut
