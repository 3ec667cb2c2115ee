// Shared helpers for the test suite: scratch directories, dataset fixtures,
// and a brute-force nearest-neighbor oracle used to validate every index's
// exact search.
#ifndef COCONUT_TESTS_TEST_UTIL_H_
#define COCONUT_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/env.h"
#include "src/common/status.h"
#include "src/series/dataset.h"
#include "src/series/generator.h"
#include "src/series/series.h"

namespace coconut {
namespace testing {

/// gtest-friendly status assertion.
#define ASSERT_OK(expr)                                  \
  do {                                                   \
    ::coconut::Status _st = (expr);                      \
    ASSERT_TRUE(_st.ok()) << _st.ToString();             \
  } while (false)

#define EXPECT_OK(expr)                                  \
  do {                                                   \
    ::coconut::Status _st = (expr);                      \
    EXPECT_TRUE(_st.ok()) << _st.ToString();             \
  } while (false)

/// Creates a unique scratch directory, removed on destruction.
class ScratchDir {
 public:
  ScratchDir();
  ~ScratchDir();

  const std::string& path() const { return path_; }
  std::string File(const std::string& name) const {
    return JoinPath(path_, name);
  }

 private:
  std::string path_;
};

/// Generates `count` series and returns them both in memory and as a raw
/// dataset file at `path`.
std::vector<Series> MakeDatasetFile(const std::string& path, DatasetKind kind,
                                    size_t count, size_t length,
                                    uint64_t seed);

/// Seed for the randomized torture tests, from COCONUT_TORTURE_SEED
/// (default 1), so a failing run replays from the seed it names.
uint64_t TortureSeed();

/// Brute-force exact nearest neighbor: returns the index of the closest
/// series and its (non-squared) Euclidean distance.
std::pair<size_t, double> BruteForceNn(const std::vector<Series>& data,
                                       const Series& query);

}  // namespace testing
}  // namespace coconut

#endif  // COCONUT_TESTS_TEST_UTIL_H_
