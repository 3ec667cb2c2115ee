// ShardedStore: manifest round-trip and crash recovery, key-space routing,
// cross-shard k-NN equivalence against a single unsharded forest, the
// cross-shard atomic-commit protocol (fault-injection kill-point matrix,
// epoch journal torn-tail handling, strict manifest parsing), and
// multi-shard reader/writer stress tests (ThreadSanitizer targets, see
// .github/workflows/ci.yml).
#include "src/store/sharded_store.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <thread>
#include <tuple>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/crc32c.h"
#include "src/common/failpoint.h"
#include "src/core/coconut_forest.h"
#include "src/core/tree_format.h"
#include "src/exec/query_engine.h"
#include "src/store/journal.h"
#include "src/store/manifest.h"
#include "src/summary/invsax.h"
#include "tests/test_util.h"

namespace coconut {
namespace {

using testing::ScratchDir;

constexpr size_t kSeriesLen = 64;

StoreOptions SmallStore(const ScratchDir& dir, size_t num_shards) {
  StoreOptions opts;
  opts.forest.tree.summary.series_length = kSeriesLen;
  opts.forest.tree.summary.segments = 16;
  opts.forest.tree.leaf_capacity = 64;
  opts.forest.tree.tmp_dir = dir.path();
  opts.forest.memtable_series = 100;
  opts.forest.max_runs = 3;
  opts.num_shards = num_shards;
  return opts;
}

std::vector<Series> MakeSeries(size_t count, uint64_t seed) {
  auto gen = MakeGenerator(DatasetKind::kRandomWalk, kSeriesLen, seed);
  std::vector<Series> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) out.push_back(gen->NextSeries());
  return out;
}

/// Brute-force k-NN distances (ascending) over the first `count` series.
std::vector<double> OracleDistances(const std::vector<Series>& data,
                                    size_t count, const Series& query,
                                    size_t k) {
  std::vector<double> dists;
  dists.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    double sum = 0.0;
    for (size_t j = 0; j < kSeriesLen; ++j) {
      const double d = static_cast<double>(data[i][j]) -
                       static_cast<double>(query[j]);
      sum += d * d;
    }
    dists.push_back(std::sqrt(sum));
  }
  std::sort(dists.begin(), dists.end());
  if (dists.size() > k) dists.resize(k);
  return dists;
}

TEST(ShardedStore, OffsetEncodingRoundTrips) {
  for (const size_t shard : {size_t{0}, size_t{1}, size_t{17}}) {
    for (const uint64_t local : {uint64_t{0}, uint64_t{256}, uint64_t{1} << 40}) {
      const uint64_t enc = ShardedStore::EncodeOffset(shard, local);
      size_t s;
      uint64_t l;
      ShardedStore::DecodeOffset(enc, &s, &l);
      EXPECT_EQ(s, shard);
      EXPECT_EQ(l, local);
    }
  }
  // Shard 0 encodes to the plain local offset (forest compatibility).
  EXPECT_EQ(ShardedStore::EncodeOffset(0, 4096u), 4096u);
}

TEST(ShardedStore, RoutingIsAPartitionOfTheKeySpace) {
  for (const size_t shards : {size_t{1}, size_t{2}, size_t{3}, size_t{8}}) {
    ScratchDir dir;
    std::unique_ptr<ShardedStore> store;
    ASSERT_OK(ShardedStore::Open(dir.File("store"), SmallStore(dir, shards),
                                 &store));
    ASSERT_EQ(store->num_shards(), shards);
    const StoreManifest& m = store->manifest();
    EXPECT_EQ(m.shards[0].lower_bound, ZKey());
    EXPECT_EQ(store->ShardForKey(ZKey()), 0u);
    EXPECT_EQ(store->ShardForKey(ZKey::Max()), shards - 1);
    for (size_t i = 0; i < shards; ++i) {
      EXPECT_EQ(store->ShardForKey(m.shards[i].lower_bound), i);
    }
    // Real keys agree with the boundary definition (largest lower <= key).
    const SummaryOptions summary = SmallStore(dir, shards).forest.tree.summary;
    for (const Series& s : MakeSeries(50, 1000 + shards)) {
      const ZKey key = InvSaxFromSeries(s.data(), summary);
      size_t expected = 0;
      for (size_t i = 0; i < shards; ++i) {
        if (m.shards[i].lower_bound <= key) expected = i;
      }
      EXPECT_EQ(store->ShardForKey(key), expected);
    }
  }
}

TEST(ShardedStore, CrossShardKnnMatchesUnshardedForest) {
  ScratchDir dir;
  const std::vector<Series> data = MakeSeries(800, 91);
  const std::vector<Series> queries = MakeSeries(10, 92);

  // Reference: one unsharded forest over the same data.
  ForestOptions fopts = SmallStore(dir, 1).forest;
  std::unique_ptr<CoconutForest> forest;
  ASSERT_OK(CoconutForest::Open(dir.File("data.bin"), dir.File("forest"),
                                fopts, &forest));
  ASSERT_OK(forest->InsertBatch(data));

  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    std::unique_ptr<ShardedStore> store;
    ASSERT_OK(ShardedStore::Open(
        dir.File("store-" + std::to_string(shards)),
        SmallStore(dir, shards), &store));
    ASSERT_OK(store->InsertBatch(data));
    EXPECT_EQ(store->num_entries(), data.size());

    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const size_t k = 1 + qi % 5;
      SearchResult from_forest, from_store;
      ASSERT_OK(forest->ExactSearch(queries[qi].data(), &from_forest, k));
      ASSERT_OK(store->ExactSearch(queries[qi].data(), &from_store, k));
      ASSERT_EQ(from_store.neighbors.size(), from_forest.neighbors.size());
      for (size_t j = 0; j < from_forest.neighbors.size(); ++j) {
        EXPECT_NEAR(from_store.neighbors[j].distance,
                    from_forest.neighbors[j].distance, 1e-9)
            << "shards=" << shards << " query=" << qi << " rank=" << j;
      }
      // Approximate store search is an upper bound of the exact answer.
      SearchResult approx;
      ASSERT_OK(store->ApproxSearch(queries[qi].data(), 1, &approx, k));
      EXPECT_GE(approx.distance + 1e-6, from_store.distance);
    }
  }
}

TEST(ShardedStore, QueryEngineBatchMatchesSerialStoreSearch) {
  ScratchDir dir;
  const std::vector<Series> data = MakeSeries(600, 93);
  const std::vector<Series> queries = MakeSeries(24, 94);
  std::unique_ptr<ShardedStore> store;
  ASSERT_OK(ShardedStore::Open(dir.File("store"), SmallStore(dir, 4), &store));
  ASSERT_OK(store->InsertBatch(data));

  ThreadPool pool(4);
  QueryEngine engine(&pool);
  const ShardedStore::Snapshot snap = store->GetSnapshot();
  for (const auto mode :
       {QuerySpec::Mode::kExact, QuerySpec::Mode::kApprox}) {
    QuerySpec spec;
    spec.mode = mode;
    spec.k = 3;
    spec.approx_leaves = 2;
    std::vector<SearchResult> batch;
    ASSERT_OK(engine.ExecuteBatch(*store, snap, queries, spec, &batch));
    ASSERT_EQ(batch.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      SearchResult serial;
      if (mode == QuerySpec::Mode::kExact) {
        ASSERT_OK(store->ExactSearch(snap, queries[i].data(), &serial,
                                     spec.k));
      } else {
        ASSERT_OK(store->ApproxSearch(snap, queries[i].data(),
                                      spec.approx_leaves, &serial, spec.k));
      }
      ASSERT_EQ(batch[i].neighbors.size(), serial.neighbors.size());
      for (size_t j = 0; j < serial.neighbors.size(); ++j) {
        EXPECT_EQ(batch[i].neighbors[j].offset, serial.neighbors[j].offset);
        EXPECT_EQ(batch[i].neighbors[j].distance,
                  serial.neighbors[j].distance);
      }
      EXPECT_EQ(batch[i].visited_records, serial.visited_records);
      EXPECT_EQ(batch[i].leaves_read, serial.leaves_read);
      EXPECT_EQ(batch[i].degraded, serial.degraded);
    }
  }
}

TEST(ShardedStore, ManifestRoundTripSurvivesCrashReopen) {
  ScratchDir dir;
  const std::string root = dir.File("store");
  const std::vector<Series> data = MakeSeries(500, 95);
  const std::vector<Series> queries = MakeSeries(8, 96);

  std::vector<SearchResult> before(queries.size());
  {
    std::unique_ptr<ShardedStore> store;
    ASSERT_OK(ShardedStore::Open(root, SmallStore(dir, 3), &store));
    ASSERT_OK(store->InsertBatch(data));
    ASSERT_OK(store->Flush());  // re-commits the manifest with entry counts
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_OK(store->ExactSearch(queries[i].data(), &before[i], 3));
    }
    // The store object goes out of scope with no clean-shutdown step:
    // reopening is always the crash-recovery path.
  }

  // Harden the simulated crash: wipe every derived file (runs + sidecars),
  // keeping only each shard's raw dataset and the committed manifest.
  // Recovery must rebuild the runs from the raw files alone.
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("run-", 0) == 0) {
      std::filesystem::remove(entry.path());
    }
  }

  // Reopen with a DIFFERENT requested shard count: the manifest must win,
  // or routing would no longer match the stored data.
  std::unique_ptr<ShardedStore> store;
  ASSERT_OK(ShardedStore::Open(root, SmallStore(dir, 7), &store));
  EXPECT_EQ(store->num_shards(), 3u);
  EXPECT_EQ(store->num_entries(), data.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    SearchResult after;
    ASSERT_OK(store->ExactSearch(queries[i].data(), &after, 3));
    ASSERT_EQ(after.neighbors.size(), before[i].neighbors.size());
    for (size_t j = 0; j < before[i].neighbors.size(); ++j) {
      EXPECT_EQ(after.neighbors[j].offset, before[i].neighbors[j].offset);
      EXPECT_NEAR(after.neighbors[j].distance,
                  before[i].neighbors[j].distance, 1e-9);
    }
  }

  // And the data keeps flowing after recovery.
  ASSERT_OK(store->InsertBatch(MakeSeries(100, 97)));
  EXPECT_EQ(store->num_entries(), data.size() + 100);
}

TEST(ShardedStore, RejectsCorruptManifestAndMismatchedOptions) {
  ScratchDir dir;
  const std::string root = dir.File("store");
  {
    std::unique_ptr<ShardedStore> store;
    ASSERT_OK(ShardedStore::Open(root, SmallStore(dir, 2), &store));
  }
  // Mismatched series_length is refused (the store would mis-route).
  {
    StoreOptions opts = SmallStore(dir, 2);
    opts.forest.tree.summary.series_length = 128;
    opts.forest.tree.summary.segments = 16;
    std::unique_ptr<ShardedStore> store;
    EXPECT_FALSE(ShardedStore::Open(root, opts, &store).ok());
  }
  // A torn/garbage manifest is refused, not silently repartitioned.
  {
    std::ofstream(JoinPath(root, kStoreManifestName)) << "garbage\n";
    std::unique_ptr<ShardedStore> store;
    EXPECT_FALSE(ShardedStore::Open(root, SmallStore(dir, 2), &store).ok());
  }
  // Shard data with a missing manifest is a damaged store, not a new one.
  {
    std::filesystem::remove(JoinPath(root, kStoreManifestName));
    std::unique_ptr<ShardedStore> store;
    const Status st = ShardedStore::Open(root, SmallStore(dir, 2), &store);
    EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  }
}

// --- Strict manifest parsing ------------------------------------------------

const char kZeroKeyHex[] =
    "0000000000000000000000000000000000000000000000000000000000000000";

std::string ValidManifestText() {
  return std::string("coconut-store-manifest v1\n") +
         "series_length 64\n" +
         "last_committed_epoch 0\n" +
         "shards 1\n" +
         "shard 0 " + kZeroKeyHex + " shard-0 0\n";
}

void WriteManifestText(const std::string& root, const std::string& text) {
  std::ofstream(JoinPath(root, kStoreManifestName)) << text;
}

TEST(StoreManifestStrict, AcceptsValidManifest) {
  ScratchDir dir;
  WriteManifestText(dir.path(), ValidManifestText());
  StoreManifest m;
  ASSERT_OK(ReadStoreManifest(dir.path(), &m));
  EXPECT_EQ(m.series_length, 64u);
  EXPECT_EQ(m.last_committed_epoch, 0u);
  EXPECT_EQ(m.shards.size(), 1u);
  // A manifest written before the epoch journal existed (no
  // last_committed_epoch directive) still parses, defaulting to epoch 0.
  WriteManifestText(dir.path(),
                    std::string("coconut-store-manifest v1\n") +
                        "series_length 64\nshards 1\nshard 0 " + kZeroKeyHex +
                        " shard-0 0\n");
  ASSERT_OK(ReadStoreManifest(dir.path(), &m));
  EXPECT_EQ(m.last_committed_epoch, 0u);
}

TEST(StoreManifestStrict, RejectsMalformedInputNamingTheLine) {
  struct Case {
    const char* name;
    std::string text;
    const char* expect_in_message;
  };
  const std::string valid = ValidManifestText();
  const std::vector<Case> cases = {
      {"duplicate series_length", valid + "series_length 64\n",
       "duplicate series_length"},
      {"duplicate shards", valid + "shards 1\n", "duplicate shards"},
      {"duplicate last_committed_epoch", valid + "last_committed_epoch 3\n",
       "duplicate last_committed_epoch"},
      {"trailing tokens on shard line",
       std::string("coconut-store-manifest v1\nseries_length 64\nshards 1\n") +
           "shard 0 " + kZeroKeyHex + " shard-0 5 junk\n",
       "trailing tokens"},
      {"trailing tokens on series_length",
       std::string("coconut-store-manifest v1\nseries_length 64 junk\n") +
           "shards 1\nshard 0 " + kZeroKeyHex + " shard-0 0\n",
       "trailing tokens"},
      {"missing series_length",
       std::string("coconut-store-manifest v1\nshards 1\nshard 0 ") +
           kZeroKeyHex + " shard-0 0\n",
       "missing series_length"},
      {"missing shards directive",
       std::string("coconut-store-manifest v1\nseries_length 64\nshard 0 ") +
           kZeroKeyHex + " shard-0 0\n",
       "missing shards"},
      {"non-numeric series_length",
       std::string("coconut-store-manifest v1\nseries_length abc\nshards 1\n") +
           "shard 0 " + kZeroKeyHex + " shard-0 0\n",
       "malformed line"},
  };
  for (const Case& c : cases) {
    ScratchDir dir;
    WriteManifestText(dir.path(), c.text);
    StoreManifest m;
    const Status st = ReadStoreManifest(dir.path(), &m);
    EXPECT_TRUE(st.IsCorruption()) << c.name << ": " << st.ToString();
    EXPECT_NE(st.message().find(c.expect_in_message), std::string::npos)
        << c.name << ": " << st.ToString();
  }
}

// --- Cross-shard atomic commit: kill-point matrix ---------------------------

/// Brute-force reference distances over `data` (ascending, top k).
std::vector<double> OracleTopK(const std::vector<Series>& data,
                               const Series& query, size_t k) {
  std::vector<double> dists;
  dists.reserve(data.size());
  for (const Series& s : data) {
    double sum = 0.0;
    for (size_t j = 0; j < kSeriesLen; ++j) {
      const double d =
          static_cast<double>(s[j]) - static_cast<double>(query[j]);
      sum += d * d;
    }
    dists.push_back(std::sqrt(sum));
  }
  std::sort(dists.begin(), dists.end());
  if (dists.size() > k) dists.resize(k);
  return dists;
}

/// Asserts the recovered store answers k-NN exactly like a fresh unsharded
/// forest over `expected` (and both match the brute-force oracle) —
/// distances included, with duplicate series in the data producing ties.
void ExpectStoreMatchesUnshardedForest(const ScratchDir& dir,
                                       ShardedStore* store,
                                       const std::vector<Series>& expected,
                                       const std::string& tag) {
  ForestOptions fopts = SmallStore(dir, 1).forest;
  std::unique_ptr<CoconutForest> forest;
  ASSERT_OK(CoconutForest::Open(dir.File("ref-raw-" + tag),
                                dir.File("ref-forest-" + tag), fopts,
                                &forest));
  ASSERT_OK(forest->InsertBatch(expected));
  const std::vector<Series> queries = MakeSeries(6, 424242);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const size_t k = 1 + qi % 4;
    SearchResult from_store, from_forest;
    ASSERT_OK(store->ExactSearch(queries[qi].data(), &from_store, k));
    ASSERT_OK(forest->ExactSearch(queries[qi].data(), &from_forest, k));
    const std::vector<double> oracle = OracleTopK(expected, queries[qi], k);
    ASSERT_EQ(from_store.neighbors.size(), from_forest.neighbors.size())
        << tag << " query " << qi;
    ASSERT_EQ(from_store.neighbors.size(), oracle.size())
        << tag << " query " << qi;
    for (size_t j = 0; j < oracle.size(); ++j) {
      EXPECT_NEAR(from_store.neighbors[j].distance,
                  from_forest.neighbors[j].distance, 1e-9)
          << tag << " query " << qi << " rank " << j;
      EXPECT_NEAR(from_store.neighbors[j].distance, oracle[j], 1e-4)
          << tag << " query " << qi << " rank " << j;
    }
  }
}

TEST(ShardedStoreRecovery, KillPointMatrixYieldsCommittedPrefix) {
  struct Kill {
    const char* site;
    bool batch_survives;  // commit record durable before the "crash"?
    const char* name;
  };
  const std::vector<Kill> kills = {
      {"store.commit.after_begin", false, "after-begin"},
      {"store.commit.shard_stage", false, "shard-stage"},
      {"store.commit.before_journal_commit", false, "before-commit"},
      {"store.commit.after_journal_commit", true, "after-commit"},
  };

  for (const Kill& kill : kills) {
    SCOPED_TRACE(kill.name);
    FailpointGuard failpoints;
    ScratchDir dir;
    const std::string root = dir.File("store");

    // Data with deliberate duplicates so recovered k-NN has distance ties.
    std::vector<Series> data = MakeSeries(220, 7000);
    for (size_t i = 0; i < 20; ++i) data.push_back(data[i * 7]);
    const std::vector<Series> committed(data.begin(), data.begin() + 160);
    const std::vector<Series> torn(data.begin() + 160, data.end());

    {
      std::unique_ptr<ShardedStore> store;
      ASSERT_OK(ShardedStore::Open(root, SmallStore(dir, 3), &store));
      // The torn batch must actually be multi-shard or the journal-free
      // fast path would dodge the kill point.
      std::map<size_t, size_t> owners;
      for (const Series& s : torn) ++owners[store->ShardForSeries(s)];
      ASSERT_GT(owners.size(), 1u) << "torn batch routed to a single shard";
      const size_t victim = store->ShardForSeries(torn[0]);

      ASSERT_OK(store->InsertBatch(
          std::vector<Series>(committed.begin(), committed.begin() + 80)));
      ASSERT_OK(store->InsertBatch(
          std::vector<Series>(committed.begin() + 80, committed.end())));
      EXPECT_EQ(store->num_entries(), committed.size());

      // Arm the chosen kill point AFTER the committed prefix lands (for
      // shard_stage: only the victim shard fails, so every OTHER shard
      // durably stages its slice — the torn state).
      if (std::string(kill.site) == "store.commit.shard_stage") {
        Failpoints::Default().ArmCallback(
            kill.site, [victim](size_t shard) {
              if (shard != victim) return Status::OK();
              return Status::IOError("injected fault");
            });
      } else {
        Failpoints::Default().ArmError(kill.site);
      }
      const Status st = store->InsertBatch(torn);
      EXPECT_FALSE(st.ok()) << st.ToString();

      // The torn epoch is never published in-process either: queries and
      // counts keep seeing only the committed prefix...
      EXPECT_EQ(store->num_entries(), committed.size());
      // ...and the store is write-poisoned until reopened.
      Failpoints::Default().DisarmAll();
      const Status poisoned = store->InsertBatch(torn);
      EXPECT_TRUE(poisoned.IsIOError()) << poisoned.ToString();
      EXPECT_NE(poisoned.message().find("read-only"), std::string::npos)
          << poisoned.ToString();
      // Simulated crash: the store object is dropped with no clean
      // shutdown; whatever reached disk stays there.
    }

    std::unique_ptr<ShardedStore> store;
    ASSERT_OK(ShardedStore::Open(root, SmallStore(dir, 3), &store));
    std::vector<Series> expected = committed;
    if (kill.batch_survives) {
      expected.insert(expected.end(), torn.begin(), torn.end());
    }
    EXPECT_EQ(store->num_entries(), expected.size());
    ExpectStoreMatchesUnshardedForest(dir, store.get(), expected, kill.name);

    // Recovery fully re-arms the store: the next cross-shard batch commits.
    ASSERT_OK(store->InsertBatch(MakeSeries(60, 7100)));
    EXPECT_EQ(store->num_entries(), expected.size() + 60);
  }
}

TEST(ShardedStoreRecovery, TornCommitStatusNamesFailedShards) {
  FailpointGuard failpoints;
  ScratchDir dir;
  const std::string root = dir.File("store");
  const std::vector<Series> batch = MakeSeries(120, 8000);

  std::unique_ptr<ShardedStore> store;
  ASSERT_OK(ShardedStore::Open(root, SmallStore(dir, 4), &store));
  std::map<size_t, size_t> owners;
  for (const Series& s : batch) ++owners[store->ShardForSeries(s)];
  ASSERT_GT(owners.size(), 1u);
  const size_t victim = store->ShardForSeries(batch[0]);

  Failpoints::Default().ArmCallback(
      "store.commit.shard_stage", [victim](size_t shard) {
        if (shard != victim) return Status::OK();
        return Status::IOError("disk gone");
      });
  const Status st = store->InsertBatch(batch);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("torn at epoch"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("shard " + std::to_string(victim)),
            std::string::npos)
      << st.ToString();
}

TEST(ShardedStore, WriteHealthRespondsDuringInFlightCommit) {
  // Regression: WriteHealth used to take commit_mu_, so a health probe
  // queued behind an entire epoch commit — and the stage phase does real
  // durable I/O under that lock. The poison flag now lives under its own
  // innermost mutex; a probe must answer while a commit is in flight.
  FailpointGuard failpoints;
  ScratchDir dir;
  const std::string root = dir.File("store");

  // The failpoint callback parks staging shards until released, modeling a
  // slow durable append: the commit lock stays held for the whole stall.
  auto entered = std::make_shared<std::atomic<bool>>(false);
  auto release = std::make_shared<std::atomic<bool>>(false);
  Failpoints::Default().ArmCallback(
      "store.commit.shard_stage", [entered, release](size_t) {
        entered->store(true);
        while (!release->load()) std::this_thread::yield();
        return Status::OK();
      });
  std::unique_ptr<ShardedStore> store;
  ASSERT_OK(ShardedStore::Open(root, SmallStore(dir, 2), &store));

  const std::vector<Series> batch = MakeSeries(120, 4200);
  // Must be multi-shard, or the journal-free fast path would skip the
  // epoch protocol (and its kShardStage hook) entirely.
  std::map<size_t, size_t> owners;
  for (const Series& s : batch) ++owners[store->ShardForSeries(s)];
  ASSERT_GT(owners.size(), 1u);

  std::thread writer([&]() { EXPECT_OK(store->InsertBatch(batch)); });
  while (!entered->load()) std::this_thread::yield();

  // Probe from a helper thread with a deadline, so a regression shows up
  // as a failed expectation instead of a hung test.
  std::atomic<bool> health_done{false};
  std::thread prober([&]() {
    EXPECT_OK(store->WriteHealth());
    health_done.store(true);
  });
  for (int i = 0; i < 5000 && !health_done.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(health_done.load())
      << "WriteHealth blocked behind an in-flight epoch commit";

  release->store(true);
  prober.join();
  writer.join();
  EXPECT_OK(store->WriteHealth());
  EXPECT_EQ(store->num_entries(), batch.size());
}

TEST(ShardedStoreRecovery, JournalTornTailIgnoredInteriorCorruptionRejected) {
  ScratchDir dir;
  const std::string root = dir.File("store");
  const std::vector<Series> data = MakeSeries(150, 9000);
  {
    std::unique_ptr<ShardedStore> store;
    ASSERT_OK(ShardedStore::Open(root, SmallStore(dir, 2), &store));
    ASSERT_OK(store->InsertBatch(data));
    EXPECT_EQ(store->num_entries(), data.size());
  }

  // A torn final append (no trailing newline) is the normal crash shape:
  // the record never happened, the store reopens cleanly.
  {
    std::ofstream journal(JoinPath(root, kStoreJournalName),
                          std::ios::app | std::ios::binary);
    journal << "begin 99 2 0:12";  // torn mid-slice, no newline
  }
  {
    std::unique_ptr<ShardedStore> store;
    ASSERT_OK(ShardedStore::Open(root, SmallStore(dir, 2), &store));
    EXPECT_EQ(store->num_entries(), data.size());
  }

  // Interior garbage is real corruption and must refuse to open.
  {
    std::ofstream journal(JoinPath(root, kStoreJournalName),
                          std::ios::binary);
    journal << "coconut-store-journal v1\n"
            << "begin 1 1 0:0:banana\n"
            << "commit 1\n";
  }
  std::unique_ptr<ShardedStore> store;
  const Status st = ShardedStore::Open(root, SmallStore(dir, 2), &store);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

TEST(ShardedStoreRecovery, FlushCheckpointsTheJournal) {
  ScratchDir dir;
  const std::string root = dir.File("store");
  std::unique_ptr<ShardedStore> store;
  ASSERT_OK(ShardedStore::Open(root, SmallStore(dir, 3), &store));

  const std::vector<Series> data = MakeSeries(200, 9900);
  // Both batches must be multi-shard or the journal-free fast path would
  // leave the journal untouched and the size expectations below would
  // misfire at the wrong cause.
  std::map<size_t, size_t> first_owners, second_owners;
  for (size_t i = 0; i < 100; ++i) {
    ++first_owners[store->ShardForSeries(data[i])];
    ++second_owners[store->ShardForSeries(data[100 + i])];
  }
  ASSERT_GT(first_owners.size(), 1u) << "batch 1 routed to a single shard";
  ASSERT_GT(second_owners.size(), 1u) << "batch 2 routed to a single shard";
  ASSERT_OK(store->InsertBatch(
      std::vector<Series>(data.begin(), data.begin() + 100)));
  uint64_t journal_size = 0;
  ASSERT_OK(FileSize(JoinPath(root, kStoreJournalName), &journal_size));
  const uint64_t with_records = journal_size;

  // Flush persists the epoch floor into the manifest and retires the
  // journal records: the file shrinks back to its header.
  ASSERT_OK(store->Flush());
  ASSERT_OK(FileSize(JoinPath(root, kStoreJournalName), &journal_size));
  EXPECT_LT(journal_size, with_records);
  const uint64_t header_only = journal_size;

  // The journal keeps working after the checkpoint (new epochs append to
  // the fresh file) and recovery still sees everything.
  const uint64_t epoch_before = store->committed_epoch();
  ASSERT_OK(store->InsertBatch(
      std::vector<Series>(data.begin() + 100, data.end())));
  EXPECT_GT(store->committed_epoch(), epoch_before);
  ASSERT_OK(FileSize(JoinPath(root, kStoreJournalName), &journal_size));
  EXPECT_GT(journal_size, header_only);
  store.reset();
  ASSERT_OK(ShardedStore::Open(root, SmallStore(dir, 3), &store));
  EXPECT_EQ(store->num_entries(), data.size());
  // Reopen resumes epoch numbering above everything ever journaled.
  EXPECT_GE(store->committed_epoch(), epoch_before);
}

TEST(ShardedStoreRecovery, TornSingleSeriesTailRolledBack) {
  ScratchDir dir;
  const std::string root = dir.File("store");
  const std::vector<Series> data = MakeSeries(130, 9500);
  {
    std::unique_ptr<ShardedStore> store;
    ASSERT_OK(ShardedStore::Open(root, SmallStore(dir, 2), &store));
    ASSERT_OK(store->InsertBatch(data));
  }
  // A crash mid-append of a journal-free write can leave a fraction of one
  // series at a shard's raw tail; recovery must shave it off (the raw file
  // is a headerless array of fixed-size series).
  {
    std::ofstream raw(JoinPath(JoinPath(root, "shard-0"), "raw.bin"),
                      std::ios::app | std::ios::binary);
    raw << "torn!";
  }
  std::unique_ptr<ShardedStore> store;
  ASSERT_OK(ShardedStore::Open(root, SmallStore(dir, 2), &store));
  EXPECT_EQ(store->num_entries(), data.size());
  ExpectStoreMatchesUnshardedForest(dir, store.get(), data, "torn-tail");
}

TEST(ShardedStoreRecovery, SizeTriggeredJournalCheckpoint) {
  ScratchDir dir;
  const std::string root = dir.File("store");
  StoreOptions opts = SmallStore(dir, 3);
  opts.journal_checkpoint_bytes = 64;  // every multi-shard epoch overflows
  std::unique_ptr<ShardedStore> store;
  ASSERT_OK(ShardedStore::Open(root, opts, &store));
  uint64_t header_only = 0;
  ASSERT_OK(FileSize(JoinPath(root, kStoreJournalName), &header_only));

  const std::vector<Series> data = MakeSeries(120, 9700);
  std::map<size_t, size_t> owners;
  for (const Series& s : data) ++owners[store->ShardForSeries(s)];
  ASSERT_GT(owners.size(), 1u) << "batch routed to a single shard";
  ASSERT_OK(store->InsertBatch(data));

  // The committing call itself noticed the overflow and checkpointed: the
  // manifest durably holds the epoch floor and the journal is back to its
  // header — no explicit Flush needed.
  uint64_t after = 0;
  ASSERT_OK(FileSize(JoinPath(root, kStoreJournalName), &after));
  EXPECT_EQ(after, header_only);
  StoreManifest m;
  ASSERT_OK(ReadStoreManifest(root, &m));
  EXPECT_EQ(m.last_committed_epoch, store->committed_epoch());

  // 0 disables the trigger: records stay until an explicit checkpoint.
  store.reset();
  StoreOptions no_trigger = SmallStore(dir, 3);
  no_trigger.journal_checkpoint_bytes = 0;
  ASSERT_OK(ShardedStore::Open(root, no_trigger, &store));
  const std::vector<Series> more = MakeSeries(120, 9701);
  std::map<size_t, size_t> more_owners;
  for (const Series& s : more) ++more_owners[store->ShardForSeries(s)];
  ASSERT_GT(more_owners.size(), 1u) << "batch routed to a single shard";
  ASSERT_OK(store->InsertBatch(more));
  ASSERT_OK(FileSize(JoinPath(root, kStoreJournalName), &after));
  EXPECT_GT(after, header_only);

  // Either way recovery sees everything.
  store.reset();
  ASSERT_OK(ShardedStore::Open(root, SmallStore(dir, 3), &store));
  EXPECT_EQ(store->num_entries(), data.size() + more.size());
}

// --- End-to-end integrity: byte flips are detected, never silently served ---

TEST(StoreManifestStrict, ChecksumTrailerDetectsByteFlips) {
  ScratchDir dir;
  StoreManifest m;
  m.series_length = 64;
  ShardInfo info;
  info.dir = "shard-0";
  info.entries = 7;
  m.shards.push_back(info);
  ASSERT_OK(WriteStoreManifest(dir.path(), m));

  const std::string path = JoinPath(dir.path(), kStoreManifestName);
  std::string text;
  {
    std::ifstream in(path, std::ios::binary);
    text.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  ASSERT_NE(text.find("\nchecksum "), std::string::npos);

  // Flip the entries digit ("shard-0 7" -> "shard-0 6"): the line still
  // parses, so the only defense left is the checksum trailer.
  std::string flipped = text;
  const size_t pos = flipped.find(" shard-0 7");
  ASSERT_NE(pos, std::string::npos);
  flipped[pos + 9] ^= 0x01;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << flipped;
  }
  StoreManifest reread;
  Status st = ReadStoreManifest(dir.path(), &reread);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.message().find("checksum"), std::string::npos)
      << st.ToString();

  // The checksum trailer must be the LAST line: content appended after it
  // (a truncation-then-append attack shape) is rejected too.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text << "series_length 64\n";
  }
  st = ReadStoreManifest(dir.path(), &reread);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.message().find("last"), std::string::npos) << st.ToString();
}

TEST(ShardedStoreRecovery, JournalRecordByteFlipRejected) {
  ScratchDir dir;
  const std::string root = dir.File("store");
  {
    std::unique_ptr<ShardedStore> store;
    ASSERT_OK(ShardedStore::Open(root, SmallStore(dir, 2), &store));
    const std::vector<Series> data = MakeSeries(150, 9800);
    std::map<size_t, size_t> owners;
    for (const Series& s : data) ++owners[store->ShardForSeries(s)];
    ASSERT_GT(owners.size(), 1u) << "batch routed to a single shard";
    ASSERT_OK(store->InsertBatch(data));  // journal: begin + commit records
  }
  const std::string journal_path = JoinPath(root, kStoreJournalName);
  std::string text;
  {
    std::ifstream in(journal_path, std::ios::binary);
    text.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  // Flip a byte inside an INTERIOR record (the begin line): unlike a torn
  // tail, interior damage must refuse to open.
  const size_t begin_pos = text.find("\nbegin ");
  ASSERT_NE(begin_pos, std::string::npos);
  text[begin_pos + 3] ^= 0x01;
  {
    std::ofstream out(journal_path, std::ios::binary | std::ios::trunc);
    out << text;
  }
  std::unique_ptr<ShardedStore> store;
  const Status st = ShardedStore::Open(root, SmallStore(dir, 2), &store);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.message().find("crc"), std::string::npos) << st.ToString();
}

// --- Degraded-mode serving ---------------------------------------------------
//
// Each degraded-serving test runs through both read entry points (the direct
// per-query store API and a QueryEngine batch) in both search modes: all
// four must quarantine and degrade the same way.

/// XORs one byte of `path` at `offset` in place.
void FlipByteAt(const std::filesystem::path& path, std::streamoff offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f.seekg(offset);
  char b = 0;
  f.read(&b, 1);
  b = static_cast<char>(b ^ 0x01);
  f.seekp(offset);
  f.write(&b, 1);
}

/// Parameter: (through QueryEngine::ExecuteBatch, else the direct store
/// API; search mode).
class ShardedStoreDegraded
    : public ::testing::TestWithParam<std::tuple<bool, QuerySpec::Mode>> {
 protected:
  bool engine() const { return std::get<0>(GetParam()); }
  QuerySpec::Mode mode() const { return std::get<1>(GetParam()); }
  bool exact() const { return mode() == QuerySpec::Mode::kExact; }

  /// Answers `queries` (top-k) through this case's entry point.
  void Search(const ShardedStore& store, const std::vector<Series>& queries,
              size_t k, std::vector<SearchResult>* out) const {
    if (engine()) {
      QuerySpec spec;
      spec.mode = mode();
      spec.k = k;
      ThreadPool pool(2);
      ASSERT_OK(QueryEngine(&pool).ExecuteBatch(store, queries, spec, out));
      return;
    }
    out->assign(queries.size(), SearchResult{});
    for (size_t i = 0; i < queries.size(); ++i) {
      const Value* q = queries[i].data();
      ASSERT_OK(exact() ? store.ExactSearch(q, &(*out)[i], k)
                        : store.ApproxSearch(q, 1, &(*out)[i], k));
    }
  }

  /// Answers served while shard `victim` is quarantined: each is flagged
  /// degraded and drawn from the healthy shards only. An exact answer is
  /// the oracle top-k over `healthy`; an approximate one bounds it above.
  void ExpectServedFromHealthy(const std::vector<SearchResult>& results,
                               const std::vector<Series>& queries,
                               const std::vector<Series>& healthy,
                               size_t victim, size_t k) const {
    ASSERT_EQ(results.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      const SearchResult& r = results[i];
      EXPECT_TRUE(r.degraded) << "query " << i;
      const std::vector<double> oracle = OracleTopK(healthy, queries[i], k);
      ASSERT_EQ(r.neighbors.size(), oracle.size()) << "query " << i;
      for (size_t j = 0; j < oracle.size(); ++j) {
        size_t shard;
        uint64_t local;
        ShardedStore::DecodeOffset(r.neighbors[j].offset, &shard, &local);
        EXPECT_NE(shard, victim) << "query " << i << " rank " << j;
        if (exact()) {
          EXPECT_NEAR(r.neighbors[j].distance, oracle[j], 1e-4);
        } else {
          EXPECT_GE(r.neighbors[j].distance + 1e-4, oracle[j]);
        }
      }
    }
  }
};

INSTANTIATE_TEST_SUITE_P(
    , ShardedStoreDegraded,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(QuerySpec::Mode::kExact,
                                         QuerySpec::Mode::kApprox)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) ? "Engine" : "Direct") +
             (std::get<1>(info.param) == QuerySpec::Mode::kExact ? "Exact"
                                                                 : "Approx");
    });

TEST_P(ShardedStoreDegraded, CorruptShardQuarantinesAndServesDegraded) {
  ScratchDir dir;
  const std::string root = dir.File("store");
  const std::vector<Series> data = MakeSeries(400, 11000);
  size_t victim = SIZE_MAX;
  std::vector<Series> healthy;
  {
    std::unique_ptr<ShardedStore> store;
    ASSERT_OK(ShardedStore::Open(root, SmallStore(dir, 3), &store));
    ASSERT_OK(store->InsertBatch(data));
    ASSERT_OK(store->Flush());  // manifest records the committed floor
    std::map<size_t, size_t> owners;
    for (const Series& s : data) ++owners[store->ShardForSeries(s)];
    ASSERT_GT(owners.size(), 1u);
    for (const auto& [shard, count] : owners) {
      if (victim == SIZE_MAX || count > owners[victim]) victim = shard;
    }
    for (const Series& s : data) {
      if (store->ShardForSeries(s) != victim) healthy.push_back(s);
    }
    ASSERT_FALSE(healthy.empty());
  }

  // Flip one byte in the middle of the victim's raw file. Its per-series
  // checksum no longer verifies, and salvage cannot keep the committed
  // floor — the shard must quarantine, not silently serve a prefix.
  const std::string raw = JoinPath(
      JoinPath(root, "shard-" + std::to_string(victim)), "raw.bin");
  const auto raw_size =
      static_cast<std::streamoff>(std::filesystem::file_size(raw));
  ASSERT_GT(raw_size, 0);
  ASSERT_NO_FATAL_FAILURE(FlipByteAt(raw, raw_size / 2));

  std::unique_ptr<ShardedStore> store;
  ASSERT_OK(ShardedStore::Open(root, SmallStore(dir, 3), &store));
  std::string detail;
  EXPECT_EQ(store->QuarantinedShards(&detail), 1u);
  EXPECT_NE(detail.find("shard " + std::to_string(victim)),
            std::string::npos)
      << detail;

  // Writes are refused (a routed write could silently drop)...
  const Status w = store->InsertBatch(MakeSeries(10, 11001));
  EXPECT_TRUE(w.IsIOError()) << w.ToString();
  EXPECT_NE(w.message().find("degraded"), std::string::npos) << w.ToString();
  EXPECT_FALSE(store->WriteHealth().ok());

  // ...but reads continue over the healthy shards, flagged degraded and
  // exact over what they can see.
  EXPECT_TRUE(store->GetSnapshot().degraded);
  EXPECT_EQ(store->num_entries(), healthy.size());
  const std::vector<Series> queries = MakeSeries(5, 11002);
  std::vector<SearchResult> results;
  ASSERT_NO_FATAL_FAILURE(Search(*store, queries, 3, &results));
  ExpectServedFromHealthy(results, queries, healthy, victim, 3);
}

TEST_P(ShardedStoreDegraded, ReadTimeChecksumFailureQuarantinesShard) {
  ScratchDir dir;
  const std::string root = dir.File("store");
  std::unique_ptr<ShardedStore> store;
  ASSERT_OK(ShardedStore::Open(root, SmallStore(dir, 2), &store));
  const std::vector<Series> data = MakeSeries(300, 12000);
  std::map<size_t, size_t> owners;
  for (const Series& s : data) ++owners[store->ShardForSeries(s)];
  ASSERT_GT(owners.size(), 1u);
  ASSERT_OK(store->InsertBatch(data));
  ASSERT_OK(store->Flush());  // memtables -> run files (+ .sax sidecars)

  // Corrupt what this mode reads from one LIVE shard's run, under the
  // running store. An exact search lazily loads the run's `.sax` sidecar
  // and fails its checksum; an approximate search never loads the sidecar,
  // so there every leaf page gets a flipped byte (32-byte stride past the
  // superblock) and its leaf read fails its page CRC. Either way the store
  // quarantines that shard mid-flight instead of failing reads store-wide.
  const char* target = exact() ? ".sax" : ".ctree";
  size_t victim = SIZE_MAX;
  for (size_t i = 0; i < store->num_shards() && victim == SIZE_MAX; ++i) {
    const std::string shard_dir = JoinPath(root, "shard-" + std::to_string(i));
    for (const auto& entry :
         std::filesystem::directory_iterator(shard_dir)) {
      if (!entry.is_regular_file()) continue;
      if (entry.path().extension() != target) continue;
      const auto size = static_cast<std::streamoff>(entry.file_size());
      if (exact()) {
        ASSERT_NO_FATAL_FAILURE(FlipByteAt(entry.path(), size / 2));
      } else {
        for (auto off = static_cast<std::streamoff>(kSuperblockBytes);
             off < size; off += 32) {
          ASSERT_NO_FATAL_FAILURE(FlipByteAt(entry.path(), off));
        }
      }
      victim = i;
      break;
    }
  }
  ASSERT_NE(victim, SIZE_MAX) << "no run " << target << " file to corrupt";
  std::vector<Series> healthy;
  for (const Series& s : data) {
    if (store->ShardForSeries(s) != victim) healthy.push_back(s);
  }

  const std::vector<Series> queries = MakeSeries(4, 12001);
  const std::vector<Series> first(queries.begin(), queries.begin() + 1);
  std::vector<SearchResult> results;
  ASSERT_NO_FATAL_FAILURE(Search(*store, first, 3, &results));
  ExpectServedFromHealthy(results, first, healthy, victim, 3);
  EXPECT_EQ(store->QuarantinedShards(), 1u);
  std::string detail;
  store->QuarantinedShards(&detail);
  EXPECT_NE(detail.find("shard " + std::to_string(victim)),
            std::string::npos)
      << detail;

  // Later snapshots carry the flag, reads keep answering, writes refuse.
  EXPECT_TRUE(store->GetSnapshot().degraded);
  const std::vector<Series> later(queries.begin() + 1, queries.end());
  ASSERT_NO_FATAL_FAILURE(Search(*store, later, 2, &results));
  ExpectServedFromHealthy(results, later, healthy, victim, 2);
  EXPECT_FALSE(store->InsertBatch(MakeSeries(5, 12002)).ok());
  EXPECT_FALSE(store->WriteHealth().ok());
}

// --- Atomic cross-shard visibility ------------------------------------------

TEST(ShardedStoreConcurrency, SnapshotsNeverSeeHalfABatch) {
  ScratchDir dir;
  StoreOptions opts = SmallStore(dir, 4);
  opts.forest.memtable_series = 48;  // frequent flushes during publication
  opts.forest.max_runs = 2;
  std::unique_ptr<ShardedStore> store;
  ASSERT_OK(ShardedStore::Open(dir.File("store"), opts, &store));

  // Build batches that are GUARANTEED multi-shard: pair series from the two
  // most popular owner shards, half and half per batch. Every batch then
  // commits as one epoch of exactly kBatchSize series.
  const std::vector<Series> raw = MakeSeries(700, 1234);
  std::map<size_t, std::vector<Series>> by_owner;
  for (const Series& s : raw) by_owner[store->ShardForSeries(s)].push_back(s);
  ASSERT_GT(by_owner.size(), 1u);
  std::vector<std::vector<Series>> pools;
  for (auto& [shard, pool] : by_owner) {
    (void)shard;
    pools.push_back(std::move(pool));
  }
  std::sort(pools.begin(), pools.end(),
            [](const auto& a, const auto& b) { return a.size() > b.size(); });
  constexpr size_t kHalf = 10;
  constexpr size_t kBatchSize = 2 * kHalf;
  const size_t num_batches =
      std::min(pools[0].size(), pools[1].size()) / kHalf;
  ASSERT_GT(num_batches, 3u);

  std::atomic<bool> done{false};
  std::vector<std::string> failures;
  std::mutex failures_mu;
  auto record_failure = [&](const std::string& msg) {
    std::lock_guard<std::mutex> lock(failures_mu);
    failures.push_back(msg);
  };

  std::thread writer([&]() {
    for (size_t b = 0; b < num_batches; ++b) {
      std::vector<Series> batch;
      for (size_t j = 0; j < kHalf; ++j) {
        batch.push_back(pools[0][b * kHalf + j]);
        batch.push_back(pools[1][b * kHalf + j]);
      }
      Status st = store->InsertBatch(batch);
      if (st.ok() && b % 3 == 1) st = store->Flush();
      if (st.ok() && b % 5 == 2) st = store->CompactAll();
      if (!st.ok()) {
        record_failure("writer: " + st.ToString());
        break;
      }
    }
    done.store(true);
  });

  // Readers: every batch is one cross-shard epoch of kBatchSize series, so
  // any snapshot must expose a whole number of epochs — and exactly
  // epoch * kBatchSize entries. Seeing anything else is the read-skew bug
  // this protocol removes.
  auto reader_fn = [&]() {
    uint64_t last_epoch = 0;
    while (!done.load()) {
      const ShardedStore::Snapshot snap = store->GetSnapshot();
      const uint64_t visible = snap.num_entries();
      if (visible % kBatchSize != 0) {
        record_failure("snapshot saw half a batch: " +
                       std::to_string(visible) + " entries");
        return;
      }
      if (visible != snap.epoch * kBatchSize) {
        record_failure("snapshot entries disagree with its epoch stamp: " +
                       std::to_string(visible) + " vs epoch " +
                       std::to_string(snap.epoch));
        return;
      }
      if (snap.epoch < last_epoch) {
        record_failure("snapshot epoch went backwards");
        return;
      }
      last_epoch = snap.epoch;
      // num_entries() must honor the same visibility boundary.
      const uint64_t counted = store->num_entries();
      if (counted % kBatchSize != 0) {
        record_failure("num_entries saw half a batch: " +
                       std::to_string(counted));
        return;
      }
    }
  };
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) readers.emplace_back(reader_fn);
  writer.join();
  for (auto& t : readers) t.join();
  for (const std::string& f : failures) ADD_FAILURE() << f;
  EXPECT_EQ(store->num_entries(), num_batches * kBatchSize);
  EXPECT_EQ(store->committed_epoch(), num_batches);
}

TEST(ShardedStoreConcurrency, ReadersAndEngineStayConsistentUnderIngest) {
  ScratchDir dir;
  StoreOptions opts = SmallStore(dir, 4);
  opts.forest.memtable_series = 60;  // frequent flushes
  opts.forest.max_runs = 2;          // frequent compactions
  std::unique_ptr<ShardedStore> store;
  ASSERT_OK(ShardedStore::Open(dir.File("store"), opts, &store));

  const size_t kTotal = 800;
  const std::vector<Series> data = MakeSeries(kTotal, 4242);
  const std::vector<Series> queries = MakeSeries(12, 4343);

  std::atomic<bool> done{false};
  std::vector<std::string> failures;
  std::mutex failures_mu;
  auto record_failure = [&](const std::string& msg) {
    std::lock_guard<std::mutex> lock(failures_mu);
    failures.push_back(msg);
  };

  // Writer: batches split across shards and inserted concurrently; every
  // few waves force a store-wide flush or two-level parallel compaction.
  std::thread writer([&]() {
    const size_t kBatch = 40;
    for (size_t base = 0; base < kTotal; base += kBatch) {
      std::vector<Series> batch(
          data.begin() + base,
          data.begin() + std::min(kTotal, base + kBatch));
      Status st = store->InsertBatch(batch);
      if (!st.ok()) {
        record_failure("InsertBatch: " + st.ToString());
        break;
      }
      if ((base / kBatch) % 5 == 1) st = store->Flush();
      if (st.ok() && (base / kBatch) % 7 == 2) st = store->CompactAll();
      if (!st.ok()) {
        record_failure("Flush/CompactAll: " + st.ToString());
        break;
      }
    }
    done.store(true);
  });

  // Readers: store snapshots must be internally consistent at all times —
  // sorted neighbor lists, approx upper-bounding exact, and the engine's
  // parallel cross-shard fan-out agreeing bit-for-bit with the serial
  // store search on the same snapshot.
  std::atomic<int> reader_checks{0};
  auto reader_fn = [&](size_t seed) {
    ThreadPool pool(2);
    QueryEngine engine(&pool);
    size_t iter = seed;
    while (!done.load()) {
      const ShardedStore::Snapshot snap = store->GetSnapshot();
      const uint64_t visible = snap.num_entries();
      if (visible == 0) continue;
      if (visible > kTotal) {
        record_failure("snapshot exposes more entries than inserted");
        return;
      }
      const Series& query = queries[iter++ % queries.size()];
      const size_t k = 1 + iter % 3;

      SearchResult exact;
      Status st = store->ExactSearch(snap, query.data(), &exact, k);
      if (!st.ok()) {
        record_failure("ExactSearch: " + st.ToString());
        return;
      }
      if (exact.neighbors.size() !=
          std::min<uint64_t>(k, visible)) {
        record_failure("unexpected exact neighbor count");
        return;
      }
      for (size_t j = 1; j < exact.neighbors.size(); ++j) {
        if (exact.neighbors[j].distance + 1e-12 <
            exact.neighbors[j - 1].distance) {
          record_failure("exact neighbors not ascending");
          return;
        }
      }
      SearchResult approx;
      st = store->ApproxSearch(snap, query.data(), 1, &approx, k);
      if (!st.ok()) {
        record_failure("ApproxSearch: " + st.ToString());
        return;
      }
      if (approx.distance + 1e-6 < exact.distance) {
        record_failure("approx beat exact on the same snapshot");
        return;
      }
      std::vector<SearchResult> batch;
      QuerySpec spec;
      spec.mode = QuerySpec::Mode::kExact;
      spec.k = k;
      st = engine.ExecuteBatch(*store, snap, {query}, spec, &batch);
      if (!st.ok()) {
        record_failure("ExecuteBatch: " + st.ToString());
        return;
      }
      if (batch[0].neighbors.size() != exact.neighbors.size()) {
        record_failure("engine/serial neighbor count mismatch");
        return;
      }
      for (size_t j = 0; j < exact.neighbors.size(); ++j) {
        if (batch[0].neighbors[j].offset != exact.neighbors[j].offset ||
            batch[0].neighbors[j].distance != exact.neighbors[j].distance) {
          record_failure("engine/serial neighbor mismatch");
          return;
        }
      }
      reader_checks.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> readers;
  for (size_t r = 0; r < 2; ++r) readers.emplace_back(reader_fn, r + 1);

  writer.join();
  for (auto& t : readers) t.join();
  for (const std::string& f : failures) ADD_FAILURE() << f;
  EXPECT_GT(reader_checks.load(), 0);

  // Quiescent state: everything visible and exact against the oracle.
  EXPECT_EQ(store->num_entries(), kTotal);
  for (size_t qi = 0; qi < 4; ++qi) {
    SearchResult final_result;
    ASSERT_OK(store->ExactSearch(queries[qi].data(), &final_result, 3));
    const std::vector<double> oracle =
        OracleDistances(data, kTotal, queries[qi], 3);
    ASSERT_EQ(final_result.neighbors.size(), oracle.size());
    for (size_t j = 0; j < oracle.size(); ++j) {
      EXPECT_NEAR(final_result.neighbors[j].distance, oracle[j], 1e-4);
    }
  }
}

}  // namespace
}  // namespace coconut
