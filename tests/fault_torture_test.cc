// Randomized crash-and-corrupt torture for the sharded store (CI job
// `fault-torture`, see .github/workflows/ci.yml). Three phases, all driven
// by one seeded mt19937_64 so every failure reproduces from the seed alone:
//
//   1. Crash rounds: arm a random failpoint on the commit path (protocol
//      kill points plus torn low-level writes), attempt a batch, and on
//      failure reopen the store. The reopened store must hold exactly the
//      committed prefix — the failed batch either vanished or (for faults
//      after the journal commit) survived whole, never partially.
//   2. Corrupt rounds: copy the store directory, flip one random byte in
//      one random file, and reopen the copy. The flip must either be
//      detected at open (Corruption), be repaired/quarantined (degraded
//      serving over the healthy shards), or hit a byte the engine rebuilds
//      anyway — but a corrupted answer must never be served as truth.
//   3. Deadline rounds: arm delay failpoints on the raw I/O sites and run
//      inserts/queries under random deadlines. Calls return OK /
//      DeadlineExceeded / Aborted only (never Corruption, never a hang),
//      and an aborted commit rolls back to the exact committed prefix.
//
// The seed comes from COCONUT_TORTURE_SEED (default 1); CI runs a small
// fixed set of seeds so a red run names the seed to replay locally.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/context.h"
#include "src/common/failpoint.h"
#include "src/core/coconut_forest.h"
#include "src/exec/query_engine.h"
#include "src/store/sharded_store.h"
#include "tests/test_util.h"

namespace coconut {
namespace {

using testing::ScratchDir;
using testing::TortureSeed;

constexpr size_t kSeriesLen = 64;
constexpr size_t kTopK = 5;

StoreOptions TortureOptions(const ScratchDir& dir) {
  StoreOptions opts;
  opts.forest.tree.summary.series_length = kSeriesLen;
  opts.forest.tree.summary.segments = 16;
  opts.forest.tree.leaf_capacity = 64;
  opts.forest.tree.tmp_dir = dir.path();
  opts.forest.memtable_series = 100;
  opts.forest.max_runs = 3;
  opts.num_shards = 3;
  // Small threshold so the journal checkpoints mid-run and the torture also
  // crosses checkpoint boundaries.
  opts.journal_checkpoint_bytes = 8u << 10;
  return opts;
}

std::vector<Series> RandomBatch(std::mt19937_64& rng, size_t count) {
  auto gen = MakeGenerator(DatasetKind::kRandomWalk, kSeriesLen, rng());
  std::vector<Series> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) out.push_back(gen->NextSeries());
  return out;
}

/// All model->query distances, ascending.
std::vector<double> AllDistances(const std::vector<Series>& data,
                                 const Series& query) {
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
  return dists;
}

/// True when `d` matches some element of sorted `dists` within `eps`.
bool IsKnownDistance(const std::vector<double>& dists, double d, double eps) {
  auto it = std::lower_bound(dists.begin(), dists.end(), d - eps);
  return it != dists.end() && *it <= d + eps;
}

/// Exact search over `store` must reproduce the brute-force oracle over
/// `model` — the crash-round ground truth check.
void ExpectExactMatchesOracle(ShardedStore* store,
                              const std::vector<Series>& model,
                              std::mt19937_64& rng) {
  auto gen = MakeGenerator(DatasetKind::kRandomWalk, kSeriesLen, rng());
  const Series query = gen->NextSeries();
  SearchResult r;
  ASSERT_OK(store->ExactSearch(query.data(), &r, kTopK));
  EXPECT_FALSE(r.degraded);
  std::vector<double> oracle = AllDistances(model, query);
  if (oracle.size() > kTopK) oracle.resize(kTopK);
  ASSERT_EQ(r.neighbors.size(), oracle.size());
  for (size_t j = 0; j < oracle.size(); ++j) {
    EXPECT_NEAR(r.neighbors[j].distance, oracle[j], 1e-4)
        << "neighbor " << j << " diverged from the oracle";
  }
}

TEST(FaultTorture, CrashAndCorruptRounds) {
  const uint64_t seed = TortureSeed();
  SCOPED_TRACE("COCONUT_TORTURE_SEED=" + std::to_string(seed));
  std::mt19937_64 rng(seed);
  FailpointGuard failpoints;

  ScratchDir dir;
  const std::string root = dir.File("store");
  const StoreOptions opts = TortureOptions(dir);
  std::unique_ptr<ShardedStore> store;
  ASSERT_OK(ShardedStore::Open(root, opts, &store));

  // The model: series the store has durably committed, in commit order.
  std::vector<Series> model;

  // ---- Phase 1: crash rounds -------------------------------------------
  // Fault menu. The commit protocol promises all-or-nothing for journaled
  // (multi-shard) batches, so any of these must leave either the old state
  // or old+batch — never a partial batch.
  struct Fault {
    const char* site;
    Failpoints::Kind kind;
  };
  const Fault kFaults[] = {
      {"store.commit.after_begin", Failpoints::Kind::kError},
      {"store.commit.shard_stage", Failpoints::Kind::kError},
      {"store.commit.before_journal_commit", Failpoints::Kind::kError},
      {"store.commit.after_journal_commit", Failpoints::Kind::kError},
      {"io.file.write", Failpoints::Kind::kTornWrite},
      {"io.file.sync", Failpoints::Kind::kError},
  };
  constexpr int kCrashRounds = 12;
  for (int round = 0; round < kCrashRounds; ++round) {
    SCOPED_TRACE("crash round " + std::to_string(round));
    const size_t batch_size = 20 + rng() % 61;
    std::vector<Series> batch = RandomBatch(rng, batch_size);

    // Only arm protocol faults when the batch actually takes the journaled
    // multi-shard path; a single-shard batch would sail past them and the
    // round would test nothing. Leave ~1/3 of rounds fault-free so the
    // committed prefix keeps growing no matter which faults the seed draws.
    std::map<size_t, size_t> owners;
    for (const Series& s : batch) ++owners[store->ShardForSeries(s)];
    const bool multi_shard = owners.size() > 1;
    if (multi_shard && rng() % 3 != 0) {
      const Fault& f = kFaults[rng() % std::size(kFaults)];
      Failpoints::Action action;
      action.kind = f.kind;
      action.remaining = 1;  // one shot: the reopen below must run clean
      Failpoints::Default().Arm(f.site, action);
    }

    const uint64_t before = store->num_entries();
    const Status st = store->InsertBatch(batch);
    Failpoints::Default().DisarmAll();

    if (st.ok()) {
      model.insert(model.end(), batch.begin(), batch.end());
      ASSERT_EQ(store->num_entries(), before + batch.size());
    } else {
      // The store is poisoned; recovery happens at reopen.
      store.reset();
      ASSERT_OK(ShardedStore::Open(root, opts, &store));
      ASSERT_EQ(store->QuarantinedShards(), 0u)
          << "a pure crash fault must not look like corruption";
      const uint64_t after = store->num_entries();
      ASSERT_TRUE(after == model.size() ||
                  after == model.size() + batch.size())
          << "reopened to " << after << " entries; committed prefix is "
          << model.size() << ", failed batch " << batch.size();
      if (after == model.size() + batch.size()) {
        model.insert(model.end(), batch.begin(), batch.end());
      }
    }

    if (round % 3 == 2 && !model.empty()) {
      ExpectExactMatchesOracle(store.get(), model, rng);
    }
  }
  ASSERT_GT(model.size(), 0u) << "every crash round rolled back";
  // Ensure on-disk run files exist so the corrupt phase has real targets.
  ASSERT_OK(store->Flush());
  ExpectExactMatchesOracle(store.get(), model, rng);
  store.reset();

  // ---- Phase 2: corrupt rounds -----------------------------------------
  // Queries alternate between the direct store API and a single-query
  // QueryEngine batch: both entry points must quarantine and degrade alike.
  QueryEngine engine;
  QuerySpec spec;
  spec.mode = QuerySpec::Mode::kExact;
  spec.k = kTopK;
  constexpr int kCorruptRounds = 6;
  for (int round = 0; round < kCorruptRounds; ++round) {
    SCOPED_TRACE("corrupt round " + std::to_string(round));
    const std::string copy =
        dir.File("corrupt-" + std::to_string(round));
    std::filesystem::copy(root, copy,
                          std::filesystem::copy_options::recursive);

    // Deterministic victim: sorted file list, seeded pick.
    std::vector<std::filesystem::path> files;
    for (const auto& e :
         std::filesystem::recursive_directory_iterator(copy)) {
      if (e.is_regular_file() && e.file_size() > 0) files.push_back(e.path());
    }
    std::sort(files.begin(), files.end());
    ASSERT_FALSE(files.empty());
    const std::filesystem::path& victim = files[rng() % files.size()];
    const uint64_t size = std::filesystem::file_size(victim);
    const uint64_t offset = rng() % size;
    {
      std::fstream f(victim,
                     std::ios::in | std::ios::out | std::ios::binary);
      ASSERT_TRUE(f.good()) << victim;
      f.seekg(static_cast<std::streamoff>(offset));
      char b = 0;
      f.read(&b, 1);
      b = static_cast<char>(b ^ 0x40);
      f.seekp(static_cast<std::streamoff>(offset));
      f.write(&b, 1);
    }
    SCOPED_TRACE("flipped " + victim.string() + " @" +
                 std::to_string(offset));

    std::unique_ptr<ShardedStore> hurt;
    const Status open = ShardedStore::Open(copy, opts, &hurt);
    if (!open.ok()) {
      // Detected at open. Anything but Corruption means the flip was
      // misclassified (e.g. surfaced as a silent parse quirk).
      EXPECT_EQ(open.code(), Status::Code::kCorruption) << open.ToString();
      continue;
    }

    // Opened: either fully repaired (run files rebuild from checksummed
    // raw) or degraded with the bad shard quarantined. Served answers must
    // come from real committed data either way.
    std::string detail;
    const size_t quarantined = hurt->QuarantinedShards(&detail);
    bool degraded_seen = quarantined > 0;
    for (int q = 0; q < 3; ++q) {
      auto gen = MakeGenerator(DatasetKind::kRandomWalk, kSeriesLen, rng());
      const Series query = gen->NextSeries();
      const std::vector<double> oracle = AllDistances(model, query);
      SearchResult r;
      if (q % 2 == 0) {
        ASSERT_OK(hurt->ExactSearch(query.data(), &r, kTopK));
      } else {
        std::vector<SearchResult> batch;
        ASSERT_OK(engine.ExecuteBatch(*hurt, {query}, spec, &batch));
        r = batch[0];
      }
      degraded_seen = degraded_seen || r.degraded;
      ASSERT_LE(r.neighbors.size(), kTopK);
      for (size_t j = 0; j < r.neighbors.size(); ++j) {
        // Never serve fabricated data: every answer must be a distance to
        // a series the model actually committed.
        EXPECT_TRUE(IsKnownDistance(oracle, r.neighbors[j].distance, 1e-3))
            << "served distance " << r.neighbors[j].distance
            << " matches no committed series";
      }
      if (!r.degraded) {
        // Non-degraded answers must be the exact oracle top-k.
        ASSERT_EQ(r.neighbors.size(), std::min(oracle.size(), kTopK));
        for (size_t j = 0; j < r.neighbors.size(); ++j) {
          EXPECT_NEAR(r.neighbors[j].distance, oracle[j], 1e-4);
        }
      }
    }
    if (quarantined > 0) {
      EXPECT_TRUE(hurt->GetSnapshot().degraded);
      EXPECT_FALSE(hurt->InsertBatch(RandomBatch(rng, 4)).ok())
          << "a degraded store must refuse writes";
    }
    hurt.reset();
    std::filesystem::remove_all(copy);
  }

  // ---- Phase 3: deadline rounds ----------------------------------------
  // Arm delay failpoints on the low-level I/O sites and drive inserts and
  // queries under random (often unmeetable) deadlines. Every call must
  // return OK, DeadlineExceeded, or Aborted — never Corruption, never a
  // hang — and a deadline-aborted commit must roll back to the exact
  // committed prefix on reopen, just like a crash fault.
  ASSERT_OK(ShardedStore::Open(root, opts, &store));
  ASSERT_EQ(store->num_entries(), model.size());
  constexpr int kDeadlineRounds = 10;
  for (int round = 0; round < kDeadlineRounds; ++round) {
    SCOPED_TRACE("deadline round " + std::to_string(round));
    Failpoints::Action delay;
    delay.kind = Failpoints::Kind::kDelayMs;
    delay.delay_ms = 1 + static_cast<int>(rng() % 8);
    delay.probability = 0.5 + 0.5 * static_cast<double>(rng() % 2);
    Failpoints::Default().Arm("io.file.read", delay);
    Failpoints::Default().Arm("io.file.write", delay);
    const Context ctx =
        Context::WithTimeout(std::chrono::milliseconds(rng() % 40));

    if (rng() % 2 == 0) {
      std::vector<Series> batch = RandomBatch(rng, 20 + rng() % 41);
      const Status st = store->InsertBatch(batch, ctx);
      Failpoints::Default().DisarmAll();
      ASSERT_TRUE(st.ok() || st.IsDeadlineExceeded() || st.IsAborted())
          << st.ToString();
      if (st.ok()) {
        model.insert(model.end(), batch.begin(), batch.end());
        ASSERT_EQ(store->num_entries(), model.size());
      } else {
        // Pre-begin aborts leave the store live; mid-commit aborts poison
        // it. Reopening handles both and must land on an exact prefix.
        store.reset();
        ASSERT_OK(ShardedStore::Open(root, opts, &store));
        ASSERT_EQ(store->QuarantinedShards(), 0u)
            << "a deadline abort must never look like corruption";
        const uint64_t after = store->num_entries();
        ASSERT_TRUE(after == model.size() ||
                    after == model.size() + batch.size())
            << "reopened to " << after << " entries; committed prefix is "
            << model.size() << ", aborted batch " << batch.size();
        if (after == model.size() + batch.size()) {
          model.insert(model.end(), batch.begin(), batch.end());
        }
      }
    } else {
      auto gen = MakeGenerator(DatasetKind::kRandomWalk, kSeriesLen, rng());
      const std::vector<Series> queries{gen->NextSeries(), gen->NextSeries()};
      std::vector<SearchResult> results;
      const Status st = engine.ExecuteBatch(*store, queries, spec, &results,
                                            /*traces=*/nullptr, ctx);
      Failpoints::Default().DisarmAll();
      ASSERT_TRUE(st.ok() || st.IsDeadlineExceeded() || st.IsAborted())
          << st.ToString();
      // A deadlined read path must not disturb the store.
      ASSERT_EQ(store->num_entries(), model.size());
    }
  }
  // With the delays gone the store serves the full committed model.
  Failpoints::Default().DisarmAll();
  ExpectExactMatchesOracle(store.get(), model, rng);
}

}  // namespace
}  // namespace coconut
