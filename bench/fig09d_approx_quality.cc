// Figure 9d: quality of the approximate answers — the average Euclidean
// distance between queries and the approximate results, plus the fraction
// of queries where each answer is strictly closer than ADSFull's (and, in
// its own column, the fraction where the two tie). Paper result: the
// Coconut family returns closer neighbors; CTree(1) beat ADSFull on 69% of
// queries and CTree(10) on 94%.
#include "bench/bench_util.h"
#include "bench/query_fixture.h"

namespace coconut {
namespace bench {
namespace {

constexpr size_t kLength = 256;
// Leaf capacity scaled with the laptop-scale N so that leaf/N matches the
// paper's ratio (2000 leaves of 2000 entries over tens of millions).
constexpr size_t kLeafCapacity = 100;

void Run() {
  Banner("Figure 9d", "approximate answer quality (avg Euclidean distance)");
  const size_t count = 40000 * Scale();
  const size_t queries = 100;
  BenchDir dir;
  const std::string raw = PrepareDataset(dir, DatasetKind::kRandomWalk, count,
                                         kLength, 20, "data.bin");
  QueryFixture f = BuildQueryFixture(dir, raw, kLength, kLeafCapacity, 64ull << 20);
  auto qs = MakeQueries(DatasetKind::kRandomWalk, queries, kLength, 2000);

  std::vector<double> ctree1(queries), ctree10(queries), adsfull(queries),
      adsplus(queries), ctreefull(queries);
  for (size_t i = 0; i < queries; ++i) {
    SearchResult r;
    CheckOk(f.ctree->ApproxSearch(qs[i].data(), 1, &r), "CTree(1)");
    ctree1[i] = r.distance;
    CheckOk(f.ctree->ApproxSearch(qs[i].data(), 10, &r), "CTree(10)");
    ctree10[i] = r.distance;
    CheckOk(f.ctree_full->ApproxSearch(qs[i].data(), 1, &r), "CTreeFull");
    ctreefull[i] = r.distance;
    CheckOk(f.ads_plus->ApproxSearch(qs[i].data(), &r), "ADS+");
    adsplus[i] = r.distance;
    CheckOk(f.ads_full->ApproxSearch(qs[i].data(), &r), "ADSFull");
    adsfull[i] = r.distance;
  }

  auto avg = [&](const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;
    return s / v.size();
  };
  // Strict wins and exact ties against ADSFull, as % of queries. Ties are
  // not wins: ADS+ answers from the same leaf as ADSFull, so it ties on
  // every query.
  auto row = [&](const char* method, const std::vector<double>& v) {
    size_t wins = 0, ties = 0;
    for (size_t i = 0; i < v.size(); ++i) {
      if (v[i] < adsfull[i]) ++wins;
      if (v[i] == adsfull[i]) ++ties;
    }
    PrintRow({method, FmtDouble(avg(v), 3),
              FmtDouble(100.0 * wins / v.size(), 1),
              FmtDouble(100.0 * ties / v.size(), 1)});
  };

  PrintHeader({"method", "avg_distance", "beats_ADSFull%", "ties_ADSFull%"});
  row("CTree(1)", ctree1);
  row("CTree(10)", ctree10);
  row("CTreeFull(1)", ctreefull);
  row("ADS+", adsplus);
  PrintRow({"ADSFull", FmtDouble(avg(adsfull), 3), "—", "—"});
  std::printf(
      "\nExpectation (paper Fig 9d): Coconut answers are closer on average;\n"
      "paper reports CTree(1) better than ADSFull for 69%% of queries and\n"
      "CTree(10) for 94%%.\n");
}

}  // namespace
}  // namespace bench
}  // namespace coconut

int main() {
  coconut::bench::Run();
  return 0;
}
