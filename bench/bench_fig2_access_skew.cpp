// Reproduces Fig. 2: the access-frequency skew of entity and relation
// embeddings over one training epoch — the micro-benchmark motivating
// hot-embedding caching (Sec. III-C), including the Sec. IV-B
// observation that on FB15k the top 1% of entities/relations take ~6% /
// ~36% of accesses.
#include "harness.h"

#include "hetkg/hetkg.h"

int main(int argc, char** argv) {
  using namespace hetkg;
  using namespace std::string_literals;
  FlagParser flags;
  bench::DefineCommonFlags(&flags);
  bench::InitBench(&flags, argc, argv);

  bench::PrintBanner("bench_fig2_access_skew",
                     "Fig. 2 - embedding access frequency skew per epoch");

  const size_t negatives =
      static_cast<size_t>(flags.GetInt("negatives"));

  for (const std::string& name : {"fb15k"s, "wn18"s, "freebase86m"s}) {
    const auto dataset = bench::GetDataset(name, flags);
    const auto freq = graph::CountEpochAccesses(dataset.graph, negatives,
                                                flags.GetInt("seed"));
    const auto entity_skew = graph::ComputeSkew(freq.entity);
    const auto relation_skew = graph::ComputeSkew(freq.relation);

    bench::Table table({"Top fraction", "Entity access share",
                        "Relation access share"});
    for (size_t i = 0; i < entity_skew.top_share.size(); ++i) {
      table.AddRow(
          {bench::Fmt(entity_skew.top_share[i].first * 100.0, 1) + "%",
           bench::Fmt(entity_skew.top_share[i].second * 100.0, 1) + "%",
           bench::Fmt(relation_skew.top_share[i].second * 100.0, 1) + "%"});
    }
    table.Print("Fig. 2 (" + dataset.graph.name() + "): access share of the "
                "hottest ids; entity gini=" +
                bench::Fmt(entity_skew.gini, 3) + ", relation gini=" +
                bench::Fmt(relation_skew.gini, 3));

    // Rank-frequency series (log-spaced ranks), the raw Fig. 2 curve.
    const auto entity_sorted = graph::SortedDescending(freq.entity);
    const auto relation_sorted = graph::SortedDescending(freq.relation);
    std::printf("rank:frequency series (entities):");
    for (size_t r = 1; r < entity_sorted.size(); r *= 4) {
      std::printf(" %zu:%u", r, entity_sorted[r - 1]);
    }
    std::printf("\nrank:frequency series (relations):");
    for (size_t r = 1; r < relation_sorted.size(); r *= 4) {
      std::printf(" %zu:%u", r, relation_sorted[r - 1]);
    }
    std::printf("\n");
  }
  std::printf("\nPaper reference (Sec. IV-B): FB15k top 1%% entities ~6%%, "
              "top 1%% relations ~36%% of embedding usage.\n");
  return 0;
}
