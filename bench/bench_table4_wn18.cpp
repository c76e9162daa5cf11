// Reproduces Table IV: link prediction on WN18. Paper shape: HET-KG
// saves relatively more on WN18 because the tiny relation vocabulary
// (18) caches densely; CPS is slightly faster than DPS here because the
// DPS prefetch overhead outweighs its hit-ratio gain on a small dataset.
#include "harness.h"

#include "hetkg/hetkg.h"

int main(int argc, char** argv) {
  using namespace hetkg;
  FlagParser flags;
  bench::DefineCommonFlags(&flags);
  bench::InitBench(&flags, argc, argv);

  bench::PrintBanner("bench_table4_wn18",
                     "Table IV - link prediction results on WN18");

  const auto dataset = bench::GetDataset("wn18", flags);
  const core::TrainerConfig config = bench::ConfigFromFlags(flags);
  bench::RunLinkPredictionTable(
      "Table IV: WN18 (synthetic, " +
          std::to_string(dataset.graph.num_triples()) + " triples, d=" +
          std::to_string(config.dim) + ")",
      dataset, config,
      {embedding::ModelKind::kTransEL1, embedding::ModelKind::kDistMult},
      bench::EpochsFromFlags(flags),
      bench::EvalOptionsFromFlags(flags));

  std::printf(
      "\nPaper reference (Table IV, TransE): PBG 0.722/477s, DGL-KE "
      "0.715/184s,\nHET-KG-C 0.720/163s, HET-KG-D 0.719/168s.\n");
  return 0;
}
