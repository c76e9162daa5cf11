// Reproduces Table III: link prediction on FB15k for PBG / DGL-KE /
// HET-KG-C / HET-KG-D with TransE and DistMult (MRR, Hits@1, Hits@10,
// training time). Paper shape: all systems reach comparable accuracy;
// HET-KG trains fastest, PBG slowest (~2x+ DGL-KE).
#include "harness.h"

#include "hetkg/hetkg.h"

int main(int argc, char** argv) {
  using namespace hetkg;
  FlagParser flags;
  bench::DefineCommonFlags(&flags);
  bench::InitBench(&flags, argc, argv);

  bench::PrintBanner("bench_table3_fb15k",
                     "Table III - link prediction results on FB15k");

  const auto dataset = bench::GetDataset("fb15k", flags);
  const core::TrainerConfig config = bench::ConfigFromFlags(flags);
  bench::RunLinkPredictionTable(
      "Table III: FB15k (synthetic, " +
          std::to_string(dataset.graph.num_triples()) + " triples, d=" +
          std::to_string(config.dim) + ")",
      dataset, config,
      {embedding::ModelKind::kTransEL1, embedding::ModelKind::kDistMult},
      bench::EpochsFromFlags(flags),
      bench::EvalOptionsFromFlags(flags));

  std::printf(
      "\nPaper reference (Table III, TransE): PBG 0.582/1047s, DGL-KE "
      "0.570/484s,\nHET-KG-C 0.569/466s, HET-KG-D 0.564/419s. Expected "
      "shape: comparable MRR\nacross systems; time(PBG) >> time(DGL-KE) "
      ">= time(HET-KG-C/D).\n");
  return 0;
}
