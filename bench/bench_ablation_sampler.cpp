// Ablation (Sec. V "Negative Sampling"): independent uniform corruption
// versus the batched strategy shared with PBG/DGL-KE. The paper adopts
// batching to cut sampling complexity from O(b_p d (b_n + 1)) to
// O(b_p d + b_p k d / b_c); downstream it also shrinks the distinct
// entity rows a batch touches, hence the traffic.
#include "harness.h"

#include "hetkg/hetkg.h"

int main(int argc, char** argv) {
  using namespace hetkg;
  using namespace std::string_literals;
  FlagParser flags;
  bench::DefineCommonFlags(&flags);
  bench::InitBench(&flags, argc, argv);

  bench::PrintBanner("bench_ablation_sampler",
                     "Ablation - uniform vs batched negative sampling");

  const auto dataset = bench::GetDataset("fb15k", flags);
  core::TrainerConfig base = bench::ConfigFromFlags(flags);
  const size_t epochs = bench::EpochsFromFlags(flags);
  const eval::EvalOptions eval_options = bench::EvalOptionsFromFlags(flags);

  bench::Table table({"Sampler", "Entity draws/batch", "Remote bytes",
                      "Time(s)", "Test MRR"});
  for (const std::string& sampler : {"uniform"s, "batched"s}) {
    core::TrainerConfig config = base;
    config.negative_sampler = sampler;
    const auto outcome =
        bench::RunSystem(core::SystemKind::kHetKgDps, config, dataset,
                         epochs, eval_options);
    auto probe = embedding::MakeNegativeSampler(
                     sampler, dataset.graph.num_entities(),
                     config.negatives_per_positive,
                     config.negative_chunk_size, 1)
                     .value();
    table.AddRow(
        {sampler,
         std::to_string(probe->EntityDrawsPerBatch(config.batch_size)),
         HumanBytes(static_cast<double>(outcome.report.total_remote_bytes)),
         bench::Fmt(outcome.report.total_time.total_seconds(), 2),
         bench::Fmt(outcome.test_metrics.mrr, 3)});
  }
  table.Print("Ablation: negative sampling strategy (FB15k synthetic, "
              "HET-KG-D)");
  std::printf("\nExpected: batched sampling draws b_n entities per chunk "
              "instead of per positive,\nreducing both sampling work and "
              "distinct rows per iteration at similar MRR.\n");
  return 0;
}
