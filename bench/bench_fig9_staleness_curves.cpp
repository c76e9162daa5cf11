// Reproduces Fig. 9: epoch-by-epoch validation MRR for tight vs loose
// consistency (staleness 1 vs 128). Paper shape: staleness=1 converges
// to MRR ~0.67 while staleness=128 plateaus lower (~0.59) — the
// consistency guarantee matters for convergence.
#include "harness.h"

#include "hetkg/hetkg.h"

int main(int argc, char** argv) {
  using namespace hetkg;
  FlagParser flags;
  bench::DefineCommonFlags(&flags);
  bench::InitBench(&flags, argc, argv);

  bench::PrintBanner("bench_fig9_staleness_curves",
                     "Fig. 9 - epoch-MRR curves under staleness 1 vs 128");

  const auto dataset = bench::GetDataset("freebase86m", flags);
  core::TrainerConfig base = bench::ConfigFromFlags(flags);
  bench::ApplyDatasetDefaults("freebase86m", flags, &base);
  if (!flags.IsSet("cache")) {
    // The consistency experiment needs staleness to cover a large share
    // of reads: maximize the cached fraction.
    base.cache_capacity = 16384;
  }
  const size_t epochs = bench::EpochsFromFlags(flags);
  const eval::EvalOptions eval_options = bench::EvalOptionsFromFlags(flags);

  bench::Table table({"Staleness", "Epoch", "Valid MRR"});
  for (size_t staleness : {1u, 8u, 128u}) {
    core::TrainerConfig config = base;
    config.sync.staleness_bound = staleness;
    // Loose staleness only bites when the cache holds a meaningful
    // share of traffic; keep the configured cache.
    const auto outcome =
        bench::RunSystem(core::SystemKind::kHetKgDps, config, dataset,
                         epochs, eval_options,
                         /*with_validation_curve=*/true);
    for (const auto& epoch : outcome.report.epochs) {
      table.AddRow({std::to_string(staleness),
                    std::to_string(epoch.epoch + 1),
                    bench::Fmt(epoch.valid_metrics.mrr, 3)});
    }
  }
  table.Print("Fig. 9: staleness 1 / 8 / 128 epoch-MRR curves "
              "(Freebase-86m synthetic)");
  std::printf("\nPaper reference: staleness=1 reaches MRR 0.67; "
              "staleness=128 only 0.59.\n");
  return 0;
}
