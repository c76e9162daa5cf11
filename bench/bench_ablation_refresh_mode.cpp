// Ablation (Sec. IV-B "Discussion on related systems"): the paper's
// coarse full-table refresh (Algorithm 3) versus a fine-grained
// per-row, on-access refresh in the spirit of HET's embedding clocks.
// On-access refresh only re-pulls rows that are actually read after
// aging past P, so cached-but-cold rows stop costing refresh traffic;
// every row that is read is still at most P iterations stale.
#include "harness.h"

#include "hetkg/hetkg.h"

int main(int argc, char** argv) {
  using namespace hetkg;
  FlagParser flags;
  bench::DefineCommonFlags(&flags);
  bench::InitBench(&flags, argc, argv);

  bench::PrintBanner(
      "bench_ablation_refresh_mode",
      "Ablation - full-table refresh (Alg. 3) vs on-access refresh");

  const auto dataset = bench::GetDataset("fb15k", flags);
  core::TrainerConfig base = bench::ConfigFromFlags(flags);
  const size_t epochs = bench::EpochsFromFlags(flags);
  const eval::EvalOptions eval_options = bench::EvalOptionsFromFlags(flags);

  bench::Table table({"Cache", "Refresh mode", "Refresh rows",
                      "Remote bytes", "Time(s)", "Test MRR"});
  for (size_t cache : {64u, 512u, 4096u}) {
    for (core::RefreshMode mode :
         {core::RefreshMode::kFullTable, core::RefreshMode::kOnAccess}) {
      core::TrainerConfig config = base;
      config.cache_capacity = cache;
      config.sync.refresh_mode = mode;
      const auto outcome =
          bench::RunSystem(core::SystemKind::kHetKgDps, config, dataset,
                           epochs, eval_options);
      table.AddRow(
          {std::to_string(cache),
           mode == core::RefreshMode::kFullTable ? "full-table"
                                                 : "on-access",
           std::to_string(
               outcome.report.metrics.Get(metric::kCacheRefreshRows)),
           HumanBytes(static_cast<double>(outcome.report.total_remote_bytes)),
           bench::Fmt(outcome.report.total_time.total_seconds(), 2),
           bench::Fmt(outcome.test_metrics.mrr, 3)});
    }
  }
  table.Print("Ablation: refresh protocol (FB15k synthetic, HET-KG-D)");
  std::printf(
      "\nExpected: on-access refresh needs far fewer refresh rows —\n"
      "especially with oversized caches, where full-table refresh pays\n"
      "for rows nobody reads — at equal accuracy.\n");
  return 0;
}
