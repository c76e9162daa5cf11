// Reproduces Fig. 7: per-epoch time broken into computation and
// communication for each system on each dataset. Paper shape: compute
// time is nearly identical for DGL-KE and HET-KG (the cache does not
// slow the math down); HET-KG's communication bar is shorter; PBG's
// communication bar dwarfs everyone's (dense relation weights).
#include "harness.h"

#include "hetkg/hetkg.h"

int main(int argc, char** argv) {
  using namespace hetkg;
  using namespace std::string_literals;
  FlagParser flags;
  bench::DefineCommonFlags(&flags);
  bench::InitBench(&flags, argc, argv);

  bench::PrintBanner(
      "bench_fig7_breakdown",
      "Fig. 7 - computation vs communication time per epoch");

  const core::TrainerConfig base_config = bench::ConfigFromFlags(flags);
  for (const std::string& name : {"fb15k"s, "wn18"s, "freebase86m"s}) {
    const auto dataset = bench::GetDataset(name, flags);
    core::TrainerConfig config = base_config;
    bench::ApplyDatasetDefaults(name, flags, &config);
    bench::Table table({"System", "Compute(s)", "Comm(s)", "Total(s)",
                        "Remote bytes"});
    for (core::SystemKind system :
         {core::SystemKind::kPbg, core::SystemKind::kDglKe,
          core::SystemKind::kHetKgCps, core::SystemKind::kHetKgDps}) {
      // With --trace_out/--metrics_json set, each dataset x system run
      // gets its own file; the metrics' phase.* gauges are exactly the
      // per-phase split behind this figure's bars.
      const std::string tag =
          name + "_" + std::string(core::SystemKindName(system));
      config.obs.trace_out =
          bench::SuffixedPath(base_config.obs.trace_out, tag);
      config.obs.metrics_json =
          bench::SuffixedPath(base_config.obs.metrics_json, tag);
      auto engine = core::MakeEngine(system, config, dataset.graph,
                                     dataset.split.train)
                        .value();
      const auto report = engine->Train(1).value();
      table.AddRow({std::string(core::SystemKindName(system)),
                    bench::Fmt(report.total_time.compute_seconds, 3),
                    bench::Fmt(report.total_time.comm_seconds, 3),
                    bench::Fmt(report.total_time.total_seconds(), 3),
                    HumanBytes(static_cast<double>(report.total_remote_bytes))});
    }
    table.Print("Fig. 7 (" + dataset.graph.name() +
                "): one-epoch time breakdown");
  }

  // Pipeline overlap (DESIGN.md §12): retrain the HET-KG-D workload
  // under the lag-N --async schedule, where stages ahead by up to the
  // staleness bound hide the smaller of compute/comm behind the larger
  // in modeled time. The Overlap column is exactly the hidden time;
  // speedup = serial total / overlapped total.
  {
    const auto dataset = bench::GetDataset("fb15k", flags);
    core::TrainerConfig config = base_config;
    bench::ApplyDatasetDefaults("fb15k", flags, &config);
    config.obs = obs::ObsConfig{};
    bench::Table table({"Mode", "Compute(s)", "Comm(s)", "Overlap(s)",
                        "Total(s)", "Iters/s", "Speedup"});
    double serial_total = 0.0;
    double serial_iters_per_sec = 0.0;
    for (const bool async : {false, true}) {
      config.sync.async_pipeline = async;
      auto engine = core::MakeEngine(core::SystemKind::kHetKgDps, config,
                                     dataset.graph, dataset.split.train)
                        .value();
      auto* ps = static_cast<core::PsTrainingEngine*>(engine.get());
      const size_t iters = ps->IterationsPerEpoch();
      const auto report = engine->Train(1).value();
      const double total = report.total_time.total_seconds();
      const double ips = total > 0.0 ? iters / total : 0.0;
      if (!async) {
        serial_total = total;
        serial_iters_per_sec = ips;
      }
      table.AddRow(
          {async ? "async (staleness " +
                       std::to_string(config.sync.pipeline_staleness) + ")"
                 : "sync",
           bench::Fmt(report.total_time.compute_seconds, 3),
           bench::Fmt(report.total_time.comm_seconds, 3),
           bench::Fmt(report.total_time.overlap_seconds, 3),
           bench::Fmt(total, 3), bench::Fmt(ips, 1),
           async && serial_total > 0.0
               ? bench::Fmt(ips / serial_iters_per_sec, 2) + "x"
               : "1.00x"});
    }
    table.Print("Pipeline overlap (HET-KG-D on FB15k): sync vs --async");
  }

  std::printf("\nPaper reference: DGL-KE and HET-KG match on compute; "
              "HET-KG's communication is lower; PBG's communication "
              "dominates its runtime. The async pipeline hides the "
              "smaller of compute/comm behind the larger.\n");
  return 0;
}
