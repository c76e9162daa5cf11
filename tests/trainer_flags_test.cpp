// The shared TrainerConfig flag binder (core/trainer_flags.h): unset
// flags reproduce the caller's defaults bit-exactly, malformed values
// are InvalidArgument naming the flag, and the launcher's and the
// benches' flag sets bind the same argv to the same config apart from
// their declared defaults.
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/flags.h"
#include "core/trainer.h"
#include "core/trainer_flags.h"
#include "graph/synthetic.h"
#include "harness.h"

namespace hetkg::core {
namespace {

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

/// Every TrainerConfig member, field by field; doubles bit-exactly.
void ExpectSameConfig(const TrainerConfig& a, const TrainerConfig& b) {
#define HETKG_SAME(f) EXPECT_EQ(a.f, b.f) << #f
#define HETKG_SAME_BITS(f) EXPECT_EQ(Bits(a.f), Bits(b.f)) << #f
  HETKG_SAME(model);
  HETKG_SAME(dim);
  HETKG_SAME_BITS(learning_rate);
  HETKG_SAME(loss);
  HETKG_SAME_BITS(margin);
  HETKG_SAME(batch_size);
  HETKG_SAME(negatives_per_positive);
  HETKG_SAME(negative_sampler);
  HETKG_SAME(negative_chunk_size);
  HETKG_SAME_BITS(relation_corruption_prob);
  HETKG_SAME(degree_weighted_negatives);
  HETKG_SAME(num_machines);
  HETKG_SAME(partitioner);
  HETKG_SAME(num_threads);
  HETKG_SAME(kernel);
  HETKG_SAME(sync.strategy);
  HETKG_SAME(sync.staleness_bound);
  HETKG_SAME(sync.dps_window);
  HETKG_SAME(sync.refresh_mode);
  HETKG_SAME(sync.write_back_period);
  HETKG_SAME(sync.async_pipeline);
  HETKG_SAME(sync.pipeline_staleness);
  HETKG_SAME(cache_capacity);
  HETKG_SAME_BITS(cache_entity_ratio);
  HETKG_SAME(heterogeneity_aware);
  HETKG_SAME(pbg_partitions);
  HETKG_SAME(pbg_relation_sync_period);
  HETKG_SAME_BITS(network.bandwidth_bytes_per_sec);
  HETKG_SAME_BITS(network.latency_seconds);
  HETKG_SAME(network.header_bytes);
  HETKG_SAME_BITS(network.memory_bandwidth_bytes_per_sec);
  HETKG_SAME_BITS(compute.flops_per_second);
  HETKG_SAME(fault.enabled);
  HETKG_SAME(fault.seed);
  HETKG_SAME_BITS(fault.drop_prob);
  HETKG_SAME_BITS(fault.duplicate_prob);
  HETKG_SAME_BITS(fault.delay_prob);
  HETKG_SAME_BITS(fault.delay_seconds);
  HETKG_SAME(fault.max_retries);
  HETKG_SAME_BITS(fault.retry_backoff_seconds);
  HETKG_SAME(fault.outages.size());
  ASSERT_EQ(a.fault.process_faults.size(), b.fault.process_faults.size());
  for (size_t i = 0; i < a.fault.process_faults.size(); ++i) {
    HETKG_SAME(fault.process_faults[i].kind);
    HETKG_SAME(fault.process_faults[i].machine);
    HETKG_SAME(fault.process_faults[i].tick);
  }
  HETKG_SAME(obs.trace_out);
  HETKG_SAME(obs.metrics_json);
  HETKG_SAME(obs.metrics_window);
  HETKG_SAME(seed);
  HETKG_SAME(checkpoint_dir);
  HETKG_SAME(checkpoint_every);
  HETKG_SAME(keep_checkpoints);
  HETKG_SAME(resume_from);
  HETKG_SAME(halt_after_iterations);
  HETKG_SAME(checkpoint_fsync);
  HETKG_SAME(storage.enabled);
  HETKG_SAME(storage.cold_dir);
  HETKG_SAME(storage.dtype);
#undef HETKG_SAME
#undef HETKG_SAME_BITS
}

/// The defaults examples/hetkg_train.cpp passes to DefineTrainerFlags.
TrainerConfig LauncherDefaults() {
  TrainerConfig defaults;
  defaults.batch_size = 64;
  defaults.cache_capacity = 256;
  return defaults;
}

/// Parses `args` (without argv[0]) into `flags`.
Status ParseArgs(FlagParser* flags, std::vector<std::string> args) {
  args.insert(args.begin(), "prog");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return flags->Parse(static_cast<int>(argv.size()), argv.data());
}

Result<TrainerConfig> Bind(const TrainerConfig& defaults,
                           const std::vector<std::string>& args) {
  FlagParser flags;
  DefineTrainerFlags(&flags, defaults);
  const Status parsed = ParseArgs(&flags, args);
  if (!parsed.ok()) return parsed;
  return TrainerConfigFromFlags(flags);
}

TEST(TrainerFlagsTest, UnsetFlagsBindToTheCallersDefaults) {
  // Non-default values in every flag-bound field, including doubles
  // whose shortest decimal form must round-trip to the same bits.
  TrainerConfig custom;
  custom.dim = 7;
  custom.learning_rate = 0.1 + 0.2;
  custom.batch_size = 3;
  custom.negatives_per_positive = 5;
  custom.negative_chunk_size = 5;
  custom.num_machines = 3;
  custom.pbg_partitions = 6;
  custom.cache_capacity = 11;
  custom.sync.staleness_bound = 2;
  custom.sync.dps_window = 9;
  custom.sync.async_pipeline = true;
  custom.sync.pipeline_staleness = 0;
  custom.num_threads = 4;
  custom.kernel = "scalar";
  custom.seed = 99;
  custom.fault.enabled = true;
  custom.fault.drop_prob = 1e-7;
  custom.fault.duplicate_prob = 0.125;
  custom.fault.delay_prob = 1.0 / 3.0;
  custom.fault.max_retries = 5;
  custom.fault.seed = 7;
  custom.halt_after_iterations = 12;
  custom.checkpoint_dir = "ckpts";
  custom.checkpoint_every = 4;
  custom.keep_checkpoints = 0;
  custom.checkpoint_fsync = false;
  custom.resume_from = "ckpts";
  custom.obs.trace_out = "t.json";
  custom.obs.metrics_json = "m.json";
  custom.obs.metrics_window = 8;
  custom.storage.enabled = true;
  custom.storage.cold_dir = "cold";
  custom.storage.dtype = embedding::ColdDtype::kInt8;

  for (const TrainerConfig& defaults :
       {TrainerConfig{}, LauncherDefaults(), bench::FlagDefaults(), custom}) {
    SCOPED_TRACE("dim=" + std::to_string(defaults.dim));
    const Result<TrainerConfig> bound = Bind(defaults, {});
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    ExpectSameConfig(*bound, defaults);
  }

  // The benches' full flag set (binder plus the bench-only flags).
  FlagParser flags;
  bench::DefineCommonFlags(&flags);
  ASSERT_TRUE(ParseArgs(&flags, {}).ok());
  ExpectSameConfig(bench::ConfigFromFlags(flags), bench::FlagDefaults());
}

TEST(TrainerFlagsTest, MalformedValuesAreInvalidArgumentNamingTheFlag) {
  struct Case {
    std::vector<std::string> args;
    std::string flag;
  };
  std::vector<Case> cases = {
      {{"--dim", "abc"}, "dim"},
      {{"--lr", "fast"}, "lr"},
      {{"--seed", "1.5"}, "seed"},
      {{"--fault_drop", "some"}, "fault_drop"},
      {{"--fault_seed", "x"}, "fault_seed"},
      {{"--async", "maybe"}, "async"},
      {{"--checkpoint_fsync", "yes"}, "checkpoint_fsync"},
      {{"--storage", "foo"}, "storage"},
      {{"--cold_dtype", "foo"}, "cold_dtype"},
      {{"--storage", "tiered", "--cold_dir", "d", "--cold_dtype", "fp8"},
       "cold_dtype"},
      {{"--storage", "tiered"}, "cold_dir"},
      {{"--fault_worker_crash", "1:x"}, "fault_worker_crash"},
      {{"--fault_ps_restart", "4294967296:1"}, "fault_ps_restart"},
  };
  for (const char* count :
       {"dim", "batch", "negatives", "machines", "cache", "staleness",
        "dps_window", "max_pipeline_staleness", "threads", "fault_retries",
        "checkpoint_every", "keep_checkpoints", "fault_halt_after",
        "metrics_window"}) {
    cases.push_back({{std::string("--") + count, "-3"}, count});
  }
  for (const Case& c : cases) {
    SCOPED_TRACE(c.args[0] + " " + c.args[1]);
    for (const TrainerConfig& defaults :
         {LauncherDefaults(), bench::FlagDefaults()}) {
      const Result<TrainerConfig> bound = Bind(defaults, c.args);
      ASSERT_FALSE(bound.ok());
      EXPECT_EQ(bound.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(bound.status().message().find("--" + c.flag),
                std::string::npos)
          << bound.status().message();
    }
  }
}

TEST(TrainerFlagsTest, LauncherAndBenchFlagSetsBindTheSameArgv) {
  const std::vector<std::string> args = {
      "--lr=0.05",          "--negatives", "0",
      "--machines", "3",    "--staleness", "2",
      "--dps_window", "5",  "--async",
      "--max_pipeline_staleness=1",        "--threads", "2",
      "--kernel", "vector", "--seed", "-1",
      "--fault_drop", "0.05", "--fault_duplicate", "0.02",
      "--fault_delay", "0.03", "--fault_retries", "4",
      "--fault_seed", "7",  "--fault_worker_crash", "1:150,2:7",
      "--fault_ps_restart", "0:40",        "--fault_halt_after", "90",
      "--checkpoint_dir", "ck",            "--checkpoint_every", "5",
      "--keep_checkpoints", "2",           "--checkpoint_fsync=false",
      "--resume_from", "ck",               "--trace_out", "t.json",
      "--metrics_json", "m.json",          "--metrics_window", "4",
      "--storage", "tiered", "--cold_dir", "cold",
      "--cold_dtype", "fp16"};

  FlagParser bench_flags;
  bench::DefineCommonFlags(&bench_flags);
  ASSERT_TRUE(ParseArgs(&bench_flags, args).ok());
  const TrainerConfig bench_config = bench::ConfigFromFlags(bench_flags);
  const Result<TrainerConfig> launcher_config =
      Bind(LauncherDefaults(), args);
  ASSERT_TRUE(launcher_config.ok()) << launcher_config.status().ToString();

  // Identical apart from the declared defaults (dim, batch, cache)...
  TrainerConfig expected = bench_config;
  expected.dim = LauncherDefaults().dim;
  expected.batch_size = LauncherDefaults().batch_size;
  expected.cache_capacity = LauncherDefaults().cache_capacity;
  ExpectSameConfig(*launcher_config, expected);
  EXPECT_EQ(bench_config.negative_chunk_size, 1u);
  EXPECT_EQ(bench_config.pbg_partitions, 6u);
  EXPECT_EQ(bench_config.seed, UINT64_MAX);
  EXPECT_EQ(bench_config.fault.process_faults.size(), 3u);

  // ... and fully identical once those are set too.
  std::vector<std::string> all_args = args;
  for (const char* flag : {"--dim=20", "--batch=40", "--cache=50"}) {
    all_args.push_back(flag);
  }
  FlagParser bench_all;
  bench::DefineCommonFlags(&bench_all);
  ASSERT_TRUE(ParseArgs(&bench_all, all_args).ok());
  ExpectSameConfig(Bind(LauncherDefaults(), all_args).value(),
                   bench::ConfigFromFlags(bench_all));
}

TEST(TrainerFlagsTest, PresetSpecScalesTheNamedPreset) {
  FlagParser flags;
  DefineDatasetFlags(&flags, 0.5);
  ASSERT_TRUE(ParseArgs(&flags, {"--freebase_scale", "0.001"}).ok());
  const graph::SyntheticSpec fb15k = PresetSpecFromFlags("fb15k", flags).value();
  EXPECT_EQ(fb15k.num_triples,
            static_cast<size_t>(graph::Fb15kSpec().num_triples * 0.5));
  const graph::SyntheticSpec freebase =
      PresetSpecFromFlags("freebase86m", flags).value();
  EXPECT_EQ(freebase.num_entities,
            graph::Freebase86mSpec(0.001).num_entities);
  const auto unknown = PresetSpecFromFlags("yago", flags);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace hetkg::core
