// Lag-N schedule tests (DESIGN.md §12): the exact per-pull lag at every
// staleness bound, checkpoint/fault behaviour under --async, and the
// regression tests for fault-spec parsing, checkpoint fsync plumbing
// and kernel env-snapshot consistency.

#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint_manager.h"
#include "core/ps_engine.h"
#include "core/trainer.h"
#include "core/trainer_flags.h"
#include "embedding/checkpoint.h"
#include "embedding/kernels.h"
#include "graph/synthetic.h"
#include "sim/transport.h"

namespace hetkg {
namespace {

using core::SystemKind;
using core::TrainerConfig;

// ---------------------------------------------------------------------
// Lag-N schedule: exact staleness, checkpointing, faults
// ---------------------------------------------------------------------

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name + "-" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

graph::SyntheticDataset PipelineDataset() {
  graph::SyntheticSpec spec;
  spec.name = "pipeline";
  spec.num_entities = 200;
  spec.num_relations = 8;
  spec.num_triples = 1500;
  spec.seed = 33;
  return graph::GenerateDataset(spec).value();
}

TrainerConfig AsyncConfig(size_t staleness) {
  TrainerConfig config;
  config.dim = 8;
  config.batch_size = 16;
  config.negatives_per_positive = 4;
  config.negative_chunk_size = 4;
  config.num_machines = 2;
  config.cache_capacity = 64;
  config.sync.staleness_bound = 4;
  config.sync.dps_window = 8;
  config.sync.async_pipeline = true;
  config.sync.pipeline_staleness = staleness;
  config.seed = 21;
  return config;
}

// The HET-style bound (Sec. IV-C applied to the pipeline), exactly: a
// pull misses its worker's pushes since the last drain point, at most N
// of them, so its lag is min(N, iterations since that drain). Drains
// happen at epoch ends and checkpoint multiples; training still
// converges at every N.
TEST(AsyncPipelineTest, StalenessBoundHoldsAndTrainingConverges) {
  const auto dataset = PipelineDataset();
  for (const size_t staleness : {size_t{0}, size_t{1}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE("staleness=" + std::to_string(staleness));
    TrainerConfig config = AsyncConfig(staleness);
    config.checkpoint_dir = FreshDir("pipe-lag-" + std::to_string(staleness));
    config.checkpoint_every = 7;
    auto engine = core::MakeEngine(SystemKind::kHetKgDps, config,
                                   dataset.graph, dataset.split.train)
                      .value();
    auto* ps = static_cast<core::PsTrainingEngine*>(engine.get());
    const size_t per_epoch = ps->IterationsPerEpoch();
    size_t pulls = 0;
    size_t mismatches = 0;
    ps->SetPullLagHook([&](uint32_t, size_t iter, size_t lag) {
      ++pulls;
      size_t last_drain = 0;
      for (size_t d = 1; d <= iter; ++d) {
        if (d % per_epoch == 0 || d % 7 == 0) last_drain = d;
      }
      if (lag != std::min(staleness, iter - last_drain)) ++mismatches;
    });
    const auto report = engine->Train(2).value();
    ASSERT_EQ(report.epochs.size(), 2u);
    EXPECT_LT(report.epochs.back().mean_loss, report.epochs.front().mean_loss);

    EXPECT_EQ(pulls, 2 * per_epoch * config.num_machines);
    EXPECT_EQ(mismatches, 0u);
    EXPECT_EQ(ps->MaxObservedPipelineLag(), std::min<size_t>(staleness, 6));
    // The overlap model only hides time when stages may run ahead.
    if (staleness == 0) {
      EXPECT_EQ(report.total_time.overlap_seconds, 0.0);
    } else {
      EXPECT_GT(report.total_time.overlap_seconds, 0.0);
    }
  }
}

std::vector<float> EntityBytes(const core::TrainingEngine& engine) {
  std::vector<float> out;
  const eval::EmbeddingLookup& lookup = engine.Embeddings();
  for (size_t e = 0; e < lookup.num_entities(); ++e) {
    const auto row = lookup.Entity(static_cast<EntityId>(e));
    out.insert(out.end(), row.begin(), row.end());
  }
  return out;
}

// The schedule is one fixed order, so there is no stall, queue depth or
// staleness wait to report: no run emits a pipeline.* metric. Metric
// windows never drain the ring, so observing a run leaves it unchanged.
TEST(AsyncPipelineTest, EmitsNoPipelineMetrics) {
  const auto dataset = PipelineDataset();
  for (const bool async : {false, true}) {
    SCOPED_TRACE(async ? "async" : "sync");
    TrainerConfig config = AsyncConfig(2);
    config.sync.async_pipeline = async;
    auto plain = core::MakeEngine(SystemKind::kHetKgDps, config,
                                  dataset.graph, dataset.split.train)
                     .value();
    const auto plain_report = plain->Train(1).value();
    config.obs.metrics_json = FreshDir("pipe-metrics") + ".json";
    config.obs.metrics_window = 5;
    auto engine = core::MakeEngine(SystemKind::kHetKgDps, config,
                                   dataset.graph, dataset.split.train)
                      .value();
    const auto report = engine->Train(1).value();
    ASSERT_FALSE(report.metrics.Snapshot().empty());
    for (const auto& [name, value] : report.metrics.Snapshot()) {
      EXPECT_NE(name.rfind("pipeline.", 0), 0u) << name;
    }
    for (const auto& [name, value] : report.metrics.GaugeSnapshot()) {
      EXPECT_NE(name.rfind("pipeline.", 0), 0u) << name;
    }
    EXPECT_EQ(report.epochs.back().mean_loss,
              plain_report.epochs.back().mean_loss);
    EXPECT_EQ(EntityBytes(*engine), EntityBytes(*plain));
  }
}

// Checkpoints are drain points, so an async run halted mid-epoch (its
// in-flight pushes lost with the halt) resumes from its snapshot and
// completes; the resumed engine continues from the checkpointed
// iteration, not from zero.
TEST(AsyncPipelineTest, CheckpointResumeCompletesInAsyncMode) {
  const auto dataset = PipelineDataset();
  const std::string dir = FreshDir("pipe-async-resume");

  TrainerConfig crash_config = AsyncConfig(2);
  crash_config.checkpoint_dir = dir;
  crash_config.checkpoint_every = 5;
  crash_config.halt_after_iterations = 12;
  auto crashed = core::MakeEngine(SystemKind::kHetKgDps, crash_config,
                                  dataset.graph, dataset.split.train)
                     .value();
  ASSERT_TRUE(crashed->Train(2).ok());

  TrainerConfig resume_config = AsyncConfig(2);
  resume_config.checkpoint_dir = dir;
  resume_config.checkpoint_every = 5;
  auto resumed = core::MakeEngine(SystemKind::kHetKgDps, resume_config,
                                  dataset.graph, dataset.split.train)
                     .value();
  ASSERT_TRUE(resumed->RestoreTrainState(dir).ok());
  EXPECT_EQ(resumed->RecoveryMetrics().Get(metric::kCheckpointRestores), 1u);
  const auto report = resumed->Train(2).value();
  ASSERT_EQ(report.epochs.size(), 2u);
  EXPECT_LT(report.epochs.back().mean_loss, report.epochs.front().mean_loss);
  const auto* ps = static_cast<core::PsTrainingEngine*>(resumed.get());
  EXPECT_LE(ps->MaxObservedPipelineLag(), 2u);
}

// Process faults fire at iteration boundaries without draining: the
// scheduled worker crash discards the in-flight pushes, the run rewinds
// to the latest (drained) snapshot and replays them, and it ends on the
// uninterrupted run's bytes.
TEST(AsyncPipelineTest, WorkerCrashRecoveredInAsyncMode) {
  const auto dataset = PipelineDataset();
  TrainerConfig config = AsyncConfig(2);
  config.checkpoint_dir = FreshDir("pipe-async-crash");
  config.checkpoint_every = 5;
  sim::ProcessFault crash;
  crash.kind = sim::ProcessFaultKind::kWorkerCrash;
  crash.machine = 1;
  crash.tick = 150;
  config.fault.process_faults.push_back(crash);
  auto engine = core::MakeEngine(SystemKind::kHetKgDps, config,
                                 dataset.graph, dataset.split.train)
                    .value();
  const auto report = engine->Train(2).value();
  EXPECT_EQ(engine->RecoveryMetrics().Get(metric::kRecoveryWorkerCrashes),
            1u);
  EXPECT_EQ(engine->RecoveryMetrics().Get(metric::kCheckpointRestores), 1u);
  ASSERT_EQ(report.epochs.size(), 2u);
  const auto* ps = static_cast<core::PsTrainingEngine*>(engine.get());
  EXPECT_LE(ps->MaxObservedPipelineLag(), 2u);

  TrainerConfig clean_config = config;
  clean_config.checkpoint_dir = FreshDir("pipe-async-nocrash");
  clean_config.fault.process_faults.clear();
  auto clean = core::MakeEngine(SystemKind::kHetKgDps, clean_config,
                                dataset.graph, dataset.split.train)
                   .value();
  const auto clean_report = clean->Train(2).value();
  EXPECT_EQ(report.epochs.back().mean_loss,
            clean_report.epochs.back().mean_loss);
  EXPECT_EQ(EntityBytes(*engine), EntityBytes(*clean));
}

// ---------------------------------------------------------------------
// Bugfix regressions: --fault_worker_crash / --fault_ps_restart parsing
// ---------------------------------------------------------------------

TEST(ProcessFaultParseTest, AcceptsValidSchedule) {
  const auto faults =
      core::ParseProcessFaultSpec("0:10,1:250",
                                   sim::ProcessFaultKind::kWorkerCrash)
          .value();
  ASSERT_EQ(faults.size(), 2u);
  EXPECT_EQ(faults[0].machine, 0u);
  EXPECT_EQ(faults[0].tick, 10u);
  EXPECT_EQ(faults[1].machine, 1u);
  EXPECT_EQ(faults[1].tick, 250u);
  EXPECT_EQ(faults[1].kind, sim::ProcessFaultKind::kWorkerCrash);
}

TEST(ProcessFaultParseTest, RejectsMachineIdAboveUint32) {
  // 2^32 does not fit a uint32 machine id; before the fix strtoul on
  // LP64 silently accepted it (unsigned long is 64-bit there).
  const auto result = core::ParseProcessFaultSpec(
      "4294967296:10", sim::ProcessFaultKind::kWorkerCrash);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ProcessFaultParseTest, RejectsTickOverflow) {
  // Overflows uint64: strtoull sets ERANGE and clamps to ULLONG_MAX,
  // which the pre-fix parser accepted as a wrapped/clamped tick.
  const auto result = core::ParseProcessFaultSpec(
      "1:99999999999999999999999999", sim::ProcessFaultKind::kPsShardRestart);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ProcessFaultParseTest, RejectsMalformedItems) {
  for (const std::string spec :
       {"abc", "1", "1:", ":5", "1:x", "1:2:3", "-1:5", "1:-5", "1: 5",
        "+1:5", "1:5,"}) {
    SCOPED_TRACE("spec=\"" + spec + "\"");
    EXPECT_FALSE(core::ParseProcessFaultSpec(
                     spec, sim::ProcessFaultKind::kWorkerCrash)
                     .ok());
  }
  // The empty default of --fault_worker_crash is an empty schedule,
  // not an error.
  EXPECT_TRUE(core::ParseProcessFaultSpec(
                  "", sim::ProcessFaultKind::kWorkerCrash)
                  .value()
                  .empty());
}

// ---------------------------------------------------------------------
// Bugfix regressions: checkpoint fsync plumbing
// ---------------------------------------------------------------------

std::string ReadAllBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(CheckpointFsyncTest, DurabilityDoesNotChangeFileBytes) {
  embedding::CheckpointWriter writer;
  ByteWriter payload;
  payload.U64(42);
  payload.F32(1.5f);
  writer.AddSection(embedding::SectionTag::kEngineCounters,
                    std::move(payload));

  const std::string durable_path = FreshDir("ck-fsync") + "-durable.ck";
  const std::string fast_path = FreshDir("ck-fsync") + "-fast.ck";
  ASSERT_TRUE(writer.WriteAtomic(durable_path, /*durable=*/true).ok());
  ASSERT_TRUE(writer.WriteAtomic(fast_path, /*durable=*/false).ok());
  const std::string durable_bytes = ReadAllBytes(durable_path);
  ASSERT_FALSE(durable_bytes.empty());
  // fsync orders writes to stable storage; it must never change them.
  EXPECT_EQ(durable_bytes, ReadAllBytes(fast_path));
  // No temp file survives the atomic rename on either path.
  EXPECT_FALSE(std::filesystem::exists(durable_path + ".tmp"));
  EXPECT_FALSE(std::filesystem::exists(fast_path + ".tmp"));
}

TEST(CheckpointFsyncTest, ManagerAndConfigPlumbTheFlag) {
  EXPECT_TRUE(TrainerConfig{}.checkpoint_fsync);  // Durable by default.
  core::CheckpointManager durable(FreshDir("ckm-durable"), 2);
  EXPECT_TRUE(durable.fsync_enabled());
  core::CheckpointManager fast(FreshDir("ckm-fast"), 2, /*fsync=*/false);
  EXPECT_FALSE(fast.fsync_enabled());
}

// Training with --checkpoint_fsync=false writes snapshots that restore
// exactly like durable ones — the flag trades durability, not content.
TEST(CheckpointFsyncTest, NonDurableCheckpointsStillRestore) {
  const auto dataset = PipelineDataset();
  TrainerConfig config = AsyncConfig(0);
  config.sync.async_pipeline = false;
  config.checkpoint_fsync = false;
  config.checkpoint_dir = FreshDir("pipe-nofsync");
  config.checkpoint_every = 5;
  config.halt_after_iterations = 12;
  auto crashed = core::MakeEngine(SystemKind::kHetKgDps, config,
                                  dataset.graph, dataset.split.train)
                     .value();
  ASSERT_TRUE(crashed->Train(2).ok());

  TrainerConfig resume_config = config;
  resume_config.halt_after_iterations = 0;
  auto resumed = core::MakeEngine(SystemKind::kHetKgDps, resume_config,
                                  dataset.graph, dataset.split.train)
                     .value();
  ASSERT_TRUE(resumed->RestoreTrainState(config.checkpoint_dir).ok());
  EXPECT_TRUE(resumed->Train(2).ok());
}

// ---------------------------------------------------------------------
// Bugfix regression: kernel dispatch reads HETKG_KERNEL exactly once
// ---------------------------------------------------------------------

TEST(KernelEnvSnapshotTest, SnapshotAndDispatchObserveTheSameValue) {
  using embedding::kernels::ActivePath;
  using embedding::kernels::DispatchEnvSnapshot;
  using embedding::kernels::KernelMode;
  using embedding::kernels::KernelPath;
  using embedding::kernels::SetKernelMode;

  ASSERT_EQ(::setenv("HETKG_KERNEL", "scalar", 1), 0);
  SetKernelMode(KernelMode::kAuto);
  EXPECT_EQ(ActivePath(), KernelPath::kScalar);
  EXPECT_EQ(DispatchEnvSnapshot(), "scalar");

  // The pre-fix code called getenv twice (dispatch, then the startup
  // log); a change between the calls made the log disagree with the
  // actual dispatch. The snapshot is taken once per resolution, so
  // mutating the environment afterwards cannot desynchronize them.
  ASSERT_EQ(::unsetenv("HETKG_KERNEL"), 0);
  EXPECT_EQ(ActivePath(), KernelPath::kScalar);
  EXPECT_EQ(DispatchEnvSnapshot(), "scalar");

  // The next resolution re-reads the (now unset) environment.
  SetKernelMode(KernelMode::kAuto);
  EXPECT_EQ(DispatchEnvSnapshot(), "<unset>");
}

}  // namespace
}  // namespace hetkg
