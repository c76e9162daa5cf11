// Pipeline engine tests (DESIGN.md §12): BoundedQueue semantics,
// stage lifecycle, the bounded-staleness clock, the async engine's
// staleness-bound property + checkpoint/fault behaviour, and the
// regression tests for this PR's bugfix sweep (fault-spec parsing,
// checkpoint fsync plumbing, kernel env-snapshot consistency).

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint_manager.h"
#include "core/pipeline.h"
#include "core/ps_engine.h"
#include "core/trainer.h"
#include "core/trainer_flags.h"
#include "embedding/checkpoint.h"
#include "embedding/kernels.h"
#include "graph/synthetic.h"
#include "sim/transport.h"

namespace hetkg {
namespace {

using core::BoundedQueue;
using core::BoundedStalenessClock;
using core::Pipeline;
using core::SystemKind;
using core::TrainerConfig;

// ---------------------------------------------------------------------
// BoundedQueue
// ---------------------------------------------------------------------

TEST(BoundedQueueTest, FifoOrderAndHighWater) {
  BoundedQueue<int> q(4);
  EXPECT_EQ(q.capacity(), 4u);
  EXPECT_TRUE(q.Push(1));
  EXPECT_TRUE(q.Push(2));
  EXPECT_TRUE(q.Push(3));
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.high_water(), 3u);
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_EQ(q.Pop().value(), 3);
  EXPECT_EQ(q.size(), 0u);
  // High water is a lifetime mark, not the current depth.
  EXPECT_EQ(q.high_water(), 3u);
}

TEST(BoundedQueueTest, TryPushTryPopNeverBlock) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(10));
  EXPECT_TRUE(q.TryPush(20));
  EXPECT_FALSE(q.TryPush(30));  // Full.
  EXPECT_EQ(q.TryPop().value(), 10);
  EXPECT_EQ(q.TryPop().value(), 20);
  EXPECT_FALSE(q.TryPop().has_value());  // Empty.
}

TEST(BoundedQueueTest, ZeroCapacityClampsToOne) {
  BoundedQueue<int> q(0);
  EXPECT_EQ(q.capacity(), 1u);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_FALSE(q.TryPush(2));
}

TEST(BoundedQueueTest, PushBlocksUntilPopMakesRoom) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));
  std::atomic<bool> second_pushed{false};
  std::thread producer([&] {
    ASSERT_TRUE(q.Push(2));  // Blocks: queue is full.
    second_pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_pushed.load());
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_EQ(q.Pop().value(), 2);
  producer.join();
  EXPECT_TRUE(second_pushed.load());
  EXPECT_GE(q.push_stalls(), 1u);
}

TEST(BoundedQueueTest, PopBlocksUntilPush) {
  BoundedQueue<int> q(2);
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(q.Push(7));
  });
  EXPECT_EQ(q.Pop().value(), 7);  // Blocks until the producer runs.
  producer.join();
  EXPECT_GE(q.pop_stalls(), 1u);
}

TEST(BoundedQueueTest, CloseDrainsBufferedItemsThenEndsStream) {
  BoundedQueue<int> q(4);
  ASSERT_TRUE(q.Push(1));
  ASSERT_TRUE(q.Push(2));
  q.Close();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.Push(3));  // Rejected after close...
  EXPECT_EQ(q.Pop().value(), 1);  // ...but buffered work still drains.
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_FALSE(q.Pop().has_value());  // End of stream.
}

TEST(BoundedQueueTest, CloseWakesBlockedProducer) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));
  std::atomic<bool> push_result{true};
  std::thread producer([&] { push_result.store(q.Push(2)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.Close();
  producer.join();
  EXPECT_FALSE(push_result.load());  // The blocked push was rejected.
}

TEST(BoundedQueueTest, ReopenStartsNextSegment) {
  BoundedQueue<int> q(2);
  ASSERT_TRUE(q.Push(1));
  q.Close();
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_FALSE(q.Pop().has_value());
  q.Reopen();
  EXPECT_FALSE(q.closed());
  EXPECT_TRUE(q.Push(2));
  EXPECT_EQ(q.Pop().value(), 2);
}

// Regression: Reopen() used to carry the previous segment's stall and
// high-water counters into the next segment, double-counting them in
// every per-segment sample after the first (the engine accumulates the
// per-segment values into run totals at each segment boundary).
TEST(BoundedQueueTest, ReopenResetsObservabilityCounters) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));
  std::thread producer([&] { ASSERT_TRUE(q.Push(2)); });  // Stalls: full.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_EQ(q.Pop().value(), 2);
  producer.join();
  std::thread consumer([&] { EXPECT_EQ(q.Pop().value(), 3); });  // Stalls.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(q.Push(3));
  consumer.join();
  EXPECT_GE(q.push_stalls(), 1u);
  EXPECT_GE(q.pop_stalls(), 1u);
  EXPECT_EQ(q.high_water(), 1u);
  q.Close();
  q.Reopen();
  EXPECT_EQ(q.push_stalls(), 0u);
  EXPECT_EQ(q.pop_stalls(), 0u);
  EXPECT_EQ(q.high_water(), 0u);
  ASSERT_TRUE(q.Push(9));  // The new segment counts from zero.
  EXPECT_EQ(q.high_water(), 1u);
  EXPECT_EQ(q.Pop().value(), 9);
}

// ---------------------------------------------------------------------
// PipelineStage / Pipeline
// ---------------------------------------------------------------------

TEST(PipelineStageTest, BodyRunsUntilFalseAndJoins) {
  std::atomic<int> calls{0};
  core::PipelineStage stage("count", [&] { return ++calls < 5; });
  EXPECT_EQ(stage.name(), "count");
  stage.Start();
  stage.Join();
  EXPECT_TRUE(stage.joined());
  EXPECT_EQ(calls.load(), 5);
}

TEST(PipelineStageTest, TickRunsBodyInline) {
  int calls = 0;
  core::PipelineStage stage("inline", [&] { return ++calls < 2; });
  EXPECT_TRUE(stage.Tick());
  EXPECT_FALSE(stage.Tick());
  EXPECT_EQ(calls, 2);
}

TEST(PipelineTest, StagesStreamThroughQueueUntilClose) {
  BoundedQueue<int> q(2);
  std::atomic<int> sum{0};
  int next = 1;

  Pipeline pipeline;
  pipeline.AddStage("produce", [&] {
    if (next > 10) {
      q.Close();
      return false;
    }
    return q.Push(next++);
  });
  pipeline.AddStage("consume", [&] {
    auto item = q.Pop();
    if (!item.has_value()) return false;
    sum += *item;
    return true;
  });
  ASSERT_EQ(pipeline.num_stages(), 2u);
  pipeline.Start();
  pipeline.Join();
  EXPECT_EQ(sum.load(), 55);  // 1 + 2 + ... + 10.
}

// ---------------------------------------------------------------------
// BoundedStalenessClock
// ---------------------------------------------------------------------

TEST(BoundedStalenessClockTest, AdmitsIterationsWithinBound) {
  BoundedStalenessClock clock;
  clock.Reset(0);
  // With bound 2 and nothing completed, iterations 0..2 are admissible
  // immediately (they lag the table by at most 2 iterations).
  clock.WaitAdmissible(0, 2);
  clock.WaitAdmissible(1, 2);
  clock.WaitAdmissible(2, 2);
  EXPECT_EQ(clock.waits(), 0u);
}

TEST(BoundedStalenessClockTest, ZeroBoundIsFullRendezvous) {
  BoundedStalenessClock clock;
  clock.Reset(0);
  clock.WaitAdmissible(0, 0);  // First iteration never waits.
  std::atomic<bool> admitted{false};
  std::thread puller([&] {
    clock.WaitAdmissible(1, 0);  // Blocks until iteration 0 has pushed.
    admitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(admitted.load());
  clock.MarkCompleted(0);
  puller.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_EQ(clock.completed(), 1u);
  EXPECT_GE(clock.waits(), 1u);
}

TEST(BoundedStalenessClockTest, ResetSupportsResumeMidStream) {
  BoundedStalenessClock clock;
  clock.Reset(7);
  EXPECT_EQ(clock.completed(), 7u);
  clock.WaitAdmissible(9, 2);  // 9 <= 7 + 2: admissible at once.
  EXPECT_EQ(clock.waits(), 0u);
  clock.MarkCompleted(7);
  EXPECT_EQ(clock.completed(), 8u);
}

// ---------------------------------------------------------------------
// Async engine: staleness-bound property, checkpointing, faults
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

// The HET-style bound (Sec. IV-C applied to the pipeline): no pull may
// observe global tables lagging its iteration by more than N fully
// pushed iterations, at every configured N — and training still
// converges while stages overlap.
TEST(AsyncPipelineTest, StalenessBoundHoldsAndTrainingConverges) {
  const auto dataset = PipelineDataset();
  for (const size_t staleness : {size_t{0}, size_t{1}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE("staleness=" + std::to_string(staleness));
    auto engine = core::MakeEngine(SystemKind::kHetKgDps,
                                   AsyncConfig(staleness), dataset.graph,
                                   dataset.split.train)
                      .value();
    const auto report = engine->Train(2).value();
    ASSERT_EQ(report.epochs.size(), 2u);
    EXPECT_LT(report.epochs.back().mean_loss, report.epochs.front().mean_loss);

    const auto* ps = static_cast<core::PsTrainingEngine*>(engine.get());
    EXPECT_LE(ps->MaxObservedPipelineLag(), staleness);
    // The overlap model only hides time when stages may run ahead.
    if (staleness == 0) {
      EXPECT_EQ(report.total_time.overlap_seconds, 0.0);
    } else {
      EXPECT_GT(report.total_time.overlap_seconds, 0.0);
    }
  }
}

// Async reports carry the pipeline stall/depth profile (sync reports
// must not: they are bit-identity-checked elsewhere).
TEST(AsyncPipelineTest, ReportsPipelineMetrics) {
  const auto dataset = PipelineDataset();
  auto engine = core::MakeEngine(SystemKind::kHetKgDps, AsyncConfig(2),
                                 dataset.graph, dataset.split.train)
                    .value();
  const auto report = engine->Train(1).value();
  bool saw_stalls = false;
  for (const auto& [name, value] : report.metrics.Snapshot()) {
    if (name == metric::kPipelineStalls) saw_stalls = true;
  }
  EXPECT_TRUE(saw_stalls);
  bool saw_depth = false;
  bool saw_lag = false;
  for (const auto& [name, value] : report.metrics.GaugeSnapshot()) {
    if (name == metric::kPipelineQueueDepthSample) saw_depth = true;
    if (name == metric::kPipelineMaxRowLag) saw_lag = true;
  }
  EXPECT_TRUE(saw_depth);
  EXPECT_TRUE(saw_lag);

  TrainerConfig sync_config = AsyncConfig(2);
  sync_config.sync.async_pipeline = false;
  auto sync_engine = core::MakeEngine(SystemKind::kHetKgDps, sync_config,
                                      dataset.graph, dataset.split.train)
                         .value();
  const auto sync_report = sync_engine->Train(1).value();
  for (const auto& [name, value] : sync_report.metrics.Snapshot()) {
    EXPECT_NE(name, metric::kPipelineStalls);
  }
  for (const auto& [name, value] : sync_report.metrics.GaugeSnapshot()) {
    EXPECT_NE(name, metric::kPipelineQueueDepthSample);
  }
}

// Checkpoints are taken at drained-pipeline barriers, so an async run
// halted mid-epoch resumes from its snapshot and completes; the resumed
// engine continues from the checkpointed iteration, not from zero.
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

// Process faults fire at segment barriers in async mode: the scheduled
// worker crash is detected, recovery runs, and training completes with
// the staleness bound still intact.
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
  EXPECT_EQ(report.metrics.Get(metric::kRecoveryWorkerCrashes), 1u);
  ASSERT_EQ(report.epochs.size(), 2u);
  const auto* ps = static_cast<core::PsTrainingEngine*>(engine.get());
  EXPECT_LE(ps->MaxObservedPipelineLag(), 2u);
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
