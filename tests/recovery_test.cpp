// Crash-recovery tests (DESIGN.md §9): halt + resume bit-identity at
// several thread counts, resume under active message faults, in-sim
// worker crashes rewinding to a run bit-identical to an uninterrupted
// one, PS-shard-restart determinism, manifest fallback on a corrupt
// snapshot, and PBG epoch-granularity resume.

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint_manager.h"
#include "core/ps_engine.h"
#include "core/trainer.h"
#include "graph/synthetic.h"
#include "sim/transport.h"

namespace hetkg {
namespace {

// Pid-qualified so concurrent ctest entries running this same binary
// (hetkg_tests and hetkg_recovery_tests) never share a directory.
std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name + "-" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

void FlipByte(const std::string& path, size_t offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  f.read(&byte, 1);
  f.seekp(static_cast<std::streamoff>(offset));
  byte = static_cast<char>(byte ^ 0x40);
  f.write(&byte, 1);
}

graph::SyntheticSpec SmallSpec() {
  graph::SyntheticSpec spec;
  spec.name = "recovery";
  spec.num_entities = 200;
  spec.num_relations = 8;
  spec.num_triples = 1500;
  spec.seed = 33;
  return spec;
}

core::TrainerConfig RecoveryConfig() {
  core::TrainerConfig config;
  config.dim = 8;
  config.batch_size = 16;
  config.negatives_per_positive = 4;
  config.negative_chunk_size = 4;
  config.num_machines = 2;
  config.cache_capacity = 64;
  config.sync.staleness_bound = 4;
  config.sync.dps_window = 8;
  config.seed = 21;
  return config;
}

/// Byte-exact serialization of the trained global embeddings — the
/// headline invariant compares these across runs.
std::string EmbeddingBytes(const eval::EmbeddingLookup& emb) {
  std::string bytes;
  const auto append = [&bytes](std::span<const float> row) {
    bytes.append(reinterpret_cast<const char*>(row.data()),
                 row.size() * sizeof(float));
  };
  for (size_t i = 0; i < emb.num_entities(); ++i) {
    append(emb.Entity(static_cast<EntityId>(i)));
  }
  for (size_t i = 0; i < emb.num_relations(); ++i) {
    append(emb.Relation(static_cast<RelationId>(i)));
  }
  return bytes;
}

/// Report counters minus tier.*: those count cold-tier work actually
/// done, which a crash rewind repeats. Untiered runs have none.
std::vector<std::pair<std::string, uint64_t>> TrainingCounters(
    const core::TrainReport& report) {
  auto counters = report.metrics.Snapshot();
  std::erase_if(counters, [](const auto& kv) {
    return kv.first.rfind("tier.", 0) == 0;
  });
  return counters;
}

void ExpectReportsMatch(const core::TrainReport& a,
                        const core::TrainReport& b) {
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (size_t e = 0; e < a.epochs.size(); ++e) {
    EXPECT_EQ(a.epochs[e].epoch, b.epochs[e].epoch);
    EXPECT_DOUBLE_EQ(a.epochs[e].mean_loss, b.epochs[e].mean_loss);
    EXPECT_DOUBLE_EQ(a.epochs[e].cumulative_seconds,
                     b.epochs[e].cumulative_seconds);
    EXPECT_EQ(a.epochs[e].remote_bytes, b.epochs[e].remote_bytes);
  }
  EXPECT_EQ(a.total_remote_bytes, b.total_remote_bytes);
  EXPECT_DOUBLE_EQ(a.total_time.total_seconds(), b.total_time.total_seconds());
  EXPECT_EQ(TrainingCounters(a), TrainingCounters(b));
}

// A run halted mid-epoch (simulated hard crash) and resumed from its
// checkpoint directory must end bit-identical to an uninterrupted run
// with the same snapshot schedule, at any compute-thread count.
TEST(RecoveryTest, HaltResumeBitIdenticalAcrossThreads) {
  const auto dataset = graph::GenerateDataset(SmallSpec()).value();

  // Uninterrupted reference; checkpoints on (different directory) so
  // the checkpoint.* counters in the metric snapshots are comparable.
  core::TrainerConfig ref_config = RecoveryConfig();
  ref_config.checkpoint_dir = FreshDir("rec-threads-ref");
  ref_config.checkpoint_every = 5;
  auto ref_engine = core::MakeEngine(core::SystemKind::kHetKgDps, ref_config,
                                     dataset.graph, dataset.split.train)
                        .value();
  const auto reference = ref_engine->Train(2).value();
  const std::string ref_bytes = EmbeddingBytes(ref_engine->Embeddings());

  for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::string dir =
        FreshDir("rec-threads-" + std::to_string(threads));

    core::TrainerConfig crash_config = RecoveryConfig();
    crash_config.num_threads = threads;
    crash_config.checkpoint_dir = dir;
    crash_config.checkpoint_every = 5;
    crash_config.halt_after_iterations = 12;
    auto crashed =
        core::MakeEngine(core::SystemKind::kHetKgDps, crash_config,
                         dataset.graph, dataset.split.train)
            .value();
    ASSERT_TRUE(crashed->Train(2).ok());

    core::TrainerConfig resume_config = RecoveryConfig();
    resume_config.num_threads = threads;
    resume_config.checkpoint_dir = dir;
    resume_config.checkpoint_every = 5;
    auto resumed =
        core::MakeEngine(core::SystemKind::kHetKgDps, resume_config,
                         dataset.graph, dataset.split.train)
            .value();
    ASSERT_TRUE(resumed->RestoreTrainState(dir).ok());
    EXPECT_EQ(resumed->RecoveryMetrics().Get(metric::kCheckpointRestores),
              1u);
    const auto report = resumed->Train(2).value();

    EXPECT_EQ(EmbeddingBytes(resumed->Embeddings()), ref_bytes);
    ExpectReportsMatch(report, reference);
  }
}

// With no checkpoint directory configured, training must stay
// bit-identical to a checkpointing run — saving snapshots takes no
// branch that perturbs the model.
TEST(RecoveryTest, CheckpointingDoesNotPerturbTraining) {
  const auto dataset = graph::GenerateDataset(SmallSpec()).value();

  auto plain = core::MakeEngine(core::SystemKind::kHetKgCps,
                                RecoveryConfig(), dataset.graph,
                                dataset.split.train)
                   .value();
  const auto plain_report = plain->Train(2).value();

  core::TrainerConfig ck_config = RecoveryConfig();
  ck_config.checkpoint_dir = FreshDir("rec-perturb");
  ck_config.checkpoint_every = 5;
  ck_config.keep_checkpoints = 2;
  auto checkpointed = core::MakeEngine(core::SystemKind::kHetKgCps,
                                       ck_config, dataset.graph,
                                       dataset.split.train)
                          .value();
  const auto ck_report = checkpointed->Train(2).value();

  EXPECT_EQ(EmbeddingBytes(plain->Embeddings()),
            EmbeddingBytes(checkpointed->Embeddings()));
  ASSERT_EQ(plain_report.epochs.size(), ck_report.epochs.size());
  for (size_t e = 0; e < plain_report.epochs.size(); ++e) {
    EXPECT_DOUBLE_EQ(plain_report.epochs[e].mean_loss,
                     ck_report.epochs[e].mean_loss);
  }
  EXPECT_GT(ck_report.metrics.Get(metric::kCheckpointSaves), 0u);
  EXPECT_GT(ck_report.metrics.Get(metric::kCheckpointBytes), 0u);
}

// Halt + resume while the transport is actively dropping and delaying
// messages: the fault plan is pure-function-of-seed state that the
// snapshot carries, so the resumed run replays the exact fault
// decisions of the uninterrupted one.
TEST(RecoveryTest, ResumeUnderMessageFaultsBitIdentical) {
  const auto dataset = graph::GenerateDataset(SmallSpec()).value();

  core::TrainerConfig base = RecoveryConfig();
  base.fault.enabled = true;
  base.fault.seed = 77;
  base.fault.drop_prob = 0.05;
  base.checkpoint_every = 5;

  core::TrainerConfig ref_config = base;
  ref_config.checkpoint_dir = FreshDir("rec-faulty-ref");
  auto ref_engine = core::MakeEngine(core::SystemKind::kHetKgCps, ref_config,
                                     dataset.graph, dataset.split.train)
                        .value();
  const auto reference = ref_engine->Train(2).value();
  EXPECT_GT(reference.metrics.Get(metric::kTransportDroppedMessages), 0u);

  const std::string dir = FreshDir("rec-faulty");
  core::TrainerConfig crash_config = base;
  crash_config.checkpoint_dir = dir;
  crash_config.halt_after_iterations = 12;
  auto crashed = core::MakeEngine(core::SystemKind::kHetKgCps, crash_config,
                                  dataset.graph, dataset.split.train)
                     .value();
  ASSERT_TRUE(crashed->Train(2).ok());

  core::TrainerConfig resume_config = base;
  resume_config.checkpoint_dir = dir;
  auto resumed = core::MakeEngine(core::SystemKind::kHetKgCps, resume_config,
                                  dataset.graph, dataset.split.train)
                     .value();
  ASSERT_TRUE(resumed->RestoreTrainState(dir).ok());
  const auto report = resumed->Train(2).value();

  EXPECT_EQ(EmbeddingBytes(resumed->Embeddings()),
            EmbeddingBytes(ref_engine->Embeddings()));
  ExpectReportsMatch(report, reference);
}

sim::ProcessFault WorkerCrash(uint32_t machine, uint64_t tick) {
  sim::ProcessFault crash;
  crash.kind = sim::ProcessFaultKind::kWorkerCrash;
  crash.machine = machine;
  crash.tick = tick;
  return crash;
}

// An in-sim worker crash rewinds the whole run to the latest snapshot,
// exactly as a killed worker process does under --runtime=proc: the
// crashed run ends bit-identical to an uninterrupted run with the same
// checkpoint schedule — embeddings, every epoch, totals and counters —
// at any thread count, for both cache engines, under quantized tiered
// storage, and across more than one crash.
TEST(RecoveryTest, WorkerCrashEqualsUninterruptedRun) {
  const auto dataset = graph::GenerateDataset(SmallSpec()).value();

  struct Case {
    std::string name;
    core::SystemKind system;
    size_t threads;
    std::vector<sim::ProcessFault> crashes;
    bool tiered = false;
  };
  const std::vector<Case> cases = {
      {"dps-t1", core::SystemKind::kHetKgDps, 1, {WorkerCrash(1, 150)}},
      {"dps-t2", core::SystemKind::kHetKgDps, 2, {WorkerCrash(1, 150)}},
      {"dps-t8", core::SystemKind::kHetKgDps, 8, {WorkerCrash(1, 150)}},
      {"cps-t2", core::SystemKind::kHetKgCps, 2, {WorkerCrash(1, 150)}},
      {"dps-int8", core::SystemKind::kHetKgDps, 2, {WorkerCrash(1, 150)},
       true},
      {"dps-two-crashes", core::SystemKind::kHetKgDps, 2,
       {WorkerCrash(1, 150), WorkerCrash(0, 400)}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const auto run = [&](const std::string& tag, bool crash) {
      core::TrainerConfig config = RecoveryConfig();
      config.num_threads = c.threads;
      config.checkpoint_dir = FreshDir("rec-crash-" + c.name + "-" + tag);
      config.checkpoint_every = 5;
      if (c.tiered) {
        config.storage.enabled = true;
        config.storage.cold_dir =
            FreshDir("rec-crash-cold-" + c.name + "-" + tag);
        std::filesystem::create_directories(config.storage.cold_dir);
        config.storage.dtype = embedding::ColdDtype::kInt8;
      }
      if (crash) config.fault.process_faults = c.crashes;
      auto engine = core::MakeEngine(c.system, config, dataset.graph,
                                     dataset.split.train)
                        .value();
      auto trained = engine->Train(2);
      EXPECT_TRUE(trained.ok()) << trained.status().ToString();
      auto report = std::move(trained).value();
      EXPECT_EQ(engine->RecoveryMetrics().Get(metric::kRecoveryWorkerCrashes),
                crash ? c.crashes.size() : 0u);
      EXPECT_EQ(engine->RecoveryMetrics().Get(metric::kCheckpointRestores),
                crash ? c.crashes.size() : 0u);
      return std::make_pair(EmbeddingBytes(engine->Embeddings()),
                            std::move(report));
    };

    const auto [ref_bytes, reference] = run("ref", false);
    const auto [crash_bytes, crashed] = run("crash", true);
    EXPECT_EQ(crash_bytes, ref_bytes);
    ExpectReportsMatch(crashed, reference);
    // The crash count stays out of the report, like the restore count.
    EXPECT_EQ(crashed.metrics.Get(metric::kRecoveryWorkerCrashes), 0u);
  }
}

// A crash just past an epoch boundary whose latest snapshot precedes
// that boundary re-runs the epoch's tail: the rewound run reports the
// epoch once, with the totals and metric samples of an uninterrupted
// run.
TEST(RecoveryTest, WorkerCrashRewindAcrossEpochBoundary) {
  const auto dataset = graph::GenerateDataset(SmallSpec()).value();
  const auto make = [&dataset](const core::TrainerConfig& config) {
    auto engine = core::PsTrainingEngine::Create(config, dataset.graph,
                                                 dataset.split.train);
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    return std::move(engine).value();
  };
  const size_t ipe = make(RecoveryConfig())->IterationsPerEpoch();

  // The transport clock two iterations into the second epoch.
  core::TrainerConfig probe_config = RecoveryConfig();
  probe_config.halt_after_iterations = ipe + 2;
  auto probe = make(probe_config);
  ASSERT_TRUE(probe->Train(2).ok());
  const uint64_t crash_tick = probe->transport().clock();

  const auto run = [&](const std::string& tag, bool crash) {
    core::TrainerConfig config = RecoveryConfig();
    config.checkpoint_dir = FreshDir("rec-boundary-" + tag);
    config.checkpoint_every = ipe - 1;  // Last snapshot before the crash.
    config.obs.metrics_json = config.checkpoint_dir + ".metrics.json";
    config.obs.metrics_window = 4;
    if (crash) config.fault.process_faults = {WorkerCrash(1, crash_tick)};
    auto engine = make(config);
    auto report = engine->Train(2).value();
    EXPECT_EQ(engine->RecoveryMetrics().Get(metric::kCheckpointRestores),
              crash ? 1u : 0u);
    return std::make_pair(EmbeddingBytes(engine->Embeddings()),
                          std::move(report));
  };
  const auto [ref_bytes, reference] = run("ref", false);
  const auto [crash_bytes, crashed] = run("crash", true);
  EXPECT_EQ(crash_bytes, ref_bytes);
  ExpectReportsMatch(crashed, reference);
  const auto& ref_samples = reference.metrics_series.samples();
  const auto& crash_samples = crashed.metrics_series.samples();
  ASSERT_EQ(crash_samples.size(), ref_samples.size());
  for (size_t i = 0; i < ref_samples.size(); ++i) {
    EXPECT_EQ(crash_samples[i].kind, ref_samples[i].kind);
    EXPECT_EQ(crash_samples[i].epoch, ref_samples[i].epoch);
    EXPECT_EQ(crash_samples[i].iteration, ref_samples[i].iteration);
    EXPECT_DOUBLE_EQ(crash_samples[i].sim_seconds,
                     ref_samples[i].sim_seconds);
    EXPECT_EQ(crash_samples[i].metrics.Snapshot(),
              ref_samples[i].metrics.Snapshot());
  }
}

// A worker crash with no restorable snapshot fails the run the same
// way in both runtimes, instead of continuing from a state no
// uninterrupted run would reach.
TEST(RecoveryTest, WorkerCrashWithoutCheckpointsFails) {
  const auto dataset = graph::GenerateDataset(SmallSpec()).value();

  core::TrainerConfig config = RecoveryConfig();
  config.fault.process_faults.push_back(
      WorkerCrash(0, 1));  // Due at the first iteration boundary.
  auto engine = core::MakeEngine(core::SystemKind::kHetKgCps, config,
                                 dataset.graph, dataset.split.train)
                    .value();
  const auto report = engine->Train(2);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(report.status().ToString().find("no checkpoint is restorable"),
            std::string::npos)
      << report.status().ToString();
  EXPECT_EQ(engine->RecoveryMetrics().Get(metric::kRecoveryWorkerCrashes),
            1u);
}

// A PS shard restart reloads the shard from the latest snapshot (or
// re-initializes from the seed) and the scenario is deterministic.
TEST(RecoveryTest, PsShardRestartIsDeterministic) {
  const auto dataset = graph::GenerateDataset(SmallSpec()).value();

  const auto run = [&dataset](const std::string& dir) {
    core::TrainerConfig config = RecoveryConfig();
    config.checkpoint_dir = FreshDir(dir);
    config.checkpoint_every = 5;
    sim::ProcessFault restart;
    restart.kind = sim::ProcessFaultKind::kPsShardRestart;
    restart.machine = 0;
    restart.tick = 150;
    config.fault.process_faults.push_back(restart);
    auto engine = core::MakeEngine(core::SystemKind::kHetKgDps, config,
                                   dataset.graph, dataset.split.train)
                      .value();
    auto report = engine->Train(2).value();
    return std::make_pair(EmbeddingBytes(engine->Embeddings()),
                          std::move(report));
  };

  const auto [bytes_a, report_a] = run("rec-ps-a");
  const auto [bytes_b, report_b] = run("rec-ps-b");
  EXPECT_EQ(report_a.metrics.Get(metric::kRecoveryPsShardRestarts), 1u);
  EXPECT_EQ(bytes_a, bytes_b);
  ExpectReportsMatch(report_a, report_b);
}

// Corrupting the newest snapshot makes RestoreTrainState fall back to
// the previous manifest entry — and resuming from that older snapshot
// still converges to the bit-identical uninterrupted result, because
// the resumed run deterministically retrains the gap.
TEST(RecoveryTest, ManifestFallbackOnCorruptNewestSnapshot) {
  const auto dataset = graph::GenerateDataset(SmallSpec()).value();

  core::TrainerConfig ref_config = RecoveryConfig();
  ref_config.checkpoint_dir = FreshDir("rec-fallback-ref");
  ref_config.checkpoint_every = 5;
  auto ref_engine = core::MakeEngine(core::SystemKind::kHetKgDps, ref_config,
                                     dataset.graph, dataset.split.train)
                        .value();
  const auto reference = ref_engine->Train(2).value();

  const std::string dir = FreshDir("rec-fallback");
  core::TrainerConfig crash_config = RecoveryConfig();
  crash_config.checkpoint_dir = dir;
  crash_config.checkpoint_every = 5;
  crash_config.halt_after_iterations = 12;  // Snapshots at 5 and 10.
  auto crashed = core::MakeEngine(core::SystemKind::kHetKgDps, crash_config,
                                  dataset.graph, dataset.split.train)
                     .value();
  ASSERT_TRUE(crashed->Train(2).ok());

  auto candidates = core::CheckpointManager::ResumeCandidates(dir);
  ASSERT_TRUE(candidates.ok());
  ASSERT_GE(candidates->size(), 2u);
  FlipByte((*candidates)[0], 40);

  core::TrainerConfig resume_config = RecoveryConfig();
  resume_config.checkpoint_dir = dir;
  resume_config.checkpoint_every = 5;
  auto resumed = core::MakeEngine(core::SystemKind::kHetKgDps, resume_config,
                                  dataset.graph, dataset.split.train)
                     .value();
  ASSERT_TRUE(resumed->RestoreTrainState(dir).ok());
  EXPECT_GE(resumed->RecoveryMetrics().Get(metric::kCheckpointFallbacks),
            1u);
  EXPECT_EQ(resumed->RecoveryMetrics().Get(metric::kCheckpointRestores),
            1u);
  const auto report = resumed->Train(2).value();

  EXPECT_EQ(EmbeddingBytes(resumed->Embeddings()),
            EmbeddingBytes(ref_engine->Embeddings()));
  ExpectReportsMatch(report, reference);
}

// PBG checkpoints at epoch granularity: training n epochs, then
// restoring into a fresh engine and asking for the full schedule,
// finishes bit-identical to an uninterrupted run without checkpoints
// (PBG keeps its checkpoint counters process-local).
TEST(RecoveryTest, PbgEpochResumeBitIdentical) {
  const auto dataset = graph::GenerateDataset(SmallSpec()).value();

  core::TrainerConfig config = RecoveryConfig();
  config.pbg_partitions = 4;

  auto reference = core::MakeEngine(core::SystemKind::kPbg, config,
                                    dataset.graph, dataset.split.train)
                       .value();
  const auto ref_report = reference->Train(3).value();

  core::TrainerConfig ck_config = config;
  ck_config.checkpoint_dir = FreshDir("rec-pbg");
  ck_config.checkpoint_every = 1;  // Epochs, for PBG.
  auto partial = core::MakeEngine(core::SystemKind::kPbg, ck_config,
                                  dataset.graph, dataset.split.train)
                     .value();
  ASSERT_TRUE(partial->Train(2).ok());

  auto resumed = core::MakeEngine(core::SystemKind::kPbg, ck_config,
                                  dataset.graph, dataset.split.train)
                     .value();
  ASSERT_TRUE(resumed->RestoreTrainState(ck_config.checkpoint_dir).ok());
  EXPECT_EQ(resumed->RecoveryMetrics().Get(metric::kCheckpointRestores),
            1u);
  const auto report = resumed->Train(3).value();

  EXPECT_EQ(EmbeddingBytes(resumed->Embeddings()),
            EmbeddingBytes(reference->Embeddings()));
  // The resumed Train(3) continues at epoch 2, so its report holds the
  // final epoch only; that epoch must match the reference exactly.
  ASSERT_GE(report.epochs.size(), 1u);
  EXPECT_DOUBLE_EQ(report.epochs.back().mean_loss,
                   ref_report.epochs.back().mean_loss);
  EXPECT_DOUBLE_EQ(report.epochs.back().cumulative_seconds,
                   ref_report.epochs.back().cumulative_seconds);
}

}  // namespace
}  // namespace hetkg
