// Feature-composition matrix (DESIGN.md §13, §16): every combination of
// system x storage x runtime x --async x scheduled worker crash x
// observability either trains one epoch or is refused up front, with
// InvalidArgument from MakeEngine or ProcCoordinator::ForkWorkers. One
// pair is a real limit: PBG x tiered storage. PBG x the process runtime
// never reaches a check, because ForkWorkers takes a PsTrainingEngine*.

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "hetkg/hetkg.h"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define HETKG_TSAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define HETKG_TSAN 1
#endif

namespace hetkg {
namespace {

using core::SystemKind;

enum class Storage { kRam, kTieredFp32, kTieredInt8 };

struct Row {
  SystemKind system;
  Storage storage;
  bool proc;
  bool async;
  bool crash;
  bool obs;

  std::string Name() const {
    static const char* const kStorage[] = {"ram", "tiered-fp32",
                                           "tiered-int8"};
    return std::string(core::SystemKindName(system)) + " " +
           kStorage[static_cast<int>(storage)] + (proc ? " proc" : " sim") +
           (async ? " async" : "") + (crash ? " crash" : "") +
           (obs ? " obs" : "");
  }
};

// A two-machine config for `row`, writing every file it needs under
// `dir`.
core::TrainerConfig RowConfig(const Row& row, const std::string& dir) {
  core::TrainerConfig config;
  config.dim = 16;
  config.batch_size = 64;
  config.cache_capacity = 256;
  config.num_machines = 2;
  config.pbg_partitions = 4;
  config.seed = 77;
  config.checkpoint_fsync = false;
  if (row.storage != Storage::kRam) {
    config.storage.enabled = true;
    config.storage.cold_dir = dir + "/cold";
    config.storage.dtype = row.storage == Storage::kTieredInt8
                               ? embedding::ColdDtype::kInt8
                               : embedding::ColdDtype::kFp32;
    std::filesystem::create_directories(config.storage.cold_dir);
  }
  config.sync.async_pipeline = row.async;
  if (row.crash) {
    // Worker 1 crashes inside epoch 1, after the first snapshot. The
    // tick counts transport messages, of which PBG's periodic relation
    // syncs send far fewer.
    const uint64_t tick = row.system == SystemKind::kPbg ? 10 : 100;
    config.fault.process_faults.push_back(
        {sim::ProcessFaultKind::kWorkerCrash, 1, tick});
    config.checkpoint_dir = dir + "/ck";
    config.checkpoint_every = 5;
  }
  if (row.obs) {
    config.obs.trace_out = dir + "/trace.json";
    config.obs.metrics_json = dir + "/metrics.json";
  }
  return config;
}

class ConfigMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override {
#ifdef HETKG_TSAN
    GTEST_SKIP() << "the proc rows fork multi-threaded processes; "
                    "covered by the non-sanitizer CI matrix";
#endif
  }
};

TEST_F(ConfigMatrixTest, EveryCombinationTrainsOrIsRejectedUpFront) {
  SetLogLevel(LogLevel::kWarning);
  graph::SyntheticSpec spec = graph::Fb15kSpec();
  spec.num_triples = static_cast<size_t>(spec.num_triples * 0.01);
  const graph::SyntheticDataset dataset =
      graph::GenerateDataset(spec).value();
  const std::string root = ::testing::TempDir() + "/config-matrix-" +
                           std::to_string(::getpid());
  std::filesystem::remove_all(root);

  size_t rows = 0;
  size_t trained = 0;
  size_t rejected = 0;
  size_t type_refused = 0;
  for (const SystemKind system : {SystemKind::kPbg, SystemKind::kDglKe,
                                  SystemKind::kHetKgCps,
                                  SystemKind::kHetKgDps}) {
    for (const Storage storage :
         {Storage::kRam, Storage::kTieredFp32, Storage::kTieredInt8}) {
      for (const bool proc : {false, true}) {
        for (const bool async : {false, true}) {
          for (const bool crash : {false, true}) {
            for (const bool obs : {false, true}) {
              const Row row{system, storage, proc, async, crash, obs};
              SCOPED_TRACE(row.Name());
              const std::string dir = root + "/" + std::to_string(rows++);
              std::filesystem::create_directories(dir);
              const core::TrainerConfig config = RowConfig(row, dir);
              Stopwatch clock;

              auto engine = core::MakeEngine(system, config, dataset.graph,
                                             dataset.split.train);
              Status setup = engine.status();
              std::unique_ptr<net::ProcCoordinator> coordinator;
              if (engine.ok() && proc) {
                auto* ps = dynamic_cast<core::PsTrainingEngine*>(
                    engine.value().get());
                if (ps == nullptr) {
                  EXPECT_EQ(system, SystemKind::kPbg);
                  ++type_refused;
                  continue;
                }
                auto fleet = net::ProcCoordinator::ForkWorkers(ps, {});
                setup = fleet.status();
                if (fleet.ok()) coordinator = std::move(fleet).value();
              }
              const bool want_rejected =
                  system == SystemKind::kPbg && storage != Storage::kRam;
              if (want_rejected) {
                EXPECT_EQ(setup.code(), StatusCode::kInvalidArgument)
                    << setup.ToString();
                ++rejected;
                continue;
              }
              ASSERT_TRUE(setup.ok()) << setup.ToString();

              Result<core::TrainReport> report = engine.value()->Train(1);
              ASSERT_TRUE(report.ok()) << report.status().ToString();
              EXPECT_EQ(report->epochs.size(), 1u);
              // PBG counts its (resident-partition) crash in the report;
              // the PS engines count the rewind outside it.
              const uint64_t crashes =
                  report->metrics.Get(metric::kRecoveryWorkerCrashes) +
                  engine.value()->RecoveryMetrics().Get(
                      metric::kRecoveryWorkerCrashes);
              EXPECT_EQ(crashes, crash ? 1u : 0u);
              if (obs) {
                EXPECT_TRUE(std::filesystem::exists(config.obs.trace_out));
                EXPECT_TRUE(
                    std::filesystem::exists(config.obs.metrics_json));
              }
              if (coordinator != nullptr) {
                EXPECT_TRUE(coordinator->Shutdown().ok());
                EXPECT_TRUE(coordinator->WorkerExits().empty())
                    << "a worker process ended on a signal or error";
              }
              EXPECT_LT(clock.ElapsedSeconds(), 30.0);
              ++trained;
              std::filesystem::remove_all(dir);
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(rows, 192u);
  // PBG x tiered (2 storages x 16); PBG x proc outside those (8) never
  // reaches a check.
  EXPECT_EQ(rejected, 32u);
  EXPECT_EQ(type_refused, 8u);
  EXPECT_EQ(trained, 192u - 32u - 8u);
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace hetkg
