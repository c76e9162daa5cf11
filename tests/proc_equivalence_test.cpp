// Process-runtime equivalence suite (DESIGN.md §13): drives the real
// trainer binary (HETKG_TRAIN_BIN, injected by CMake) as subprocesses
// and asserts the headline invariant — with the same seed and thread
// count, a --runtime=proc run over real worker processes produces a
// byte-identical training-state snapshot to the in-process sim run, at
// 1/2/4 workers, over both transports, with and without the lag-N
// --async schedule, and across a real SIGKILL of a worker mid-epoch
// followed by checkpoint recovery.

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

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

// Pid-qualified so concurrent ctest entries never share a directory.
std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name + "-" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Runs the trainer with the base scenario plus `extra_args`, capturing
// stdout+stderr into `log_path`. Returns the process exit code.
int RunTrainer(const std::string& extra_args, const std::string& log_path) {
  const std::string cmd = std::string(HETKG_TRAIN_BIN) +
                          " --dataset fb15k --triple_fraction 0.01"
                          " --epochs 2 --seed 77 --threads 2 " +
                          extra_args + " > " + log_path + " 2>&1";
  const int rc = std::system(cmd.c_str());
  return WEXITSTATUS(rc);
}

// The last value `name` takes in a --metrics_json time series, or -1
// when it never appears.
long long LastMetricValue(const std::string& json, const std::string& name) {
  const std::string needle = "\"" + name + "\":";
  const size_t at = json.rfind(needle);
  if (at == std::string::npos) return -1;
  return std::stoll(json.substr(at + needle.size()));
}

class ProcEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
#ifdef HETKG_TSAN
    GTEST_SKIP() << "proc runtime forks multi-threaded trainer processes; "
                    "covered by the non-sanitizer CI matrix";
#endif
  }
};

TEST_F(ProcEquivalenceTest, SimAndProcSnapshotsAreByteIdentical) {
  const std::string dir = FreshDir("proc-equiv");
  const std::vector<std::pair<int, std::string>> cases = {
      {1, ""}, {2, ""}, {4, ""}, {2, "--async true "}};
  for (const auto& [workers, extra] : cases) {
    const std::string tag =
        std::to_string(workers) + (extra.empty() ? "" : "async");
    const std::string sim_state = dir + "/sim" + tag + ".state";
    const std::string proc_state = dir + "/proc" + tag + ".state";
    ASSERT_EQ(RunTrainer(extra + "--machines " + std::to_string(workers) +
                             " --save_state " + sim_state,
                         dir + "/sim.log"),
              0)
        << ReadFileBytes(dir + "/sim.log");
    ASSERT_EQ(RunTrainer(extra + "--runtime proc --workers " +
                             std::to_string(workers) + " --save_state " +
                             proc_state,
                         dir + "/proc.log"),
              0)
        << ReadFileBytes(dir + "/proc.log");
    const std::string sim_bytes = ReadFileBytes(sim_state);
    ASSERT_FALSE(sim_bytes.empty());
    EXPECT_EQ(sim_bytes, ReadFileBytes(proc_state))
        << "proc snapshot diverged from sim at " << tag;
  }
}

TEST_F(ProcEquivalenceTest, TcpTransportMatchesSim) {
  const std::string dir = FreshDir("proc-tcp");
  ASSERT_EQ(RunTrainer("--machines 2 --save_state " + dir + "/sim.state",
                       dir + "/sim.log"),
            0);
  ASSERT_EQ(RunTrainer("--runtime proc --workers 2 --proc_transport tcp"
                       " --save_state " +
                           dir + "/tcp.state",
                       dir + "/tcp.log"),
            0)
      << ReadFileBytes(dir + "/tcp.log");
  EXPECT_EQ(ReadFileBytes(dir + "/sim.state"),
            ReadFileBytes(dir + "/tcp.state"));
}

TEST_F(ProcEquivalenceTest, SigkilledWorkerRecoversBitIdentically) {
  // The --async case kills a worker holding in-flight pushes; they are
  // lost with it, and the rewind to the (drained) snapshot replays them.
  for (const std::string mode : {"", "--async true "}) {
    SCOPED_TRACE(mode.empty() ? "sync" : "async");
    const std::string dir =
        FreshDir(mode.empty() ? "proc-kill" : "proc-kill-async");
    // Both runs checkpoint on the same cadence: periodic saves feed the
    // kCheckpointSaves counter inside the snapshot, so the uninterrupted
    // reference needs them too.
    const std::string common =
        mode + "--runtime proc --workers 2 --checkpoint_every 20 ";
    ASSERT_EQ(RunTrainer(common + "--checkpoint_dir " + dir +
                             "/ck_ref --save_state " + dir + "/ref.state",
                         dir + "/ref.log"),
              0)
        << ReadFileBytes(dir + "/ref.log");
    // Worker 1 raises SIGKILL on receiving the step command for global
    // iteration 47 — mid-epoch-2 at this scale — then the coordinator
    // restores the latest snapshot and re-forks the fleet.
    ASSERT_EQ(RunTrainer(common + "--proc_kill 1:47 --checkpoint_dir " +
                             dir + "/ck_kill --save_state " + dir +
                             "/kill.state",
                         dir + "/kill.log"),
              0)
        << ReadFileBytes(dir + "/kill.log");
    const std::string ref = ReadFileBytes(dir + "/ref.state");
    ASSERT_FALSE(ref.empty());
    EXPECT_EQ(ref, ReadFileBytes(dir + "/kill.state"))
        << "post-SIGKILL recovery diverged from the uninterrupted run";
  }
}

// The epoch and `total` lines a run prints on stdout.
std::string ReportLines(const std::string& log_path) {
  std::istringstream log(ReadFileBytes(log_path));
  std::string lines;
  for (std::string line; std::getline(log, line);) {
    if (line.rfind("epoch ", 0) == 0 || line.rfind("total ", 0) == 0) {
      lines += line + "\n";
    }
  }
  return lines;
}

// A recovered crash rewinds to a snapshot taken after epoch 1, yet the
// run still prints every epoch and the totals of the uninterrupted run
// — for a real SIGKILL under --runtime=proc and for an in-sim
// --fault_worker_crash alike — and says on stderr that it recovered.
TEST_F(ProcEquivalenceTest, CrashedRunsPrintEveryEpoch) {
  const std::string dir = FreshDir("proc-report");
  const std::string common = "--epochs 3 --checkpoint_every 10 ";
  for (const std::string mode : {"sim", "proc"}) {
    SCOPED_TRACE(mode);
    const std::string runtime =
        mode == "sim" ? "--machines 2 " : "--runtime proc --workers 2 ";
    const std::string crash = mode == "sim" ? "--fault_worker_crash 1:150 "
                                            : "--proc_kill 1:100 ";
    const std::string base = dir + "/" + mode;
    ASSERT_EQ(RunTrainer(common + runtime + "--checkpoint_dir " + base +
                             "_ck_ref",
                         base + "_ref.log"),
              0)
        << ReadFileBytes(base + "_ref.log");
    ASSERT_EQ(RunTrainer(common + runtime + crash + "--checkpoint_dir " +
                             base + "_ck_crash",
                         base + "_crash.log"),
              0)
        << ReadFileBytes(base + "_crash.log");
    const std::string ref = ReportLines(base + "_ref.log");
    EXPECT_NE(ref.find("epoch  3"), std::string::npos) << ref;
    EXPECT_EQ(ReportLines(base + "_crash.log"), ref);
    EXPECT_NE(ReadFileBytes(base + "_crash.log")
                  .find("recovered 1 worker crash from checkpoint"),
              std::string::npos);
  }
}

// Cross-process observability (DESIGN.md §14): turning on tracing and
// metrics export under --runtime=proc must not move a single trained
// bit, on either transport, while the merged artifacts prove the
// worker telemetry actually arrived — the Perfetto file carries the
// workers' track groups and the metrics JSON carries per-worker
// counters plus real transport RPC latency histograms.
TEST_F(ProcEquivalenceTest, ObsRunsKeepSnapshotsByteIdentical) {
  const std::string dir = FreshDir("proc-obs");
  for (const int workers : {1, 2, 4}) {
    const std::string tag = std::to_string(workers);
    const std::string off_state = dir + "/off" + tag + ".state";
    ASSERT_EQ(RunTrainer("--runtime proc --workers " + tag +
                             " --save_state " + off_state,
                         dir + "/off" + tag + ".log"),
              0)
        << ReadFileBytes(dir + "/off" + tag + ".log");
    const std::string off_bytes = ReadFileBytes(off_state);
    ASSERT_FALSE(off_bytes.empty());
    for (const std::string transport : {"shm", "tcp"}) {
      const std::string base = dir + "/" + transport + tag;
      ASSERT_EQ(RunTrainer("--runtime proc --workers " + tag +
                               " --proc_transport " + transport +
                               " --save_state " + base + ".state" +
                               " --trace_out " + base + ".trace.json" +
                               " --metrics_json " + base + ".metrics.json",
                           base + ".log"),
                0)
          << ReadFileBytes(base + ".log");
      EXPECT_EQ(off_bytes, ReadFileBytes(base + ".state"))
          << "obs-on " << transport << " snapshot diverged at " << workers
          << " workers";
      const std::string trace = ReadFileBytes(base + ".trace.json");
      EXPECT_NE(trace.find("\"worker 0\""), std::string::npos)
          << transport << " trace is missing the worker 0 track group";
      const std::string metrics = ReadFileBytes(base + ".metrics.json");
      EXPECT_NE(metrics.find("net.rpc.latency_us." + transport),
                std::string::npos)
          << "metrics JSON is missing the " << transport
          << " RPC latency histogram";
      EXPECT_NE(metrics.find(".w0"), std::string::npos)
          << "metrics JSON is missing per-worker gauges";
    }
  }
}

// A SIGKILLed worker's last trace events survive it: the coordinator
// harvests the flight-recorder ring (inherited shm pages, or the
// worker's spill file under tcp) and appends it to the merged trace as
// a `flight.w<id>` track — and the traced kill run still recovers to
// the exact bytes of the untraced kill run.
TEST_F(ProcEquivalenceTest, SigkillRunCapturesFlightRecorderTrack) {
  const std::string dir = FreshDir("proc-obs-kill");
  for (const std::string transport : {"shm", "tcp"}) {
    const std::string common = "--runtime proc --workers 2 --proc_transport " +
                               transport +
                               " --checkpoint_every 20 --proc_kill 1:47 ";
    const std::string base = dir + "/" + transport;
    ASSERT_EQ(RunTrainer(common + "--checkpoint_dir " + base +
                             "_ck_off --save_state " + base + "_off.state",
                         base + "_off.log"),
              0)
        << ReadFileBytes(base + "_off.log");
    ASSERT_EQ(RunTrainer(common + "--checkpoint_dir " + base +
                             "_ck_on --save_state " + base + "_on.state" +
                             " --trace_out " + base + ".trace.json",
                         base + "_on.log"),
              0)
        << ReadFileBytes(base + "_on.log");
    const std::string off_bytes = ReadFileBytes(base + "_off.state");
    ASSERT_FALSE(off_bytes.empty());
    EXPECT_EQ(off_bytes, ReadFileBytes(base + "_on.state"))
        << "traced " << transport << " kill run diverged from untraced";
    const std::string trace = ReadFileBytes(base + ".trace.json");
    EXPECT_NE(trace.find("\"flight.w1\""), std::string::npos)
        << transport
        << " merged trace is missing the killed worker's flight track";
  }
}

TEST_F(ProcEquivalenceTest, KillWithoutCheckpointsFailsCleanly) {
  const std::string dir = FreshDir("proc-kill-nock");
  EXPECT_NE(RunTrainer("--runtime proc --workers 2 --proc_kill 1:47",
                       dir + "/run.log"),
            0);
  const std::string log = ReadFileBytes(dir + "/run.log");
  EXPECT_NE(log.find("no checkpoint is restorable"), std::string::npos)
      << log;
}

TEST_F(ProcEquivalenceTest, ProcRejectsUnsupportedModes) {
  const std::string dir = FreshDir("proc-reject");
  EXPECT_EQ(RunTrainer("--runtime proc --workers 2 --system pbg",
                       dir + "/pbg.log"),
            2);
  EXPECT_NE(ReadFileBytes(dir + "/pbg.log")
                .find("parameter-server engines only"),
            std::string::npos);
}

// Scheduled in-sim process faults compose with the process runtime: the
// coordinator injects them at the same iteration barriers, an in-sim
// worker crash rewinds and re-forks the fleet like a real SIGKILL, and
// the run ends on the sim run's exact bytes and report lines.
TEST_F(ProcEquivalenceTest, ScheduledProcessFaultsMatchSim) {
  const std::string dir = FreshDir("proc-simfault");
  const std::pair<std::string, std::string> cases[] = {
      {"crash", "--fault_worker_crash 1:150"},
      {"restart", "--fault_ps_restart 0:40"}};
  for (const auto& [tag, fault] : cases) {
    SCOPED_TRACE(fault);
    const std::string base = dir + "/" + tag;
    const auto run = [&](const std::string& mode,
                         const std::string& runtime) {
      return RunTrainer("--checkpoint_every 10 " + fault + " " + runtime +
                            " --checkpoint_dir " + base + "_ck_" + mode +
                            " --save_state " + base + "_" + mode + ".state",
                        base + "_" + mode + ".log");
    };
    ASSERT_EQ(run("sim", "--machines 2"), 0)
        << ReadFileBytes(base + "_sim.log");
    ASSERT_EQ(run("proc", "--runtime proc --workers 2"), 0)
        << ReadFileBytes(base + "_proc.log");
    const std::string sim_bytes = ReadFileBytes(base + "_sim.state");
    ASSERT_FALSE(sim_bytes.empty());
    EXPECT_EQ(sim_bytes, ReadFileBytes(base + "_proc.state"));
    EXPECT_EQ(ReportLines(base + "_sim.log"),
              ReportLines(base + "_proc.log"));
  }
  EXPECT_NE(ReadFileBytes(dir + "/crash_proc.log")
                .find("recovered 1 worker crash from checkpoint"),
            std::string::npos);
}

// Tiered storage composes with the process runtime: the coordinator
// owns the cold tier, so an int8 tiered proc run writes the sim run's
// snapshot and cold sidecars byte for byte, also across a real SIGKILL
// recovered from checkpoints.
TEST_F(ProcEquivalenceTest, TieredStorageMatchesSim) {
  const std::string dir = FreshDir("proc-tiered");
  const std::pair<std::string, std::string> cases[] = {
      {"plain", ""}, {"kill", "--checkpoint_every 10"}};
  for (const auto& [tag, schedule] : cases) {
    SCOPED_TRACE(tag);
    const std::string base = dir + "/" + tag;
    const auto run = [&](const std::string& mode,
                         const std::string& runtime) {
      std::filesystem::create_directories(base + "_cold_" + mode);
      return RunTrainer("--storage tiered --cold_dtype int8 " + schedule +
                            " " + runtime + " --cold_dir " + base +
                            "_cold_" + mode + " --checkpoint_dir " + base +
                            "_ck_" + mode + " --save_state " + base + "_" +
                            mode + ".state",
                        base + "_" + mode + ".log");
    };
    ASSERT_EQ(run("sim", "--machines 2"), 0)
        << ReadFileBytes(base + "_sim.log");
    const std::string kill = tag == "kill" ? " --proc_kill 1:100" : "";
    ASSERT_EQ(run("proc", "--runtime proc --workers 2" + kill), 0)
        << ReadFileBytes(base + "_proc.log");
    // The snapshot, then its cold-tier sidecars (entity/relation tables
    // and their AdaGrad accumulators).
    for (const std::string suffix : {"", ".cold1", ".cold2", ".cold11",
                                     ".cold12"}) {
      const std::string sim_bytes =
          ReadFileBytes(base + "_sim.state" + suffix);
      ASSERT_FALSE(sim_bytes.empty()) << suffix;
      EXPECT_EQ(sim_bytes, ReadFileBytes(base + "_proc.state" + suffix))
          << "proc " << suffix << " diverged from sim";
    }
  }
  EXPECT_NE(ReadFileBytes(dir + "/kill_proc.log")
                .find("recovered 1 worker crash from checkpoint"),
            std::string::npos);

  // The workers' hotness hints reach the coordinator's server, which
  // counts the admitted ones as promotions exactly as the sim run does.
  // Separate runs: a --metrics_json run's snapshot is not compared.
  const auto promotions = [&](const std::string& mode,
                              const std::string& runtime) {
    const std::string base = dir + "/metrics_" + mode;
    std::filesystem::create_directories(base + "_cold");
    EXPECT_EQ(RunTrainer("--storage tiered --cold_dtype int8 " + runtime +
                             " --cold_dir " + base + "_cold --metrics_json " +
                             base + ".json",
                         base + ".log"),
              0)
        << ReadFileBytes(base + ".log");
    return LastMetricValue(ReadFileBytes(base + ".json"), "tier.promotions");
  };
  const long long sim_promotions = promotions("sim", "--machines 2");
  EXPECT_GT(sim_promotions, 0);
  EXPECT_EQ(promotions("proc", "--runtime proc --workers 2"), sim_promotions);
}

}  // namespace
}  // namespace hetkg
