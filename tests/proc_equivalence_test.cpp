// Process-runtime equivalence suite (DESIGN.md §13): drives the real
// trainer binary (HETKG_TRAIN_BIN, injected by CMake) as subprocesses
// and asserts the headline invariant — with the same seed and thread
// count, a --runtime=proc run over real worker processes produces a
// byte-identical training-state snapshot to the in-process sim run, at
// 1/2/4 workers, over both transports, and across a real SIGKILL of a
// worker mid-epoch followed by checkpoint recovery.

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
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
  for (const int workers : {1, 2, 4}) {
    const std::string sim_state =
        dir + "/sim" + std::to_string(workers) + ".state";
    const std::string proc_state =
        dir + "/proc" + std::to_string(workers) + ".state";
    ASSERT_EQ(RunTrainer("--machines " + std::to_string(workers) +
                             " --save_state " + sim_state,
                         dir + "/sim.log"),
              0)
        << ReadFileBytes(dir + "/sim.log");
    ASSERT_EQ(RunTrainer("--runtime proc --workers " +
                             std::to_string(workers) + " --save_state " +
                             proc_state,
                         dir + "/proc.log"),
              0)
        << ReadFileBytes(dir + "/proc.log");
    const std::string sim_bytes = ReadFileBytes(sim_state);
    ASSERT_FALSE(sim_bytes.empty());
    EXPECT_EQ(sim_bytes, ReadFileBytes(proc_state))
        << "proc snapshot diverged from sim at " << workers << " workers";
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
  const std::string dir = FreshDir("proc-kill");
  // Both runs checkpoint on the same cadence: periodic saves feed the
  // kCheckpointSaves counter inside the snapshot, so the uninterrupted
  // reference needs them too.
  const std::string common =
      "--runtime proc --workers 2 --checkpoint_every 20 ";
  ASSERT_EQ(RunTrainer(common + "--checkpoint_dir " + dir +
                           "/ck_ref --save_state " + dir + "/ref.state",
                       dir + "/ref.log"),
            0)
      << ReadFileBytes(dir + "/ref.log");
  // Worker 1 raises SIGKILL on receiving the step command for global
  // iteration 47 — mid-epoch-2 at this scale — then the coordinator
  // restores the latest snapshot and re-forks the fleet.
  ASSERT_EQ(RunTrainer(common + "--proc_kill 1:47 --checkpoint_dir " + dir +
                           "/ck_kill --save_state " + dir + "/kill.state",
                       dir + "/kill.log"),
            0)
      << ReadFileBytes(dir + "/kill.log");
  const std::string ref = ReadFileBytes(dir + "/ref.state");
  ASSERT_FALSE(ref.empty());
  EXPECT_EQ(ref, ReadFileBytes(dir + "/kill.state"))
      << "post-SIGKILL recovery diverged from the uninterrupted run";
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
  EXPECT_NE(RunTrainer("--runtime proc --workers 2 --async true",
                       dir + "/async.log"),
            0);
  EXPECT_NE(ReadFileBytes(dir + "/async.log")
                .find("deterministic scheduler"),
            std::string::npos);
  EXPECT_NE(RunTrainer("--runtime proc --workers 2 --system pbg",
                       dir + "/pbg.log"),
            0);
  EXPECT_NE(ReadFileBytes(dir + "/pbg.log")
                .find("parameter-server engines only"),
            std::string::npos);
  EXPECT_NE(
      RunTrainer("--runtime proc --workers 2 --fault_worker_crash 0:10",
                 dir + "/simfault.log"),
      0);
  EXPECT_NE(ReadFileBytes(dir + "/simfault.log").find("real worker"),
            std::string::npos);
}

}  // namespace
}  // namespace hetkg
