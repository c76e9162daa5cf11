#ifndef HETKG_PERFBENCH_BENCH_H_
#define HETKG_PERFBENCH_BENCH_H_

// Shared pieces of the wall-clock benchmark driver: workload table,
// setup of one training job, span log, and the result record the
// driver writes for run.py to summarize.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/trainer.h"
#include "graph/synthetic.h"
#include "net/proc_runtime.h"
#include "obs/trace.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

// ---- Workloads -------------------------------------------------------

struct Workload {
  std::string name;
  hetkg::graph::SyntheticSpec spec;
  hetkg::core::SystemKind system = hetkg::core::SystemKind::kHetKgDps;
  hetkg::core::TrainerConfig config;
  /// > 0: --runtime=proc with this many forked workers over shm.
  size_t proc_workers = 0;
  /// Epoch wall on the reference host (4-core AVX2). Each training job
  /// trains --seconds / (kJobs * this) measured epochs (rounded, at
  /// least 1), so the exact metrics depend only on the command line,
  /// never on how fast this host happens to be.
  double nominal_epoch_s = 1.0;
};

/// Independent training jobs per end-to-end run (set up, trained,
/// evaluated, checkpointed and torn down in turn). Every repeated
/// measurement is spread over them, so a run samples more than one
/// memory placement and time window.
inline constexpr size_t kJobs = 2;
/// Setups per end-to-end run: the training jobs' plus setup-only ones,
/// so setup_s is a median of this many.
inline constexpr size_t kSetups = 3;
/// One filtered link-prediction evaluation: this many test triples,
/// each ranked (head and tail) against this many candidates.
inline constexpr size_t kEvalTriples = 250;
inline constexpr size_t kEvalCandidates = 1000;

/// The workload named `name`, with `seed` as both the dataset seed and
/// the trainer seed.
hetkg::Result<Workload> FindWorkload(std::string_view name, uint64_t seed);

/// One ready-to-train job: dataset, engine, and (proc runtime) the
/// forked worker fleet. Members are destroyed in reverse order, so the
/// workers are reaped before the engine they serve goes away.
struct Job {
  std::unique_ptr<hetkg::graph::SyntheticDataset> dataset;
  std::unique_ptr<hetkg::core::TrainingEngine> engine;
  std::unique_ptr<hetkg::net::ProcCoordinator> coordinator;
  hetkg::core::PsTrainingEngine* ps() const {
    return dynamic_cast<hetkg::core::PsTrainingEngine*>(engine.get());
  }
};

/// Generates the dataset, builds the engine (tiered slabs under
/// `cold_dir` when the workload is tiered), and forks the workers when
/// the workload runs on the proc runtime.
hetkg::Result<Job> MakeJob(const Workload& w, const std::string& cold_dir);

/// Engine over an existing dataset (sim runtime).
hetkg::Result<std::unique_ptr<hetkg::core::TrainingEngine>> MakeEngineFor(
    const Workload& w, const hetkg::graph::SyntheticDataset& dataset,
    const std::string& cold_dir);

/// Evaluation of test sample `sample` (each sample draws its own
/// kEvalTriples test triples).
hetkg::eval::EvalOptions EvalOptionsFor(const Workload& w, bool filtered,
                                        size_t sample);

/// Stable 64-bit FNV-1a fingerprint of the workload's full config.
uint64_t ConfigFingerprint(const Workload& w);

// ---- Result record ---------------------------------------------------

/// Everything a run measured and checked, serialized as one JSON
/// object for run.py. Samples are raw observations (run.py takes their
/// medians and percentiles); values are single measurements.
class Record {
 public:
  /// Counts one attempted check; a false `ok` counts as failed.
  bool Check(const std::string& name, bool ok, const std::string& detail = "");
  /// Counts one public call; a non-OK status counts as failed.
  bool Call(const std::string& name, const hetkg::Status& status);
  void Sample(const std::string& metric, double value) {
    samples_[metric].push_back(value);
  }
  void Value(const std::string& metric, double value) {
    values_[metric] = value;
  }
  void Info(const std::string& key, const std::string& value) {
    info_[key] = value;
  }
  std::string ToJson() const;

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> values_;
  std::map<std::string, std::string> info_;
};

// ---- Spans -----------------------------------------------------------

/// In-memory span log, written once at exit. The benchmark opens a
/// span around each call it makes into a layer; spans the library
/// already emits (obs::Tracer) are mirrored in through the tracer's
/// event sink while a traced epoch runs and nested by time under the
/// benchmark span that was open.
class SpanLog : public hetkg::obs::Tracer::EventSink {
 public:
  struct Span {
    int64_t id = 0;
    int64_t parent = -1;
    int64_t iter = -1;
    uint32_t tid = 0;  // 0 = the benchmark's thread.
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    std::string name;
  };

  /// Opens a span under the innermost open one. Benchmark thread only.
  int64_t Begin(std::string name, int64_t iter = -1);
  void End(int64_t id);

  /// Mirrors the library's tracer events into the log while a traced
  /// section runs: Attach() starts a tracer session writing to
  /// `trace_path`; Detach() stops it and nests the captured events by
  /// time, under span `root`.
  hetkg::Status Attach(const std::string& trace_path);
  hetkg::Status Detach(int64_t root);

  void OnEvent(const char* name, const char* cat, char phase, uint32_t tid,
               uint64_t ts_us, uint64_t dur_us, double v1) override;

  hetkg::Status Write(const std::string& path) const;

 private:
  struct Event {
    const char* name;
    uint32_t tid;
    uint64_t ts_us;
    uint64_t dur_us;
  };
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
  // Tracer events arrive from any thread that emits them.
  std::mutex mu_;
  std::vector<Event> events_;
  int64_t session_origin_ns_ = 0;
  uint32_t marker_tid_ = UINT32_MAX;
};

/// RAII span.
class Scoped {
 public:
  Scoped(SpanLog* log, std::string name, int64_t iter = -1)
      : log_(log), id_(log->Begin(std::move(name), iter)) {}
  ~Scoped() { log_->End(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog* log_;
  int64_t id_;
};

// ---- Runs ------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string tmp_dir;
  std::string out_path;
};

/// End-to-end run (tracing off).
void RunEndToEnd(const Workload& w, const Options& opt, Record* out);

/// Traced run: per-layer numbers from spans and layer calls.
void RunTraced(const Workload& w, const Options& opt, Record* out,
               SpanLog* spans);

/// Peak RSS of this process plus the largest reaped child, in MiB.
double PeakRssMib();

/// Bytes of `path` plus its cold sidecars ("<path>.cold*").
uint64_t SnapshotBytes(const std::string& path);

}  // namespace perfbench

#endif  // HETKG_PERFBENCH_BENCH_H_
