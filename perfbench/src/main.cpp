// hetkg_perfbench: closed-loop training jobs, one at a time, timed by wall
// clock (see ../README.md). Invoked by run.py:
//
//   hetkg_perfbench --workload fb15k-hotcache --seed 7 --seconds 8
//                   --trace 0 --tmp <scratch dir> --out <result.json>
//
// Writes the raw samples, values and check outcomes as JSON to --out;
// run.py turns them into the benchmark's metrics.

#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench.h"
#include "core/ps_engine.h"
#include "embedding/kernels.h"
#include "eval/link_prediction.h"

namespace perfbench {

using namespace hetkg;

namespace {

// Differently seeded test samples evaluated per job, before the save
// and again after the restore; test_mrr / test_mr average them. Each
// sample is evaluated against its own copy of the graph (a separate
// memory placement of the membership index).
constexpr size_t kEvalSamples = 4;
// Checkpoint saves/restores repeat until this much wall has passed in
// a job (small snapshots are dominated by fsync latency).
constexpr double kCkptSeconds = 0.3;
constexpr int kMaxCkptCalls = 20;

uint64_t TripleHash(const std::vector<Triple>& triples) {
  uint64_t h = 1469598103934665603ULL;
  for (const Triple& t : triples) {
    for (uint32_t v : {t.head, t.relation, t.tail}) {
      h ^= v;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

void RemoveTree(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

/// Destroys a job in dependency order: workers, engine, dataset.
void Release(Job* job) {
  job->coordinator.reset();
  job->engine.reset();
  job->dataset.reset();
}

/// The deterministic outcome of one job; every job of a run must
/// produce the same bits.
struct Exact {
  uint64_t dataset_hash = 0;
  double warmup_loss = 0.0;
  double last_loss = 0.0;
  double remote_mib = 0.0;
  double sim_s = 0.0;
  double test_mrr = 0.0;
  double test_mr = 0.0;
  bool operator==(const Exact& o) const {
    return dataset_hash == o.dataset_hash &&
           SameBits(warmup_loss, o.warmup_loss) &&
           SameBits(last_loss, o.last_loss) &&
           SameBits(remote_mib, o.remote_mib) && SameBits(sim_s, o.sim_s) &&
           SameBits(test_mrr, o.test_mrr) && SameBits(test_mr, o.test_mr);
  }
};

/// Warm-up epoch plus `epochs` measured ones; fills the training half
/// of `exact`. False when a call failed.
bool TrainMeasured(core::TrainingEngine& engine, size_t epochs,
                   double train_triples, bool record, Record* out,
                   Exact* exact) {
  auto warm = engine.Train(1);
  if (!out->Call("train warm-up", warm.status())) return false;
  exact->warmup_loss = warm->epochs.front().mean_loss;
  out->Check("warm-up loss is finite", std::isfinite(exact->warmup_loss));
  double remote_bytes = 0.0;
  double sim_seconds = 0.0;
  for (size_t e = 0; e < epochs; ++e) {
    const int64_t t = NowNs();
    auto report = engine.Train(1);
    const double wall = SecondsSince(t);
    if (!out->Call("train", report.status())) return false;
    const core::EpochReport& epoch = report->epochs.front();
    if (record) out->Sample("train_triples_per_s", train_triples / wall);
    out->Check("loss is finite", std::isfinite(epoch.mean_loss));
    remote_bytes += static_cast<double>(epoch.remote_bytes);
    sim_seconds += epoch.epoch_time.total_seconds();
    exact->last_loss = epoch.mean_loss;
  }
  out->Check("last-epoch loss below the warm-up epoch's",
             exact->last_loss < exact->warmup_loss,
             std::to_string(exact->last_loss) + " vs " +
                 std::to_string(exact->warmup_loss));
  exact->remote_mib = remote_bytes / epochs / (1 << 20);
  exact->sim_s = sim_seconds / epochs;
  return true;
}

/// Filtered evaluation of test sample `sample`, timed into
/// eval_rankings_per_s; zero metrics (and a failed call) on error.
eval::EvalMetrics TimedEval(const Workload& w,
                            const core::TrainingEngine& engine,
                            const graph::KnowledgeGraph& graph,
                            const std::vector<Triple>& test, size_t sample,
                            Record* out) {
  const int64_t t = NowNs();
  auto metrics = eval::EvaluateLinkPrediction(
      engine.Embeddings(), engine.ScoreFn(), graph, test,
      EvalOptionsFor(w, /*filtered=*/true, sample));
  const double wall = SecondsSince(t);
  if (!out->Call("evaluate", metrics.status())) return {};
  out->Sample("eval_rankings_per_s",
              static_cast<double>(metrics->rankings) / wall);
  return *metrics;
}

/// Repeats `call` (returning its Status) until kCkptSeconds have passed,
/// at least once, timing each call into `metric`.
template <class Fn>
bool TimedCheckpointCalls(const char* name, const char* metric, Record* out,
                          Fn&& call) {
  const int64_t begin = NowNs();
  for (int r = 0; r < kMaxCkptCalls &&
                  (r == 0 || SecondsSince(begin) < kCkptSeconds);
       ++r) {
    const int64_t t = NowNs();
    const Status status = call();
    const double wall = SecondsSince(t);
    if (!out->Call(name, status)) return false;
    out->Sample(metric, wall);
  }
  return true;
}

/// Sets up a job under `dir` (which it creates), timed into setup_s.
Result<Job> TimedSetup(const Workload& w, const std::string& dir,
                       Record* out) {
  std::filesystem::create_directories(dir);
  const int64_t t = NowNs();
  auto made = MakeJob(w, dir + "/cold-a");
  const double setup_s = SecondsSince(t);
  if (out->Call("setup", made.status())) out->Sample("setup_s", setup_s);
  return made;
}

/// Orderly shutdown of the job's proc workers, if it has any.
void ShutDownWorkers(const Job& job, Record* out) {
  if (job.coordinator == nullptr) return;
  out->Call("proc shutdown", job.coordinator->Shutdown());
  out->Check("no worker exited abnormally",
             job.coordinator->WorkerExits().empty());
}

/// One job: set up, train, evaluate, save and restore. The first job
/// also restores into a fresh engine (on the proc workload: a sim engine
/// that first trains the same epochs). False when a call failed and the
/// run cannot go on.
bool RunJob(const Workload& w, const Options& opt, int rep, size_t epochs,
            Record* out, Exact* exact) {
  const std::string dir = opt.tmp_dir + "/job-" + std::to_string(rep);
  auto made = TimedSetup(w, dir, out);
  if (!made.ok()) return false;
  Job job = std::move(made).value();
  const graph::SyntheticDataset& data = *job.dataset;
  core::TrainingEngine& engine = *job.engine;
  exact->dataset_hash = TripleHash(data.split.train);
  const double train_triples = static_cast<double>(data.split.train.size());
  if (rep == 0) {
    out->Info("train_triples", std::to_string(data.split.train.size()));
  }

  if (!TrainMeasured(engine, epochs, train_triples, true, out, exact)) {
    return false;
  }
  ShutDownWorkers(job, out);

  std::vector<graph::KnowledgeGraph> copies;
  for (size_t k = 1; k < kEvalSamples; ++k) {
    auto copy = graph::KnowledgeGraph::Create(
        data.graph.num_entities(), data.graph.num_relations(),
        data.graph.triples(), data.graph.name());
    if (!out->Call("copy graph", copy.status())) return false;
    copies.push_back(std::move(copy).value());
  }
  std::vector<const graph::KnowledgeGraph*> graphs = {&data.graph};
  for (const graph::KnowledgeGraph& copy : copies) graphs.push_back(&copy);
  // The membership index is built once per graph, before timing.
  for (const graph::KnowledgeGraph* g : graphs) g->BuildTripleSet();
  eval::EvalMetrics tested[kEvalSamples];
  for (size_t k = 0; k < kEvalSamples; ++k) {
    tested[k] = TimedEval(w, engine, *graphs[k], data.split.test, k, out);
    exact->test_mrr += tested[k].mrr / kEvalSamples;
    exact->test_mr += tested[k].mr / kEvalSamples;
  }
  out->Check("test MRR is positive", exact->test_mrr > 0.0);

  const std::string snapshot = dir + "/state.ckpt";
  if (!TimedCheckpointCalls("save train state", "ckpt_save_s", out, [&] {
        return engine.SaveTrainState(snapshot);
      })) {
    return false;
  }
  if (!TimedCheckpointCalls("restore train state", "ckpt_restore_s", out,
                            [&] { return engine.RestoreTrainState(snapshot); })) {
    return false;
  }
  for (size_t k = 0; k < kEvalSamples; ++k) {
    const eval::EvalMetrics again = TimedEval(
        w, engine, *graphs[(k + 1) % kEvalSamples], data.split.test, k, out);
    out->Check("evaluation after restore equals before save",
               SameBits(again.mrr, tested[k].mrr) &&
                   SameBits(again.mr, tested[k].mr));
  }

  if (rep == 0) {
    out->Info("kernel_path", std::string(embedding::kernels::KernelPathName(
                                 embedding::kernels::ActivePath())));
    auto other = MakeEngineFor(w, data, dir + "/cold-b");
    if (!out->Call("make second engine", other.status())) return false;
    if (w.proc_workers > 0) {
      Exact sim;
      if (!TrainMeasured(**other, epochs, train_triples, false, out, &sim)) {
        return false;
      }
      out->Check("proc remote bytes equal sim",
                 SameBits(sim.remote_mib, exact->remote_mib));
      out->Check(
          "proc test MRR equals sim",
          SameBits(TimedEval(w, **other, data.graph, data.split.test, 0, out).mrr,
                   tested[0].mrr));
    }
    if (!out->Call("restore into a fresh engine",
                   (*other)->RestoreTrainState(snapshot))) {
      return false;
    }
    out->Check(
        "fresh engine's restored test MRR equals saved",
        SameBits(TimedEval(w, **other, data.graph, data.split.test, 0, out).mrr,
                 tested[0].mrr));
  }
  Release(&job);
  RemoveTree(dir);
  return true;
}

/// A job that is only set up, timed into setup_s, and torn down.
bool RunSetupOnly(const Workload& w, const Options& opt, int rep,
                  const Exact& first, Record* out) {
  const std::string dir = opt.tmp_dir + "/setup-" + std::to_string(rep);
  auto made = TimedSetup(w, dir, out);
  if (!made.ok()) return false;
  Job job = std::move(made).value();
  out->Check("setup repeats the first job's dataset",
             TripleHash(job.dataset->split.train) == first.dataset_hash);
  ShutDownWorkers(job, out);
  Release(&job);
  RemoveTree(dir);
  return true;
}

}  // namespace

void RunEndToEnd(const Workload& w, const Options& opt, Record* out) {
  const size_t epochs = std::max<long>(
      1, std::lround(opt.seconds /
                     (static_cast<double>(kJobs) * w.nominal_epoch_s)));
  out->Info("measured_epochs_per_job", std::to_string(epochs));
  Exact first;
  for (int rep = 0; rep < static_cast<int>(kJobs); ++rep) {
    Exact exact;
    if (!RunJob(w, opt, rep, epochs, out, &exact)) return;
    if (rep == 0) first = exact;
    out->Check("job repeats the first job's exact results", exact == first);
  }
  for (int rep = kJobs; rep < static_cast<int>(kSetups); ++rep) {
    if (!RunSetupOnly(w, opt, rep, first, out)) return;
  }
  out->Value("remote_mib_per_epoch", first.remote_mib);
  out->Value("sim_s_per_epoch", first.sim_s);
  out->Value("test_mrr", first.test_mrr);
  out->Value("test_mr", first.test_mr);
  out->Value("final_loss", first.last_loss);
  out->Value("peak_rss_mib", PeakRssMib());
}

}  // namespace perfbench

namespace {

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "--tmp DIR --out FILE\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(argv[0]);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--tmp") {
      opt.tmp_dir = value;
    } else if (flag == "--out") {
      opt.out_path = value;
    } else {
      Usage(argv[0]);
    }
    if (end != nullptr && *end != '\0') Usage(argv[0]);
  }
  if (opt.workload.empty() || opt.tmp_dir.empty() || opt.out_path.empty() ||
      !(opt.seconds > 0.0)) {
    Usage(argv[0]);
  }
  auto workload = FindWorkload(opt.workload, opt.seed);
  if (!workload.ok()) {
    std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
    return 2;
  }

  Record record;
  record.Info("workload", workload->name);
  record.Info("seed", std::to_string(opt.seed));
  record.Info("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  record.Info("cpu_features",
              hetkg::embedding::kernels::DetectCpuFeatures().ToString());
  char fingerprint[17];
  std::snprintf(fingerprint, sizeof(fingerprint), "%016llx",
                static_cast<unsigned long long>(ConfigFingerprint(*workload)));
  record.Info("config_fingerprint", fingerprint);

  SpanLog spans;
  if (opt.trace) {
    RunTraced(*workload, opt, &record, &spans);
    const std::string span_path = opt.tmp_dir + "/spans.tsv";
    if (record.Call("write spans", spans.Write(span_path))) {
      record.Info("spans", span_path);
    }
  } else {
    RunEndToEnd(*workload, opt, &record);
  }

  std::ofstream out(opt.out_path);
  out << record.ToJson();
  out.flush();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", opt.out_path.c_str());
    return 1;
  }
  return 0;
}
