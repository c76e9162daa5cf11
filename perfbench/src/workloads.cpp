#include <sys/resource.h>

#include <filesystem>

#include "bench.h"
#include "core/ps_engine.h"

namespace perfbench {

using namespace hetkg;

namespace {

// Settings every workload shares: TransE-L1, margin loss, 8 negatives
// in one chunk, AdaGrad lr 0.1, 4 simulated machines, the sync
// (bit-reproducible) pipeline, the example launcher's P = 8, D = 64.
core::TrainerConfig BaseConfig(uint64_t seed) {
  core::TrainerConfig c;
  c.model = embedding::ModelKind::kTransEL1;
  c.loss = "margin";
  c.learning_rate = 0.1;
  c.negatives_per_positive = 8;
  c.negative_chunk_size = 8;
  c.num_machines = 4;
  c.num_threads = 1;
  c.sync.staleness_bound = 8;
  c.sync.dps_window = 64;
  c.sync.async_pipeline = false;
  c.seed = seed;
  return c;
}

graph::SyntheticSpec Scaled(graph::SyntheticSpec spec, double fraction,
                            uint64_t seed) {
  spec.num_triples = static_cast<size_t>(spec.num_triples * fraction);
  spec.seed = seed;
  return spec;
}

}  // namespace

Result<Workload> FindWorkload(std::string_view name, uint64_t seed) {
  Workload w;
  w.name = std::string(name);
  w.config = BaseConfig(seed);
  if (name == "fb15k-hotcache") {
    // Cache-heavy: ~0.71 hit ratio, so prefetch, filter, rebuild,
    // refresh, local AdaGrad and the score kernels do most of the work.
    w.spec = Scaled(graph::Fb15kSpec(), 0.30, seed);
    w.system = core::SystemKind::kHetKgDps;
    w.config.dim = 128;
    w.config.batch_size = 64;
    w.config.cache_capacity = 4096;
    w.nominal_epoch_s = 1.8;
  } else if (name == "freebase-tiered") {
    // No cache: every row goes through the PS and the int8 cold tier;
    // setup is dominated by generation and METIS on 860k entities.
    w.spec = Scaled(graph::Freebase86mSpec(0.01), 0.04, seed);
    w.system = core::SystemKind::kDglKe;
    w.config.dim = 64;
    w.config.batch_size = 512;
    w.config.num_threads = 2;
    w.config.storage.enabled = true;
    w.config.storage.dtype = embedding::ColdDtype::kInt8;
    w.nominal_epoch_s = 2.6;
  } else if (name == "fb15k-proc") {
    // Tiny compute over the turn-based RPC runtime: 3 worker processes
    // plus the coordinator fill a 4-core host.
    w.spec = Scaled(graph::Fb15kSpec(), 0.25, seed);
    w.system = core::SystemKind::kHetKgDps;
    w.config.dim = 32;
    w.config.batch_size = 64;
    w.config.cache_capacity = 256;
    w.config.num_machines = 3;
    w.proc_workers = 3;
    w.nominal_epoch_s = 1.9;
  } else {
    return Status::InvalidArgument("unknown workload: " + std::string(name));
  }
  return w;
}

Result<std::unique_ptr<core::TrainingEngine>> MakeEngineFor(
    const Workload& w, const graph::SyntheticDataset& dataset,
    const std::string& cold_dir) {
  core::TrainerConfig config = w.config;
  if (config.storage.enabled) {
    std::error_code ec;
    std::filesystem::create_directories(cold_dir, ec);
    if (ec) return Status::IoError("mkdir " + cold_dir + ": " + ec.message());
    config.storage.cold_dir = cold_dir;
  }
  return core::MakeEngine(w.system, config, dataset.graph,
                          dataset.split.train);
}

Result<Job> MakeJob(const Workload& w, const std::string& cold_dir) {
  Job job;
  HETKG_ASSIGN_OR_RETURN(graph::SyntheticDataset dataset,
                         graph::GenerateDataset(w.spec));
  job.dataset =
      std::make_unique<graph::SyntheticDataset>(std::move(dataset));
  HETKG_ASSIGN_OR_RETURN(job.engine, MakeEngineFor(w, *job.dataset, cold_dir));
  if (w.proc_workers > 0) {
    core::PsTrainingEngine* ps = job.ps();
    if (ps == nullptr) {
      return Status::InvalidArgument("proc runtime needs a PS engine");
    }
    HETKG_ASSIGN_OR_RETURN(job.coordinator,
                           net::ProcCoordinator::ForkWorkers(ps, {}));
  }
  return job;
}

eval::EvalOptions EvalOptionsFor(const Workload& w, bool filtered,
                                 size_t sample) {
  eval::EvalOptions o;
  o.filtered = filtered;
  o.num_candidates = kEvalCandidates;
  o.max_triples = kEvalTriples;
  o.seed = 99 + sample;
  o.num_threads = w.config.num_threads;
  return o;
}

uint64_t ConfigFingerprint(const Workload& w) {
  const core::TrainerConfig& c = w.config;
  const graph::SyntheticSpec& s = w.spec;
  std::string key;
  auto add = [&key](auto v) { key += std::to_string(v) + ";"; };
  key += w.name + ";" + s.name + ";";
  add(s.num_entities);
  add(s.num_relations);
  add(s.num_triples);
  add(s.entity_exponent);
  add(s.relation_exponent);
  add(s.seed);
  add(static_cast<int>(w.system));
  add(static_cast<int>(c.model));
  add(c.dim);
  add(c.learning_rate);
  key += c.loss + ";" + c.negative_sampler + ";" + c.kernel + ";";
  add(c.batch_size);
  add(c.negatives_per_positive);
  add(c.negative_chunk_size);
  add(c.num_machines);
  add(c.num_threads);
  add(c.cache_capacity);
  add(c.cache_entity_ratio);
  add(c.sync.staleness_bound);
  add(c.sync.dps_window);
  add(static_cast<int>(c.sync.async_pipeline));
  add(static_cast<int>(c.storage.enabled));
  add(static_cast<int>(c.storage.dtype));
  add(c.seed);
  add(w.proc_workers);
  add(kJobs);
  add(kSetups);
  add(w.nominal_epoch_s);
  add(kEvalTriples);
  add(kEvalCandidates);
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char ch : key) {
    h ^= ch;
    h *= 1099511628211ULL;
  }
  return h;
}

double PeakRssMib() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

uint64_t SnapshotBytes(const std::string& path) {
  namespace fs = std::filesystem;
  std::error_code ec;
  uint64_t total = fs::file_size(path, ec);
  if (ec) return 0;
  const fs::path p(path);
  const std::string prefix = p.filename().string() + ".cold";
  for (const auto& entry : fs::directory_iterator(p.parent_path(), ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0) total += entry.file_size(ec);
  }
  return total;
}

}  // namespace perfbench
