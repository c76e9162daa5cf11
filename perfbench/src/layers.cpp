// Traced run: the per-layer numbers. Every timed call below is a span
// opened by the benchmark around a public function of one module; the
// training epochs additionally mirror the library's own tracer spans
// (SpanLog::Attach) so run.py can split the Train() wall by layer.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/hot_embedding_table.h"
#include "core/hot_filter.h"
#include "core/parallel_batch.h"
#include "core/prefetcher.h"
#include "core/ps_engine.h"
#include "embedding/adagrad.h"
#include "embedding/loss.h"
#include "embedding/negative_sampler.h"
#include "embedding/score_function.h"
#include "embedding/tiered_store.h"
#include "eval/link_prediction.h"
#include "net/shm_ring.h"
#include "partition/metis_partitioner.h"
#include "ps/parameter_server.h"
#include "sim/cluster.h"

namespace perfbench {

using namespace hetkg;

namespace {

constexpr double kMiB = 1 << 20;
// Enough calls for a p99 with ten samples beyond it (see stats.py).
constexpr size_t kTailCalls = 1000;
constexpr size_t kMedianCalls = 50;
constexpr double kMinSeconds = 0.2;
// Windows whose frequency maps and batches are kept for the filter,
// cache and PS calls.
constexpr size_t kKeptWindows = 16;

/// Calls `fn(i)` for i = 0, 1, ... until at least `min_calls` calls and
/// kMinSeconds have passed, one span per call (tagged with i). Returns
/// each call's wall in ns.
template <class Fn>
std::vector<double> Timed(SpanLog* spans, const std::string& name,
                          size_t min_calls, Fn&& fn) {
  std::vector<double> ns;
  const int64_t begin = NowNs();
  for (size_t i = 0; ns.size() < min_calls || SecondsSince(begin) < kMinSeconds;
       ++i) {
    const int64_t id = spans->Begin(name, static_cast<int64_t>(i));
    const int64_t t = NowNs();
    fn(i);
    ns.push_back(static_cast<double>(NowNs() - t));
    spans->End(id);
  }
  return ns;
}

void SampleAll(Record* out, const std::string& metric,
               const std::vector<double>& ns, double scale) {
  for (double v : ns) out->Sample(metric, v * scale);
}

/// STREAM triad a = b + s*c over arrays far larger than the caches;
/// best of several passes, in GiB/s.
double TriadGibPerSecond(SpanLog* spans) {
  constexpr size_t kN = 4 << 20;  // 32 MiB per array.
  std::vector<double> a(kN, 0.0), b(kN, 1.0), c(kN, 2.0);
  const double s = 3.0;
  double best_ns = 0.0;
  const std::vector<double> ns = Timed(spans, "mem.triad", 10, [&](size_t) {
    for (size_t i = 0; i < kN; ++i) a[i] = b[i] + s * c[i];
  });
  best_ns = *std::min_element(ns.begin(), ns.end());
  volatile double sink = a[kN / 2];
  (void)sink;
  return 3.0 * sizeof(double) * kN / best_ns * 1e9 / (1024.0 * kMiB);
}

}  // namespace

void RunTraced(const Workload& w, const Options& opt, Record* out,
               SpanLog* spans) {
  const core::TrainerConfig& cfg = w.config;
  const size_t negs = cfg.negatives_per_positive;
  Scoped run_span(spans, "run");

  // ---- Setup, one span per phase ---------------------------------------
  Job job;
  int64_t t = NowNs();
  {
    Scoped s(spans, "graph.generate");
    auto dataset = graph::GenerateDataset(w.spec);
    if (!out->Call("generate", dataset.status())) return;
    job.dataset = std::make_unique<graph::SyntheticDataset>(
        std::move(dataset).value());
  }
  out->Value("graph.generate_s", SecondsSince(t));
  const graph::SyntheticDataset& data = *job.dataset;
  auto train_graph = graph::KnowledgeGraph::Create(
      data.graph.num_entities(), data.graph.num_relations(), data.split.train,
      "train");
  if (!out->Call("train graph", train_graph.status())) return;
  partition::PartitionResult parts;
  {
    // The same partitioner and seed MakeEngine uses internally.
    partition::MetisOptions metis;
    metis.seed = cfg.seed;
    partition::MetisPartitioner partitioner(metis);
    t = NowNs();
    Scoped s(spans, "partition.metis");
    auto result = partitioner.Partition(*train_graph, cfg.num_machines);
    out->Value("partition.metis_s", SecondsSince(t));
    if (!out->Call("partition", result.status())) return;
    parts = std::move(result).value();
  }
  const partition::PartitionStats pstats =
      partition::ComputePartitionStats(*train_graph, parts);
  out->Value("partition.cut_fraction", pstats.cut_fraction);
  out->Value("partition.balance", pstats.balance);
  t = NowNs();
  {
    Scoped s(spans, "engine.make");
    auto engine = MakeEngineFor(w, data, opt.tmp_dir + "/cold-a");
    if (!out->Call("make engine", engine.status())) return;
    job.engine = std::move(engine).value();
  }
  out->Value("engine.make_s", SecondsSince(t));
  core::PsTrainingEngine* ps_engine = job.ps();
  if (!out->Check("PS engine", ps_engine != nullptr)) return;
  double fork_s = 0.0;
  if (w.proc_workers > 0) {
    t = NowNs();
    Scoped s(spans, "engine.fork");
    auto fleet = net::ProcCoordinator::ForkWorkers(ps_engine, {});
    fork_s = SecondsSince(t);
    if (!out->Call("fork workers", fleet.status())) return;
    job.coordinator = std::move(fleet).value();
  }
  out->Value("engine.fork_s", fork_s);

  // ---- Train: untraced and traced epochs alternate ----------------------
  core::TrainingEngine& engine = *job.engine;
  double warm_wall = 0.0;
  double first_loss = 0.0;
  {
    Scoped s(spans, "train.warmup");
    t = NowNs();
    auto warm = engine.Train(1);
    warm_wall = SecondsSince(t);
    if (!out->Call("train warm-up", warm.status())) return;
    first_loss = warm->epochs.front().mean_loss;
  }
  std::vector<double> untraced_wall, traced_wall;
  double hit_ratio = 0.0;
  double last_loss = first_loss;
  for (int rep = 0; rep < 2; ++rep) {
    {
      Scoped s(spans, "train.epoch");
      t = NowNs();
      auto report = engine.Train(1);
      untraced_wall.push_back(SecondsSince(t));
      if (!out->Call("train", report.status())) return;
    }
    const std::string trace_path =
        opt.tmp_dir + "/engine-trace-" + std::to_string(rep) + ".json";
    if (!out->Call("start tracer", spans->Attach(trace_path))) return;
    const int64_t id = spans->Begin("train.epoch.traced");
    t = NowNs();
    auto report = engine.Train(1);
    traced_wall.push_back(SecondsSince(t));
    spans->End(id);
    out->Call("stop tracer", spans->Detach(id));
    if (!out->Call("traced train", report.status())) return;
    hit_ratio = report->epochs.front().cache_hit_ratio;
    last_loss = report->epochs.front().mean_loss;
    out->Check("loss is finite", std::isfinite(last_loss));
  }
  out->Check("last-epoch loss below the first", last_loss < first_loss);
  const double untraced = (untraced_wall[0] + untraced_wall[1]) / 2;
  const double traced = (traced_wall[0] + traced_wall[1]) / 2;
  out->Value("trace.overhead_frac", (traced - untraced) / untraced);
  out->Value("cache.hit_ratio", hit_ratio);
  if (job.coordinator != nullptr) {
    out->Call("proc shutdown", job.coordinator->Shutdown());
  }

  // ---- Evaluation: unfiltered vs filtered ------------------------------
  data.graph.BuildTripleSet();
  for (int rep = 0; rep < 3; ++rep) {
    double wall[2] = {0.0, 0.0};
    uint64_t rankings = 0;
    for (int filtered = 0; filtered < 2; ++filtered) {
      Scoped s(spans, filtered ? "eval.filtered" : "eval.unfiltered", rep);
      t = NowNs();
      auto metrics = eval::EvaluateLinkPrediction(
          engine.Embeddings(), engine.ScoreFn(), data.graph, data.split.test,
          EvalOptionsFor(w, filtered != 0, /*sample=*/0));
      wall[filtered] = static_cast<double>(NowNs() - t);
      if (!out->Call("evaluate", metrics.status())) return;
      rankings = metrics->rankings;
    }
    const double candidates =
        static_cast<double>(rankings) * static_cast<double>(kEvalCandidates);
    out->Sample("eval.score_ns_per_candidate", wall[0] / candidates);
    out->Sample("eval.filter_ns_per_candidate",
                (wall[1] - wall[0]) / candidates);
  }

  // ---- Checkpoint save / restore ----------------------------------------
  const std::string ckpt_dir = opt.tmp_dir + "/ckpt";
  std::filesystem::create_directories(ckpt_dir);
  const std::string snapshot = ckpt_dir + "/state.ckpt";
  for (int rep = 0; rep < 3; ++rep) {
    Scoped s(spans, "ckpt.save", rep);
    t = NowNs();
    if (!out->Call("save", engine.SaveTrainState(snapshot))) return;
    out->Sample("ckpt.save_s", SecondsSince(t));
  }
  out->Value("ckpt.mib", static_cast<double>(SnapshotBytes(snapshot)) / kMiB);
  auto other = MakeEngineFor(w, data, opt.tmp_dir + "/cold-b");
  if (!out->Call("make second engine", other.status())) return;
  if (w.proc_workers > 0) {
    // Same epoch on the sim runtime: the proc runtime's cost per step.
    Scoped s(spans, "train.sim_epoch");
    t = NowNs();
    auto report = (*other)->Train(1);
    const double sim_wall = SecondsSince(t);
    if (!out->Call("train sim engine", report.status())) return;
    const double steps =
        static_cast<double>(ps_engine->IterationsPerEpoch() * w.proc_workers);
    out->Value("net.step_overhead_us", (warm_wall - sim_wall) / steps * 1e6);
  } else {
    out->Value("net.step_overhead_us", 0.0);
  }
  for (int rep = 0; rep < 3; ++rep) {
    Scoped s(spans, "ckpt.restore", rep);
    t = NowNs();
    if (!out->Call("restore", (*other)->RestoreTrainState(snapshot))) return;
    out->Sample("ckpt.restore_s", SecondsSince(t));
  }

  // ---- graph: membership probes (the filtered-eval oracle) -------------
  {
    // Filtered evaluation's access pattern: each test triple's (h, r)
    // against random candidate tails, plus the true triple itself.
    std::vector<Triple> probes;
    Rng rng(cfg.seed ^ 0xC0FFEE);
    for (size_t i = 0; i < 100000; ++i) {
      Triple p = data.split.test[(i / 100) % data.split.test.size()];
      if (i % 100 != 0) {
        p.tail = static_cast<EntityId>(
            rng.NextBounded(data.graph.num_entities()));
      }
      probes.push_back(p);
    }
    size_t found = 0;
    const auto ns = Timed(spans, "graph.contains", 20, [&](size_t) {
      for (const Triple& p : probes) found += data.graph.ContainsTriple(p);
    });
    SampleAll(out, "graph.contains_ns", ns, 1.0 / probes.size());
    out->Check("membership finds the test triples", found > 0);
  }

  // ---- embedding sampler, core prefetcher ------------------------------
  std::vector<std::vector<Triple>> local =
      partition::AssignTriples(*train_graph, parts);
  const std::vector<Triple>& mine = local[0];
  embedding::NegativeSamplerSpec sampler_spec;
  sampler_spec.name = cfg.negative_sampler;
  sampler_spec.num_entities = data.graph.num_entities();
  sampler_spec.negatives_per_positive = negs;
  sampler_spec.chunk_size = cfg.negative_chunk_size;
  sampler_spec.seed = cfg.seed;
  auto sampler = embedding::MakeNegativeSampler(sampler_spec);
  if (!out->Call("make sampler", sampler.status())) return;
  if (!out->Check("local subgraph holds a batch",
                  mine.size() > cfg.batch_size)) {
    return;
  }
  {
    std::vector<embedding::NegativeSample> negatives;
    const size_t span_end = mine.size() - cfg.batch_size;
    const auto ns = Timed(spans, "sampler.sample", kMedianCalls, [&](size_t i) {
      const size_t at = (i * cfg.batch_size) % span_end;
      negatives.clear();
      (*sampler)->Sample(
          std::span<const Triple>(mine).subspan(at, cfg.batch_size),
          &negatives);
    });
    SampleAll(out, "sampler.ns_per_negative", ns,
              1.0 / static_cast<double>(cfg.batch_size * negs));
  }
  const bool dps = w.system == core::SystemKind::kHetKgDps;
  const size_t window_iters = dps ? cfg.sync.dps_window : 32;
  std::vector<core::FrequencyMap> freqs;
  std::vector<uint64_t> accesses;
  std::vector<std::vector<EmbKey>> batch_keys;  // Per batch, kept windows.
  std::vector<size_t> batch_window;
  {
    core::Prefetcher prefetcher(&mine, cfg.batch_size, sampler->get(),
                                cfg.seed);
    const auto ns =
        Timed(spans, "prefetch.window", kTailCalls, [&](size_t i) {
          core::PrefetchWindow window = prefetcher.Prefetch(window_iters);
          if (i < kKeptWindows) {
            for (const core::MiniBatch& b : window.batches) {
              batch_keys.push_back(core::BatchKeys(b));
              batch_window.push_back(i);
            }
            freqs.push_back(std::move(window.frequencies));
            accesses.push_back(window.total_accesses);
          }
        });
    SampleAll(out, "prefetch.window_us", ns, 1e-3);
  }

  // ---- core hot filter and hot embedding table -------------------------
  const size_t rel_dim = engine.ScoreFn().RelationDim(cfg.dim);
  const core::FilterOptions filter{cfg.cache_capacity, cfg.cache_entity_ratio,
                                   cfg.heterogeneity_aware};
  const core::FilterQuota quota = core::ComputeQuota(
      filter, data.graph.num_entities(), data.graph.num_relations());
  std::vector<std::vector<EmbKey>> hot(freqs.size());
  {
    const auto ns = Timed(spans, "cache.filter", kTailCalls, [&](size_t i) {
      const size_t k = i % freqs.size();
      hot[k] = core::FilterHotKeys(freqs[k], filter, quota);
    });
    SampleAll(out, "filter.us", ns, 1e-3);
    double predicted = 0.0;
    for (size_t k = 0; k < freqs.size(); ++k) {
      predicted += core::PredictedHitRatio(freqs[k], hot[k], accesses[k]);
    }
    out->Value("filter.predicted_hit_ratio", predicted / freqs.size());
  }
  core::HotEmbeddingTable cache(quota.entity_slots, quota.relation_slots,
                                cfg.dim, rel_dim, cfg.learning_rate);
  {
    uint64_t admitted = 0, assigned = 0;
    const auto ns = Timed(spans, "cache.assign", kTailCalls, [&](size_t i) {
      const std::vector<EmbKey>& keys = hot[i % hot.size()];
      admitted += cache.Assign(keys).size();
      assigned += keys.size();
    });
    SampleAll(out, "cache.assign_us", ns, 1e-3);
    out->Value("cache.admitted_ratio",
               assigned == 0 ? 0.0 : static_cast<double>(admitted) / assigned);
  }
  {
    const std::vector<EmbKey> keys = cache.Keys();
    if (!out->Check("cache holds rows", !keys.empty())) return;
    std::vector<float> value(std::max(cfg.dim, rel_dim), 0.01f);
    const auto refresh =
        Timed(spans, "cache.refresh", kMedianCalls, [&](size_t) {
          for (EmbKey k : keys) {
            cache.Refresh(k, std::span<const float>(value).first(
                                 IsRelationKey(k) ? rel_dim : cfg.dim));
          }
        });
    SampleAll(out, "cache.refresh_ns_per_row", refresh, 1.0 / keys.size());
    const bool normalize = engine.ScoreFn().NormalizesEntities();
    const auto apply = Timed(spans, "cache.apply", kMedianCalls, [&](size_t) {
      for (EmbKey k : keys) {
        cache.ApplyLocalGradient(
            k,
            std::span<const float>(value).first(IsRelationKey(k) ? rel_dim
                                                                 : cfg.dim),
            normalize);
      }
    });
    SampleAll(out, "cache.apply_ns_per_row", apply, 1.0 / keys.size());
  }

  // ---- ps (and the tiered store under it) ------------------------------
  double mean_pull_bytes = 0.0;
  {
    sim::ClusterSim cluster(cfg.num_machines, cfg.network, cfg.compute);
    ps::PsConfig pc;
    pc.num_entities = data.graph.num_entities();
    pc.num_relations = data.graph.num_relations();
    pc.entity_dim = cfg.dim;
    pc.relation_dim = rel_dim;
    pc.learning_rate = cfg.learning_rate;
    pc.normalize_entities = engine.ScoreFn().NormalizesEntities();
    pc.init_seed = cfg.seed;
    pc.storage = cfg.storage;
    if (pc.storage.enabled) {
      pc.storage.cold_dir = opt.tmp_dir + "/cold-ps";
      std::filesystem::create_directories(pc.storage.cold_dir);
    }
    auto server = ps::ParameterServer::Create(pc, parts.entity_part, &cluster);
    if (!out->Call("make parameter server", server.status())) return;
    ps::ParameterServer& ps = **server;
    ps.InitEmbeddings();
    // A worker with a cache pulls only the rows its hot set misses.
    std::vector<std::vector<EmbKey>> pulls;
    for (size_t b = 0; b < batch_keys.size(); ++b) {
      const std::vector<EmbKey>& h = hot[batch_window[b]];
      const std::unordered_set<EmbKey> cached =
          dps ? std::unordered_set<EmbKey>(h.begin(), h.end())
              : std::unordered_set<EmbKey>{};
      std::vector<EmbKey> keys;
      for (EmbKey k : batch_keys[b]) {
        if (!cached.contains(k)) keys.push_back(k);
      }
      if (!keys.empty()) pulls.push_back(std::move(keys));
    }
    if (!out->Check("PS has rows to pull", !pulls.empty())) return;
    size_t max_keys = 0;
    for (const auto& keys : pulls) max_keys = std::max(max_keys, keys.size());
    const size_t row_width = std::max(cfg.dim, rel_dim);
    std::vector<float> rows(max_keys * row_width, 0.001f);
    std::vector<std::span<float>> out_rows(max_keys);
    std::vector<std::span<const float>> grads(max_keys);
    auto bind = [&](const std::vector<EmbKey>& keys) {
      for (size_t j = 0; j < keys.size(); ++j) {
        out_rows[j] = std::span<float>(rows.data() + j * row_width,
                                       ps.RowDim(keys[j]));
        grads[j] = out_rows[j];
      }
    };
    const uint64_t bytes0 = cluster.TotalRemoteBytes();
    const uint64_t msgs0 = cluster.TotalRemoteMessages();
    const uint64_t cold0 = ps.TierColdReads();
    uint64_t failed_rows = 0, pulled_rows = 0, pushed_rows = 0;
    std::vector<double> rows_per_call;
    const auto pull = Timed(spans, "ps.pull", kTailCalls, [&](size_t i) {
      const std::vector<EmbKey>& keys = pulls[i % pulls.size()];
      bind(keys);
      const ps::PullResult r = ps.PullBatch(
          0, keys, std::span<std::span<float>>(out_rows).first(keys.size()));
      failed_rows += r.failed.size();
      pulled_rows += keys.size();
    });
    const auto push = Timed(spans, "ps.push", kTailCalls, [&](size_t i) {
      const std::vector<EmbKey>& keys = pulls[i % pulls.size()];
      bind(keys);
      const ps::PushResult r = ps.PushGradBatch(
          0, keys,
          std::span<const std::span<const float>>(grads).first(keys.size()));
      failed_rows += r.lost_rows;
      pushed_rows += keys.size();
    });
    // Both loops walk `pulls` in the same order, so call i moved
    // pulls[i % size] rows.
    for (size_t i = 0; i < pull.size(); ++i) {
      out->Sample("ps.pull_ns_per_row",
                  pull[i] / pulls[i % pulls.size()].size());
    }
    for (size_t i = 0; i < push.size(); ++i) {
      out->Sample("ps.push_ns_per_row",
                  push[i] / pulls[i % pulls.size()].size());
    }
    SampleAll(out, "ps.pull_us", pull, 1e-3);
    SampleAll(out, "ps.push_us", push, 1e-3);
    const double calls = static_cast<double>(pull.size() + push.size());
    out->Value("ps.remote_bytes_per_call",
               static_cast<double>(cluster.TotalRemoteBytes() - bytes0) /
                   calls);
    out->Value("ps.messages_per_call",
               static_cast<double>(cluster.TotalRemoteMessages() - msgs0) /
                   calls);
    out->Value("ps.failed_rows", static_cast<double>(failed_rows));
    out->Value("tier.cold_reads_per_row",
               static_cast<double>(ps.TierColdReads() - cold0) /
                   static_cast<double>(pulled_rows + pushed_rows));
    out->Value("tier.mapped_mib", static_cast<double>(ps.TierBytesMapped()) /
                                      kMiB);
    mean_pull_bytes = static_cast<double>(pulled_rows) / pull.size() *
                      cfg.dim * sizeof(float);
  }

  // ---- embedding: cold-row codecs ---------------------------------------
  {
    const embedding::ColdDtype dtype = cfg.storage.enabled
                                           ? cfg.storage.dtype
                                           : embedding::ColdDtype::kFp32;
    constexpr size_t kRows = 1024;
    const size_t row_bytes = embedding::ColdRowBytes(dtype, cfg.dim);
    std::vector<float> src(kRows * cfg.dim);
    Rng rng(cfg.seed);
    for (float& v : src) v = static_cast<float>(rng.NextUniform(-0.5, 0.5));
    std::vector<uint8_t> enc(kRows * row_bytes);
    std::vector<float> dec(kRows * cfg.dim);
    const auto encode = Timed(spans, "tier.encode", kMedianCalls, [&](size_t) {
      for (size_t r = 0; r < kRows; ++r) {
        embedding::EncodeColdRow(
            dtype, std::span<const float>(src).subspan(r * cfg.dim, cfg.dim),
            enc.data() + r * row_bytes);
      }
    });
    const auto decode = Timed(spans, "tier.decode", kMedianCalls, [&](size_t) {
      for (size_t r = 0; r < kRows; ++r) {
        embedding::DecodeColdRow(
            dtype, enc.data() + r * row_bytes,
            std::span<float>(dec).subspan(r * cfg.dim, cfg.dim));
      }
    });
    out->Check("codec round trip is close",
               std::fabs(dec[cfg.dim / 2] - src[cfg.dim / 2]) < 0.01);
    SampleAll(out, "tier.encode_ns_per_row", encode, 1.0 / kRows);
    SampleAll(out, "tier.decode_ns_per_row", decode, 1.0 / kRows);
    const double row_fp32 = static_cast<double>(cfg.dim * sizeof(float));
    out->Value("tier.encode_ns_per_row.bytes", row_fp32 + row_bytes);
    out->Value("tier.decode_ns_per_row.bytes", row_fp32 + row_bytes);
    out->Info("tier.dtype", std::string(embedding::ColdDtypeName(dtype)));
  }

  // ---- embedding kernels: score, backward, AdaGrad ---------------------
  const embedding::ScoreFunction& score_fn = engine.ScoreFn();
  {
    constexpr size_t kTable = 4096;
    constexpr size_t kGroups = 64;
    std::vector<float> ent(kTable * cfg.dim), rel(64 * rel_dim);
    Rng rng(cfg.seed ^ 0xABCD);
    for (float& v : ent) v = static_cast<float>(rng.NextUniform(-0.5, 0.5));
    for (float& v : rel) v = static_cast<float>(rng.NextUniform(-0.5, 0.5));
    auto erow = [&](size_t i) {
      return std::span<const float>(ent).subspan((i % kTable) * cfg.dim,
                                                 cfg.dim);
    };
    // One group = a positive plus its tail-corrupted negatives, sharing
    // the (h, r) rows the way the engine's batches do.
    std::vector<std::vector<embedding::TripleView>> groups(kGroups);
    for (size_t g = 0; g < kGroups; ++g) {
      const auto h = erow(rng.NextBounded(kTable));
      const auto r = std::span<const float>(rel).subspan((g % 64) * rel_dim,
                                                         rel_dim);
      for (size_t k = 0; k <= negs; ++k) {
        groups[g].push_back({h, r, erow(rng.NextBounded(kTable))});
      }
    }
    std::vector<double> scores(negs + 1);
    std::vector<double> upstreams(negs + 1, 0.5);
    std::vector<float> grad_rows(3 * (negs + 1) * rel_dim, 0.0f);
    std::vector<embedding::GradView> grad_views(negs + 1);
    for (size_t k = 0; k <= negs; ++k) {
      float* base = grad_rows.data() + 3 * k * rel_dim;
      grad_views[k] = {std::span<float>(base, cfg.dim),
                       std::span<float>(base + rel_dim, rel_dim),
                       std::span<float>(base + 2 * rel_dim, cfg.dim)};
    }
    embedding::kernels::KernelScratch scratch;
    const double triples = static_cast<double>(kGroups * (negs + 1));
    const auto score = Timed(spans, "kernel.score", kMedianCalls, [&](size_t) {
      for (const auto& views : groups) {
        score_fn.ScoreBatch(views[0], views, scores, &scratch);
      }
    });
    const auto backward =
        Timed(spans, "kernel.backward", kMedianCalls, [&](size_t) {
          for (const auto& views : groups) {
            score_fn.ScoreBackwardBatch(views[0], views, upstreams,
                                        grad_views, &scratch);
          }
        });
    SampleAll(out, "kernel.score_ns_per_triple", score, 1.0 / triples);
    SampleAll(out, "kernel.backward_ns_per_triple", backward, 1.0 / triples);
    const double row = static_cast<double>(cfg.dim * sizeof(float));
    // Computed bytes: score reads h, r, t; backward also reads and
    // writes the three gradient rows; AdaGrad reads the row, gradient
    // and accumulator and writes the row and accumulator.
    out->Value("kernel.score_ns_per_triple.bytes", 3 * row);
    out->Value("kernel.backward_ns_per_triple.bytes", 9 * row);
    out->Value("kernel.adagrad_ns_per_row.bytes", 5 * row);

    constexpr size_t kOptRows = 1024;
    embedding::AdaGrad opt_state(kOptRows, cfg.dim, cfg.learning_rate);
    std::vector<float> table(kOptRows * cfg.dim, 0.1f);
    std::vector<float> grad(cfg.dim, 0.01f);
    const auto adagrad =
        Timed(spans, "kernel.adagrad", kMedianCalls, [&](size_t) {
          for (size_t r = 0; r < kOptRows; ++r) {
            opt_state.ApplyBatch(
                r, std::span<float>(table).subspan(r * cfg.dim, cfg.dim),
                grad);
          }
        });
    SampleAll(out, "kernel.adagrad_ns_per_row", adagrad, 1.0 / kOptRows);
  }

  // ---- core parallel_batch on the common thread pool -------------------
  {
    auto loss = embedding::MakeLossFunction(cfg.loss, cfg.margin, negs);
    if (!out->Call("make loss", loss.status())) return;
    const size_t batch = cfg.batch_size;
    const size_t chunk = std::max<size_t>(1, cfg.negative_chunk_size);
    const size_t neg_keys = (batch + chunk - 1) / chunk * negs;
    const size_t num_keys = 3 * batch + neg_keys;
    std::vector<size_t> offsets(num_keys + 1, 0);
    for (size_t k = 0; k < num_keys; ++k) {
      offsets[k + 1] = offsets[k] + ((k % 3 == 1 && k < 3 * batch) ? rel_dim
                                                                   : cfg.dim);
    }
    std::vector<float> storage(offsets.back());
    Rng rng(cfg.seed ^ 0x5A5A);
    for (float& v : storage) v = static_cast<float>(rng.NextUniform(-0.5, 0.5));
    std::vector<std::span<float>> rows(num_keys);
    for (size_t k = 0; k < num_keys; ++k) {
      rows[k] = std::span<float>(storage.data() + offsets[k],
                                 offsets[k + 1] - offsets[k]);
    }
    std::vector<core::ResolvedTriple> positives(batch);
    std::vector<core::ResolvedPair> pairs;
    for (uint32_t p = 0; p < batch; ++p) {
      positives[p] = {3 * p, 3 * p + 1, 3 * p + 2};
      for (uint32_t g = 0; g < negs; ++g) {
        const auto neg = static_cast<uint32_t>(3 * batch + p / chunk * negs + g);
        pairs.push_back({p, {3 * p, 3 * p + 1, neg}});
      }
    }
    std::vector<float> grads(offsets.back());
    std::vector<double> pos_scores;
    core::ParallelBatchScorer serial_scorer, pooled_scorer;
    std::unique_ptr<ThreadPool> pool;
    if (cfg.num_threads > 1) pool = std::make_unique<ThreadPool>(cfg.num_threads);
    auto run = [&](core::ParallelBatchScorer* scorer, ThreadPool* p) {
      std::fill(grads.begin(), grads.end(), 0.0f);
      scorer->Run(score_fn, **loss, positives, pairs, rows, offsets, grads,
                  &pos_scores, p);
    };
    std::vector<double> serial, pooled;
    for (int round = 0; round < 4; ++round) {
      const auto s1 = Timed(spans, "parallel.batch.serial", kMedianCalls,
                            [&](size_t) { run(&serial_scorer, nullptr); });
      const auto s2 = Timed(spans, "parallel.batch", kMedianCalls,
                            [&](size_t) { run(&pooled_scorer, pool.get()); });
      serial.insert(serial.end(), s1.begin(), s1.end());
      pooled.insert(pooled.end(), s2.begin(), s2.end());
    }
    SampleAll(out, "parallel.batch_us.serial", serial, 1e-3);
    SampleAll(out, "parallel.batch_us", pooled, 1e-3);
    out->Info("parallel.threads", std::to_string(cfg.num_threads));
  }

  // ---- net: shm ring round trips at the mean pull payload ---------------
  {
    auto pair = net::ShmRingChannel::CreatePair(1 << 20);
    if (!out->Call("create shm ring pair", pair.status())) return;
    net::ShmRingChannel& near = *pair->first;
    net::ShmRingChannel& far = *pair->second;
    std::thread echo([&far] {
      std::string frame;
      while (true) {
        const net::RecvStatus st = far.Recv(&frame, 1000);
        if (st == net::RecvStatus::kTimeout) continue;
        if (st != net::RecvStatus::kOk || !far.Send(frame)) break;
      }
    });
    const std::string frame(
        std::max<size_t>(64, static_cast<size_t>(mean_pull_bytes)), 'x');
    std::string reply;
    bool ok = true;
    const auto rtt = Timed(spans, "net.shm_rtt", kTailCalls, [&](size_t) {
      ok = ok && near.Send(frame) &&
           near.Recv(&reply, 5000) == net::RecvStatus::kOk &&
           reply.size() == frame.size();
    });
    near.Close();
    echo.join();
    out->Check("shm echo returns every frame", ok);
    SampleAll(out, "net.shm_rtt_us", rtt, 1e-3);
    out->Info("net.frame_bytes", std::to_string(frame.size()));
  }

  out->Value("mem.triad_gib_per_s", TriadGibPerSecond(spans));
}

}  // namespace perfbench
