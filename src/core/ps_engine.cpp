#include "core/ps_engine.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/proc_stats.h"
#include "common/stopwatch.h"
#include "core/hot_filter.h"
#include "obs/trace.h"
#include "partition/metis_partitioner.h"
#include "partition/partitioner.h"

namespace hetkg::core {

namespace {

/// Batches prefetched per refill when no DPS window drives prefetching.
constexpr size_t kRefillWindow = 32;
/// Modeled bookkeeping cost of prefetch counting, per counted access.
constexpr uint64_t kPrefetchFlopsPerAccess = 8;
/// Modeled cost of the filter's top-k selection, per candidate key.
constexpr uint64_t kFilterFlopsPerKey = 16;
/// Modeled optimizer cost per updated parameter.
constexpr uint64_t kUpdateFlopsPerParam = 6;

void AddEpochTotals(TrainReport* report, const EpochReport& er) {
  report->total_remote_bytes += er.remote_bytes;
  report->total_time.compute_seconds += er.epoch_time.compute_seconds;
  report->total_time.comm_seconds += er.epoch_time.comm_seconds;
  report->total_time.overlap_seconds += er.epoch_time.overlap_seconds;
  report->total_wall_seconds += er.wall_seconds;
}

/// A crash rewind re-runs everything after iteration `iter` of `epoch`;
/// drops what `report` already holds from that stretch (and re-sums the
/// totals in epoch order), so a recovered run reports exactly what an
/// uninterrupted one does.
void RewindReport(TrainReport* report, size_t epoch, size_t iter) {
  std::erase_if(report->epochs,
                [epoch](const EpochReport& er) { return er.epoch >= epoch; });
  report->total_time = {};
  report->total_remote_bytes = 0;
  report->total_wall_seconds = 0.0;
  for (const EpochReport& er : report->epochs) AddEpochTotals(report, er);
  report->metrics_series.DropAfter(epoch, iter);
}

}  // namespace

std::string_view SystemKindName(SystemKind kind) {
  switch (kind) {
    case SystemKind::kHetKgCps:
      return "HET-KG-C";
    case SystemKind::kHetKgDps:
      return "HET-KG-D";
    case SystemKind::kDglKe:
      return "DGL-KE";
    case SystemKind::kPbg:
      return "PBG";
  }
  return "Unknown";
}

Result<SystemKind> ParseSystemKind(std::string_view name) {
  if (name == "hetkg-c" || name == "HET-KG-C" || name == "cps") {
    return SystemKind::kHetKgCps;
  }
  if (name == "hetkg-d" || name == "HET-KG-D" || name == "dps") {
    return SystemKind::kHetKgDps;
  }
  if (name == "dglke" || name == "DGL-KE") return SystemKind::kDglKe;
  if (name == "pbg" || name == "PBG") return SystemKind::kPbg;
  return Status::InvalidArgument("unknown system: " + std::string(name));
}

PsTrainingEngine::PsTrainingEngine(const TrainerConfig& config,
                                   SyncController sync,
                                   const graph::KnowledgeGraph& graph)
    : config_(config),
      sync_(sync),
      graph_(graph),
      cluster_(config.num_machines, config.network, config.compute),
      transport_(&cluster_, config.fault) {}

Result<std::unique_ptr<PsTrainingEngine>> PsTrainingEngine::Create(
    const TrainerConfig& config, const graph::KnowledgeGraph& graph,
    const std::vector<Triple>& train) {
  if (train.empty()) {
    return Status::InvalidArgument("empty training set");
  }
  HETKG_ASSIGN_OR_RETURN(SyncController sync,
                         SyncController::Create(config.sync));
  std::unique_ptr<PsTrainingEngine> engine(
      new PsTrainingEngine(config, sync, graph));
  HETKG_RETURN_IF_ERROR(engine->Setup(train));
  return engine;
}

SystemKind PsTrainingEngine::system() const {
  switch (sync_.config().strategy) {
    case CacheStrategy::kCps:
      return SystemKind::kHetKgCps;
    case CacheStrategy::kDps:
      return SystemKind::kHetKgDps;
    case CacheStrategy::kNone:
      break;
  }
  return SystemKind::kDglKe;
}

std::string_view PsTrainingEngine::name() const {
  return SystemKindName(system());
}

Status PsTrainingEngine::Setup(const std::vector<Triple>& train) {
  // Scoring model and loss.
  HETKG_ASSIGN_OR_RETURN(
      score_fn_, embedding::MakeScoreFunction(config_.model, config_.dim));
  HETKG_ASSIGN_OR_RETURN(
      loss_fn_,
      embedding::MakeLossFunction(config_.loss, config_.margin,
                                  config_.negatives_per_positive));

  // Partition the training graph's entities across machines.
  HETKG_ASSIGN_OR_RETURN(
      graph::KnowledgeGraph train_graph,
      graph::KnowledgeGraph::Create(graph_.num_entities(),
                                    graph_.num_relations(), train,
                                    "train"));
  std::unique_ptr<partition::Partitioner> partitioner;
  if (config_.partitioner == "metis") {
    partition::MetisOptions options;
    options.seed = config_.seed;
    partitioner = std::make_unique<partition::MetisPartitioner>(options);
  } else if (config_.partitioner == "random") {
    partitioner = std::make_unique<partition::RandomPartitioner>(config_.seed);
  } else {
    return Status::InvalidArgument("unknown partitioner: " +
                                   config_.partitioner);
  }
  HETKG_ASSIGN_OR_RETURN(
      partition::PartitionResult parts,
      partitioner->Partition(train_graph, config_.num_machines));

  std::vector<std::vector<Triple>> worker_triples =
      partition::AssignTriples(train_graph, parts);
  // Tiny graphs can starve a worker; rebalance a triple over from the
  // fullest list so every worker has work.
  for (size_t w = 0; w < worker_triples.size(); ++w) {
    if (!worker_triples[w].empty()) continue;
    auto fullest = std::max_element(
        worker_triples.begin(), worker_triples.end(),
        [](const auto& a, const auto& b) { return a.size() < b.size(); });
    if (fullest->size() <= 1) {
      return Status::InvalidArgument(
          "training set too small for the machine count");
    }
    worker_triples[w].push_back(fullest->back());
    fullest->pop_back();
  }

  // Parameter server over the partition.
  ps::PsConfig ps_config;
  ps_config.num_entities = graph_.num_entities();
  ps_config.num_relations = graph_.num_relations();
  ps_config.entity_dim = config_.dim;
  ps_config.relation_dim = score_fn_->RelationDim(config_.dim);
  ps_config.learning_rate = config_.learning_rate;
  ps_config.normalize_entities = score_fn_->NormalizesEntities();
  ps_config.init_seed = config_.seed ^ 0xE1B0;
  ps_config.storage = config_.storage;
  HETKG_ASSIGN_OR_RETURN(
      server_, ps::ParameterServer::Create(ps_config,
                                           std::move(parts.entity_part),
                                           &cluster_, &transport_));
  server_->InitEmbeddings();
  lookup_ = PsEmbeddingLookup(server_.get());
  local_backend_ =
      std::make_unique<LocalPsBackend>(server_.get(), &cluster_);
  backend_ = local_backend_.get();

  // Workers, one per machine.
  const FilterQuota quota = ComputeQuota(
      FilterOptions{config_.cache_capacity, config_.cache_entity_ratio,
                    config_.heterogeneity_aware},
      graph_.num_entities(), graph_.num_relations());
  workers_.resize(config_.num_machines);
  const std::vector<uint32_t> train_degrees =
      config_.degree_weighted_negatives ? train_graph.EntityDegrees()
                                        : std::vector<uint32_t>{};
  embedding::NegativeSamplerSpec sampler_spec;
  sampler_spec.name = config_.negative_sampler;
  sampler_spec.num_entities = graph_.num_entities();
  sampler_spec.negatives_per_positive = config_.negatives_per_positive;
  sampler_spec.chunk_size = config_.negative_chunk_size;
  sampler_spec.relation_corruption_prob = config_.relation_corruption_prob;
  sampler_spec.num_relations = graph_.num_relations();
  if (config_.degree_weighted_negatives) {
    sampler_spec.entity_degrees = &train_degrees;
  }
  Rng seeder(config_.seed ^ 0x5EED);
  for (uint32_t m = 0; m < config_.num_machines; ++m) {
    Worker& w = workers_[m];
    w.machine = m;
    w.triples = std::move(worker_triples[m]);
    sampler_spec.seed = seeder.NextUint64();
    HETKG_ASSIGN_OR_RETURN(w.sampler,
                           embedding::MakeNegativeSampler(sampler_spec));
    w.prefetcher = std::make_unique<Prefetcher>(
        &w.triples, config_.batch_size, w.sampler.get(), seeder.NextUint64());
    if (sync_.config().strategy != CacheStrategy::kNone) {
      w.cache = std::make_unique<HotEmbeddingTable>(
          quota.entity_slots, quota.relation_slots, config_.dim,
          ps_config.relation_dim, config_.learning_rate);
    }
    iterations_per_epoch_ =
        std::max(iterations_per_epoch_, w.prefetcher->IterationsPerEpoch());
  }

  // Intra-batch compute fan-out. Sampling, prefetching, and simulation
  // accounting stay single-threaded; only the per-batch forward/backward
  // math runs on the pool, with an ordered reduction that keeps results
  // bit-identical at any thread count.
  if (config_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(config_.num_threads);
  }

  obs_active_ = config_.obs.Enabled();

  // Checkpoint directory: create, and sweep temp files orphaned by a
  // crashed writer (they are never referenced by the manifest).
  if (!config_.checkpoint_dir.empty()) {
    ckpt_manager_ = std::make_unique<CheckpointManager>(
        config_.checkpoint_dir, config_.keep_checkpoints,
        config_.checkpoint_fsync);
    HETKG_ASSIGN_OR_RETURN(const size_t orphan_temps,
                           ckpt_manager_->Prepare());
    if (orphan_temps > 0) {
      recovery_metrics_.Increment(metric::kCheckpointOrphanTemps,
                                  orphan_temps);
    }
  }
  return Status::OK();
}

uint64_t PsTrainingEngine::CollectHotSetPlan(Worker* w, bool whole_epoch,
                                             FrequencyMap* freq) {
  if (whole_epoch) {
    // CPS: count one full pass over the local subgraph; the counted
    // samples are statistically identical to (though not literally) the
    // trained ones, which an epoch-scale preload buffer could not hold.
    return w->prefetcher->PrefetchCountOnly(
        w->prefetcher->IterationsPerEpoch(), freq);
  }
  // DPS: the next D batches are both counted and queued for training.
  PrefetchWindow window = w->prefetcher->Prefetch(sync_.config().dps_window);
  *freq = std::move(window.frequencies);
  for (auto& batch : window.batches) {
    w->batch_queue.push_back(std::move(batch));
  }
  return window.total_accesses;
}

void PsTrainingEngine::ApplyHotSet(Worker* w, size_t iter,
                                   const FrequencyMap& freq,
                                   uint64_t accesses) {
  obs::TraceSpan span("cache.rebuild", "cache");
  const FilterOptions options{config_.cache_capacity,
                              config_.cache_entity_ratio,
                              config_.heterogeneity_aware};
  const FilterQuota quota{w->cache->entity_slots(),
                          w->cache->relation_slots()};
  const std::vector<EmbKey> hot = FilterHotKeys(freq, options, quota);
  const std::vector<EmbKey> admitted = w->cache->Assign(hot);
  span.Arg("candidates", static_cast<double>(freq.size()));
  span.Arg("admitted", static_cast<double>(admitted.size()));
  // Staleness clocks: evicted keys drop their entries; admitted keys
  // are anchored at this iteration (their values are pulled below);
  // retained keys keep their existing anchors.
  for (auto it = w->last_refresh.begin(); it != w->last_refresh.end();) {
    if (!w->cache->Contains(it->first)) {
      it = w->last_refresh.erase(it);
    } else {
      ++it;
    }
  }
  for (EmbKey key : admitted) {
    w->last_refresh[key] = iter;
  }

  // Charge the modeled bookkeeping cost of prefetch + filter.
  backend_->RecordCompute(w->machine,
                          accesses * kPrefetchFlopsPerAccess +
                              freq.size() * kFilterFlopsPerKey);
  backend_->IncrementServerMetric(metric::kCacheRebuilds, 1);

  // Pull values for newly admitted rows.
  if (!admitted.empty()) {
    if (config_.storage.enabled) {
      // Hot promotion (DESIGN.md §16): fault the admitted rows' cold
      // pages in before the batched pull decodes them; the server counts
      // the promotions (cold tier -> fp32 cache) for the tier.* gauges.
      backend_->AdviseHotKeys(admitted, /*admitted=*/true);
    }
    rebuild_pull_spans_.clear();
    for (EmbKey key : admitted) {
      rebuild_pull_spans_.push_back(w->cache->Row(key));
    }
    const ps::PullResult pull =
        backend_->PullBatch(w->machine, admitted, rebuild_pull_spans_);
    // A newly admitted row has no stale copy to fall back on, so a
    // failed construction pull takes the degraded-read path: fill from
    // the global table directly (modeling the value arriving late,
    // outside the accounted fast path).
    for (uint32_t idx : pull.failed) {
      backend_->ReadRow(admitted[idx], rebuild_pull_spans_[idx]);
      backend_->IncrementServerMetric(metric::kTransportDegradedReads, 1);
      obs::Tracer::Instant("net.degraded_read", "net", "key",
                           static_cast<double>(admitted[idx]));
    }
  }
}

void PsTrainingEngine::FlushPendingGradients(Worker* w) {
  if (w->pending_grads.empty()) return;
  std::vector<EmbKey> keys;
  std::vector<std::span<const float>> grads;
  keys.reserve(w->pending_grads.size());
  grads.reserve(w->pending_grads.size());
  for (const auto& [key, grad] : w->pending_grads) {
    keys.push_back(key);
    grads.emplace_back(grad.data(), grad.size());
  }
  backend_->PushGradBatch(w->machine, keys, grads);
  backend_->IncrementServerMetric(metric::kWriteBackFlushes, 1);
  w->pending_grads.clear();
}

void PsTrainingEngine::HandleFailedPulls(
    Worker* w, size_t iter, std::span<const EmbKey> keys,
    std::span<const std::span<float>> spans,
    std::span<const uint32_t> failed) {
  const bool on_access_refresh =
      w->cache != nullptr &&
      sync_.config().refresh_mode == RefreshMode::kOnAccess;
  for (uint32_t idx : failed) {
    const EmbKey key = keys[idx];
    if (w->cache != nullptr && w->cache->Contains(key)) {
      // A refresh that never arrived: the worker keeps serving the
      // stale cached copy. Staleness degrades gracefully — each lost
      // refresh round adds one more P window to the row's worst-case
      // lag (SyncController::DegradedMaxStaleness).
      backend_->IncrementServerMetric(metric::kTransportStaleServes, 1);
      obs::Tracer::Instant("net.stale_serve", "net", "key",
                           static_cast<double>(key));
      if (on_access_refresh) {
        // Re-stale the anchor so the very next access retries the
        // refresh instead of waiting another P iterations.
        const size_t bound = sync_.config().staleness_bound;
        w->last_refresh[key] = iter >= bound ? iter - bound : 0;
      }
    } else {
      // A cold miss has no cached fallback; take the degraded read so
      // the iteration can proceed with a live value.
      backend_->ReadRow(key, spans[idx]);
      backend_->IncrementServerMetric(metric::kTransportDegradedReads, 1);
      obs::Tracer::Instant("net.degraded_read", "net", "key",
                          static_cast<double>(key));
    }
  }
}

uint64_t PsTrainingEngine::FillBatchQueue(Worker* w) {
  if (!w->batch_queue.empty()) return 0;
  const size_t window = sync_.config().strategy == CacheStrategy::kDps
                            ? sync_.config().dps_window
                            : kRefillWindow;
  PrefetchWindow prefetched = w->prefetcher->Prefetch(window);
  if (config_.storage.enabled) {
    // Upcoming pulls are now known exactly; start faulting their cold
    // pages in while this window trains (advisory — no result change).
    backend_->AdviseHotKeys(WindowKeys(prefetched), /*admitted=*/false);
  }
  for (auto& batch : prefetched.batches) {
    w->batch_queue.push_back(std::move(batch));
  }
  return prefetched.total_accesses;
}

void PsTrainingEngine::RunSampleStage(StepTask* task) {
  obs::TraceSpan span("pipeline.sample", "pipeline");
  span.Arg("iter", static_cast<double>(task->iter));
  span.Arg("machine", static_cast<double>(task->w->machine));
  Worker* w = task->w;
  const size_t iter = task->iter;
  if (w->cache != nullptr) {
    // Algorithm 3 lines 5-7: (re)construct when the fetch threshold D
    // is reached. Only the prefetcher-side counting runs here; the
    // PS-side filter/assign/pull half waits for the pull stage, so the
    // sample thread never touches shared PS state.
    const size_t write_back = sync_.config().write_back_period;
    task->flush_writeback = write_back > 1 && iter % write_back == 0;
    if (iter == 0) {
      task->rebuild = true;
      task->whole_epoch = sync_.config().strategy == CacheStrategy::kCps;
      task->rebuild_accesses =
          CollectHotSetPlan(w, task->whole_epoch, &task->rebuild_freq);
    } else if (sync_.ShouldRebuild(iter)) {
      task->rebuild = true;
      task->rebuild_accesses =
          CollectHotSetPlan(w, false, &task->rebuild_freq);
    }
  }
  task->refill_accesses = FillBatchQueue(w);
  task->batch = std::move(w->batch_queue.front());
  w->batch_queue.pop_front();
}

void PsTrainingEngine::RunPullStage(StepTask* task) {
  obs::TraceSpan span("pipeline.pull", "pipeline");
  span.Arg("iter", static_cast<double>(task->iter));
  span.Arg("machine", static_cast<double>(task->w->machine));
  Worker* w = task->w;
  const size_t iter = task->iter;
  // Per-phase simulated time: sample this machine's modeled clock
  // around each phase. The deltas are pure functions of the recorded
  // byte/flop counts, so the gauges they feed are deterministic at any
  // thread count.
  const bool obs = obs_active_;
  double phase_mark =
      obs ? cluster_.MachineTime(w->machine).total_seconds() : 0.0;
  auto account = [&](double* bucket) {
    if (!obs) return;
    const double now = cluster_.MachineTime(w->machine).total_seconds();
    *bucket += now - phase_mark;
    phase_mark = now;
  };

  const bool has_cache = w->cache != nullptr;
  if (task->flush_writeback) {
    FlushPendingGradients(w);
  }
  if (task->rebuild) {
    // The rebuild may evict rows whose pending gradients would
    // otherwise be dropped (iteration 0 has none to flush).
    if (iter != 0) FlushPendingGradients(w);
    ApplyHotSet(w, iter, task->rebuild_freq, task->rebuild_accesses);
  }
  account(&phase_.rebuild);
  if (task->refill_accesses > 0) {
    backend_->RecordCompute(w->machine,
                            task->refill_accesses * kPrefetchFlopsPerAccess);
  }
  account(&phase_.prefetch);

  // Resolve every required row ONCE: the batch's keys are sorted and
  // mapped to dense task indices, so the score/backward hot loops index
  // spans directly instead of paying a hash lookup per access. Cached
  // rows are read in place (compute follows this pull with no push in
  // between); pulled rows land in the task's value buffer.
  task->keys = BatchKeys(task->batch);
  std::sort(task->keys.begin(), task->keys.end());  // Determinism.
  const size_t num_keys = task->keys.size();
  task->missing.clear();
  task->pull_spans.clear();
  task->row_spans.resize(num_keys);
  task->grad_offsets.resize(num_keys + 1);

  size_t grad_floats = 0;
  for (size_t k = 0; k < num_keys; ++k) {
    grad_floats += server_->RowDim(task->keys[k]);
    task->grad_offsets[k + 1] = grad_floats;
  }
  task->grad_offsets[0] = 0;
  task->grads.assign(grad_floats, 0.0f);
  task->values.resize(grad_floats);

  const bool on_access_refresh =
      has_cache &&
      sync_.config().refresh_mode == RefreshMode::kOnAccess;
  uint64_t refreshed_rows = 0;
  for (size_t k = 0; k < num_keys; ++k) {
    const EmbKey key = task->keys[k];
    if (has_cache && w->cache->Contains(key)) {
      ++w->hits;
      task->row_spans[k] = w->cache->Row(key);
      if (on_access_refresh) {
        // Fine-grained staleness: re-pull this row if its last refresh
        // is older than P iterations, into the cache's row.
        auto [it, inserted] = w->last_refresh.try_emplace(key, iter);
        if (!inserted &&
            iter - it->second >= sync_.config().staleness_bound) {
          it->second = iter;
          task->missing.push_back(key);
          task->pull_spans.push_back(w->cache->Row(key));
          ++refreshed_rows;
        }
      }
    } else {
      ++w->misses;
      const std::span<float> dest(
          task->values.data() + task->grad_offsets[k],
          task->grad_offsets[k + 1] - task->grad_offsets[k]);
      task->row_spans[k] = dest;
      task->missing.push_back(key);
      task->pull_spans.push_back(dest);
    }
  }
  if (refreshed_rows > 0) {
    backend_->IncrementServerMetric(metric::kCacheRefreshRows,
                                    refreshed_rows);
  }
  // Algorithm 3 lines 8-9: when the sync threshold P is reached, the
  // latest versions of ALL cached hot-embeddings are pulled, bounding
  // staleness by P. The refresh rides the iteration's pull batch so it
  // costs bytes but no extra round-trips. (kOnAccess mode instead
  // refreshed the stale rows inline above.)
  if (has_cache && !on_access_refresh && iter != 0 &&
      sync_.ShouldRefresh(iter)) {
    FlushPendingGradients(w);
    const std::vector<EmbKey> cached = w->cache->Keys();
    for (EmbKey key : cached) {
      task->missing.push_back(key);
      task->pull_spans.push_back(w->cache->Row(key));
    }
    backend_->IncrementServerMetric(metric::kCacheRefreshRows,
                                    cached.size());
  }
  if (!task->missing.empty()) {
    const ps::PullResult pull =
        backend_->PullBatch(w->machine, task->missing, task->pull_spans);
    if (!pull.failed.empty()) {
      HandleFailedPulls(w, iter, task->missing, task->pull_spans,
                        pull.failed);
    }
  }
  if (obs) {
    const double before = phase_mark;
    account(&phase_.pull);
    obs_metrics_.Observe(metric::kPullSimSeconds, phase_mark - before);
  }
}

void PsTrainingEngine::RunComputeStage(StepTask* task) {
  obs::TraceSpan span("pipeline.compute", "pipeline");
  span.Arg("iter", static_cast<double>(task->iter));
  span.Arg("machine", static_cast<double>(task->w->machine));
  Worker* w = task->w;
  const MiniBatch& batch = task->batch;
  const bool obs = obs_active_;
  double phase_mark =
      obs ? cluster_.MachineTime(w->machine).total_seconds() : 0.0;

  // Forward + backward over all (positive, negative) pairs: resolve the
  // batch's triples to dense key indices once, then run the
  // deterministic chunked executor (parallel when a pool is configured,
  // bit-identical either way).
  auto key_index = [&](EmbKey key) -> uint32_t {
    return static_cast<uint32_t>(
        std::lower_bound(task->keys.begin(), task->keys.end(), key) -
        task->keys.begin());
  };
  task->positives.resize(batch.positives.size());
  for (size_t i = 0; i < batch.positives.size(); ++i) {
    const Triple& t = batch.positives[i];
    task->positives[i] = ResolvedTriple{key_index(EntityKey(t.head)),
                                        key_index(RelationKey(t.relation)),
                                        key_index(EntityKey(t.tail))};
  }
  task->pairs.resize(batch.negatives.size());
  for (size_t i = 0; i < batch.negatives.size(); ++i) {
    const auto& neg = batch.negatives[i];
    task->pairs[i].positive_index = neg.positive_index;
    task->pairs[i].negative =
        ResolvedTriple{key_index(EntityKey(neg.triple.head)),
                       key_index(RelationKey(neg.triple.relation)),
                       key_index(EntityKey(neg.triple.tail))};
  }

  const BatchStats stats = scorer_.Run(
      *score_fn_, *loss_fn_, task->positives, task->pairs, task->row_spans,
      task->grad_offsets, task->grads, &task->pos_scores, pool_.get());

  const uint64_t score_flops = score_fn_->FlopsPerTriple(config_.dim);
  const uint64_t flops = (batch.positives.size() + batch.negatives.size() +
                          stats.backward_calls) *
                         score_flops / 2;
  backend_->RecordCompute(w->machine, flops);
  if (obs) {
    const double now = cluster_.MachineTime(w->machine).total_seconds();
    phase_.compute += now - phase_mark;
  }
  task->loss_sum = stats.loss_sum;
  task->pair_count = stats.pairs;
}

void PsTrainingEngine::RunPushStage(StepTask* task) {
  obs::TraceSpan span("pipeline.push", "pipeline");
  span.Arg("iter", static_cast<double>(task->iter));
  span.Arg("machine", static_cast<double>(task->w->machine));
  Worker* w = task->w;
  const bool obs = obs_active_;
  double phase_mark =
      obs ? cluster_.MachineTime(w->machine).total_seconds() : 0.0;

  // Local cache update for hot rows, then push the gradients of this
  // iteration to the PS (step 4 of Hot-Embedding Oriented Training).
  // Keys whose gradient is identically zero (margin satisfied for every
  // pair touching them, Algorithm 3 line 17) produce no update and are
  // not pushed — matching sparse-gradient systems.
  std::vector<EmbKey>& update_keys = task->update_keys;
  std::vector<std::span<const float>>& update_grads = task->update_grads;
  update_keys.clear();
  update_grads.clear();
  for (size_t k = 0; k < task->keys.size(); ++k) {
    const std::span<const float> g(
        task->grads.data() + task->grad_offsets[k],
        task->grad_offsets[k + 1] - task->grad_offsets[k]);
    if (std::all_of(g.begin(), g.end(), [](float v) { return v == 0.0f; })) {
      continue;
    }
    update_keys.push_back(task->keys[k]);
    update_grads.push_back(g);
  }
  // Hot rows take one batched local AdaGrad step; `cached` marks them.
  if (w->cache != nullptr) {
    w->cache->ApplyLocalGradients(update_keys, update_grads,
                                  score_fn_->NormalizesEntities(),
                                  &task->cached);
  } else {
    task->cached.assign(update_keys.size(), 0);
  }
  task->push_keys.clear();
  task->push_grads.clear();
  uint64_t local_update_params = 0;
  for (size_t i = 0; i < update_keys.size(); ++i) {
    const EmbKey key = update_keys[i];
    const std::span<const float> g = update_grads[i];
    if (task->cached[i]) {
      local_update_params += g.size();
      if (sync_.config().write_back_period > 1) {
        // Write-back: accumulate locally; the flush pushes it later.
        auto [it, inserted] = w->pending_grads.try_emplace(key);
        if (inserted) {
          it->second.assign(g.begin(), g.end());
        } else {
          for (size_t j = 0; j < g.size(); ++j) {
            it->second[j] += g[j];
          }
        }
        continue;
      }
    }
    task->push_keys.push_back(key);
    task->push_grads.push_back(g);
  }
  backend_->RecordCompute(w->machine,
                          local_update_params * kUpdateFlopsPerParam);
  if (!task->push_keys.empty()) {
    backend_->PushGradBatch(w->machine, task->push_keys, task->push_grads);
  }
  if (obs) {
    const double before = phase_mark;
    const double now = cluster_.MachineTime(w->machine).total_seconds();
    phase_.push += now - before;
    obs_metrics_.Observe(metric::kPushSimSeconds, now - before);
  }

  backend_->IncrementServerMetric(metric::kTriplesTrained,
                                  task->batch.positives.size());
  backend_->IncrementServerMetric(metric::kNegativesTrained,
                                  task->batch.negatives.size());
}

std::pair<double, uint64_t> PsTrainingEngine::Step(Worker* w, size_t iter) {
  obs::TraceSpan step_span("ps.step", "ps");
  step_span.Arg("iter", static_cast<double>(iter));
  step_span.Arg("machine", static_cast<double>(w->machine));
  std::unique_ptr<StepTask> task;
  if (spare_tasks_.empty()) {
    task = std::make_unique<StepTask>();
  } else {
    task = std::move(spare_tasks_.back());
    spare_tasks_.pop_back();
  }
  task->Reset(w, iter);
  RunSampleStage(task.get());
  // Every pull misses exactly the pushes still parked in the ring.
  const size_t lag = w->in_flight.size();
  max_observed_lag_ = std::max(max_observed_lag_, lag);
  if (pull_lag_hook_) pull_lag_hook_(w->machine, iter, lag);
  RunPullStage(task.get());
  RunComputeStage(task.get());
  const std::pair<double, uint64_t> result{task->loss_sum,
                                           task->pair_count};
  w->in_flight.push_back(std::move(task));
  // Drain points are pure functions of the config, so a forked worker
  // process drains exactly where the coordinator's sim twin would.
  const bool drain =
      (iter + 1) % iterations_per_epoch_ == 0 || CheckpointDue(iter + 1);
  const size_t keep = drain ? 0 : sync_.PipelineStaleness();
  while (w->in_flight.size() > keep) {
    RunPushStage(w->in_flight.front().get());
    spare_tasks_.push_back(std::move(w->in_flight.front()));
    w->in_flight.pop_front();
  }
  return result;
}

Status PsTrainingEngine::SyncAllWorkers() {
  if (step_driver_ == nullptr) return Status::OK();
  for (Worker& w : workers_) {
    HETKG_RETURN_IF_ERROR(step_driver_->SyncWorkerState(w.machine));
  }
  return Status::OK();
}

void PsTrainingEngine::TeardownPool() {
  // ~ThreadPool joins its threads, so after this the process is
  // single-threaded and safe to fork() under the sanitizers.
  pool_valid_options_aliased_ =
      valid_options_.pool != nullptr && valid_options_.pool == pool_.get();
  pool_.reset();
  if (pool_valid_options_aliased_) valid_options_.pool = nullptr;
}

void PsTrainingEngine::RebuildPool() {
  if (config_.num_threads > 1 && pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(config_.num_threads);
  }
  if (pool_valid_options_aliased_) valid_options_.pool = pool_.get();
}

void PsTrainingEngine::EnableValidation(const graph::KnowledgeGraph* graph,
                                        std::span<const Triple> valid,
                                        const eval::EvalOptions& options) {
  valid_graph_ = graph;
  valid_triples_ = valid;
  valid_options_ = options;
  // Reuse the training pool for the per-epoch validation rankings.
  if (valid_options_.pool == nullptr) {
    valid_options_.pool = pool_.get();
  }
}

double PsTrainingEngine::OverallHitRatio() const {
  const uint64_t total = total_hits_ + total_misses_;
  return total == 0 ? 0.0
                    : static_cast<double>(total_hits_) /
                          static_cast<double>(total);
}

MetricRegistry PsTrainingEngine::CollectObsMetrics(double sim_seconds) const {
  MetricRegistry m;
  m.Merge(server_->metrics());
  // Fault-free transports never touch a counter, so this merge leaves
  // plain reports byte-identical to the perfect-network behaviour.
  m.Merge(transport_.metrics());
  // Same contract: checkpoint.saves/bytes exist only when
  // checkpointing is configured.
  m.Merge(engine_metrics_);
  uint64_t hits = total_hits_;
  uint64_t misses = total_misses_;
  for (const Worker& w : workers_) {
    hits += w.hits;
    misses += w.misses;
  }
  m.Increment(metric::kCacheHits, hits);
  m.Increment(metric::kCacheMisses, misses);
  if (obs_active_) {
    m.Merge(obs_metrics_);
    // Process runtime: the driver's merged never-serialized metrics —
    // transport histograms plus each worker's shipped registry (with
    // per-worker *.w<id> gauge breakdowns).
    if (step_driver_ != nullptr) {
      const MetricRegistry* driver_metrics = step_driver_->ObsMetrics();
      if (driver_metrics != nullptr) m.Merge(*driver_metrics);
    }
    // Locally dropped trace events (workers ship theirs in their
    // registries, merged above).
    if (obs::Tracer::Enabled()) {
      const uint64_t dropped = obs::Tracer::DroppedEvents();
      if (dropped > 0) m.Increment(metric::kTraceDroppedEvents, dropped);
    }
    m.SetGauge(metric::kCacheHitRatio,
               (hits + misses) == 0
                   ? 0.0
                   : static_cast<double>(hits) /
                         static_cast<double>(hits + misses));
    m.SetGauge(metric::kSimSeconds, sim_seconds);
    m.SetGauge(metric::kPhasePrefetchSeconds, phase_.prefetch);
    m.SetGauge(metric::kPhaseRebuildSeconds, phase_.rebuild);
    m.SetGauge(metric::kPhasePullSeconds, phase_.pull);
    m.SetGauge(metric::kPhaseComputeSeconds, phase_.compute);
    m.SetGauge(metric::kPhasePushSeconds, phase_.push);
    m.SetGauge(metric::kKernelDispatch, embedding::kernels::DispatchGauge());
  }
  // Tiered storage (DESIGN.md §16): cold-tier traffic + memory gauges.
  // Counters live in the table/engine (never in the serialized server
  // metrics), so tiered snapshots stay comparable to in-RAM ones; the
  // gauges appear only under --storage=tiered.
  if (config_.storage.enabled && server_ != nullptr) {
    m.Increment(metric::kTierColdReads, server_->TierColdReads());
    m.Increment(metric::kTierPromotions, server_->TierPromotions());
    m.SetGauge(metric::kTierBytesMapped,
               static_cast<double>(server_->TierBytesMapped()));
    m.SetGauge(metric::kMemRssBytes,
               static_cast<double>(CurrentRssBytes()));
  }
  return m;
}

Result<TrainReport> PsTrainingEngine::Train(size_t num_epochs) {
  // Start a tracing session when the config asks for one and the
  // embedding binary didn't already; one session spans every rewind,
  // and the lease stops it (writing the file) on every exit path.
  obs::TracerLease trace_lease{obs::TraceOptions{config_.obs.trace_out}};
  // A scheduled worker crash may fire before the first periodic
  // snapshot. Committing the seed-determined initial state as the
  // iteration-0 snapshot gives that rewind a target; it is not a
  // periodic save, so no checkpoint.* counter moves.
  const bool crash_scheduled = std::any_of(
      config_.fault.process_faults.begin(),
      config_.fault.process_faults.end(), [](const sim::ProcessFault& f) {
        return f.kind == sim::ProcessFaultKind::kWorkerCrash;
      });
  if (crash_scheduled && ckpt_manager_ != nullptr && !resume_pending_ &&
      global_iteration_ == 0) {
    HETKG_RETURN_IF_ERROR(SaveTrainState(ckpt_manager_->SnapshotPath(0)));
    HETKG_RETURN_IF_ERROR(ckpt_manager_->Commit(0));
  }
  TrainReport report;
  for (;;) {
    const Status status = TrainInner(num_epochs, &report);
    if (status.ok()) break;
    const bool process_died =
        step_driver_ != nullptr && step_driver_->WorkerFailed();
    if (!sim_worker_crashed_ && !process_died) return status;
    // A worker died mid-run: an in-sim kWorkerCrash (in either runtime)
    // or, under the process runtime, a real worker process. Recovery is
    // the same full rewind in every case (DESIGN.md §9): every other
    // worker is discarded too, the latest snapshot is restored, and
    // TrainInner continues down the resume path — so the final bytes
    // and report equal an uninterrupted run with the same checkpoint
    // schedule.
    sim_worker_crashed_ = false;
    recovery_metrics_.Increment(metric::kRecoveryWorkerCrashes);
    const size_t delivered = transport_.process_faults_delivered();
    const Status restored =
        config_.checkpoint_dir.empty()
            ? Status::NotFound("checkpointing is not configured")
            : RestoreTrainState(config_.checkpoint_dir);
    if (!restored.ok()) {
      return Status::FailedPrecondition(
          std::string(process_died ? "worker process died"
                                   : "worker crashed") +
          " and no checkpoint is restorable: " + restored.ToString());
    }
    transport_.KeepProcessFaultsDelivered(delivered);
    if (step_driver_ != nullptr) {
      // Re-fork the fleet from the restored state.
      HETKG_RETURN_IF_ERROR(step_driver_->RestartWorkers());
    }
  }
  if (trace_lease.owns()) {
    const Status trace_status = trace_lease.Finish();
    if (!trace_status.ok()) {
      HETKG_LOG(Warning) << "trace write failed: "
                         << trace_status.ToString();
    }
  }
  return report;
}

Status PsTrainingEngine::TrainInner(size_t num_epochs, TrainReport* out) {
  TrainReport& report = *out;
  const bool metrics_on = config_.obs.MetricsRequested();
  Stopwatch train_wall;
  // Process runtime: arm the workers' per-process tracers/transport
  // profiling and run the clock-offset handshake (DESIGN.md §14). Must
  // follow Train()'s trace lease — the handshake reads its clock.
  if (step_driver_ != nullptr && config_.obs.Enabled()) {
    HETKG_RETURN_IF_ERROR(step_driver_->SetupObs());
  }

  size_t start_epoch = 0;
  size_t resume_iter = 0;
  bool resuming = false;
  if (resume_pending_) {
    // Continue the restored run: `num_epochs` counts from the start of
    // training, and the snapshot's global iteration places us inside
    // (or, for a snapshot taken right after an epoch's last iteration,
    // at the still-pending boundary of) an epoch. The restored cluster
    // clocks and loss accumulators continue that epoch bit-identically.
    resume_pending_ = false;
    resuming = true;
    if (global_iteration_ > 0 &&
        global_iteration_ % iterations_per_epoch_ == 0) {
      start_epoch = global_iteration_ / iterations_per_epoch_ - 1;
      resume_iter = iterations_per_epoch_;
    } else {
      start_epoch = global_iteration_ / iterations_per_epoch_;
      resume_iter = global_iteration_ % iterations_per_epoch_;
    }
    RewindReport(&report, start_epoch, resume_iter);
  } else {
    cumulative_seconds_ = 0.0;
  }
  for (size_t epoch = start_epoch; epoch < num_epochs; ++epoch) {
    obs::TraceSpan epoch_span("ps.epoch", "ps");
    epoch_span.Arg("epoch", static_cast<double>(epoch));
    size_t iter_begin = 0;
    if (resuming) {
      resuming = false;
      iter_begin = resume_iter;
    } else {
      cluster_.Reset();
      epoch_loss_sum_ = 0.0;
      epoch_pair_count_ = 0;
    }

    Stopwatch wall;
    // Trace counter tracks + periodic metric samples. `boundary` is the
    // epoch-relative iteration just finished. Neither drains the lag-N
    // ring: observing a run must not change it.
    auto publish_trace_counters = [&] {
      if (!obs::Tracer::Enabled()) return;
      obs::Tracer::PublishSimSeconds(cumulative_seconds_ +
                                     EpochCriticalPath().total_seconds());
      uint64_t hits = total_hits_;
      uint64_t misses = total_misses_;
      for (const Worker& w : workers_) {
        hits += w.hits;
        misses += w.misses;
      }
      obs::Tracer::Counter(
          "cache.hit_ratio",
          (hits + misses) == 0
              ? 0.0
              : static_cast<double>(hits) /
                    static_cast<double>(hits + misses));
      obs::Tracer::Counter(
          "net.remote_bytes",
          static_cast<double>(report.total_remote_bytes +
                              cluster_.TotalRemoteBytes()));
    };
    auto maybe_window_sample = [&](size_t boundary) {
      if (!metrics_on || config_.obs.metrics_window == 0 ||
          boundary % config_.obs.metrics_window != 0 ||
          boundary == iterations_per_epoch_) {
        return;
      }
      obs::MetricsSample sample;
      sample.kind = "window";
      sample.epoch = epoch;
      sample.iteration = boundary;
      sample.sim_seconds =
          cumulative_seconds_ + EpochCriticalPath().total_seconds();
      sample.wall_seconds = train_wall.ElapsedSeconds();
      sample.metrics = CollectObsMetrics(sample.sim_seconds);
      report.metrics_series.Add(std::move(sample));
    };
    auto halt = [&] {
      // Testing hook simulating a hard crash: stop mid-run without
      // the epoch-boundary flush or report. The partial report only
      // exists so callers can observe how far the run got.
      report.overall_hit_ratio = OverallHitRatio();
      report.metrics = CollectObsMetrics(
          cumulative_seconds_ + EpochCriticalPath().total_seconds());
      return Status::OK();
    };

    for (size_t i = iter_begin; i < iterations_per_epoch_; ++i) {
      HETKG_RETURN_IF_ERROR(MaybeInjectProcessFaults());
      for (Worker& w : workers_) {
        if (step_driver_ != nullptr) {
          // Process runtime: the step executes in the worker's own
          // process; its PS/cluster RPCs land here in sim order.
          HETKG_ASSIGN_OR_RETURN(
              const auto result,
              step_driver_->DriveStep(w.machine, global_iteration_));
          epoch_loss_sum_ += result.first;
          epoch_pair_count_ += result.second;
        } else {
          const auto [loss, pairs] = Step(&w, global_iteration_);
          epoch_loss_sum_ += loss;
          epoch_pair_count_ += pairs;
        }
      }
      ++global_iteration_;
      publish_trace_counters();
      maybe_window_sample(i + 1);
      if (CheckpointDue(global_iteration_)) {
        HETKG_RETURN_IF_ERROR(WritePeriodicCheckpoint());
      }
      if (config_.halt_after_iterations > 0 &&
          global_iteration_ >= config_.halt_after_iterations) {
        HETKG_RETURN_IF_ERROR(SyncAllWorkers());
        if (step_driver_ != nullptr) {
          HETKG_RETURN_IF_ERROR(step_driver_->FlushObs());
        }
        return halt();
      }
    }
    // Epoch boundary: write-back gradients may not linger (validation
    // and checkpoints read the global tables). In the process runtime
    // each worker flushes from its own process (the pending gradients
    // live there) and reports its epoch hit/miss counters back into the
    // parent's worker mirrors so the harvest below sees them.
    if (step_driver_ != nullptr) {
      for (Worker& w : workers_) {
        HETKG_RETURN_IF_ERROR(step_driver_->DriveEpochEnd(w.machine));
      }
    } else {
      for (Worker& w : workers_) {
        FlushPendingGradients(&w);
      }
    }

    EpochReport er;
    er.epoch = epoch;
    er.mean_loss = epoch_pair_count_ == 0
                       ? 0.0
                       : epoch_loss_sum_ / epoch_pair_count_;
    er.epoch_time = EpochCriticalPath();
    cumulative_seconds_ += er.epoch_time.total_seconds();
    er.cumulative_seconds = cumulative_seconds_;
    er.wall_seconds = wall.ElapsedSeconds();
    uint64_t hits = 0;
    uint64_t misses = 0;
    for (Worker& w : workers_) {
      hits += w.hits;
      misses += w.misses;
      w.hits = 0;
      w.misses = 0;
    }
    total_hits_ += hits;
    total_misses_ += misses;
    er.cache_hit_ratio =
        (hits + misses) == 0
            ? 0.0
            : static_cast<double>(hits) / static_cast<double>(hits + misses);
    er.remote_bytes = cluster_.TotalRemoteBytes();
    AddEpochTotals(&report, er);

    if (valid_graph_ != nullptr && !valid_triples_.empty()) {
      HETKG_ASSIGN_OR_RETURN(
          er.valid_metrics,
          eval::EvaluateLinkPrediction(lookup_, *score_fn_, *valid_graph_,
                                       valid_triples_, valid_options_));
      er.has_valid_metrics = true;
    }
    report.epochs.push_back(er);

    if (metrics_on) {
      obs::MetricsSample sample;
      sample.kind = "epoch";
      sample.epoch = epoch;
      sample.iteration = iterations_per_epoch_;
      sample.sim_seconds = cumulative_seconds_;
      sample.wall_seconds = train_wall.ElapsedSeconds();
      sample.metrics = CollectObsMetrics(cumulative_seconds_);
      report.metrics_series.Add(std::move(sample));
    }
  }
  // Process runtime: pull every worker's final state into the engine
  // mirrors so SaveTrainState after Train() serializes current bytes.
  HETKG_RETURN_IF_ERROR(SyncAllWorkers());
  // ... and the final obs shipment, so the trace file written below
  // has every worker's events and the report every worker's metrics.
  if (step_driver_ != nullptr) {
    HETKG_RETURN_IF_ERROR(step_driver_->FlushObs());
  }
  report.overall_hit_ratio = OverallHitRatio();
  report.metrics = CollectObsMetrics(cumulative_seconds_);
  if (metrics_on) {
    const Status status =
        report.metrics_series.WriteJson(config_.obs.metrics_json);
    if (!status.ok()) {
      HETKG_LOG(Warning) << "metrics export failed: " << status.ToString();
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Crash recovery (DESIGN.md §9).

void PsTrainingEngine::BuildSnapshotSections(
    embedding::CheckpointWriter* writer) const {
  ByteWriter meta;
  meta.Str(name());
  meta.U64(config_.num_machines);
  meta.U64(config_.dim);
  meta.U64(server_->config().relation_dim);
  meta.U64(config_.batch_size);
  meta.U64(iterations_per_epoch_);
  meta.U64(config_.seed);
  writer->AddSection(embedding::SectionTag::kTrainerMeta, std::move(meta));

  server_->SaveState(writer);

  ByteWriter cluster_state;
  cluster_.SaveState(&cluster_state);
  transport_.SaveState(&cluster_state);
  writer->AddSection(embedding::SectionTag::kClusterState,
                     std::move(cluster_state));

  for (const Worker& w : workers_) {
    ByteWriter worker_state;
    SaveWorkerState(w, &worker_state);
    writer->AddSection(embedding::SectionTag::kWorker,
                       std::move(worker_state));
  }
}

void PsTrainingEngine::AppendEngineCountersSection(
    embedding::CheckpointWriter* writer) const {
  ByteWriter ec;
  ec.U64(global_iteration_);
  ec.U64(total_hits_);
  ec.U64(total_misses_);
  ec.F64(cumulative_seconds_);
  ec.F64(epoch_loss_sum_);
  ec.U64(epoch_pair_count_);
  ec.F64(phase_.prefetch);
  ec.F64(phase_.rebuild);
  ec.F64(phase_.pull);
  ec.F64(phase_.compute);
  ec.F64(phase_.push);
  engine_metrics_.SaveState(&ec);
  obs_metrics_.SaveState(&ec);
  writer->AddSection(embedding::SectionTag::kEngineCounters, std::move(ec));
}

void PsTrainingEngine::SaveWorkerState(const Worker& w,
                                       ByteWriter* out) const {
  out->U32(w.machine);
  out->U64(w.hits);
  out->U64(w.misses);
  w.sampler->SaveState(out);
  w.prefetcher->SaveState(out);

  // Hash maps are serialized in sorted key order so the payload never
  // depends on iteration order (the resume bit-identity contract).
  std::vector<std::pair<EmbKey, uint64_t>> refresh(w.last_refresh.begin(),
                                                   w.last_refresh.end());
  std::sort(refresh.begin(), refresh.end());
  out->U64(refresh.size());
  for (const auto& [key, iter] : refresh) {
    out->U64(key);
    out->U64(iter);
  }

  std::vector<EmbKey> grad_keys;
  grad_keys.reserve(w.pending_grads.size());
  for (const auto& [key, grad] : w.pending_grads) {
    grad_keys.push_back(key);
  }
  std::sort(grad_keys.begin(), grad_keys.end());
  out->U64(grad_keys.size());
  for (EmbKey key : grad_keys) {
    out->U64(key);
    out->FloatVec(w.pending_grads.at(key));
  }

  out->U64(w.batch_queue.size());
  for (const MiniBatch& batch : w.batch_queue) {
    out->U64(batch.positives.size());
    for (const Triple& t : batch.positives) {
      out->U32(t.head);
      out->U32(t.relation);
      out->U32(t.tail);
    }
    out->U64(batch.negatives.size());
    for (const embedding::NegativeSample& n : batch.negatives) {
      out->U32(n.positive_index);
      out->U32(n.triple.head);
      out->U32(n.triple.relation);
      out->U32(n.triple.tail);
      out->U8(static_cast<uint8_t>(n.corruption));
    }
  }

  out->U8(w.cache != nullptr ? 1 : 0);
  if (w.cache != nullptr) {
    w.cache->SaveState(out);
  }
}

bool PsTrainingEngine::LoadWorkerState(Worker* w, ByteReader* r) {
  const uint64_t hits = r->U64();
  const uint64_t misses = r->U64();
  if (!r->ok()) return false;
  if (!w->sampler->LoadState(r)) return false;
  if (!w->prefetcher->LoadState(r)) return false;

  auto valid_triple = [this](const Triple& t) {
    return t.head < graph_.num_entities() && t.tail < graph_.num_entities() &&
           t.relation < graph_.num_relations();
  };

  const uint64_t refresh_count = r->U64();
  if (!r->ok() || refresh_count > r->remaining() / 16) return false;
  std::unordered_map<EmbKey, size_t> last_refresh;
  last_refresh.reserve(refresh_count * 2);
  for (uint64_t i = 0; i < refresh_count; ++i) {
    const EmbKey key = r->U64();
    const uint64_t iter = r->U64();
    if (!r->ok() ||
        !last_refresh.emplace(key, static_cast<size_t>(iter)).second) {
      return false;
    }
  }

  const uint64_t grad_count = r->U64();
  if (!r->ok() || grad_count > r->remaining() / 12) return false;
  std::unordered_map<EmbKey, std::vector<float>> pending_grads;
  pending_grads.reserve(grad_count * 2);
  for (uint64_t i = 0; i < grad_count; ++i) {
    const EmbKey key = r->U64();
    std::vector<float> grad = r->FloatVec();
    if (!r->ok() || grad.size() != server_->RowDim(key) ||
        !pending_grads.emplace(key, std::move(grad)).second) {
      return false;
    }
  }

  const uint64_t queue_len = r->U64();
  if (!r->ok() || queue_len > r->remaining()) return false;
  std::deque<MiniBatch> batch_queue;
  for (uint64_t b = 0; b < queue_len; ++b) {
    MiniBatch batch;
    const uint64_t num_pos = r->U64();
    if (!r->ok() || num_pos > r->remaining() / 12) return false;
    batch.positives.resize(num_pos);
    for (Triple& t : batch.positives) {
      t.head = r->U32();
      t.relation = r->U32();
      t.tail = r->U32();
      if (!r->ok() || !valid_triple(t)) return false;
    }
    const uint64_t num_neg = r->U64();
    if (!r->ok() || num_neg > r->remaining() / 17) return false;
    batch.negatives.resize(num_neg);
    for (embedding::NegativeSample& n : batch.negatives) {
      n.positive_index = r->U32();
      n.triple.head = r->U32();
      n.triple.relation = r->U32();
      n.triple.tail = r->U32();
      const uint8_t corruption = r->U8();
      if (!r->ok() || corruption > 2 || !valid_triple(n.triple) ||
          n.positive_index >= batch.positives.size()) {
        return false;
      }
      n.corruption = static_cast<embedding::Corruption>(corruption);
    }
    batch_queue.push_back(std::move(batch));
  }

  const uint8_t has_cache = r->U8();
  if (!r->ok() || (has_cache != 0) != (w->cache != nullptr)) return false;
  if (w->cache != nullptr && !w->cache->LoadState(r)) return false;

  w->hits = hits;
  w->misses = misses;
  w->last_refresh = std::move(last_refresh);
  w->pending_grads = std::move(pending_grads);
  w->batch_queue = std::move(batch_queue);
  // A rewind discards in-flight pushes with the rest of the state.
  for (std::unique_ptr<StepTask>& task : w->in_flight) {
    spare_tasks_.push_back(std::move(task));
  }
  w->in_flight.clear();
  return true;
}

Status PsTrainingEngine::SaveTrainState(const std::string& path) const {
  embedding::CheckpointWriter writer;
  BuildSnapshotSections(&writer);
  AppendEngineCountersSection(&writer);
  return writer.WriteAtomic(path, config_.checkpoint_fsync);
}

Status PsTrainingEngine::WritePeriodicCheckpoint() {
  obs::TraceSpan span("ckpt.save", "ckpt");
  span.Arg("iteration", static_cast<double>(global_iteration_));
  // Process runtime: the worker sections must serialize the worker
  // processes' CURRENT state, not the stale parent-side mirrors.
  HETKG_RETURN_IF_ERROR(SyncAllWorkers());
  embedding::CheckpointWriter writer;
  BuildSnapshotSections(&writer);
  // The save counters go INSIDE the snapshot, so a resumed run's
  // counters match the uninterrupted run's. checkpoint.bytes counts the
  // state-section payload (the engine-counter section is excluded to
  // break the self-reference of a counter stored inside the file whose
  // size it measures).
  engine_metrics_.Increment(metric::kCheckpointSaves);
  engine_metrics_.Increment(metric::kCheckpointBytes,
                            writer.payload_bytes());
  AppendEngineCountersSection(&writer);
  HETKG_RETURN_IF_ERROR(
      writer.WriteAtomic(ckpt_manager_->SnapshotPath(global_iteration_),
                         config_.checkpoint_fsync));
  return ckpt_manager_->Commit(global_iteration_);
}

Status PsTrainingEngine::RestoreFromFile(const std::string& path) {
  HETKG_ASSIGN_OR_RETURN(const embedding::CheckpointReader reader,
                         embedding::CheckpointReader::Open(path));
  const std::string* meta =
      reader.Find(embedding::SectionTag::kTrainerMeta);
  if (meta == nullptr) {
    return Status::Corruption("snapshot missing trainer meta section");
  }
  ByteReader mr(*meta);
  const std::string snap_name = mr.Str();
  const uint64_t machines = mr.U64();
  const uint64_t dim = mr.U64();
  const uint64_t relation_dim = mr.U64();
  const uint64_t batch_size = mr.U64();
  const uint64_t ipe = mr.U64();
  const uint64_t seed = mr.U64();
  if (!mr.ok() || mr.remaining() != 0) {
    return Status::Corruption("bad trainer meta section");
  }
  if (snap_name != name() || machines != config_.num_machines ||
      dim != config_.dim ||
      relation_dim != server_->config().relation_dim ||
      batch_size != config_.batch_size || ipe != iterations_per_epoch_ ||
      seed != config_.seed) {
    return Status::FailedPrecondition(
        "snapshot was written by a different training configuration");
  }

  HETKG_RETURN_IF_ERROR(server_->LoadState(reader));

  const std::string* cs =
      reader.Find(embedding::SectionTag::kClusterState);
  if (cs == nullptr) {
    return Status::Corruption("snapshot missing cluster section");
  }
  ByteReader cr(*cs);
  if (!cluster_.LoadState(&cr) || !transport_.LoadState(&cr) ||
      cr.remaining() != 0) {
    return Status::Corruption("bad cluster section");
  }

  const std::string* ec =
      reader.Find(embedding::SectionTag::kEngineCounters);
  if (ec == nullptr) {
    return Status::Corruption("snapshot missing engine section");
  }
  ByteReader er(*ec);
  const uint64_t giter = er.U64();
  const uint64_t hits = er.U64();
  const uint64_t misses = er.U64();
  const double cumulative = er.F64();
  const double epoch_loss = er.F64();
  const uint64_t epoch_pairs = er.U64();
  PhaseSeconds phase;
  phase.prefetch = er.F64();
  phase.rebuild = er.F64();
  phase.pull = er.F64();
  phase.compute = er.F64();
  phase.push = er.F64();
  MetricRegistry engine_metrics;
  MetricRegistry obs_metrics;
  if (!er.ok() || !engine_metrics.LoadState(&er) ||
      !obs_metrics.LoadState(&er) || er.remaining() != 0) {
    return Status::Corruption("bad engine section");
  }

  const std::vector<const std::string*> sections =
      reader.FindAll(embedding::SectionTag::kWorker);
  if (sections.size() != workers_.size()) {
    return Status::Corruption("worker section count mismatch");
  }
  std::vector<char> seen(workers_.size(), 0);
  for (const std::string* payload : sections) {
    ByteReader wr(*payload);
    const uint32_t m = wr.U32();
    if (!wr.ok() || m >= workers_.size() || seen[m]) {
      return Status::Corruption("bad worker section id");
    }
    seen[m] = 1;
    if (!LoadWorkerState(&workers_[m], &wr) || wr.remaining() != 0) {
      return Status::Corruption("bad worker section");
    }
  }

  global_iteration_ = static_cast<size_t>(giter);
  total_hits_ = hits;
  total_misses_ = misses;
  cumulative_seconds_ = cumulative;
  epoch_loss_sum_ = epoch_loss;
  epoch_pair_count_ = epoch_pairs;
  phase_ = phase;
  engine_metrics_ = std::move(engine_metrics);
  obs_metrics_ = std::move(obs_metrics);
  resume_pending_ = true;
  return Status::OK();
}

Status PsTrainingEngine::RestoreTrainState(const std::string& path_or_dir) {
  HETKG_ASSIGN_OR_RETURN(
      const std::vector<std::string> candidates,
      CheckpointManager::ResumeCandidates(path_or_dir));
  Status last = Status::NotFound("no resume candidates");
  for (size_t i = 0; i < candidates.size(); ++i) {
    const Status status = RestoreFromFile(candidates[i]);
    if (status.ok()) {
      recovery_metrics_.Increment(metric::kCheckpointRestores);
      obs::Tracer::Instant("ckpt.restore", "ckpt", "iteration",
                           static_cast<double>(global_iteration_));
      return status;
    }
    HETKG_LOG(Warning) << "snapshot " << candidates[i]
                       << " rejected: " << status.ToString();
    if (i + 1 < candidates.size()) {
      recovery_metrics_.Increment(metric::kCheckpointFallbacks);
    }
    last = status;
  }
  return last;
}

Result<embedding::CheckpointReader> PsTrainingEngine::OpenLatestSnapshot() {
  if (ckpt_manager_ == nullptr) {
    return Status::NotFound("checkpointing is not configured");
  }
  HETKG_ASSIGN_OR_RETURN(
      const std::vector<std::string> candidates,
      CheckpointManager::ResumeCandidates(ckpt_manager_->dir()));
  Status last = Status::NotFound("no snapshots available");
  for (size_t i = 0; i < candidates.size(); ++i) {
    Result<embedding::CheckpointReader> reader =
        embedding::CheckpointReader::Open(candidates[i]);
    if (reader.ok()) return reader;
    HETKG_LOG(Warning) << "snapshot " << candidates[i]
                       << " rejected: " << reader.status().ToString();
    if (i + 1 < candidates.size()) {
      recovery_metrics_.Increment(metric::kCheckpointFallbacks);
    }
    last = reader.status();
  }
  return last;
}

Status PsTrainingEngine::MaybeInjectProcessFaults() {
  if (!transport_.HasPendingProcessFaults()) return Status::OK();
  for (const sim::ProcessFault& fault : transport_.TakeDueProcessFaults()) {
    switch (fault.kind) {
      case sim::ProcessFaultKind::kWorkerCrash:
        // Train() rewinds the run to the latest snapshot. Faults taken
        // in the same batch count as delivered; the rewind undoes them.
        obs::Tracer::Instant("recovery.worker_crash", "recovery", "machine",
                             static_cast<double>(fault.machine));
        sim_worker_crashed_ = true;
        return Status::Internal("worker " + std::to_string(fault.machine) +
                                " crashed");
      case sim::ProcessFaultKind::kPsShardRestart: {
        obs::Tracer::Instant("recovery.ps_shard_restart", "recovery",
                             "machine",
                             static_cast<double>(fault.machine));
        Result<embedding::CheckpointReader> snapshot = OpenLatestSnapshot();
        HETKG_RETURN_IF_ERROR(server_->RestartShard(
            fault.machine, snapshot.ok() ? &snapshot.value() : nullptr));
        break;
      }
    }
  }
  return Status::OK();
}

}  // namespace hetkg::core
