#ifndef HETKG_CORE_PS_ENGINE_H_
#define HETKG_CORE_PS_ENGINE_H_

#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.h"
#include "core/checkpoint_manager.h"
#include "core/hot_embedding_table.h"
#include "core/hot_filter.h"
#include "core/parallel_batch.h"
#include "core/prefetcher.h"
#include "core/ps_backend.h"
#include "core/sync_controller.h"
#include "core/trainer.h"
#include "embedding/loss.h"
#include "embedding/negative_sampler.h"
#include "ps/parameter_server.h"

namespace hetkg::net {
class ProcCoordinator;
class ProcWorker;
}  // namespace hetkg::net

namespace hetkg::core {

/// EmbeddingLookup over a parameter server's global tables (evaluation
/// reads are not charged to the network model).
class PsEmbeddingLookup : public eval::EmbeddingLookup {
 public:
  explicit PsEmbeddingLookup(const ps::ParameterServer* server)
      : server_(server) {}
  std::span<const float> Entity(EntityId id) const override {
    return server_->Value(EntityKey(id));
  }
  std::span<const float> Relation(RelationId id) const override {
    return server_->Value(RelationKey(id));
  }
  size_t num_entities() const override {
    return server_->config().num_entities;
  }
  size_t num_relations() const override {
    return server_->config().num_relations;
  }

 private:
  const ps::ParameterServer* server_;
};

/// Parameter-server training engine implementing Algorithms 1-4. The
/// three PS-based systems of the paper are configurations of this one
/// engine:
///   * HET-KG-C : sync.strategy = kCps (whole-epoch hot set, fixed)
///   * HET-KG-D : sync.strategy = kDps (hot set rebuilt every D iters)
///   * DGL-KE   : sync.strategy = kNone (no worker cache)
/// One worker runs per machine; each training iteration executes every
/// worker once against the shared (simulated) cluster, and all
/// embedding traffic flows through the ParameterServer's accounted
/// pull/push paths.
class PsTrainingEngine : public TrainingEngine {
 public:
  static Result<std::unique_ptr<PsTrainingEngine>> Create(
      const TrainerConfig& config, const graph::KnowledgeGraph& graph,
      const std::vector<Triple>& train);

  std::string_view name() const override;
  /// The paper system this engine configuration is (by sync strategy).
  SystemKind system() const;
  /// The effective config (sync.strategy set by MakeEngine).
  const TrainerConfig& config() const { return config_; }
  void EnableValidation(const graph::KnowledgeGraph* graph,
                        std::span<const Triple> valid,
                        const eval::EvalOptions& options) override;
  /// A worker crash — an in-sim kWorkerCrash or, under the process
  /// runtime, a dead worker process — rewinds the run to the latest
  /// snapshot in config.checkpoint_dir and continues, so the result
  /// equals an uninterrupted run. With a worker crash scheduled in
  /// config.fault, the initial state is committed as the iteration-0
  /// snapshot first, so a crash before the first periodic save rewinds
  /// to it. FailedPrecondition when no snapshot is restorable.
  Result<TrainReport> Train(size_t num_epochs) override;
  const eval::EmbeddingLookup& Embeddings() const override {
    return lookup_;
  }
  const embedding::ScoreFunction& ScoreFn() const override {
    return *score_fn_;
  }

  /// Iterations that constitute one epoch (max over workers).
  size_t IterationsPerEpoch() const { return iterations_per_epoch_; }

  /// Cache hit ratio accumulated since construction.
  double OverallHitRatio() const;

  /// The simulated cluster (exposed for benches that inspect traffic).
  const sim::ClusterSim& cluster() const { return cluster_; }

  /// The fault-injection transport carrying all PS traffic (exposed for
  /// benches/tests that inspect retry and degradation counters).
  const sim::Transport& transport() const { return transport_; }

  /// Lag-N schedule introspection (DESIGN.md §12). A pull's lag is the
  /// number of its worker's earlier iterations whose pushes have not
  /// run yet: min(N, iterations since the last drain point). The max is
  /// over every pull this engine ran; the staleness-bound tests assert
  /// it never exceeds --max_pipeline_staleness.
  size_t MaxObservedPipelineLag() const { return max_observed_lag_; }

  /// Test hook called at every pull with (machine, iteration, lag).
  using PullLagHook = std::function<void(uint32_t, size_t, size_t)>;
  void SetPullLagHook(PullLagHook hook) { pull_lag_hook_ = std::move(hook); }

  /// Crash recovery (DESIGN.md §9): full-training-state snapshots.
  Status SaveTrainState(const std::string& path) const override;
  Status RestoreTrainState(const std::string& path_or_dir) override;
  const MetricRegistry& RecoveryMetrics() const override {
    return recovery_metrics_;
  }

  // -- Process runtime hooks (src/net/, DESIGN.md §13) -------------------

  /// Coordinator-side driver of real worker processes. When installed,
  /// Train() forwards each worker step / epoch flush / state sync to
  /// this interface instead of executing the stages locally; the
  /// driver services the worker's PsBackend RPCs against this engine's
  /// authoritative server/cluster in sim order.
  class StepDriver {
   public:
    virtual ~StepDriver() = default;
    /// Runs one worker step remotely; returns {loss_sum, pair_count}.
    virtual Result<std::pair<double, uint64_t>> DriveStep(uint32_t machine,
                                                          size_t iter) = 0;
    /// Epoch boundary: remote write-back flush, then harvest the
    /// worker's hit/miss counters into the engine's worker mirror.
    virtual Status DriveEpochEnd(uint32_t machine) = 0;
    /// Pulls the worker's full serialized state into the engine's
    /// worker mirror (checkpoint barriers and end of training).
    virtual Status SyncWorkerState(uint32_t machine) = 0;
    /// True when a worker process died since the last restart.
    virtual bool WorkerFailed() const = 0;
    /// Kills and relaunches every worker process from the engine's
    /// current (just-restored) state; clears the failure flag.
    virtual Status RestartWorkers() = 0;

    // -- Cross-process observability (DESIGN.md §14). Default no-ops so
    // -- drivers without obs support need no changes. ------------------
    /// Called once at the start of TrainInner when config.obs is
    /// enabled: arms per-process tracers/metrics in the workers and
    /// runs the clock-offset handshake.
    virtual Status SetupObs() { return Status::OK(); }
    /// Final shipment drain before the engine writes its trace/metrics
    /// files (end of training and halt paths).
    virtual Status FlushObs() { return Status::OK(); }
    /// Merged never-serialized runtime metrics (transport histograms,
    /// per-worker gauges) for CollectObsMetrics, or null when the
    /// driver has none.
    virtual const MetricRegistry* ObsMetrics() const { return nullptr; }
  };

  /// Installs the process-runtime driver (nullptr restores sim mode).
  void SetStepDriver(StepDriver* driver) { step_driver_ = driver; }

  /// Reroutes the pipeline stages' shared-state calls — a forked worker
  /// process installs its RPC backend here (nullptr restores the local
  /// in-process backend).
  void SetPsBackend(PsBackend* backend) {
    backend_ = backend != nullptr ? backend : local_backend_.get();
  }

 private:
  friend class ::hetkg::net::ProcCoordinator;
  friend class ::hetkg::net::ProcWorker;
  struct StepTask;
  struct Worker {
    uint32_t machine = 0;
    std::vector<Triple> triples;
    std::unique_ptr<embedding::NegativeSampler> sampler;
    std::unique_ptr<Prefetcher> prefetcher;
    std::unique_ptr<HotEmbeddingTable> cache;
    std::deque<MiniBatch> batch_queue;
    uint64_t hits = 0;
    uint64_t misses = 0;
    /// kOnAccess refresh bookkeeping: iteration of each cached row's
    /// last pull from the PS.
    std::unordered_map<EmbKey, size_t> last_refresh;
    /// Write-back mode: locally accumulated, not-yet-pushed gradients
    /// of cached rows.
    std::unordered_map<EmbKey, std::vector<float>> pending_grads;
    /// Lag-N ring (DESIGN.md §12): computed iterations whose push is
    /// still due, oldest first. Empty at every drain point, so it is
    /// never serialized; a restore clears it.
    std::deque<std::unique_ptr<StepTask>> in_flight;
  };

  /// One iteration of one worker flowing through the stages (DESIGN.md
  /// §12). The task owns every buffer its stages touch, so it can wait
  /// in its worker's lag-N ring, gradients intact, until its push runs
  /// N iterations later.
  struct StepTask {
    Worker* w = nullptr;
    size_t iter = 0;
    MiniBatch batch;

    // Plan produced by the sample stage, applied by the pull stage.
    bool flush_writeback = false;
    bool rebuild = false;
    bool whole_epoch = false;
    FrequencyMap rebuild_freq;
    uint64_t rebuild_accesses = 0;
    uint64_t refill_accesses = 0;

    // Row/gradient buffers addressed by the dense index of the sorted
    // key list (`keys`), not by hash lookups.
    std::vector<EmbKey> keys;
    std::vector<EmbKey> missing;
    std::vector<float> values;
    std::vector<float> grads;
    std::vector<std::span<float>> pull_spans;
    std::vector<std::span<float>> row_spans;  // Per key index.
    std::vector<size_t> grad_offsets;         // K+1 prefix offsets.
    std::vector<ResolvedTriple> positives;
    std::vector<ResolvedPair> pairs;
    std::vector<double> pos_scores;
    // Push-stage buffers: keys with a nonzero gradient, which of them
    // the cache holds, and the keys pushed to the PS.
    std::vector<EmbKey> update_keys;
    std::vector<std::span<const float>> update_grads;
    std::vector<uint8_t> cached;
    std::vector<EmbKey> push_keys;
    std::vector<std::span<const float>> push_grads;

    // Results, filled by the compute stage.
    double loss_sum = 0.0;
    uint64_t pair_count = 0;

    void Reset(Worker* worker, size_t iteration) {
      w = worker;
      iter = iteration;
      flush_writeback = false;
      rebuild = false;
      whole_epoch = false;
      rebuild_freq.clear();
      rebuild_accesses = 0;
      refill_accesses = 0;
      loss_sum = 0.0;
      pair_count = 0;
    }
  };

  PsTrainingEngine(const TrainerConfig& config, SyncController sync,
                   const graph::KnowledgeGraph& graph);

  Status Setup(const std::vector<Triple>& train);

  /// Prefetcher-side half of a hot-set (re)build: counts (CPS: whole
  /// epoch) or counts-and-queues (DPS: next D batches) accesses into
  /// `freq`, returning the counted access total. Touches only the
  /// worker's sampling pipeline; runs in the sample stage.
  uint64_t CollectHotSetPlan(Worker* w, bool whole_epoch,
                             FrequencyMap* freq);

  /// PS-side half: filters `freq`, assigns the hot set, re-anchors
  /// staleness clocks at `iter`, and pulls newly admitted rows. Runs in
  /// the pull stage.
  void ApplyHotSet(Worker* w, size_t iter, const FrequencyMap& freq,
                   uint64_t accesses);

  /// Ensures the worker has a mini-batch ready. Returns the prefetch
  /// access count to charge (0 when no refill happened); the caller
  /// records it in the pull stage so sim accounting stays ordered with
  /// the iteration's other cluster traffic.
  uint64_t FillBatchQueue(Worker* w);

  /// Pushes all locally accumulated (write-back) gradients to the PS.
  void FlushPendingGradients(Worker* w);

  /// Degradation path of a pull whose retries were exhausted: cached
  /// keys keep serving their stale copy (and stay refresh-eligible);
  /// uncached keys fall back to an unaccounted degraded read so the
  /// iteration can proceed. `keys[failed[i]]` are the unserved keys,
  /// `spans[failed[i]]` their destinations.
  void HandleFailedPulls(Worker* w, size_t iter,
                         std::span<const EmbKey> keys,
                         std::span<const std::span<float>> spans,
                         std::span<const uint32_t> failed);

  // -- Stages (DESIGN.md §12) --------------------------------------------
  // Sample touches only the worker's sampling pipeline (prefetcher,
  // negative sampler, batch queue); pull and push touch the shared
  // PS/cluster/transport state through backend_; compute touches only
  // the task-private buffers. Step() runs them in that order on the
  // calling thread.

  /// Sample/prefetch stage: plans any hot-set rebuild, refills the
  /// batch queue, and pops the iteration's mini-batch into the task.
  void RunSampleStage(StepTask* task);

  /// Cache-refresh/pull stage: applies the rebuild plan, resolves the
  /// batch's rows (cache hits vs PS pulls, staleness-driven refreshes),
  /// and points every key's row span at its bits.
  void RunPullStage(StepTask* task);

  /// Batch compute stage: forward + backward over all pairs via the
  /// deterministic chunked executor.
  void RunComputeStage(StepTask* task);

  /// Gradient push stage: local cache updates, write-back accumulation,
  /// and the iteration's PS push.
  void RunPushStage(StepTask* task);

  /// True when a periodic snapshot is due once `done` global iterations
  /// have completed.
  bool CheckpointDue(size_t done) const {
    return ckpt_manager_ != nullptr && config_.checkpoint_every > 0 &&
           done % config_.checkpoint_every == 0;
  }

  /// Critical path of the current epoch's traffic: the plain serial
  /// path by default, the overlap-adjusted path under --async (stages
  /// ahead by up to the pipeline staleness hide the smaller of
  /// compute/comm behind the larger).
  sim::TimeBreakdown EpochCriticalPath() const {
    return sync_.AsyncPipeline()
               ? cluster_.OverlappedCriticalPath(sync_.PipelineStaleness())
               : cluster_.CriticalPath();
  }

  /// One training iteration for one worker at global iteration `iter`
  /// under the lag-N schedule (N = SyncController::PipelineStaleness(),
  /// 0 without --async): sample, pull and compute iteration `iter`,
  /// park the task in the worker's ring, then push the worker's
  /// iteration `iter - N` if one is due. The ring drains completely
  /// when `iter + 1` ends an epoch or is a checkpoint multiple. Returns
  /// iteration `iter`'s summed pair loss and pair count.
  std::pair<double, uint64_t> Step(Worker* w, size_t iter);

  /// The body of Train(): trains up to `num_epochs`, appending to
  /// `report`. Train() wraps it in the crash-rewind loop; a resumed call
  /// first drops what `report` holds past the restored snapshot.
  Status TrainInner(size_t num_epochs, TrainReport* report);

  /// Process runtime: refreshes every worker mirror from its process
  /// (no-op in sim mode). Runs before checkpoints, halts, and the end
  /// of training so serialized worker sections are always current.
  Status SyncAllWorkers();

  /// fork() hygiene for the process runtime: joins and destroys the
  /// compute pool so the process is single-threaded across fork(), then
  /// rebuilds it (in parent and child independently) afterwards.
  void TeardownPool();
  void RebuildPool();
  /// Whether EnableValidation borrowed pool_ (so RebuildPool re-patches
  /// the dangling pointer after a fork-cycle rebuild).
  bool pool_valid_options_aliased_ = false;

  /// Cumulative metric state for reports and time-series samples:
  /// server + transport counters, cache hit/miss totals, and — when
  /// observability is active — the phase gauges and latency histograms.
  /// `sim_seconds` is the cumulative critical-path time at the sample.
  MetricRegistry CollectObsMetrics(double sim_seconds) const;

  // -- Crash recovery internals (DESIGN.md §9) --------------------------

  /// Appends meta + PS + cluster/transport + per-worker sections.
  void BuildSnapshotSections(embedding::CheckpointWriter* writer) const;

  /// Appends the engine-counter section (always last: its payload size
  /// is excluded from the checkpoint.bytes accounting, breaking the
  /// self-reference of a counter stored inside the file it measures).
  void AppendEngineCountersSection(embedding::CheckpointWriter* writer) const;

  void SaveWorkerState(const Worker& w, ByteWriter* out) const;
  /// `r` is positioned after the leading worker id.
  bool LoadWorkerState(Worker* w, ByteReader* r);

  /// Full-state restore from one snapshot file.
  Status RestoreFromFile(const std::string& path);

  /// Periodic save: counters, snapshot write, manifest commit.
  Status WritePeriodicCheckpoint();

  /// Newest snapshot readable from checkpoint_dir (manifest fallback on
  /// corruption); NotFound when checkpointing is off or nothing saved.
  Result<embedding::CheckpointReader> OpenLatestSnapshot();

  /// Consumes due process-level fault events at an iteration boundary.
  /// A kWorkerCrash sets sim_worker_crashed_ and fails the call, which
  /// hands the crash to Train()'s rewind loop.
  Status MaybeInjectProcessFaults();

  TrainerConfig config_;
  SyncController sync_;
  const graph::KnowledgeGraph& graph_;

  sim::ClusterSim cluster_;
  sim::Transport transport_;
  std::unique_ptr<ps::ParameterServer> server_;
  /// PS/cluster seam (DESIGN.md §13): stage code mutates shared state
  /// through backend_ only. Sim runtime: the local backend below.
  /// Process runtime: a forked worker swaps in its RPC backend.
  std::unique_ptr<LocalPsBackend> local_backend_;
  PsBackend* backend_ = nullptr;
  /// Process runtime driver (coordinator side); null in sim mode.
  StepDriver* step_driver_ = nullptr;
  std::unique_ptr<embedding::ScoreFunction> score_fn_;
  std::unique_ptr<embedding::LossFunction> loss_fn_;
  PsEmbeddingLookup lookup_{nullptr};

  std::vector<Worker> workers_;
  size_t iterations_per_epoch_ = 0;
  size_t global_iteration_ = 0;
  uint64_t total_hits_ = 0;
  uint64_t total_misses_ = 0;

  // Crash recovery. The run-cursor members below were Train() locals
  // before snapshots existed; they are engine state now so a mid-epoch
  // resume continues the epoch's accumulation bit-identically.
  double cumulative_seconds_ = 0.0;
  double epoch_loss_sum_ = 0.0;
  uint64_t epoch_pair_count_ = 0;
  /// Set only by RestoreTrainState; the next Train() starts mid-run.
  bool resume_pending_ = false;
  /// Set when an in-sim kWorkerCrash fires; Train() rewinds and clears.
  bool sim_worker_crashed_ = false;
  /// checkpoint.* counters that live INSIDE the training snapshot (both
  /// the crashed and the reference run take the same schedule, so
  /// merging them into reports keeps bit-identity).
  MetricRegistry engine_metrics_;
  /// Process-local restore/fallback/orphan/worker-crash counters —
  /// never serialized, never merged into reports (see
  /// TrainingEngine::RecoveryMetrics).
  MetricRegistry recovery_metrics_;
  std::unique_ptr<CheckpointManager> ckpt_manager_;

  // Observability (src/obs/). `obs_active_` is latched from
  // config_.obs at setup; every instrumentation branch below is gated
  // on it, so disabled runs take the exact pre-obs code path. Phase
  // times are *simulated* seconds (MachineTime deltas around each Step
  // phase), cumulative over the run — deterministic at any thread
  // count, matching the Fig. 7 taxonomy.
  bool obs_active_ = false;
  struct PhaseSeconds {
    double prefetch = 0.0;
    double rebuild = 0.0;
    double pull = 0.0;
    double compute = 0.0;
    double push = 0.0;
  };
  PhaseSeconds phase_;
  /// Gauge/histogram side-registry (scheduling thread only), merged
  /// into reports by CollectObsMetrics.
  MetricRegistry obs_metrics_;

  // Validation hookup.
  const graph::KnowledgeGraph* valid_graph_ = nullptr;
  std::span<const Triple> valid_triples_;
  eval::EvalOptions valid_options_;

  // Deterministic intra-batch parallelism: worker forward/backward math
  // fans out over this pool (null when config.num_threads <= 1); the
  // scorer's ordered reduction keeps results bit-identical at any
  // thread count.
  std::unique_ptr<ThreadPool> pool_;
  ParallelBatchScorer scorer_;

  // Hot-set construction scratch (pull stage only).
  std::vector<std::span<float>> rebuild_pull_spans_;

  // Lag-N schedule (DESIGN.md §12): task buffers recycled across
  // iterations and workers, and the pull-lag observations.
  std::vector<std::unique_ptr<StepTask>> spare_tasks_;
  size_t max_observed_lag_ = 0;
  PullLagHook pull_lag_hook_;
};

}  // namespace hetkg::core

#endif  // HETKG_CORE_PS_ENGINE_H_
