#ifndef HETKG_CORE_TRAINER_H_
#define HETKG_CORE_TRAINER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "embedding/checkpoint.h"
#include "core/sync_controller.h"
#include "embedding/score_function.h"
#include "eval/link_prediction.h"
#include "graph/knowledge_graph.h"
#include "obs/metrics_export.h"
#include "sim/cluster.h"
#include "sim/transport.h"

namespace hetkg::core {

/// The four systems the paper compares (Sec. VI).
enum class SystemKind {
  kHetKgCps,  // HET-KG-C: constant partial stale cache.
  kHetKgDps,  // HET-KG-D: dynamic partial stale cache.
  kDglKe,     // PS training without a worker cache.
  kPbg,       // Block training with lock server + dense relations.
};
std::string_view SystemKindName(SystemKind kind);
Result<SystemKind> ParseSystemKind(std::string_view name);

/// Everything needed to instantiate a distributed training run on the
/// simulated cluster. Defaults are the reduced single-core scale; the
/// paper-scale values are documented inline.
struct TrainerConfig {
  embedding::ModelKind model = embedding::ModelKind::kTransEL1;
  size_t dim = 32;                  // Paper: 400.
  double learning_rate = 0.1;      // Paper: 0.1.
  std::string loss = "margin";     // "margin" | "logistic".
  double margin = 1.0;
  size_t batch_size = 32;          // Paper: 32 (FB15k/WN18), 512 (FB-86m).
  size_t negatives_per_positive = 8;  // Paper: 8 / 128.
  std::string negative_sampler = "batched";  // "uniform" | "batched".
  size_t negative_chunk_size = 8;
  /// Fraction of negatives corrupting the relation instead of an
  /// endpoint (uniform sampler only; Sec. III-A's (h, r', t) variant).
  double relation_corruption_prob = 0.0;
  /// Draw replacement entities proportionally to degree^0.75 instead of
  /// uniformly (uniform sampler only).
  bool degree_weighted_negatives = false;

  size_t num_machines = 4;         // Paper: 4; one worker per machine.
  std::string partitioner = "metis";  // "metis" | "random".
  /// Compute threads for the intra-batch forward/backward fan-out (the
  /// deterministic parallel path: results are bit-identical at any
  /// value). 0 and 1 both mean serial execution. Simulation accounting
  /// and sampling stay single-threaded regardless.
  size_t num_threads = 1;
  /// Score/optimizer kernel dispatch: "auto" | "scalar" | "vector"
  /// (embedding/kernels.h). Every path produces the same bits — this is
  /// a pure performance knob, like num_threads. Under "auto" the
  /// HETKG_KERNEL environment variable can steer the choice.
  std::string kernel = "auto";

  /// Cache construction + synchronization (HET-KG systems only).
  SyncConfig sync;
  size_t cache_capacity = 4096;    // Hot-embedding rows per worker.
  double cache_entity_ratio = 0.25;
  bool heterogeneity_aware = true;

  /// PBG-only: number of entity partitions p (>= 2 * machines).
  size_t pbg_partitions = 8;
  /// PBG-only: iterations between dense relation-weight synchronizations
  /// with the shared parameter server. Real PBG syncs relation gradients
  /// through an asynchronous, rate-limited PS rather than per batch;
  /// this period models that rate.
  size_t pbg_relation_sync_period = 4;

  sim::NetworkConfig network;
  sim::ComputeConfig compute;
  /// Fault-injection plan for the worker <-> PS transport. Disabled by
  /// default (bit-identical to a perfect network); when enabled, all
  /// fault decisions are a pure function of `fault.seed` and the
  /// message sequence, so a scenario replays bit-identically.
  sim::FaultConfig fault;
  /// Observability: trace + metrics-export outputs (src/obs/). Disabled
  /// by default; when disabled, engines take zero instrumentation
  /// branches and results are bit-identical to a build without the obs
  /// layer.
  obs::ObsConfig obs;
  uint64_t seed = 1234;

  // -- Crash recovery (DESIGN.md §9) ------------------------------------

  /// Directory receiving periodic HETKGCK2 full-training-state
  /// snapshots plus their MANIFEST. Empty disables checkpointing (and
  /// keeps runs bit-identical to a build without it).
  std::string checkpoint_dir;
  /// Snapshot every N global iterations (0 disables periodic saves).
  size_t checkpoint_every = 0;
  /// Retained manifest entries; older snapshots are pruned (0 = all).
  size_t keep_checkpoints = 3;
  /// Resume source: a snapshot file, or a checkpoint directory whose
  /// manifest picks the newest valid snapshot (falling back to older
  /// entries on corruption). Empty starts fresh.
  std::string resume_from;
  /// Testing hook simulating a hard crash: Train() returns after this
  /// many global iterations without flushing caches or finishing the
  /// epoch (0 = run to completion). The partial report carries whatever
  /// epochs completed.
  size_t halt_after_iterations = 0;
  /// Durable checkpoint writes: fsync the snapshot/manifest temp file
  /// before the rename and the directory after it, so a committed
  /// checkpoint survives a host power loss (not just a process crash).
  /// On by default; --checkpoint_fsync=false trades that guarantee for
  /// faster saves in tests and benchmarks.
  bool checkpoint_fsync = true;

  /// Tiered embedding storage (DESIGN.md §16, --storage=tiered): the
  /// global tables and AdaGrad accumulators move behind mmap-backed
  /// cold slabs in `storage.cold_dir`, optionally quantized to
  /// fp16/int8 (`storage.dtype`); the hotness-aware worker caches stay
  /// fp32 in RAM. PS engines only — the PBG engine swaps whole
  /// partitions and gains nothing from row-granular tiering.
  embedding::TieredOptions storage;
};

/// Per-epoch observables. Times are the simulated cluster critical path
/// (what the paper's Time columns and Fig. 7 stacks report); wall time
/// is the real time this process spent and is reported separately.
struct EpochReport {
  size_t epoch = 0;
  double mean_loss = 0.0;
  sim::TimeBreakdown epoch_time;
  double cumulative_seconds = 0.0;
  double wall_seconds = 0.0;
  double cache_hit_ratio = 0.0;
  uint64_t remote_bytes = 0;
  bool has_valid_metrics = false;
  eval::EvalMetrics valid_metrics;
};

/// Outcome of a full training run.
struct TrainReport {
  std::vector<EpochReport> epochs;
  sim::TimeBreakdown total_time;
  double total_wall_seconds = 0.0;
  double overall_hit_ratio = 0.0;
  uint64_t total_remote_bytes = 0;
  MetricRegistry metrics;
  /// Per-epoch (and optionally per-window) metric samples; populated
  /// only when TrainerConfig::obs requested a metrics export.
  obs::MetricsSeries metrics_series;
};

/// Common interface of the three engine families.
class TrainingEngine {
 public:
  virtual ~TrainingEngine() = default;
  virtual std::string_view name() const = 0;

  /// Enables per-epoch validation MRR tracking (Fig. 5 / Fig. 9 curves).
  /// `graph` and `valid` must outlive the engine.
  virtual void EnableValidation(const graph::KnowledgeGraph* graph,
                                std::span<const Triple> valid,
                                const eval::EvalOptions& options) = 0;

  /// Trains `num_epochs` epochs and returns the per-epoch reports.
  virtual Result<TrainReport> Train(size_t num_epochs) = 0;

  /// Read-only view of the trained global embeddings.
  virtual const eval::EmbeddingLookup& Embeddings() const = 0;

  /// Scoring model in use (for evaluation).
  virtual const embedding::ScoreFunction& ScoreFn() const = 0;

  /// Writes the engine's complete training state to `path` as a
  /// HETKGCK2 snapshot (DESIGN.md §9). Engines that do not implement
  /// crash recovery return Unimplemented.
  virtual Status SaveTrainState(const std::string& path) const {
    (void)path;
    return Status::Unimplemented(std::string(name()) +
                                 " does not support training snapshots");
  }

  /// Restores the state written by SaveTrainState. `path_or_dir` is a
  /// snapshot file or a checkpoint directory (newest valid manifest
  /// entry wins; corrupt entries fall back to older ones). Must be
  /// called before Train(); the next Train() continues mid-run.
  virtual Status RestoreTrainState(const std::string& path_or_dir) {
    (void)path_or_dir;
    return Status::Unimplemented(std::string(name()) +
                                 " does not support training snapshots");
  }

  /// Process-local restore/fallback/orphan-sweep counters. These stay
  /// outside TrainReport::metrics because a resumed run restores once
  /// while the uninterrupted reference run never does — folding them in
  /// would break the bit-identity contract the snapshots exist to keep.
  virtual const MetricRegistry& RecoveryMetrics() const {
    static const MetricRegistry kEmpty;
    return kEmpty;
  }
};

/// Snapshots an engine's trained global embeddings to `path` (see
/// embedding/checkpoint.h for the format). A saved checkpoint can be
/// reloaded with embedding::LoadCheckpoint and evaluated through
/// CheckpointLookup without re-training.
Status SaveEngineCheckpoint(const TrainingEngine& engine,
                            const std::string& path);

/// EmbeddingLookup over a loaded checkpoint (the checkpoint must
/// outlive the lookup).
class CheckpointLookup : public eval::EmbeddingLookup {
 public:
  explicit CheckpointLookup(const embedding::Checkpoint* checkpoint)
      : checkpoint_(checkpoint) {}
  std::span<const float> Entity(EntityId id) const override {
    return checkpoint_->entities.Row(id);
  }
  std::span<const float> Relation(RelationId id) const override {
    return checkpoint_->relations.Row(id);
  }
  size_t num_entities() const override {
    return checkpoint_->entities.num_rows();
  }
  size_t num_relations() const override {
    return checkpoint_->relations.num_rows();
  }

 private:
  const embedding::Checkpoint* checkpoint_;
};

/// The one check of which TrainerConfig values may be combined, for
/// `system`: at least one machine, a positive batch, a known kernel
/// mode, process faults that target existing machines; PBG needs
/// pbg_partitions >= num_machines and in-RAM storage. Every violation
/// is InvalidArgument. The rules hold in both runtimes: MakeEngine
/// checks them, and the process runtime's launchers check again for
/// engines built without it.
Status ValidateConfig(SystemKind system, const TrainerConfig& config);

/// Builds the engine for `system`, wiring the sync strategy implied by
/// the system kind (CPS/DPS/no-cache) into `config.sync.strategy`.
/// Rejects configs ValidateConfig(system, config) rejects.
/// `graph` supplies entity/relation counts and the partitioning
/// structure; `train` is the triple list to train on. Both must outlive
/// the engine.
Result<std::unique_ptr<TrainingEngine>> MakeEngine(
    SystemKind system, const TrainerConfig& config,
    const graph::KnowledgeGraph& graph, const std::vector<Triple>& train);

}  // namespace hetkg::core

#endif  // HETKG_CORE_TRAINER_H_
