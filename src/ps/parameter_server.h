#ifndef HETKG_PS_PARAMETER_SERVER_H_
#define HETKG_PS_PARAMETER_SERVER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/status.h"
#include "embedding/adagrad.h"
#include "embedding/checkpoint.h"
#include "embedding/embedding_table.h"
#include "graph/types.h"
#include "sim/cluster.h"
#include "sim/transport.h"

namespace hetkg::ps {

/// Configuration of the sharded parameter server.
struct PsConfig {
  size_t num_entities = 0;
  size_t num_relations = 0;
  size_t entity_dim = 0;
  size_t relation_dim = 0;  // May exceed entity_dim (TransH, RESCAL).
  double learning_rate = 0.1;
  /// L2-normalize entity rows after each update (TransE convention).
  bool normalize_entities = false;
  uint64_t init_seed = 7;
  /// Tiered embedding storage (DESIGN.md §16): when enabled, the global
  /// tables and AdaGrad accumulators live behind mmap slabs in
  /// `storage.cold_dir`; hot rows stay in the workers' fp32 caches.
  embedding::TieredOptions storage;
};

/// Outcome of one batched pull under the fault-injection transport.
/// Fault-free transports always deliver, so `failed` stays empty and
/// the struct costs nothing.
struct PullResult {
  /// Indices into the pulled key list whose shard exchange exhausted
  /// its retries; the corresponding `out` spans were NOT written.
  std::vector<uint32_t> failed;
};

/// Outcome of one batched gradient push.
struct PushResult {
  /// Gradient rows lost because their shard message exhausted retries.
  uint64_t lost_rows = 0;
  /// Duplicate arrivals rejected by the sequence-number guard.
  uint64_t duplicates_ignored = 0;
};

/// Co-located sharded parameter server (Sec. V, "Parameter Server").
///
/// Entity rows are owned by the machine their METIS partition maps to;
/// relation rows are sharded round-robin across machines (DGL-KE's
/// KVStore layout). Workers pull values and push gradients in batches;
/// each batch becomes one request/response message per remote shard,
/// while same-machine traffic goes through the shared-memory
/// localPull/localPush path. All remote traffic flows through a
/// sim::Transport, so per-message faults (drop/duplicate/delay/outage)
/// and the retry costs they induce are charged to the ClusterSim and
/// mirrored into a MetricRegistry.
///
/// The server applies AdaGrad on arrival of each gradient (Algorithm 4's
/// push handler); pulls always return the latest global value
/// (Algorithm 4's pull handler). Push messages carry a per-worker
/// sequence number and the server applies each sequence at most once,
/// so a duplicated push never double-applies AdaGrad.
///
/// Under `--runtime=proc` (DESIGN.md §13) the server stays in the
/// coordinator process; worker processes reach PullBatch/PushGradBatch
/// through the core::PsBackend seam over net::Messenger channels,
/// whose sequence-numbered frames extend the same at-most-once push
/// guarantee across real process boundaries.
class ParameterServer {
 public:
  /// `entity_owner[e]` is the machine hosting entity e; any value
  /// >= `cluster->num_machines()` is rejected with OutOfRange.
  /// `transport` (optional) carries all remote traffic; when null the
  /// server owns a fault-free pass-through transport over `cluster`.
  static Result<std::unique_ptr<ParameterServer>> Create(
      const PsConfig& config, std::vector<uint32_t> entity_owner,
      sim::ClusterSim* cluster, sim::Transport* transport = nullptr);

  /// Initializes both tables Xavier-uniform (and normalizes entity rows
  /// when configured).
  void InitEmbeddings();

  /// Owning machine of a key.
  uint32_t OwnerOf(EmbKey key) const;

  /// Width of the row addressed by `key`.
  size_t RowDim(EmbKey key) const {
    return IsRelationKey(key) ? config_.relation_dim : config_.entity_dim;
  }

  /// Batched pull issued by a worker on `worker_machine`: copies the
  /// current global value of each key into `out[i]` (spans of RowDim).
  /// Accounting: one request/response exchange per distinct remote
  /// shard, plus payload bytes; local rows cost shared-memory bandwidth
  /// only. Shards whose exchange exhausts its retries leave their
  /// destination spans untouched and report the key indices in the
  /// result — the caller decides the degradation (serve the stale
  /// cached value, or fall back to a degraded read).
  PullResult PullBatch(uint32_t worker_machine, std::span<const EmbKey> keys,
                       std::span<std::span<float>> out);

  /// Batched gradient push: applies AdaGrad to each key's global row.
  /// Same accounting shape as PullBatch (one message per remote shard).
  /// A shard message that exhausts its retries loses its gradients
  /// (reported in the result); a duplicated delivery is applied exactly
  /// once via the per-worker sequence guard.
  PushResult PushGradBatch(uint32_t worker_machine,
                           std::span<const EmbKey> keys,
                           std::span<const std::span<const float>> grads);

  /// Unaccounted read of the current global value (evaluation only).
  /// On a quantized tiered server the returned span points into a
  /// thread-local decode ring (EmbeddingTable::DecodedRow) — valid for
  /// a batch of subsequent reads, but not indefinitely.
  std::span<const float> Value(EmbKey key) const;

  /// Decodes the current global value of `key` into `out` (RowDim).
  /// Works on every storage backend; the quantized dequantize-on-pull
  /// path counts toward TierColdReads().
  void ReadValueInto(EmbKey key, std::span<float> out) const;

  /// Unaccounted write (tests and checkpoint restore).
  void SetValue(EmbKey key, std::span<const float> value);

  // -- Tiered storage (DESIGN.md §16) ------------------------------------

  bool tiered() const { return config_.storage.enabled; }

  /// madvise(MADV_WILLNEED) the cold pages of `keys` — called with the
  /// hot filter's admitted set (`admitted`, counted as promotions from
  /// the cold tier into a worker cache) and the prefetch window, so
  /// rows the next iterations will pull fault in ahead of use. No-op
  /// when not tiered.
  void AdviseHotKeys(std::span<const EmbKey> keys, bool admitted);

  /// Rows dequantized from the cold tier so far (`tier.cold_reads`).
  uint64_t TierColdReads() const {
    return entity_table_.cold_reads() + relation_table_.cold_reads();
  }

  /// Admitted keys passed to AdviseHotKeys so far (`tier.promotions`).
  /// Like the cold-read counters, never serialized.
  uint64_t TierPromotions() const { return tier_promotions_; }

  /// Bytes of mmap-backed state (`tier.bytes_mapped`): both cold slabs
  /// plus the accumulator slabs.
  uint64_t TierBytesMapped() const {
    return entity_table_.ColdBytes() + relation_table_.ColdBytes() +
           entity_opt_.ColdBytes() + relation_opt_.ColdBytes();
  }

  /// Drops resident cold pages after bulk passes (no-op when not
  /// tiered); steady-state residency then reflects actual row traffic.
  void DropColdResidency() const;

  const PsConfig& config() const { return config_; }
  MetricRegistry& metrics() { return metrics_; }
  const MetricRegistry& metrics() const { return metrics_; }

  /// Delivery layer carrying the server's remote traffic.
  sim::Transport& transport() { return *transport_; }
  const sim::Transport& transport() const { return *transport_; }

  /// Total bytes of one pulled/pushed row for `key` on the wire.
  uint64_t RowBytes(EmbKey key) const {
    return RowDim(key) * sizeof(float);
  }

  // -- Crash recovery (DESIGN.md §9) ------------------------------------

  /// Appends the server's full state to a HETKGCK2 snapshot: both
  /// tables (the shared eval tags 1/2), both AdaGrad accumulators, the
  /// per-worker sequence ledger, and the server metrics.
  void SaveState(embedding::CheckpointWriter* w) const;

  /// Restores the state written by SaveState. Corruption when a section
  /// is missing or its shape disagrees with this server's config.
  Status LoadState(const embedding::CheckpointReader& reader);

  /// Simulates the PS shard on `machine` restarting: the rows and
  /// accumulators it owns are restored from `snapshot` when given, or
  /// re-initialized deterministically from `init_seed` (accumulators
  /// reset to zero) when not. Rows owned by other machines and the
  /// sequence ledger (modeled as durable, WAL-backed) are untouched.
  Status RestartShard(uint32_t machine,
                      const embedding::CheckpointReader* snapshot);

 private:
  ParameterServer(const PsConfig& config, std::vector<uint32_t> entity_owner,
                  sim::ClusterSim* cluster, sim::Transport* transport,
                  embedding::EmbeddingTable entity_table,
                  embedding::EmbeddingTable relation_table,
                  embedding::AdaGrad entity_opt,
                  embedding::AdaGrad relation_opt);

  /// Applies the gathered gradient rows (`batch->slots`/`grads`; its
  /// `rows` start empty) to `table`. Addressable tables take one
  /// ApplyRows call; quantized tables take the dequantize -> fp32
  /// AdaGrad step -> requantize path row by row; the accumulator itself
  /// is always fp32.
  void ApplyGradients(embedding::EmbeddingTable* table,
                      embedding::AdaGrad* opt, embedding::RowBatch* batch,
                      bool normalize);

  PsConfig config_;
  std::vector<uint32_t> entity_owner_;
  sim::ClusterSim* cluster_;  // Not owned.

  /// Pass-through transport owned when the caller supplied none.
  std::unique_ptr<sim::Transport> owned_transport_;
  sim::Transport* transport_;  // Points at owned_transport_ or external.

  embedding::EmbeddingTable entity_table_;
  embedding::EmbeddingTable relation_table_;
  embedding::AdaGrad entity_opt_;
  embedding::AdaGrad relation_opt_;
  MetricRegistry metrics_;
  uint64_t tier_promotions_ = 0;

  /// Per-worker push sequence numbers (stamped on outgoing messages)
  /// and the highest sequence each worker has had applied — the
  /// idempotence guard against duplicated deliveries.
  std::vector<uint64_t> push_seq_;
  std::vector<uint64_t> applied_push_seq_;

  // Scratch, reused across batches to avoid per-call allocation.
  std::vector<uint32_t> scratch_owner_rows_;
  std::vector<uint32_t> scratch_key_owner_;
  std::vector<uint64_t> scratch_payload_;
  std::vector<char> scratch_shard_ok_;
  std::vector<float> scratch_apply_row_;  // Quantized apply staging.
  embedding::RowBatch entity_batch_;       // PushGradBatch groups.
  embedding::RowBatch relation_batch_;
};

}  // namespace hetkg::ps

#endif  // HETKG_PS_PARAMETER_SERVER_H_
