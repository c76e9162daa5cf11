#ifndef HETKG_CORE_HOT_EMBEDDING_TABLE_H_
#define HETKG_CORE_HOT_EMBEDDING_TABLE_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "embedding/adagrad.h"
#include "embedding/embedding_table.h"
#include "graph/types.h"

namespace hetkg::core {

/// The per-worker cache embedding table (the paper's central data
/// structure). Holds up to `capacity` embedding rows keyed by EmbKey,
/// mixing entity rows (width entity_dim) and relation rows (width
/// relation_dim) in two fixed-size slabs sized by the entity quota.
///
/// The table is *constructed*, not access-driven: Assign() installs the
/// hot set chosen by the filter (Algorithm 2); values are then filled by
/// pulling from the parameter server. Between refreshes the worker both
/// reads and locally updates these rows (partial staleness). A local
/// AdaGrad state per slot lets worker-side updates use the same
/// optimizer rule the server applies.
class HotEmbeddingTable {
 public:
  /// `entity_slots` + `relation_slots` = capacity. Slot counts are fixed
  /// up front (the heterogeneity quota of Sec. IV-B).
  HotEmbeddingTable(size_t entity_slots, size_t relation_slots,
                    size_t entity_dim, size_t relation_dim,
                    double learning_rate);

  size_t entity_slots() const { return entity_slots_; }
  size_t relation_slots() const { return relation_slots_; }
  size_t capacity() const { return entity_slots_ + relation_slots_; }
  size_t size() const { return index_.size(); }

  /// Resident bytes of the hot tier's row slabs (cache rows stay fp32
  /// in RAM regardless of the cold tier's dtype). Reported next to the
  /// cold tier's mapped bytes so the two-tier split is visible.
  size_t SizeBytes() const {
    return entity_rows_.SizeBytes() + relation_rows_.SizeBytes();
  }

  bool Contains(EmbKey key) const { return index_.contains(key); }

  /// Cached row for `key`; must be present.
  std::span<float> Row(EmbKey key);
  std::span<const float> Row(EmbKey key) const;

  /// Replaces the cached key set with `keys` (entity keys beyond the
  /// entity quota or relation keys beyond the relation quota are
  /// dropped — the filter already respects the quota, this is a safety
  /// net). Returns the keys that are newly admitted (their values must
  /// be pulled from the PS) — keys retained from the previous set keep
  /// their current local values.
  std::vector<EmbKey> Assign(std::span<const EmbKey> keys);

  /// All currently cached keys (unordered).
  std::vector<EmbKey> Keys() const;

  /// Applies a gradient to the cached copy with the worker-local
  /// AdaGrad state, optionally re-normalizing entity rows.
  void ApplyLocalGradient(EmbKey key, std::span<const float> grad,
                          bool normalize_entities);

  /// Batched ApplyLocalGradient over the cached subset of `keys`: looks
  /// each key up once, skips keys not cached, and applies the rest with
  /// one AdaGrad::ApplyRows call per slab, in key order. Sets
  /// (*cached)[i] to 1 when keys[i] was cached (and updated), else 0.
  void ApplyLocalGradients(std::span<const EmbKey> keys,
                           std::span<const std::span<const float>> grads,
                           bool normalize_entities,
                           std::vector<uint8_t>* cached);

  /// Overwrites the cached value (used by the P-periodic refresh that
  /// pulls fresh global values). Resets nothing else.
  void Refresh(EmbKey key, std::span<const float> value);

  /// Serializes the full cache state — key->slot index (in sorted key
  /// order, so the payload is independent of hash iteration order),
  /// both row slabs, and both local AdaGrad accumulators — for the
  /// HETKGCK2 per-worker sections. LoadState validates the shape
  /// against this table's configuration and replaces the contents.
  void SaveState(ByteWriter* w) const;
  bool LoadState(ByteReader* r);

 private:
  struct SlotRef {
    bool is_relation = false;
    uint32_t slot = 0;
  };

  size_t entity_slots_;
  size_t relation_slots_;
  embedding::EmbeddingTable entity_rows_;
  embedding::EmbeddingTable relation_rows_;
  embedding::AdaGrad entity_opt_;
  embedding::AdaGrad relation_opt_;
  std::unordered_map<EmbKey, SlotRef> index_;
  embedding::RowBatch entity_batch_;  // ApplyLocalGradients scratch.
  embedding::RowBatch relation_batch_;
};

}  // namespace hetkg::core

#endif  // HETKG_CORE_HOT_EMBEDDING_TABLE_H_
