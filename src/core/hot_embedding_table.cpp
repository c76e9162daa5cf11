#include "core/hot_embedding_table.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

#include "common/logging.h"
#include "obs/trace.h"

namespace hetkg::core {

HotEmbeddingTable::HotEmbeddingTable(size_t entity_slots,
                                     size_t relation_slots, size_t entity_dim,
                                     size_t relation_dim,
                                     double learning_rate)
    : entity_slots_(entity_slots),
      relation_slots_(relation_slots),
      entity_rows_(std::max<size_t>(1, entity_slots), entity_dim),
      relation_rows_(std::max<size_t>(1, relation_slots), relation_dim),
      entity_opt_(std::max<size_t>(1, entity_slots), entity_dim,
                  learning_rate),
      relation_opt_(std::max<size_t>(1, relation_slots), relation_dim,
                    learning_rate) {
  index_.reserve(capacity() * 2);
}

std::span<float> HotEmbeddingTable::Row(EmbKey key) {
  auto it = index_.find(key);
  HETKG_CHECK(it != index_.end()) << "key not cached: " << key;
  return it->second.is_relation ? relation_rows_.Row(it->second.slot)
                                : entity_rows_.Row(it->second.slot);
}

std::span<const float> HotEmbeddingTable::Row(EmbKey key) const {
  auto it = index_.find(key);
  HETKG_CHECK(it != index_.end()) << "key not cached: " << key;
  return it->second.is_relation ? relation_rows_.Row(it->second.slot)
                                : entity_rows_.Row(it->second.slot);
}

std::vector<EmbKey> HotEmbeddingTable::Assign(std::span<const EmbKey> keys) {
  obs::TraceSpan span("cache.assign", "cache");
  span.Arg("keys", static_cast<double>(keys.size()));
  // Split the incoming set by kind, respecting the slot quotas.
  std::vector<EmbKey> want_entities;
  std::vector<EmbKey> want_relations;
  for (EmbKey key : keys) {
    if (IsRelationKey(key)) {
      if (want_relations.size() < relation_slots_) {
        want_relations.push_back(key);
      }
    } else if (want_entities.size() < entity_slots_) {
      want_entities.push_back(key);
    }
  }

  std::unordered_set<EmbKey> want_set;
  want_set.reserve((want_entities.size() + want_relations.size()) * 2);
  want_set.insert(want_entities.begin(), want_entities.end());
  want_set.insert(want_relations.begin(), want_relations.end());

  // Evict keys not in the new set, collecting their slots for reuse.
  std::vector<uint32_t> free_entity_slots;
  std::vector<uint32_t> free_relation_slots;
  for (auto it = index_.begin(); it != index_.end();) {
    const bool keep = want_set.contains(it->first);
    if (keep) {
      ++it;
      continue;
    }
    if (it->second.is_relation) {
      free_relation_slots.push_back(it->second.slot);
    } else {
      free_entity_slots.push_back(it->second.slot);
    }
    it = index_.erase(it);
  }
  // Any never-used slots are also free.
  {
    std::vector<bool> used_e(entity_slots_, false);
    std::vector<bool> used_r(relation_slots_, false);
    for (const auto& [key, ref] : index_) {
      (ref.is_relation ? used_r : used_e)[ref.slot] = true;
    }
    free_entity_slots.clear();
    free_relation_slots.clear();
    for (uint32_t s = 0; s < entity_slots_; ++s) {
      if (!used_e[s]) free_entity_slots.push_back(s);
    }
    for (uint32_t s = 0; s < relation_slots_; ++s) {
      if (!used_r[s]) free_relation_slots.push_back(s);
    }
  }

  // Admit the new keys.
  std::vector<EmbKey> admitted;
  auto admit = [&](std::span<const EmbKey> want, bool is_relation,
                   std::vector<uint32_t>* free_slots,
                   embedding::AdaGrad* opt) {
    for (EmbKey key : want) {
      if (index_.contains(key)) continue;  // Retained from previous set.
      HETKG_CHECK(!free_slots->empty()) << "cache slot accounting error";
      const uint32_t slot = free_slots->back();
      free_slots->pop_back();
      opt->ResetRow(slot);
      index_[key] = SlotRef{is_relation, slot};
      admitted.push_back(key);
    }
  };
  admit(want_entities, false, &free_entity_slots, &entity_opt_);
  admit(want_relations, true, &free_relation_slots, &relation_opt_);
  return admitted;
}

std::vector<EmbKey> HotEmbeddingTable::Keys() const {
  std::vector<EmbKey> keys;
  keys.reserve(index_.size());
  for (const auto& [key, ref] : index_) {
    keys.push_back(key);
  }
  return keys;
}

void HotEmbeddingTable::ApplyLocalGradient(EmbKey key,
                                           std::span<const float> grad,
                                           bool normalize_entities) {
  auto it = index_.find(key);
  HETKG_CHECK(it != index_.end()) << "key not cached: " << key;
  const size_t slot = it->second.slot;
  if (it->second.is_relation) {
    const std::span<float> row = relation_rows_.Row(slot);
    relation_opt_.ApplyRows({&slot, 1}, {&row, 1}, {&grad, 1}, false);
    return;
  }
  const std::span<float> row = entity_rows_.Row(slot);
  entity_opt_.ApplyRows({&slot, 1}, {&row, 1}, {&grad, 1},
                        normalize_entities);
}

void HotEmbeddingTable::ApplyLocalGradients(
    std::span<const EmbKey> keys,
    std::span<const std::span<const float>> grads, bool normalize_entities,
    std::vector<uint8_t>* cached) {
  HETKG_CHECK(keys.size() == grads.size());
  cached->assign(keys.size(), 0);
  entity_batch_.Clear();
  relation_batch_.Clear();
  for (size_t i = 0; i < keys.size(); ++i) {
    const auto it = index_.find(keys[i]);
    if (it == index_.end()) continue;
    (*cached)[i] = 1;
    const uint32_t slot = it->second.slot;
    if (it->second.is_relation) {
      relation_batch_.Add(slot, relation_rows_.Row(slot), grads[i]);
    } else {
      entity_batch_.Add(slot, entity_rows_.Row(slot), grads[i]);
    }
  }
  entity_opt_.ApplyRows(entity_batch_.slots, entity_batch_.rows,
                        entity_batch_.grads, normalize_entities);
  relation_opt_.ApplyRows(relation_batch_.slots, relation_batch_.rows,
                          relation_batch_.grads, /*normalize=*/false);
}

void HotEmbeddingTable::Refresh(EmbKey key, std::span<const float> value) {
  auto row = Row(key);
  HETKG_CHECK(row.size() == value.size());
  std::copy(value.begin(), value.end(), row.begin());
}

void HotEmbeddingTable::SaveState(ByteWriter* w) const {
  w->U64(entity_slots_);
  w->U64(relation_slots_);
  w->U64(entity_rows_.dim());
  w->U64(relation_rows_.dim());
  // Index in sorted key order: the payload must not depend on
  // unordered_map iteration order or resume bit-identity breaks.
  std::vector<std::pair<EmbKey, SlotRef>> entries(index_.begin(),
                                                  index_.end());
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  w->U64(entries.size());
  for (const auto& [key, ref] : entries) {
    w->U64(key);
    w->U8(ref.is_relation ? 1 : 0);
    w->U32(ref.slot);
  }
  auto save_slab = [&](const embedding::EmbeddingTable& rows,
                       const embedding::AdaGrad& opt) {
    for (size_t i = 0; i < rows.num_rows(); ++i) {
      const auto row = rows.Row(i);
      w->Raw(row.data(), row.size() * sizeof(float));
    }
    opt.SaveState(w);
  };
  save_slab(entity_rows_, entity_opt_);
  save_slab(relation_rows_, relation_opt_);
}

bool HotEmbeddingTable::LoadState(ByteReader* r) {
  if (r->U64() != entity_slots_ || r->U64() != relation_slots_ ||
      r->U64() != entity_rows_.dim() || r->U64() != relation_rows_.dim()) {
    return false;
  }
  const uint64_t count = r->U64();
  if (!r->ok() || count > capacity()) return false;
  std::unordered_map<EmbKey, SlotRef> index;
  index.reserve(count * 2);
  for (uint64_t i = 0; i < count; ++i) {
    const EmbKey key = r->U64();
    const bool is_relation = r->U8() != 0;
    const uint32_t slot = r->U32();
    if (!r->ok() ||
        slot >= (is_relation ? relation_slots_ : entity_slots_) ||
        !index.emplace(key, SlotRef{is_relation, slot}).second) {
      return false;
    }
  }
  auto load_slab = [&](embedding::EmbeddingTable* rows,
                       embedding::AdaGrad* opt) {
    std::vector<float> row(rows->dim());
    for (size_t i = 0; i < rows->num_rows(); ++i) {
      if (!r->ReadRaw(row.data(), row.size() * sizeof(float))) return false;
      rows->SetRow(i, row);
    }
    return opt->LoadState(r);
  };
  if (!load_slab(&entity_rows_, &entity_opt_) ||
      !load_slab(&relation_rows_, &relation_opt_)) {
    return false;
  }
  index_ = std::move(index);
  return true;
}

}  // namespace hetkg::core
