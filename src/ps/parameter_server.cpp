#include "ps/parameter_server.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"
#include "obs/trace.h"

namespace hetkg::ps {

Result<std::unique_ptr<ParameterServer>> ParameterServer::Create(
    const PsConfig& config, std::vector<uint32_t> entity_owner,
    sim::ClusterSim* cluster, sim::Transport* transport) {
  if (cluster == nullptr) {
    return Status::InvalidArgument("cluster must not be null");
  }
  if (config.num_entities == 0 || config.num_relations == 0) {
    return Status::InvalidArgument("empty entity or relation table");
  }
  if (config.entity_dim == 0 || config.relation_dim == 0) {
    return Status::InvalidArgument("dimensions must be positive");
  }
  if (entity_owner.size() != config.num_entities) {
    return Status::InvalidArgument("entity_owner size mismatch");
  }
  for (uint32_t owner : entity_owner) {
    if (owner >= cluster->num_machines()) {
      return Status::OutOfRange("entity owner machine " +
                                std::to_string(owner) +
                                " out of range (cluster has " +
                                std::to_string(cluster->num_machines()) +
                                " machines)");
    }
  }
  if (transport != nullptr && transport->cluster() != cluster) {
    return Status::InvalidArgument(
        "transport must account to the same cluster");
  }
  if (config.storage.enabled) {
    // Reclaim slabs a crashed run left behind before mapping new ones
    // (mirrors the checkpoint manager's "*.tmp" orphan sweep).
    const size_t swept =
        embedding::SweepOrphanedColdFiles(config.storage.cold_dir);
    if (swept > 0) {
      HETKG_LOG(Info) << "swept " << swept << " orphaned cold slab(s) from "
                      << config.storage.cold_dir;
    }
  }
  HETKG_ASSIGN_OR_RETURN(
      embedding::EmbeddingTable entity_table,
      embedding::EmbeddingTable::CreateTiered(
          config.num_entities, config.entity_dim, config.storage, "entity"));
  HETKG_ASSIGN_OR_RETURN(embedding::EmbeddingTable relation_table,
                         embedding::EmbeddingTable::CreateTiered(
                             config.num_relations, config.relation_dim,
                             config.storage, "relation"));
  // AdaGrad accumulators scale with the tables, so at tiered scale they
  // move behind mmap too — but always as fp32 (see adagrad.h).
  HETKG_ASSIGN_OR_RETURN(
      embedding::AdaGrad entity_opt,
      embedding::AdaGrad::CreateTiered(config.num_entities, config.entity_dim,
                                       config.learning_rate, config.storage,
                                       "entity.accum"));
  HETKG_ASSIGN_OR_RETURN(
      embedding::AdaGrad relation_opt,
      embedding::AdaGrad::CreateTiered(
          config.num_relations, config.relation_dim, config.learning_rate,
          config.storage, "relation.accum"));
  return std::unique_ptr<ParameterServer>(new ParameterServer(
      config, std::move(entity_owner), cluster, transport,
      std::move(entity_table), std::move(relation_table),
      std::move(entity_opt), std::move(relation_opt)));
}

ParameterServer::ParameterServer(const PsConfig& config,
                                 std::vector<uint32_t> entity_owner,
                                 sim::ClusterSim* cluster,
                                 sim::Transport* transport,
                                 embedding::EmbeddingTable entity_table,
                                 embedding::EmbeddingTable relation_table,
                                 embedding::AdaGrad entity_opt,
                                 embedding::AdaGrad relation_opt)
    : config_(config),
      entity_owner_(std::move(entity_owner)),
      cluster_(cluster),
      owned_transport_(transport == nullptr
                           ? std::make_unique<sim::Transport>(cluster)
                           : nullptr),
      transport_(transport == nullptr ? owned_transport_.get() : transport),
      entity_table_(std::move(entity_table)),
      relation_table_(std::move(relation_table)),
      entity_opt_(std::move(entity_opt)),
      relation_opt_(std::move(relation_opt)),
      push_seq_(cluster->num_machines(), 0),
      applied_push_seq_(cluster->num_machines(), 0) {}

void ParameterServer::InitEmbeddings() {
  Rng rng(config_.init_seed);
  entity_table_.InitXavierUniform(&rng);
  relation_table_.InitXavierUniform(&rng);
  if (config_.normalize_entities) {
    for (size_t e = 0; e < config_.num_entities; ++e) {
      entity_table_.L2NormalizeRow(e);
    }
  }
  // Bulk init touched every cold page; drop them so steady-state RSS
  // reflects the training working set, not the init sweep.
  DropColdResidency();
}

void ParameterServer::DropColdResidency() const {
  entity_table_.DropColdResidency();
  relation_table_.DropColdResidency();
  entity_opt_.DropColdResidency();
  relation_opt_.DropColdResidency();
}

void ParameterServer::AdviseHotKeys(std::span<const EmbKey> keys,
                                    bool admitted) {
  if (!tiered()) return;
  if (admitted) tier_promotions_ += keys.size();
  for (const EmbKey key : keys) {
    if (IsRelationKey(key)) {
      relation_table_.AdviseRowWillNeed(KeyRelation(key));
    } else {
      entity_table_.AdviseRowWillNeed(KeyEntity(key));
    }
  }
}

uint32_t ParameterServer::OwnerOf(EmbKey key) const {
  if (IsRelationKey(key)) {
    // Relations are sharded round-robin across co-located servers.
    return static_cast<uint32_t>(KeyRelation(key) %
                                 cluster_->num_machines());
  }
  return entity_owner_[KeyEntity(key)];
}

std::span<const float> ParameterServer::Value(EmbKey key) const {
  if (IsRelationKey(key)) {
    return relation_table_.DecodedRow(KeyRelation(key));
  }
  return entity_table_.DecodedRow(KeyEntity(key));
}

void ParameterServer::ReadValueInto(EmbKey key, std::span<float> out) const {
  if (IsRelationKey(key)) {
    relation_table_.ReadRowInto(KeyRelation(key), out);
  } else {
    entity_table_.ReadRowInto(KeyEntity(key), out);
  }
}

void ParameterServer::SetValue(EmbKey key, std::span<const float> value) {
  if (IsRelationKey(key)) {
    relation_table_.SetRow(KeyRelation(key), value);
  } else {
    entity_table_.SetRow(KeyEntity(key), value);
  }
}

void ParameterServer::ApplyGradients(embedding::EmbeddingTable* table,
                                     embedding::AdaGrad* opt,
                                     embedding::RowBatch* batch,
                                     bool normalize) {
  if (table->row_addressable()) {
    for (const size_t slot : batch->slots) {
      batch->rows.push_back(table->Row(slot));
    }
    opt->ApplyRows(batch->slots, batch->rows, batch->grads, normalize);
    return;
  }
  // Quantized rows: dequantize, take the fp32 step (the accumulator is
  // fp32 regardless of the cold dtype), requantize. One row at a time,
  // so a key pushed twice in one batch steps from its requantized first
  // update, exactly as two pushes would.
  scratch_apply_row_.resize(table->dim());
  std::span<float> row(scratch_apply_row_);
  for (size_t k = 0; k < batch->slots.size(); ++k) {
    table->ReadRowInto(batch->slots[k], row);
    opt->ApplyRows({&batch->slots[k], 1}, {&row, 1}, {&batch->grads[k], 1},
                   normalize);
    table->SetRow(batch->slots[k], row);
  }
}

PullResult ParameterServer::PullBatch(uint32_t worker_machine,
                                      std::span<const EmbKey> keys,
                                      std::span<std::span<float>> out) {
  HETKG_CHECK(keys.size() == out.size());
  obs::TraceSpan span("ps.pull_batch", "ps");
  span.Arg("rows", static_cast<double>(keys.size()));
  PullResult result;
  const size_t num_machines = cluster_->num_machines();
  scratch_owner_rows_.assign(num_machines, 0);
  scratch_payload_.assign(num_machines, 0);
  scratch_key_owner_.resize(keys.size());

  for (size_t i = 0; i < keys.size(); ++i) {
    const EmbKey key = keys[i];
    HETKG_CHECK(out[i].size() == RowDim(key))
        << "pull destination width mismatch for key " << key;
    const uint32_t owner = OwnerOf(key);
    scratch_key_owner_[i] = owner;
    ++scratch_owner_rows_[owner];
    scratch_payload_[owner] += RowBytes(key);
  }

  if (obs::Tracer::Enabled()) {
    uint64_t payload = 0;
    for (uint64_t b : scratch_payload_) payload += b;
    span.Arg("bytes", static_cast<double>(payload));
  }

  // One request/response exchange per remote shard; the request carries
  // the shard's key list, the response its rows.
  scratch_shard_ok_.assign(num_machines, 1);
  for (uint32_t owner = 0; owner < num_machines; ++owner) {
    if (scratch_owner_rows_[owner] == 0) continue;
    if (owner == worker_machine) {
      cluster_->RecordLocalCopy(worker_machine, scratch_payload_[owner]);
      metrics_.Increment(metric::kLocalPullRows, scratch_owner_rows_[owner]);
    } else {
      const sim::Delivery delivery = transport_->Exchange(
          worker_machine, owner,
          scratch_owner_rows_[owner] * sizeof(EmbKey),
          scratch_payload_[owner]);
      if (!delivery.delivered) {
        scratch_shard_ok_[owner] = 0;
        continue;
      }
      metrics_.Increment(metric::kRemotePullRows, scratch_owner_rows_[owner]);
      metrics_.Increment(metric::kRemoteMessages, 2);
      metrics_.Increment(metric::kRemoteBytes, scratch_payload_[owner]);
    }
  }

  for (size_t i = 0; i < keys.size(); ++i) {
    if (!scratch_shard_ok_[scratch_key_owner_[i]]) {
      result.failed.push_back(static_cast<uint32_t>(i));
      continue;
    }
    ReadValueInto(keys[i], out[i]);
  }
  return result;
}

PushResult ParameterServer::PushGradBatch(
    uint32_t worker_machine, std::span<const EmbKey> keys,
    std::span<const std::span<const float>> grads) {
  HETKG_CHECK(keys.size() == grads.size());
  obs::TraceSpan span("ps.push_batch", "ps");
  span.Arg("rows", static_cast<double>(keys.size()));
  PushResult result;
  const size_t num_machines = cluster_->num_machines();
  scratch_owner_rows_.assign(num_machines, 0);
  scratch_payload_.assign(num_machines, 0);
  scratch_key_owner_.resize(keys.size());

  for (size_t i = 0; i < keys.size(); ++i) {
    const EmbKey key = keys[i];
    HETKG_CHECK(grads[i].size() == RowDim(key))
        << "gradient width mismatch for key " << key;
    const uint32_t owner = OwnerOf(key);
    scratch_key_owner_[i] = owner;
    ++scratch_owner_rows_[owner];
    scratch_payload_[owner] += RowBytes(key) + sizeof(EmbKey);
  }

  if (obs::Tracer::Enabled()) {
    uint64_t payload = 0;
    for (uint64_t b : scratch_payload_) payload += b;
    span.Arg("bytes", static_cast<double>(payload));
  }

  // One message per remote shard, stamped with this worker's next
  // sequence number. The server applies a sequence at most once, so a
  // duplicated delivery cannot double-apply AdaGrad; a message that
  // exhausts its retries loses the shard's gradients.
  scratch_shard_ok_.assign(num_machines, 1);
  for (uint32_t owner = 0; owner < num_machines; ++owner) {
    if (scratch_owner_rows_[owner] == 0) continue;
    if (owner == worker_machine) {
      cluster_->RecordLocalCopy(worker_machine, scratch_payload_[owner]);
      metrics_.Increment(metric::kLocalPushRows, scratch_owner_rows_[owner]);
      continue;
    }
    const uint64_t seq = ++push_seq_[worker_machine];
    const sim::Delivery delivery =
        transport_->Send(worker_machine, owner, scratch_payload_[owner]);
    if (!delivery.delivered) {
      scratch_shard_ok_[owner] = 0;
      result.lost_rows += scratch_owner_rows_[owner];
      metrics_.Increment(metric::kTransportLostPushRows,
                         scratch_owner_rows_[owner]);
      continue;
    }
    // The push handler runs once per arrival; the sequence guard makes
    // the second arrival of a duplicated message a no-op.
    const uint32_t arrivals = delivery.duplicated ? 2 : 1;
    for (uint32_t arrival = 0; arrival < arrivals; ++arrival) {
      if (seq <= applied_push_seq_[worker_machine]) {
        ++result.duplicates_ignored;
        metrics_.Increment(metric::kTransportDuplicatesIgnored);
        continue;
      }
      applied_push_seq_[worker_machine] = seq;
      metrics_.Increment(metric::kRemotePushRows, scratch_owner_rows_[owner]);
      metrics_.Increment(metric::kRemoteMessages, 1);
      metrics_.Increment(metric::kRemoteBytes, scratch_payload_[owner]);
    }
  }

  // Apply the delivered rows: one batched optimizer call per table.
  // The tables are disjoint, so grouping keeps every row's update
  // sequence, and within a group rows apply in key order.
  entity_batch_.Clear();
  relation_batch_.Clear();
  for (size_t i = 0; i < keys.size(); ++i) {
    if (!scratch_shard_ok_[scratch_key_owner_[i]]) continue;
    if (IsRelationKey(keys[i])) {
      relation_batch_.slots.push_back(KeyRelation(keys[i]));
      relation_batch_.grads.push_back(grads[i]);
    } else {
      entity_batch_.slots.push_back(KeyEntity(keys[i]));
      entity_batch_.grads.push_back(grads[i]);
    }
  }
  ApplyGradients(&entity_table_, &entity_opt_, &entity_batch_,
                 config_.normalize_entities);
  ApplyGradients(&relation_table_, &relation_opt_, &relation_batch_,
                 /*normalize=*/false);
  return result;
}

void ParameterServer::SaveState(embedding::CheckpointWriter* w) const {
  const bool quantized =
      tiered() && config_.storage.dtype != embedding::ColdDtype::kFp32;
  if (!quantized) {
    // fp32 rows — in-RAM or behind mmap — serialize identically, so a
    // tiered-fp32 snapshot is byte-for-byte the in-RAM snapshot.
    AppendTableSection(w, embedding::SectionTag::kEntityTable, entity_table_);
    AppendTableSection(w, embedding::SectionTag::kRelationTable,
                       relation_table_);
    ByteWriter opt;
    entity_opt_.SaveState(&opt);
    relation_opt_.SaveState(&opt);
    w->AddSection(embedding::SectionTag::kPsOptimizer, std::move(opt));
  } else {
    // Quantized tables snapshot their encoded slabs as cold sidecars —
    // streamed from the mapping, never materialized in RAM — with the
    // fp32 accumulators alongside as fp32 sidecars.
    w->AddColdTable(embedding::SectionTag::kEntityTable, entity_table_);
    w->AddColdTable(embedding::SectionTag::kRelationTable, relation_table_);
    w->AddColdFloats(embedding::SectionTag::kEntityOptState,
                     entity_opt_.AccumulatorData(), config_.num_entities,
                     config_.entity_dim);
    w->AddColdFloats(embedding::SectionTag::kRelationOptState,
                     relation_opt_.AccumulatorData(), config_.num_relations,
                     config_.relation_dim);
  }
  ByteWriter runtime;
  runtime.U64Vec(push_seq_);
  runtime.U64Vec(applied_push_seq_);
  metrics_.SaveState(&runtime);
  w->AddSection(embedding::SectionTag::kPsRuntime, std::move(runtime));
}

Status ParameterServer::LoadState(const embedding::CheckpointReader& reader) {
  // Validate everything first, then commit. Table payloads are checked
  // structurally (shape + container/sidecar CRC, verified at Open)
  // before any live state is touched; the in-place table restore below
  // can then only fail on a filesystem-level IO error.
  const bool in_band_tables =
      reader.Find(embedding::SectionTag::kEntityTable) != nullptr;
  std::vector<float> entity_accum;
  std::vector<float> relation_accum;
  if (const std::string* opt =
          reader.Find(embedding::SectionTag::kPsOptimizer);
      opt != nullptr) {
    ByteReader opt_reader(*opt);
    entity_accum = opt_reader.FloatVec();
    relation_accum = opt_reader.FloatVec();
    if (!opt_reader.ok() || opt_reader.remaining() != 0) {
      return Status::Corruption("bad PS optimizer section");
    }
  } else {
    // Quantized snapshot: the accumulators live in fp32 sidecars.
    HETKG_ASSIGN_OR_RETURN(
        entity_accum,
        ReadColdFloats(reader, embedding::SectionTag::kEntityOptState));
    HETKG_ASSIGN_OR_RETURN(
        relation_accum,
        ReadColdFloats(reader, embedding::SectionTag::kRelationOptState));
  }
  if (entity_accum.size() != config_.num_entities * config_.entity_dim ||
      relation_accum.size() !=
          config_.num_relations * config_.relation_dim) {
    return Status::Corruption("bad PS optimizer section");
  }
  const std::string* runtime =
      reader.Find(embedding::SectionTag::kPsRuntime);
  if (runtime == nullptr) {
    return Status::Corruption("snapshot missing PS runtime section");
  }
  ByteReader rt_reader(*runtime);
  std::vector<uint64_t> push_seq = rt_reader.U64Vec();
  std::vector<uint64_t> applied = rt_reader.U64Vec();
  MetricRegistry metrics;
  if (!rt_reader.ok() || push_seq.size() != push_seq_.size() ||
      applied.size() != applied_push_seq_.size() ||
      !metrics.LoadState(&rt_reader) || rt_reader.remaining() != 0) {
    return Status::Corruption("bad PS runtime section");
  }
  if (!tiered() && in_band_tables) {
    // In-RAM path: materialize and swap (identical to historical
    // behavior, including on validation failure).
    HETKG_ASSIGN_OR_RETURN(
        embedding::EmbeddingTable entities,
        ReadTableSection(reader, embedding::SectionTag::kEntityTable));
    HETKG_ASSIGN_OR_RETURN(
        embedding::EmbeddingTable relations,
        ReadTableSection(reader, embedding::SectionTag::kRelationTable));
    if (entities.num_rows() != config_.num_entities ||
        entities.dim() != config_.entity_dim ||
        relations.num_rows() != config_.num_relations ||
        relations.dim() != config_.relation_dim) {
      return Status::Corruption("snapshot table shape mismatch");
    }
    entity_table_ = std::move(entities);
    relation_table_ = std::move(relations);
  } else {
    // Tiered path (or cross-format restore): stream into the existing
    // slabs without materializing a second full copy. A matching-dtype
    // sidecar raw-copies (bit-exact quantized resume); anything else
    // decodes + re-encodes row by row.
    HETKG_RETURN_IF_ERROR(LoadTableSectionInto(
        reader, embedding::SectionTag::kEntityTable, &entity_table_));
    HETKG_RETURN_IF_ERROR(LoadTableSectionInto(
        reader, embedding::SectionTag::kRelationTable, &relation_table_));
  }
  entity_opt_.SetAccumulatorData(entity_accum);
  relation_opt_.SetAccumulatorData(relation_accum);
  push_seq_ = std::move(push_seq);
  applied_push_seq_ = std::move(applied);
  metrics_ = std::move(metrics);
  return Status::OK();
}

Status ParameterServer::RestartShard(
    uint32_t machine, const embedding::CheckpointReader* snapshot) {
  if (machine >= cluster_->num_machines()) {
    return Status::OutOfRange("shard machine out of range");
  }
  // Build the shard's reference state: the latest snapshot when one
  // exists, else a deterministic re-initialization from the seed (what
  // a freshly booted shard would compute) with cold accumulators.
  embedding::EmbeddingTable entities(config_.num_entities,
                                     config_.entity_dim);
  embedding::EmbeddingTable relations(config_.num_relations,
                                      config_.relation_dim);
  embedding::AdaGrad entity_opt(config_.num_entities, config_.entity_dim,
                                config_.learning_rate);
  embedding::AdaGrad relation_opt(config_.num_relations,
                                  config_.relation_dim,
                                  config_.learning_rate);
  if (snapshot != nullptr) {
    HETKG_ASSIGN_OR_RETURN(
        entities, ReadTableSection(*snapshot,
                                   embedding::SectionTag::kEntityTable));
    HETKG_ASSIGN_OR_RETURN(
        relations, ReadTableSection(*snapshot,
                                    embedding::SectionTag::kRelationTable));
    if (entities.num_rows() != config_.num_entities ||
        entities.dim() != config_.entity_dim ||
        relations.num_rows() != config_.num_relations ||
        relations.dim() != config_.relation_dim) {
      return Status::Corruption("snapshot table shape mismatch");
    }
    const std::string* opt =
        snapshot->Find(embedding::SectionTag::kPsOptimizer);
    if (opt != nullptr) {
      ByteReader opt_reader(*opt);
      if (!entity_opt.LoadState(&opt_reader) ||
          !relation_opt.LoadState(&opt_reader)) {
        return Status::Corruption("bad PS optimizer section");
      }
    } else {
      // Quantized snapshot: accumulators live in fp32 sidecars.
      HETKG_ASSIGN_OR_RETURN(
          const std::vector<float> entity_accum,
          ReadColdFloats(*snapshot, embedding::SectionTag::kEntityOptState));
      HETKG_ASSIGN_OR_RETURN(
          const std::vector<float> relation_accum,
          ReadColdFloats(*snapshot,
                         embedding::SectionTag::kRelationOptState));
      if (entity_accum.size() != config_.num_entities * config_.entity_dim ||
          relation_accum.size() !=
              config_.num_relations * config_.relation_dim) {
        return Status::Corruption("bad PS optimizer section");
      }
      entity_opt.SetAccumulatorData(entity_accum);
      relation_opt.SetAccumulatorData(relation_accum);
    }
  } else {
    Rng rng(config_.init_seed);
    entities.InitXavierUniform(&rng);
    relations.InitXavierUniform(&rng);
    if (config_.normalize_entities) {
      for (size_t e = 0; e < config_.num_entities; ++e) {
        entities.L2NormalizeRow(e);
      }
    }
  }
  // Overwrite only the rows this machine owns; the surviving shards
  // keep their live state.
  for (size_t e = 0; e < config_.num_entities; ++e) {
    if (entity_owner_[e] != machine) continue;
    entity_table_.SetRow(e, entities.Row(e));
    entity_opt_.SetAccumulatorRow(e, entity_opt.AccumulatorRow(e));
  }
  for (size_t r = 0; r < config_.num_relations; ++r) {
    if (r % cluster_->num_machines() != machine) continue;
    relation_table_.SetRow(r, relations.Row(r));
    relation_opt_.SetAccumulatorRow(r, relation_opt.AccumulatorRow(r));
  }
  metrics_.Increment(metric::kRecoveryPsShardRestarts);
  return Status::OK();
}

}  // namespace hetkg::ps
