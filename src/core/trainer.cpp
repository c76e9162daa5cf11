#include "core/trainer.h"

#include "core/pbg_engine.h"
#include "core/ps_engine.h"
#include "embedding/kernels.h"

namespace hetkg::core {

Status SaveEngineCheckpoint(const TrainingEngine& engine,
                            const std::string& path) {
  const eval::EmbeddingLookup& lookup = engine.Embeddings();
  const size_t entity_dim = lookup.Entity(0).size();
  const size_t relation_dim = lookup.Relation(0).size();
  embedding::EmbeddingTable entities(lookup.num_entities(), entity_dim);
  embedding::EmbeddingTable relations(lookup.num_relations(), relation_dim);
  for (size_t e = 0; e < lookup.num_entities(); ++e) {
    entities.SetRow(e, lookup.Entity(static_cast<EntityId>(e)));
  }
  for (size_t r = 0; r < lookup.num_relations(); ++r) {
    relations.SetRow(r, lookup.Relation(static_cast<RelationId>(r)));
  }
  return embedding::SaveCheckpoint(path, entities, relations);
}

Status ValidateConfig(SystemKind system, const TrainerConfig& config) {
  if (config.num_machines == 0) {
    return Status::InvalidArgument("need at least one machine");
  }
  if (config.batch_size == 0) {
    return Status::InvalidArgument("batch_size must be positive");
  }
  HETKG_RETURN_IF_ERROR(
      embedding::kernels::ParseKernelMode(config.kernel).status());
  for (const sim::ProcessFault& fault : config.fault.process_faults) {
    if (fault.machine >= config.num_machines) {
      return Status::InvalidArgument(
          "process fault machine out of range: machine " +
          std::to_string(fault.machine) + " of " +
          std::to_string(config.num_machines));
    }
  }
  if (system == SystemKind::kPbg) {
    if (config.pbg_partitions < config.num_machines) {
      return Status::InvalidArgument(
          "PBG needs at least as many partitions as machines");
    }
    if (config.storage.enabled) {
      return Status::InvalidArgument(
          "tiered storage requires a parameter-server engine; PBG "
          "partitions swap whole buckets and gain nothing from "
          "row-granular tiering");
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<TrainingEngine>> MakeEngine(
    SystemKind system, const TrainerConfig& config,
    const graph::KnowledgeGraph& graph, const std::vector<Triple>& train) {
  HETKG_RETURN_IF_ERROR(ValidateConfig(system, config));
  // Kernel dispatch for the score/optimizer hot loops. Every path is
  // bit-identical (DESIGN.md §10), so this only affects speed.
  embedding::kernels::SetKernelMode(
      embedding::kernels::ParseKernelMode(config.kernel).value());
  embedding::kernels::LogDispatchOnce();
  TrainerConfig effective = config;
  switch (system) {
    case SystemKind::kHetKgCps:
      effective.sync.strategy = CacheStrategy::kCps;
      break;
    case SystemKind::kHetKgDps:
      effective.sync.strategy = CacheStrategy::kDps;
      break;
    case SystemKind::kDglKe:
      effective.sync.strategy = CacheStrategy::kNone;
      break;
    case SystemKind::kPbg: {
      HETKG_ASSIGN_OR_RETURN(std::unique_ptr<PbgEngine> engine,
                             PbgEngine::Create(effective, graph, train));
      return std::unique_ptr<TrainingEngine>(std::move(engine));
    }
  }
  HETKG_ASSIGN_OR_RETURN(std::unique_ptr<PsTrainingEngine> engine,
                         PsTrainingEngine::Create(effective, graph, train));
  return std::unique_ptr<TrainingEngine>(std::move(engine));
}

}  // namespace hetkg::core
