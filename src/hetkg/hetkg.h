#ifndef HETKG_HETKG_H_
#define HETKG_HETKG_H_

/// Umbrella header for the HET-KG library: distributed knowledge-graph
/// embedding training with a hotness-aware worker cache, reproduced from
/// "HET-KG: Communication-Efficient Knowledge Graph Embedding Training
/// via Hotness-Aware Cache" (ICDE 2022).
///
/// Typical usage:
///
///   #include "hetkg/hetkg.h"
///   using namespace hetkg;
///
///   auto dataset = graph::GenerateDataset(graph::Fb15kSpec()).value();
///   core::TrainerConfig config;
///   config.model = embedding::ModelKind::kTransEL1;
///   auto engine = core::MakeEngine(core::SystemKind::kHetKgDps, config,
///                                  dataset.graph, dataset.split.train)
///                     .value();
///   auto report = engine->Train(/*num_epochs=*/10).value();
///   auto metrics = eval::EvaluateLinkPrediction(
///       engine->Embeddings(), engine->ScoreFn(), dataset.graph,
///       dataset.split.test, {}).value();

#include "common/flags.h"
#include "common/histogram.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/baseline_caches.h"
#include "core/hot_embedding_table.h"
#include "core/hot_filter.h"
#include "core/parallel_batch.h"
#include "core/pbg_engine.h"
#include "core/prefetcher.h"
#include "core/report_io.h"
#include "core/ps_engine.h"
#include "core/sync_controller.h"
#include "core/trainer.h"
#include "core/trainer_flags.h"
#include "embedding/adagrad.h"
#include "embedding/checkpoint.h"
#include "embedding/embedding_table.h"
#include "embedding/kernels.h"
#include "embedding/loss.h"
#include "embedding/negative_sampler.h"
#include "embedding/score_function.h"
#include "embedding/tiered_store.h"
#include "eval/link_prediction.h"
#include "graph/knowledge_graph.h"
#include "graph/loader.h"
#include "graph/serialize.h"
#include "graph/stats.h"
#include "graph/synthetic.h"
#include "net/channel.h"
#include "net/local_channel.h"
#include "net/proc_runtime.h"
#include "net/rpc.h"
#include "net/shm_ring.h"
#include "net/tcp_channel.h"
#include "partition/bucketizer.h"
#include "partition/metis_partitioner.h"
#include "partition/partitioner.h"
#include "ps/parameter_server.h"
#include "sim/cluster.h"

#endif  // HETKG_HETKG_H_
