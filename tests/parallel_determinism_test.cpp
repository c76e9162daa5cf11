// Determinism of the intra-batch parallel path: training and evaluation
// decompose their hot loops into chunks whose count depends only on the
// work size, and merge per-chunk partials in fixed order, so results
// must be BIT-identical at any --threads value.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/parallel_batch.h"
#include "core/trainer.h"
#include "graph/synthetic.h"

namespace hetkg {
namespace {

using core::SystemKind;
using core::TrainerConfig;

TEST(ParallelBatchTest, ChunkCountDependsOnlyOnPairCount) {
  EXPECT_EQ(core::BatchChunkCount(0), 0u);
  EXPECT_EQ(core::BatchChunkCount(1), 1u);
  EXPECT_EQ(core::BatchChunkCount(32), 1u);
  EXPECT_EQ(core::BatchChunkCount(33), 2u);
  EXPECT_EQ(core::BatchChunkCount(256), 8u);
  // Capped: paper-scale batches (512 x 128 pairs) stay bounded.
  EXPECT_EQ(core::BatchChunkCount(512 * 128), 64u);
}

TEST(ParallelBatchTest, ScorerBitIdenticalWithAndWithoutPool) {
  const size_t dim = 16;
  auto score_fn =
      embedding::MakeScoreFunction(embedding::ModelKind::kTransEL1, dim)
          .value();
  auto loss_fn = embedding::MakeLossFunction("margin", 1.0, 4).value();

  // Synthetic resolved batch: 24 keys (16 entities + 8 relations, all
  // the same width for simplicity of this test), 40 positives x 4
  // negatives.
  const size_t num_keys = 24;
  const size_t rel_base = 16;
  Rng rng(99);
  std::vector<float> table(num_keys * dim);
  for (float& v : table) {
    v = static_cast<float>(rng.NextUniform(-0.5, 0.5));
  }
  std::vector<std::span<float>> rows;
  std::vector<size_t> offsets = {0};
  for (size_t k = 0; k < num_keys; ++k) {
    rows.emplace_back(table.data() + k * dim, dim);
    offsets.push_back(offsets.back() + dim);
  }

  std::vector<core::ResolvedTriple> positives;
  std::vector<core::ResolvedPair> pairs;
  for (size_t p = 0; p < 40; ++p) {
    core::ResolvedTriple pos;
    pos.head = static_cast<uint32_t>(rng.NextBounded(rel_base));
    pos.relation = static_cast<uint32_t>(
        rel_base + rng.NextBounded(num_keys - rel_base));
    pos.tail = static_cast<uint32_t>(rng.NextBounded(rel_base));
    positives.push_back(pos);
    for (size_t n = 0; n < 4; ++n) {
      core::ResolvedPair pair;
      pair.positive_index = static_cast<uint32_t>(p);
      pair.negative = pos;
      (n % 2 == 0 ? pair.negative.head : pair.negative.tail) =
          static_cast<uint32_t>(rng.NextBounded(rel_base));
      pairs.push_back(pair);
    }
  }

  auto run = [&](ThreadPool* pool) {
    core::ParallelBatchScorer scorer;
    std::vector<float> grads(offsets.back(), 0.0f);
    std::vector<double> pos_scores;
    const core::BatchStats stats =
        scorer.Run(*score_fn, *loss_fn, positives, pairs, rows, offsets,
                   grads, &pos_scores, pool);
    return std::make_tuple(stats, grads, pos_scores);
  };

  const auto [serial_stats, serial_grads, serial_scores] = run(nullptr);
  EXPECT_EQ(serial_stats.pairs, pairs.size());
  EXPECT_GT(serial_stats.backward_calls, 0u);

  for (size_t threads : {2, 4, 8}) {
    ThreadPool pool(threads);
    const auto [stats, grads, scores] = run(&pool);
    EXPECT_EQ(stats.loss_sum, serial_stats.loss_sum) << threads;
    EXPECT_EQ(stats.pairs, serial_stats.pairs);
    EXPECT_EQ(stats.backward_calls, serial_stats.backward_calls);
    ASSERT_EQ(grads.size(), serial_grads.size());
    for (size_t j = 0; j < grads.size(); ++j) {
      ASSERT_EQ(grads[j], serial_grads[j])
          << "grad float " << j << " diverged at " << threads << " threads";
    }
    ASSERT_EQ(scores, serial_scores);
  }
}

graph::SyntheticDataset TinyDataset() {
  graph::SyntheticSpec spec;
  spec.name = "det";
  spec.num_entities = 300;
  spec.num_relations = 10;
  spec.num_triples = 3000;
  spec.seed = 21;
  return graph::GenerateDataset(spec).value();
}

struct RunResult {
  std::vector<float> embeddings;
  std::vector<double> losses;
  std::vector<std::pair<std::string, uint64_t>> metrics;
  std::vector<double> valid_mrrs;
};

RunResult TrainOnce(SystemKind system, const graph::SyntheticDataset& dataset,
                    size_t num_threads,
                    const sim::FaultConfig& fault = {},
                    size_t num_epochs = 2, bool async = false) {
  TrainerConfig config;
  config.dim = 16;
  config.batch_size = 32;
  config.negatives_per_positive = 8;
  config.num_machines = 2;
  config.cache_capacity = 64;
  config.sync.staleness_bound = 4;
  config.sync.dps_window = 8;
  config.pbg_partitions = 4;
  config.seed = 5;
  config.num_threads = num_threads;
  config.fault = fault;
  config.sync.async_pipeline = async;
  config.sync.pipeline_staleness = 2;
  auto engine =
      core::MakeEngine(system, config, dataset.graph, dataset.split.train)
          .value();
  eval::EvalOptions valid_options;
  valid_options.max_triples = 40;
  valid_options.num_candidates = 100;
  engine->EnableValidation(&dataset.graph, dataset.split.valid,
                           valid_options);
  auto report = engine->Train(num_epochs).value();

  RunResult result;
  const eval::EmbeddingLookup& lookup = engine->Embeddings();
  for (size_t e = 0; e < lookup.num_entities(); ++e) {
    const auto row = lookup.Entity(static_cast<EntityId>(e));
    result.embeddings.insert(result.embeddings.end(), row.begin(), row.end());
  }
  for (size_t r = 0; r < lookup.num_relations(); ++r) {
    const auto row = lookup.Relation(static_cast<RelationId>(r));
    result.embeddings.insert(result.embeddings.end(), row.begin(), row.end());
  }
  for (const auto& epoch : report.epochs) {
    result.losses.push_back(epoch.mean_loss);
    if (epoch.has_valid_metrics) {
      result.valid_mrrs.push_back(epoch.valid_metrics.mrr);
    }
  }
  result.metrics = report.metrics.Snapshot();
  return result;
}

class ParallelDeterminismTest : public ::testing::TestWithParam<SystemKind> {};

TEST_P(ParallelDeterminismTest, BitIdenticalAcrossThreadCounts) {
  const auto dataset = TinyDataset();
  const RunResult serial = TrainOnce(GetParam(), dataset, 1);
  ASSERT_FALSE(serial.embeddings.empty());
  ASSERT_FALSE(serial.valid_mrrs.empty());

  for (size_t threads : {2, 4, 8}) {
    const RunResult parallel = TrainOnce(GetParam(), dataset, threads);
    // Exact double equality on the loss/validation traces: any
    // scheduling-dependent accumulation order would break this.
    EXPECT_EQ(parallel.losses, serial.losses) << threads << " threads";
    EXPECT_EQ(parallel.valid_mrrs, serial.valid_mrrs);
    EXPECT_EQ(parallel.metrics, serial.metrics);
    ASSERT_EQ(parallel.embeddings.size(), serial.embeddings.size());
    for (size_t j = 0; j < serial.embeddings.size(); ++j) {
      ASSERT_EQ(parallel.embeddings[j], serial.embeddings[j])
          << "embedding float " << j << " diverged at " << threads
          << " threads";
    }
  }

  // The lag-N schedule (--async) is one more input: a pure function of
  // seed and config, so just as thread-count independent.
  if (GetParam() == SystemKind::kPbg) return;
  const RunResult async_serial = TrainOnce(GetParam(), dataset, 1, {}, 2, true);
  const RunResult async_parallel =
      TrainOnce(GetParam(), dataset, 4, {}, 2, true);
  EXPECT_NE(async_serial.embeddings, serial.embeddings);
  EXPECT_EQ(async_parallel.losses, async_serial.losses);
  EXPECT_EQ(async_parallel.valid_mrrs, async_serial.valid_mrrs);
  EXPECT_EQ(async_parallel.metrics, async_serial.metrics);
  EXPECT_EQ(async_parallel.embeddings, async_serial.embeddings);
}

// ---------------------------------------------------------------------
// Checkpoint files must be byte-identical at any --threads value, with
// or without --async: the stages run in a fixed lag-N order on one
// thread, so every snapshot captures exactly the same training state
// regardless of how the intra-batch work was scheduled.
// ---------------------------------------------------------------------

std::map<std::string, std::string> CheckpointDirBytes(
    const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    files[entry.path().filename().string()] =
        std::string(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  return files;
}

TEST(ParallelDeterminismCheckpointTest, FilesBitIdenticalAcrossThreads) {
  const auto dataset = TinyDataset();

  const auto run = [&dataset](size_t threads, bool async) {
    const std::string dir = ::testing::TempDir() + "/det-ck-" +
                            std::to_string(threads) +
                            (async ? "-async-" : "-") +
                            std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    TrainerConfig config;
    config.dim = 16;
    config.batch_size = 32;
    config.negatives_per_positive = 8;
    config.num_machines = 2;
    config.cache_capacity = 64;
    config.sync.staleness_bound = 4;
    config.sync.dps_window = 8;
    config.seed = 5;
    config.num_threads = threads;
    config.sync.async_pipeline = async;
    config.sync.pipeline_staleness = 2;
    config.checkpoint_dir = dir;
    config.checkpoint_every = 25;
    config.keep_checkpoints = 2;
    auto engine = core::MakeEngine(SystemKind::kHetKgDps, config,
                                   dataset.graph, dataset.split.train)
                      .value();
    EXPECT_TRUE(engine->Train(2).ok());
    return CheckpointDirBytes(dir);
  };

  const auto expect_same = [](const std::map<std::string, std::string>& a,
                               const std::map<std::string, std::string>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (const auto& [name, bytes] : a) {
      const auto it = b.find(name);
      ASSERT_NE(it, b.end()) << name;
      EXPECT_EQ(it->second, bytes)
          << "checkpoint file " << name << " diverged";
    }
  };
  const auto serial = run(1, false);
  ASSERT_FALSE(serial.empty());
  for (size_t threads : {2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_same(serial, run(threads, false));
  }
  SCOPED_TRACE("async, threads=4");
  const auto async_serial = run(1, true);
  EXPECT_NE(async_serial, serial);
  expect_same(async_serial, run(4, true));
}

// ---------------------------------------------------------------------
// Fault-tolerant training: a lossy worker <-> PS network must not break
// either guarantee — training still converges (the degradation paths
// serve stale-but-bounded values instead of stopping), and the run
// stays bit-identical across thread counts (fault decisions live on the
// transport's logical clock, never on scheduling order).
// ---------------------------------------------------------------------

sim::FaultConfig LossyNetwork() {
  sim::FaultConfig fault;
  fault.enabled = true;
  fault.seed = 97;
  fault.drop_prob = 0.02;
  fault.duplicate_prob = 0.01;
  fault.delay_prob = 0.02;
  return fault;
}

class FaultTolerantTrainingTest
    : public ::testing::TestWithParam<SystemKind> {};

TEST_P(FaultTolerantTrainingTest, ConvergesAndStaysDeterministic) {
  const auto dataset = TinyDataset();
  const sim::FaultConfig fault = LossyNetwork();
  const size_t kEpochs = 4;
  const RunResult serial = TrainOnce(GetParam(), dataset, 1, fault, kEpochs);

  // Convergence under faults: the loss still goes down over training.
  ASSERT_EQ(serial.losses.size(), kEpochs);
  EXPECT_LT(serial.losses.back(), serial.losses.front());

  // The lossy network actually interfered (this is not a vacuous run).
  uint64_t dropped = 0;
  for (const auto& [name, value] : serial.metrics) {
    if (name == metric::kTransportDroppedMessages) dropped = value;
  }
  EXPECT_GT(dropped, 0u);

  // Bit-identical across thread counts, faults and all.
  for (size_t threads : {2, 4, 8}) {
    const RunResult parallel =
        TrainOnce(GetParam(), dataset, threads, fault, kEpochs);
    EXPECT_EQ(parallel.losses, serial.losses) << threads << " threads";
    EXPECT_EQ(parallel.valid_mrrs, serial.valid_mrrs);
    EXPECT_EQ(parallel.metrics, serial.metrics);
    ASSERT_EQ(parallel.embeddings.size(), serial.embeddings.size());
    for (size_t j = 0; j < serial.embeddings.size(); ++j) {
      ASSERT_EQ(parallel.embeddings[j], serial.embeddings[j])
          << "embedding float " << j << " diverged at " << threads
          << " threads under faults";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CacheEngines, FaultTolerantTrainingTest,
                         ::testing::Values(SystemKind::kHetKgCps,
                                           SystemKind::kHetKgDps),
                         [](const ::testing::TestParamInfo<SystemKind>& info) {
                           std::string name(core::SystemKindName(info.param));
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

INSTANTIATE_TEST_SUITE_P(Engines, ParallelDeterminismTest,
                         ::testing::Values(SystemKind::kHetKgDps,
                                           SystemKind::kDglKe,
                                           SystemKind::kPbg),
                         [](const ::testing::TestParamInfo<SystemKind>& info) {
                           std::string name(core::SystemKindName(info.param));
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace hetkg
