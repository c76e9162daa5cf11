// Two-tier embedding storage tests (DESIGN.md §16): cold-row codec
// error bounds and scalar/vector bit identity, the mmap slab
// lifecycle, orphan sweeps (live slabs and checkpoint sidecars),
// fp32-tiered byte identity with the in-RAM baseline across thread
// counts, quantized thread determinism, and checkpoint resume of a
// quantized tiered run.

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/checkpoint_manager.h"
#include "core/trainer.h"
#include "embedding/adagrad.h"
#include "embedding/embedding_table.h"
#include "embedding/kernels.h"
#include "embedding/tiered_store.h"
#include "graph/synthetic.h"
#include "ps/parameter_server.h"
#include "sim/cluster.h"

namespace hetkg {
namespace {

namespace fs = std::filesystem;
namespace kernels = embedding::kernels;
using embedding::ColdDtype;
using embedding::EmbeddingTable;
using embedding::TieredOptions;

// Pid-qualified so concurrent ctest entries running this same binary
// never share a directory.
std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name + "-" +
                          std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TieredOptions Tiered(const std::string& dir, ColdDtype dtype) {
  TieredOptions opts;
  opts.enabled = true;
  opts.cold_dir = dir;
  opts.dtype = dtype;
  return opts;
}

/// Restores the process-wide kernel mode on scope exit.
class ScopedKernelMode {
 public:
  explicit ScopedKernelMode(kernels::KernelMode mode)
      : saved_(kernels::ActiveMode()) {
    kernels::SetKernelMode(mode);
  }
  ~ScopedKernelMode() { kernels::SetKernelMode(saved_); }

 private:
  kernels::KernelMode saved_;
};

std::vector<float> RandomRow(size_t dim, uint64_t seed, float spread) {
  Rng rng(seed);
  std::vector<float> row(dim);
  for (float& v : row) {
    v = static_cast<float>(rng.NextUniform(-spread, spread));
  }
  return row;
}

// ---- Codec error bounds ----------------------------------------------

TEST(TieredCodecTest, Fp16RoundTripWithinHalfUlp) {
  // binary16 has 11 significand bits: RNE round-trip error is at most
  // 2^-11 relative for normal values.
  const std::vector<float> row = RandomRow(512, 7, 4.0f);
  std::vector<uint16_t> enc(row.size());
  std::vector<float> dec(row.size());
  kernels::EncodeRowFp16(row, enc.data());
  kernels::DecodeRowFp16(enc.data(), dec);
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_LE(std::fabs(dec[i] - row[i]),
              std::fabs(row[i]) * (1.0f / 2048.0f) + 1e-7f)
        << "element " << i;
  }
}

TEST(TieredCodecTest, Fp16ExactValuesSurvive) {
  // Powers of two, zero, and small integers are exactly representable.
  for (float v : {0.0f, 1.0f, -1.0f, 0.5f, -2.0f, 1024.0f, 0.25f}) {
    EXPECT_EQ(kernels::Fp16ToFloat(kernels::Fp16FromFloat(v)), v);
  }
}

TEST(TieredCodecTest, Int8RoundTripWithinHalfStep) {
  const std::vector<float> row = RandomRow(512, 9, 2.0f);
  std::vector<uint8_t> q(row.size());
  std::vector<float> dec(row.size());
  float scale = 0.0f;
  float min = 0.0f;
  kernels::EncodeRowInt8(row, q.data(), &scale, &min);
  kernels::DecodeRowInt8(q.data(), scale, min, dec);
  // Affine quantization error is bounded by half a step; allow float
  // rounding slack on top.
  const float bound = scale * 0.5f + 1e-5f;
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_LE(std::fabs(dec[i] - row[i]), bound) << "element " << i;
  }
}

TEST(TieredCodecTest, Int8ConstantRowIsExact) {
  const std::vector<float> row(64, 0.75f);
  std::vector<uint8_t> q(row.size());
  std::vector<float> dec(row.size());
  float scale = 1.0f;
  float min = 0.0f;
  kernels::EncodeRowInt8(row, q.data(), &scale, &min);
  EXPECT_EQ(scale, 0.0f);
  kernels::DecodeRowInt8(q.data(), scale, min, dec);
  for (float v : dec) {
    EXPECT_EQ(v, 0.75f);
  }
}

TEST(TieredCodecTest, ScalarAndVectorCodecsBitIdentical) {
  // The codec contract: --kernel is a pure performance knob even when
  // cold rows round-trip through fp16/int8.
  const std::vector<float> row = RandomRow(515, 11, 8.0f);  // Odd tail.
  std::vector<uint16_t> h_scalar(row.size()), h_vector(row.size());
  std::vector<uint8_t> q_scalar(row.size()), q_vector(row.size());
  std::vector<float> d_scalar(row.size()), d_vector(row.size());
  float scale_s = 0, min_s = 0, scale_v = 0, min_v = 0;
  {
    ScopedKernelMode mode(kernels::KernelMode::kScalar);
    kernels::EncodeRowFp16(row, h_scalar.data());
    kernels::EncodeRowInt8(row, q_scalar.data(), &scale_s, &min_s);
  }
  {
    ScopedKernelMode mode(kernels::KernelMode::kVector);
    kernels::EncodeRowFp16(row, h_vector.data());
    kernels::EncodeRowInt8(row, q_vector.data(), &scale_v, &min_v);
  }
  EXPECT_EQ(h_scalar, h_vector);
  EXPECT_EQ(q_scalar, q_vector);
  EXPECT_EQ(scale_s, scale_v);
  EXPECT_EQ(min_s, min_v);
  {
    ScopedKernelMode mode(kernels::KernelMode::kScalar);
    kernels::DecodeRowFp16(h_scalar.data(), d_scalar);
  }
  {
    ScopedKernelMode mode(kernels::KernelMode::kVector);
    kernels::DecodeRowFp16(h_vector.data(), d_vector);
  }
  EXPECT_EQ(std::memcmp(d_scalar.data(), d_vector.data(),
                        row.size() * sizeof(float)),
            0);
}

// ---- Mmap slab + sweep -----------------------------------------------

TEST(TieredStoreTest, MmapFileLifecycle) {
  const std::string dir = FreshDir("tier-mmap");
  const std::string path = dir + "/slab.bin";
  auto file = embedding::MmapFile::Create(path, 4096);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  ASSERT_TRUE(file->valid());
  EXPECT_EQ(file->size(), 4096u);
  EXPECT_EQ(file->data()[0], 0);  // Zero-filled.
  file->data()[100] = 0xAB;
  ASSERT_TRUE(file->Sync().ok());
  EXPECT_EQ(fs::file_size(path), 4096u);

  // Moving transfers ownership; the source must not unmap on destroy.
  embedding::MmapFile moved = std::move(file).value();
  ASSERT_TRUE(moved.valid());
  EXPECT_EQ(moved.data()[100], 0xAB);
  moved.AdviseWillNeed(0, 4096);
  moved.DropResidency();
  // Dropping residency must not lose dirty data (file-backed shared).
  EXPECT_EQ(moved.data()[100], 0xAB);
}

TEST(TieredStoreTest, SweepRemovesOnlyLiveSlabSuffix) {
  const std::string dir = FreshDir("tier-sweep");
  std::ofstream(dir + "/entity.cold.tmp") << "x";
  std::ofstream(dir + "/relation.cold.tmp") << "x";
  std::ofstream(dir + "/keep.bin") << "x";
  std::ofstream(dir + "/ck-000000000005.hetkg") << "x";
  EXPECT_EQ(embedding::SweepOrphanedColdFiles(dir), 2u);
  EXPECT_FALSE(fs::exists(dir + "/entity.cold.tmp"));
  EXPECT_TRUE(fs::exists(dir + "/keep.bin"));
  EXPECT_TRUE(fs::exists(dir + "/ck-000000000005.hetkg"));
  EXPECT_EQ(embedding::SweepOrphanedColdFiles(dir), 0u);
  EXPECT_EQ(embedding::SweepOrphanedColdFiles(dir + "/missing"), 0u);
}

TEST(TieredStoreTest, ManagerPrepareSweepsOrphanSidecars) {
  const std::string dir = FreshDir("tier-prepare");
  // A container with its sidecar (live), an orphan sidecar whose
  // container is gone, and a stale temp file.
  std::ofstream(dir + "/ck-000000000005.hetkg") << "c";
  std::ofstream(dir + "/ck-000000000005.hetkg.cold1") << "s";
  std::ofstream(dir + "/ck-000000000002.hetkg.cold1") << "o";
  std::ofstream(dir + "/ck-000000000009.hetkg.cold2.tmp") << "t";
  core::CheckpointManager manager(dir, 3);
  auto removed = manager.Prepare();
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_EQ(*removed, 2u);  // The orphan sidecar + the temp file.
  EXPECT_TRUE(fs::exists(dir + "/ck-000000000005.hetkg.cold1"));
  EXPECT_FALSE(fs::exists(dir + "/ck-000000000002.hetkg.cold1"));
  EXPECT_FALSE(fs::exists(dir + "/ck-000000000009.hetkg.cold2.tmp"));
}

// ---- Tiered table semantics ------------------------------------------

TEST(TieredTableTest, Fp32TieredInitBitIdenticalToInRam) {
  const std::string dir = FreshDir("tier-fp32-init");
  EmbeddingTable ram(64, 16);
  auto tiered = EmbeddingTable::CreateTiered(
      64, 16, Tiered(dir, ColdDtype::kFp32), "entity");
  ASSERT_TRUE(tiered.ok()) << tiered.status().ToString();
  ASSERT_TRUE(tiered->tiered());
  ASSERT_TRUE(tiered->row_addressable());

  Rng a(99), b(99);
  ram.InitGaussian(&a, 0.1f);
  tiered->InitGaussian(&b, 0.1f);
  for (size_t i = 0; i < ram.num_rows(); ++i) {
    const auto lhs = ram.Row(i);
    const auto rhs = tiered->Row(i);
    ASSERT_EQ(std::memcmp(lhs.data(), rhs.data(),
                          lhs.size() * sizeof(float)),
              0)
        << "row " << i;
  }
  EXPECT_GT(tiered->ColdBytes(), 0u);
  EXPECT_TRUE(tiered->SyncCold().ok());
}

TEST(TieredTableTest, QuantizedReadWriteAndColdReadCounter) {
  const std::string dir = FreshDir("tier-int8-rw");
  auto table = EmbeddingTable::CreateTiered(
      8, 32, Tiered(dir, ColdDtype::kInt8), "entity");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_FALSE(table->row_addressable());
  EXPECT_EQ(table->EncodedRowBytes(), embedding::ColdRowBytes(
                                          ColdDtype::kInt8, 32));

  const std::vector<float> row = RandomRow(32, 5, 1.0f);
  table->SetRow(3, row);
  const uint64_t before = table->cold_reads();
  std::vector<float> out(32);
  table->ReadRowInto(3, out);
  EXPECT_GT(table->cold_reads(), before);

  // DecodedRow must agree bit-for-bit with ReadRowInto: both decode
  // the same stored bytes.
  const auto span = table->DecodedRow(3);
  ASSERT_EQ(span.size(), out.size());
  EXPECT_EQ(std::memcmp(span.data(), out.data(),
                        out.size() * sizeof(float)),
            0);

  // Accumulate goes through decode -> fp32 add -> re-encode; the result
  // must match hand-computing the same steps.
  std::vector<float> expect(out);
  const std::vector<float> delta = RandomRow(32, 6, 0.1f);
  for (size_t j = 0; j < expect.size(); ++j) expect[j] += delta[j];
  std::vector<uint8_t> enc(table->EncodedRowBytes());
  embedding::EncodeColdRow(ColdDtype::kInt8, expect, enc.data());
  std::vector<float> expect_dec(32);
  embedding::DecodeColdRow(ColdDtype::kInt8, enc.data(), expect_dec);
  table->AccumulateRow(3, delta);
  table->ReadRowInto(3, out);
  EXPECT_EQ(std::memcmp(out.data(), expect_dec.data(),
                        out.size() * sizeof(float)),
            0);
}

TEST(TieredTableTest, AdaGradAccumulatorStaysFp32UnderQuantizedOpts) {
  const std::string dir = FreshDir("tier-accum");
  auto opt = embedding::AdaGrad::CreateTiered(
      16, 8, 0.1, Tiered(dir, ColdDtype::kInt8), "entity.accum");
  ASSERT_TRUE(opt.ok()) << opt.status().ToString();
  // The slab holds raw fp32 regardless of the cold dtype: optimizer
  // state is never quantized.
  EXPECT_EQ(opt->ColdBytes(), 16u * 8u * sizeof(float));
  std::vector<float> row(8, 0.0f);
  std::vector<float> grad(8, 0.5f);
  opt->Apply(0, row, grad);
  EXPECT_GT(opt->AccumulatorRow(0)[0], 0.0f);
  EXPECT_TRUE(opt->SyncCold().ok());
}

// A quantized push dequantizes, steps and requantizes each row. The
// batched PushGradBatch must leave exactly the bytes of the row-by-row
// sequence it replaced: decode, scalar AdaGrad::Apply, RowNorm scale
// (entities), encode — including a key pushed twice in one batch.
TEST(TieredPsTest, QuantizedPushMatchesRowByRowReference) {
  constexpr size_t kEntities = 12;
  constexpr size_t kRelations = 5;
  constexpr size_t kEntityDim = 12;
  constexpr size_t kRelationDim = 20;
  for (const ColdDtype dtype : {ColdDtype::kInt8, ColdDtype::kFp16}) {
    for (const kernels::KernelMode mode :
         {kernels::KernelMode::kScalar, kernels::KernelMode::kVector}) {
      SCOPED_TRACE(std::string(embedding::ColdDtypeName(dtype)) + " " +
                   std::string(kernels::KernelModeName(mode)));
      ScopedKernelMode scoped(mode);
      const std::string dir = FreshDir("tier-ps-push");
      sim::ClusterSim cluster(2);
      ps::PsConfig config;
      config.num_entities = kEntities;
      config.num_relations = kRelations;
      config.entity_dim = kEntityDim;
      config.relation_dim = kRelationDim;
      config.learning_rate = 0.1;
      config.normalize_entities = true;
      config.storage = Tiered(dir, dtype);
      std::vector<uint32_t> owner(kEntities);
      for (size_t e = 0; e < kEntities; ++e) owner[e] = e % 2;
      auto server = ps::ParameterServer::Create(config, owner, &cluster);
      ASSERT_TRUE(server.ok()) << server.status().ToString();
      (*server)->InitEmbeddings();

      // The reference: the same tables, initialized the same way.
      const std::string ref_dir = FreshDir("tier-ps-push-ref");
      auto entities = EmbeddingTable::CreateTiered(
          kEntities, kEntityDim, Tiered(ref_dir, dtype), "entity");
      auto relations = EmbeddingTable::CreateTiered(
          kRelations, kRelationDim, Tiered(ref_dir, dtype), "relation");
      ASSERT_TRUE(entities.ok() && relations.ok());
      Rng init(config.init_seed);
      entities->InitXavierUniform(&init);
      relations->InitXavierUniform(&init);
      for (size_t e = 0; e < kEntities; ++e) entities->L2NormalizeRow(e);
      embedding::AdaGrad entity_opt(kEntities, kEntityDim, 0.1);
      embedding::AdaGrad relation_opt(kRelations, kRelationDim, 0.1);

      const std::vector<EmbKey> keys = {
          EntityKey(3),   RelationKey(1), EntityKey(8), EntityKey(3),
          RelationKey(4), EntityKey(0),   RelationKey(1), EntityKey(11)};
      Rng grad_rng(5);
      for (int step = 0; step < 3; ++step) {
        std::vector<std::vector<float>> grads;
        std::vector<std::span<const float>> spans;
        for (EmbKey key : keys) {
          grads.push_back(RandomRow(IsRelationKey(key) ? kRelationDim
                                                        : kEntityDim,
                                    grad_rng.NextUint64(), 0.5f));
        }
        for (const auto& g : grads) spans.emplace_back(g);
        (*server)->PushGradBatch(0, keys, spans);

        for (size_t i = 0; i < keys.size(); ++i) {
          const bool relation = IsRelationKey(keys[i]);
          EmbeddingTable& table = relation ? *relations : *entities;
          embedding::AdaGrad& opt = relation ? relation_opt : entity_opt;
          const size_t id =
              relation ? KeyRelation(keys[i]) : KeyEntity(keys[i]);
          std::vector<float> row(table.dim());
          table.ReadRowInto(id, row);
          opt.Apply(id, row, spans[i]);
          if (!relation) {
            const double norm = embedding::RowNorm(row);
            if (norm > 1e-12) {
              const float inv = static_cast<float>(1.0 / norm);
              for (float& v : row) v *= inv;
            }
          }
          table.SetRow(id, row);
        }
      }

      auto expect_same = [&](EmbKey key, const EmbeddingTable& table,
                             size_t id) {
        std::vector<float> got(table.dim());
        std::vector<float> want(table.dim());
        (*server)->ReadValueInto(key, got);
        table.ReadRowInto(id, want);
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              got.size() * sizeof(float)),
                  0)
            << "key " << key;
      };
      for (size_t e = 0; e < kEntities; ++e) {
        expect_same(EntityKey(e), *entities, e);
      }
      for (size_t r = 0; r < kRelations; ++r) {
        expect_same(RelationKey(r), *relations, r);
      }
    }
  }
}

// ---- End-to-end training equivalence ---------------------------------

graph::SyntheticSpec TierSpec() {
  graph::SyntheticSpec spec;
  spec.name = "tiered";
  spec.num_entities = 300;
  spec.num_relations = 10;
  spec.num_triples = 2000;
  spec.seed = 77;
  return spec;
}

core::TrainerConfig TierConfig() {
  core::TrainerConfig config;
  config.dim = 8;
  config.batch_size = 16;
  config.negatives_per_positive = 4;
  config.negative_chunk_size = 4;
  config.num_machines = 2;
  config.cache_capacity = 64;
  config.sync.staleness_bound = 4;
  config.sync.dps_window = 8;
  config.seed = 13;
  return config;
}

std::string TrainAndSaveState(const core::TrainerConfig& config,
                              const graph::SyntheticDataset& dataset,
                              const std::string& out) {
  auto engine = core::MakeEngine(core::SystemKind::kHetKgDps, config,
                                 dataset.graph, dataset.split.train);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_TRUE((*engine)->Train(2).ok());
  const Status saved = (*engine)->SaveTrainState(out);
  EXPECT_TRUE(saved.ok()) << saved.ToString();
  return ReadFileBytes(out);
}

// The fp32 cold tier is a pure placement change: its snapshots must be
// byte-identical to the in-RAM baseline's, at every thread count.
TEST(TieredTrainingTest, Fp32SnapshotByteIdenticalToRamAcrossThreads) {
  const auto dataset = graph::GenerateDataset(TierSpec()).value();
  const std::string base = FreshDir("tier-fp32-equiv");

  core::TrainerConfig ram_config = TierConfig();
  const std::string ram_bytes =
      TrainAndSaveState(ram_config, dataset, base + "/ram.state");
  ASSERT_FALSE(ram_bytes.empty());

  for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::string tag = std::to_string(threads);
    core::TrainerConfig config = TierConfig();
    config.num_threads = threads;
    config.storage =
        Tiered(FreshDir("tier-fp32-cold-" + tag), ColdDtype::kFp32);
    EXPECT_EQ(TrainAndSaveState(config, dataset,
                                base + "/tiered-" + tag + ".state"),
              ram_bytes);
  }
}

// Quantized cold tiers change the trajectory (rows round-trip through
// int8) but must stay deterministic: any thread count produces the same
// container and sidecar bytes.
TEST(TieredTrainingTest, QuantizedSnapshotDeterministicAcrossThreads) {
  const auto dataset = graph::GenerateDataset(TierSpec()).value();
  const std::string base = FreshDir("tier-int8-equiv");

  core::TrainerConfig ref_config = TierConfig();
  ref_config.storage = Tiered(FreshDir("tier-int8-cold-1"), ColdDtype::kInt8);
  const std::string ref_state = base + "/t1.state";
  const std::string ref_bytes =
      TrainAndSaveState(ref_config, dataset, ref_state);
  // Quantized snapshots ship the tables as cold sidecar files next to
  // the container (entity = .cold1, relation = .cold2, accumulators =
  // .cold11/.cold12).
  ASSERT_TRUE(fs::exists(ref_state + ".cold1"));
  ASSERT_TRUE(fs::exists(ref_state + ".cold11"));

  for (const size_t threads : {size_t{2}, size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::string tag = std::to_string(threads);
    core::TrainerConfig config = TierConfig();
    config.num_threads = threads;
    config.storage =
        Tiered(FreshDir("tier-int8-cold-" + tag), ColdDtype::kInt8);
    const std::string state = base + "/t" + tag + ".state";
    EXPECT_EQ(TrainAndSaveState(config, dataset, state), ref_bytes);
    EXPECT_EQ(ReadFileBytes(state + ".cold1"),
              ReadFileBytes(ref_state + ".cold1"));
    EXPECT_EQ(ReadFileBytes(state + ".cold2"),
              ReadFileBytes(ref_state + ".cold2"));
    EXPECT_EQ(ReadFileBytes(state + ".cold11"),
              ReadFileBytes(ref_state + ".cold11"));
    EXPECT_EQ(ReadFileBytes(state + ".cold12"),
              ReadFileBytes(ref_state + ".cold12"));
  }
}

// Halt + resume of a quantized tiered run ends bit-identical to an
// uninterrupted one: the sidecars round-trip the encoded slabs exactly.
TEST(TieredTrainingTest, QuantizedHaltResumeBitIdentical) {
  const auto dataset = graph::GenerateDataset(TierSpec()).value();
  const std::string base = FreshDir("tier-resume");

  core::TrainerConfig ref_config = TierConfig();
  ref_config.storage = Tiered(FreshDir("tier-resume-cold-ref"),
                              ColdDtype::kInt8);
  ref_config.checkpoint_dir = base + "/ck-ref";
  ref_config.checkpoint_every = 5;
  const std::string ref_bytes =
      TrainAndSaveState(ref_config, dataset, base + "/ref.state");

  core::TrainerConfig crash_config = TierConfig();
  crash_config.storage = Tiered(FreshDir("tier-resume-cold-crash"),
                                ColdDtype::kInt8);
  crash_config.checkpoint_dir = base + "/ck";
  crash_config.checkpoint_every = 5;
  crash_config.halt_after_iterations = 12;
  auto crashed = core::MakeEngine(core::SystemKind::kHetKgDps, crash_config,
                                  dataset.graph, dataset.split.train)
                     .value();
  ASSERT_TRUE(crashed->Train(2).ok());

  core::TrainerConfig resume_config = TierConfig();
  resume_config.storage = Tiered(FreshDir("tier-resume-cold-resume"),
                                 ColdDtype::kInt8);
  resume_config.checkpoint_dir = base + "/ck";
  resume_config.checkpoint_every = 5;
  auto resumed = core::MakeEngine(core::SystemKind::kHetKgDps,
                                  resume_config, dataset.graph,
                                  dataset.split.train)
                     .value();
  ASSERT_TRUE(resumed->RestoreTrainState(base + "/ck").ok());
  ASSERT_TRUE(resumed->Train(2).ok());
  const Status saved = resumed->SaveTrainState(base + "/resumed.state");
  ASSERT_TRUE(saved.ok()) << saved.ToString();
  EXPECT_EQ(ReadFileBytes(base + "/resumed.state"), ref_bytes);
}

// A tiered fp32 engine restores a snapshot written by an in-RAM run and
// vice versa: the container format is identical (HETKGCK2) in both.
TEST(TieredTrainingTest, Fp32SnapshotsInterchangeableWithRam) {
  const auto dataset = graph::GenerateDataset(TierSpec()).value();
  const std::string base = FreshDir("tier-interop");

  core::TrainerConfig ram_config = TierConfig();
  ram_config.checkpoint_dir = base + "/ck";
  ram_config.checkpoint_every = 5;
  auto ram_engine = core::MakeEngine(core::SystemKind::kHetKgDps,
                                     ram_config, dataset.graph,
                                     dataset.split.train)
                        .value();
  ASSERT_TRUE(ram_engine->Train(1).ok());
  ASSERT_TRUE(ram_engine->SaveTrainState(base + "/ram.state").ok());

  core::TrainerConfig tier_config = TierConfig();
  tier_config.storage = Tiered(FreshDir("tier-interop-cold"),
                               ColdDtype::kFp32);
  auto tier_engine = core::MakeEngine(core::SystemKind::kHetKgDps,
                                      tier_config, dataset.graph,
                                      dataset.split.train)
                         .value();
  ASSERT_TRUE(tier_engine->RestoreTrainState(base + "/ram.state").ok());
  ASSERT_TRUE(tier_engine->SaveTrainState(base + "/tier.state").ok());
  EXPECT_EQ(ReadFileBytes(base + "/tier.state"),
            ReadFileBytes(base + "/ram.state"));
}

// PBG trains partition-at-a-time in one process and must reject the
// tiered flag instead of silently ignoring it.
TEST(TieredTrainingTest, PbgRejectsTieredStorage) {
  const auto dataset = graph::GenerateDataset(TierSpec()).value();
  core::TrainerConfig config = TierConfig();
  config.pbg_partitions = 4;
  config.storage = Tiered(FreshDir("tier-pbg"), ColdDtype::kFp32);
  auto engine = core::MakeEngine(core::SystemKind::kPbg, config,
                                 dataset.graph, dataset.split.train);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace hetkg
