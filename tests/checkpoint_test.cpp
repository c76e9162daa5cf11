#include "embedding/checkpoint.h"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "core/checkpoint_manager.h"
#include "core/trainer.h"
#include "graph/synthetic.h"

namespace hetkg {
namespace {

// Pid-qualified so concurrent ctest entries running this same binary
// (hetkg_tests and hetkg_recovery_tests) never share a path.
std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "-" +
         name;
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void FlipByte(const std::string& path, size_t offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  f.read(&byte, 1);
  f.seekp(static_cast<std::streamoff>(offset));
  byte = static_cast<char>(byte ^ 0x40);
  f.write(&byte, 1);
}

TEST(CheckpointTest, RoundTripsBothTables) {
  embedding::EmbeddingTable entities(10, 4);
  embedding::EmbeddingTable relations(3, 8);
  Rng rng(5);
  entities.InitGaussian(&rng, 1.0f);
  relations.InitGaussian(&rng, 1.0f);

  const std::string path = TempPath("roundtrip.ck");
  ASSERT_TRUE(embedding::SaveCheckpoint(path, entities, relations).ok());
  auto loaded = embedding::LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->entities.num_rows(), 10u);
  EXPECT_EQ(loaded->entities.dim(), 4u);
  EXPECT_EQ(loaded->relations.num_rows(), 3u);
  EXPECT_EQ(loaded->relations.dim(), 8u);
  for (size_t i = 0; i < 10; ++i) {
    const auto a = entities.Row(i);
    const auto b = loaded->entities.Row(i);
    for (size_t j = 0; j < 4; ++j) {
      EXPECT_EQ(a[j], b[j]);
    }
  }
}

TEST(CheckpointTest, MissingFileIsIoError) {
  auto loaded = embedding::LoadCheckpoint("/nonexistent/x.ck");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

// A directory opens as a stream but has no byte length to size the
// read from; it must come back as a typed error, not an exception.
TEST(CheckpointTest, DirectoryIsIoError) {
  auto reader = embedding::CheckpointReader::Open(::testing::TempDir());
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kIoError);
}

TEST(CheckpointTest, BadMagicIsCorruption) {
  const std::string path = TempPath("badmagic.ck");
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOTACKPT-and-some-padding-bytes-here";
  }
  auto loaded = embedding::LoadCheckpoint(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST(CheckpointTest, TruncationIsDetected) {
  embedding::EmbeddingTable entities(50, 8);
  embedding::EmbeddingTable relations(5, 8);
  Rng rng(7);
  entities.InitGaussian(&rng, 1.0f);
  const std::string path = TempPath("trunc.ck");
  ASSERT_TRUE(embedding::SaveCheckpoint(path, entities, relations).ok());
  // Chop off the tail.
  {
    std::ifstream in(path, std::ios::binary);
    std::string body((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(body.data(), static_cast<std::streamsize>(body.size() / 2));
  }
  auto loaded = embedding::LoadCheckpoint(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST(CheckpointTest, BitFlipFailsChecksum) {
  embedding::EmbeddingTable entities(20, 4);
  embedding::EmbeddingTable relations(4, 4);
  Rng rng(9);
  entities.InitGaussian(&rng, 1.0f);
  relations.InitGaussian(&rng, 1.0f);
  const std::string path = TempPath("bitflip.ck");
  ASSERT_TRUE(embedding::SaveCheckpoint(path, entities, relations).ok());
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(64);  // Somewhere in the entity payload.
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(64);
    byte = static_cast<char>(byte ^ 0x40);
    f.write(&byte, 1);
  }
  auto loaded = embedding::LoadCheckpoint(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST(CheckpointTest, EngineSnapshotEvaluatesIdentically) {
  // Train briefly, snapshot, reload, and verify the checkpointed
  // embeddings score link prediction exactly like the live engine.
  graph::SyntheticSpec spec;
  spec.num_entities = 300;
  spec.num_relations = 8;
  spec.num_triples = 3000;
  spec.seed = 31;
  const auto dataset = graph::GenerateDataset(spec).value();
  core::TrainerConfig config;
  config.dim = 8;
  config.batch_size = 32;
  config.negatives_per_positive = 4;
  config.num_machines = 2;
  config.cache_capacity = 32;
  auto engine = core::MakeEngine(core::SystemKind::kHetKgDps, config,
                                 dataset.graph, dataset.split.train)
                    .value();
  engine->Train(2).value();

  const std::string path = TempPath("engine.ck");
  ASSERT_TRUE(core::SaveEngineCheckpoint(*engine, path).ok());
  auto checkpoint = embedding::LoadCheckpoint(path);
  ASSERT_TRUE(checkpoint.ok());
  core::CheckpointLookup lookup(&*checkpoint);

  eval::EvalOptions options;
  options.max_triples = 50;
  const auto live = eval::EvaluateLinkPrediction(
                        engine->Embeddings(), engine->ScoreFn(),
                        dataset.graph, dataset.split.test, options)
                        .value();
  const auto restored = eval::EvaluateLinkPrediction(
                            lookup, engine->ScoreFn(), dataset.graph,
                            dataset.split.test, options)
                            .value();
  EXPECT_DOUBLE_EQ(live.mrr, restored.mrr);
  EXPECT_DOUBLE_EQ(live.mr, restored.mr);
}

TEST(CheckpointV2Test, SectionRoundTripAndFindAll) {
  embedding::CheckpointWriter writer;
  {
    ByteWriter meta;
    meta.Str("unit-test");
    meta.U64(42);
    writer.AddSection(embedding::SectionTag::kTrainerMeta, std::move(meta));
  }
  for (uint32_t worker = 0; worker < 3; ++worker) {
    ByteWriter w;
    w.U32(worker);
    w.U64(1000 + worker);
    writer.AddSection(embedding::SectionTag::kWorker, std::move(w));
  }
  EXPECT_GT(writer.payload_bytes(), 0u);

  const std::string path = TempPath("v2-sections.ck");
  ASSERT_TRUE(writer.WriteAtomic(path).ok());

  auto reader = embedding::CheckpointReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  const std::string* meta =
      reader->Find(embedding::SectionTag::kTrainerMeta);
  ASSERT_NE(meta, nullptr);
  ByteReader r(*meta);
  EXPECT_EQ(r.Str(), "unit-test");
  EXPECT_EQ(r.U64(), 42u);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);

  // Repeated sections come back in file order.
  const auto workers = reader->FindAll(embedding::SectionTag::kWorker);
  ASSERT_EQ(workers.size(), 3u);
  for (uint32_t i = 0; i < 3; ++i) {
    ByteReader wr(*workers[i]);
    EXPECT_EQ(wr.U32(), i);
    EXPECT_EQ(wr.U64(), 1000u + i);
  }
  EXPECT_EQ(reader->Find(embedding::SectionTag::kPbgState), nullptr);
}

// Builds a byte-exact legacy HETKGCK1 file: fixed header, raw rows,
// XOR-FNV trailer.
std::string CraftV1File(const embedding::EmbeddingTable& entities,
                        const embedding::EmbeddingTable& relations) {
  std::string bytes = "HETKGCK1";
  auto put_u64 = [&bytes](uint64_t v) {
    bytes.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put_u64(entities.num_rows());
  put_u64(entities.dim());
  put_u64(relations.num_rows());
  put_u64(relations.dim());
  uint64_t checksum = 0xCBF29CE484222325ULL;
  for (const auto* table : {&entities, &relations}) {
    for (size_t i = 0; i < table->num_rows(); ++i) {
      for (float v : table->Row(i)) {
        bytes.append(reinterpret_cast<const char*>(&v), sizeof(v));
        uint32_t b = 0;
        std::memcpy(&b, &v, sizeof(b));
        checksum = (checksum ^ b) * 0x100000001B3ULL;
      }
    }
  }
  put_u64(checksum);
  return bytes;
}

// HETKGCK1 has no writer left, so its reader is gone too: the eval
// loader rejects it like any other bad magic.
TEST(CheckpointV2Test, LoadCheckpointRejectsLegacyV1) {
  embedding::EmbeddingTable entities(4, 3);
  embedding::EmbeddingTable relations(2, 5);
  Rng rng(11);
  entities.InitGaussian(&rng, 1.0f);
  relations.InitGaussian(&rng, 1.0f);
  const std::string path = TempPath("legacy-v1.ck");
  WriteFile(path, CraftV1File(entities, relations));

  auto loaded = embedding::LoadCheckpoint(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(loaded.status().ToString().find("bad checkpoint magic"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST(CheckpointV2Test, OpenRejectsLegacyV1) {
  embedding::EmbeddingTable entities(2, 2);
  embedding::EmbeddingTable relations(1, 2);
  const std::string path = TempPath("legacy-v1-reject.ck");
  WriteFile(path, CraftV1File(entities, relations));

  // Full-state readers require the sectioned format.
  auto reader = embedding::CheckpointReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruption);
}

TEST(CheckpointV2Test, BitFlipInSectionPayloadIsCorruption) {
  embedding::EmbeddingTable entities(16, 4);
  embedding::EmbeddingTable relations(4, 4);
  Rng rng(13);
  entities.InitGaussian(&rng, 1.0f);
  relations.InitGaussian(&rng, 1.0f);
  const std::string path = TempPath("v2-bitflip.ck");
  ASSERT_TRUE(embedding::SaveCheckpoint(path, entities, relations).ok());
  FlipByte(path, 48);  // Inside the entity table payload.
  auto reader = embedding::CheckpointReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruption);
}

std::string FreshDir(const char* name) {
  const std::string dir = TempPath(name);
  std::filesystem::remove_all(dir);
  return dir;
}

void WriteSnapshot(core::CheckpointManager* manager, uint64_t iteration,
                   uint64_t seed) {
  embedding::EmbeddingTable entities(8, 4);
  embedding::EmbeddingTable relations(2, 4);
  Rng rng(seed);
  entities.InitGaussian(&rng, 1.0f);
  relations.InitGaussian(&rng, 1.0f);
  ASSERT_TRUE(embedding::SaveCheckpoint(manager->SnapshotPath(iteration),
                                        entities, relations)
                  .ok());
  ASSERT_TRUE(manager->Commit(iteration).ok());
}

TEST(CheckpointManagerTest, PrepareSweepsOrphanedTemps) {
  const std::string dir = FreshDir("ckmgr-orphans");
  core::CheckpointManager manager(dir, 3);
  ASSERT_TRUE(manager.Prepare().ok());
  WriteSnapshot(&manager, 10, 1);

  // Simulate a writer that crashed between temp write and rename.
  WriteFile(manager.SnapshotPath(20) + ".tmp", "half-written snapshot");
  WriteFile(dir + "/stray.tmp", "another orphan");

  core::CheckpointManager restarted(dir, 3);
  auto swept = restarted.Prepare();
  ASSERT_TRUE(swept.ok());
  EXPECT_EQ(*swept, 2u);
  EXPECT_FALSE(
      std::filesystem::exists(manager.SnapshotPath(20) + ".tmp"));
  // Real snapshots and the manifest survive the sweep.
  EXPECT_TRUE(std::filesystem::exists(manager.SnapshotPath(10)));
  auto manifest = restarted.ReadManifest();
  ASSERT_TRUE(manifest.ok());
  ASSERT_EQ(manifest->size(), 1u);
  EXPECT_EQ((*manifest)[0].iteration, 10u);
}

TEST(CheckpointManagerTest, CommitRotationPrunesOldest) {
  const std::string dir = FreshDir("ckmgr-rotate");
  core::CheckpointManager manager(dir, 2);
  ASSERT_TRUE(manager.Prepare().ok());
  WriteSnapshot(&manager, 5, 1);
  WriteSnapshot(&manager, 10, 2);
  WriteSnapshot(&manager, 15, 3);

  auto manifest = manager.ReadManifest();
  ASSERT_TRUE(manifest.ok());
  ASSERT_EQ(manifest->size(), 2u);
  EXPECT_EQ((*manifest)[0].iteration, 10u);
  EXPECT_EQ((*manifest)[1].iteration, 15u);
  EXPECT_FALSE(std::filesystem::exists(manager.SnapshotPath(5)));
  EXPECT_TRUE(std::filesystem::exists(manager.SnapshotPath(10)));
  EXPECT_TRUE(std::filesystem::exists(manager.SnapshotPath(15)));
}

TEST(CheckpointManagerTest, ResumeCandidatesNewestFirst) {
  const std::string dir = FreshDir("ckmgr-candidates");
  core::CheckpointManager manager(dir, 0);
  ASSERT_TRUE(manager.Prepare().ok());
  WriteSnapshot(&manager, 3, 1);
  WriteSnapshot(&manager, 6, 2);

  auto from_dir = core::CheckpointManager::ResumeCandidates(dir);
  ASSERT_TRUE(from_dir.ok()) << from_dir.status().ToString();
  ASSERT_EQ(from_dir->size(), 2u);
  EXPECT_EQ((*from_dir)[0], manager.SnapshotPath(6));
  EXPECT_EQ((*from_dir)[1], manager.SnapshotPath(3));

  // A concrete snapshot file resolves to exactly itself.
  auto from_file =
      core::CheckpointManager::ResumeCandidates(manager.SnapshotPath(3));
  ASSERT_TRUE(from_file.ok());
  ASSERT_EQ(from_file->size(), 1u);
  EXPECT_EQ((*from_file)[0], manager.SnapshotPath(3));
}

TEST(CheckpointManagerTest, CorruptNewestFallsBackToOlderCandidate) {
  const std::string dir = FreshDir("ckmgr-fallback");
  core::CheckpointManager manager(dir, 0);
  ASSERT_TRUE(manager.Prepare().ok());
  WriteSnapshot(&manager, 8, 1);
  WriteSnapshot(&manager, 16, 2);
  FlipByte(manager.SnapshotPath(16), 40);

  auto candidates = core::CheckpointManager::ResumeCandidates(dir);
  ASSERT_TRUE(candidates.ok());
  ASSERT_EQ(candidates->size(), 2u);
  auto newest = embedding::CheckpointReader::Open((*candidates)[0]);
  ASSERT_FALSE(newest.ok());
  EXPECT_EQ(newest.status().code(), StatusCode::kCorruption);
  auto older = embedding::CheckpointReader::Open((*candidates)[1]);
  EXPECT_TRUE(older.ok()) << older.status().ToString();
}

}  // namespace
}  // namespace hetkg
