#include "core/hot_embedding_table.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/serialize.h"
#include "core/baseline_caches.h"
#include "core/hot_filter.h"
#include "core/sync_controller.h"

namespace hetkg::core {
namespace {

TEST(HotEmbeddingTableTest, AssignAdmitsUpToQuota) {
  HotEmbeddingTable table(2, 3, 4, 4, 0.1);
  EXPECT_EQ(table.capacity(), 5u);
  const std::vector<EmbKey> keys = {EntityKey(1), EntityKey(2), EntityKey(3),
                                    RelationKey(0), RelationKey(1)};
  const auto admitted = table.Assign(keys);
  // Entity quota is 2, so EntityKey(3) is dropped.
  EXPECT_EQ(admitted.size(), 4u);
  EXPECT_TRUE(table.Contains(EntityKey(1)));
  EXPECT_TRUE(table.Contains(EntityKey(2)));
  EXPECT_FALSE(table.Contains(EntityKey(3)));
  EXPECT_TRUE(table.Contains(RelationKey(0)));
  EXPECT_EQ(table.size(), 4u);
}

TEST(HotEmbeddingTableTest, ReassignKeepsRetainedValues) {
  HotEmbeddingTable table(2, 2, 2, 2, 0.1);
  table.Assign(std::vector<EmbKey>{EntityKey(1), EntityKey(2)});
  const float v1[] = {1.0f, 2.0f};
  table.Refresh(EntityKey(1), v1);

  // New set keeps key 1, replaces key 2 with key 5.
  const auto admitted =
      table.Assign(std::vector<EmbKey>{EntityKey(1), EntityKey(5)});
  ASSERT_EQ(admitted.size(), 1u);
  EXPECT_EQ(admitted[0], EntityKey(5));
  EXPECT_FALSE(table.Contains(EntityKey(2)));
  // Retained key kept its locally updated value.
  EXPECT_FLOAT_EQ(table.Row(EntityKey(1))[0], 1.0f);
  EXPECT_FLOAT_EQ(table.Row(EntityKey(1))[1], 2.0f);
}

TEST(HotEmbeddingTableTest, LocalGradientUsesAdaGrad) {
  HotEmbeddingTable table(1, 1, 2, 2, 0.5);
  table.Assign(std::vector<EmbKey>{EntityKey(0)});
  const float grad[] = {2.0f, -2.0f};
  table.ApplyLocalGradient(EntityKey(0), grad, /*normalize=*/false);
  // First AdaGrad step = lr * sign(g).
  EXPECT_NEAR(table.Row(EntityKey(0))[0], -0.5f, 1e-4);
  EXPECT_NEAR(table.Row(EntityKey(0))[1], 0.5f, 1e-4);
}

TEST(HotEmbeddingTableTest, SlotReuseResetsOptimizerState) {
  HotEmbeddingTable table(1, 0, 1, 1, 0.5);
  table.Assign(std::vector<EmbKey>{EntityKey(0)});
  const float grad[] = {1.0f};
  for (int i = 0; i < 10; ++i) {
    table.ApplyLocalGradient(EntityKey(0), grad, false);
  }
  // Replace key 0 with key 9: the fresh key must take a full first step
  // (accumulator reset), not a tiny decayed one.
  table.Assign(std::vector<EmbKey>{EntityKey(9)});
  const float zero[] = {0.0f};
  table.Refresh(EntityKey(9), zero);
  table.ApplyLocalGradient(EntityKey(9), grad, false);
  EXPECT_NEAR(table.Row(EntityKey(9))[0], -0.5f, 1e-4);
}

TEST(HotEmbeddingTableTest, NormalizeEntitiesOnUpdate) {
  HotEmbeddingTable table(1, 0, 4, 4, 0.1);
  table.Assign(std::vector<EmbKey>{EntityKey(3)});
  const float init[] = {1.0f, 0.0f, 0.0f, 0.0f};
  table.Refresh(EntityKey(3), init);
  const float grad[] = {0.0f, -1.0f, 0.0f, 0.0f};
  table.ApplyLocalGradient(EntityKey(3), grad, /*normalize=*/true);
  const auto row = table.Row(EntityKey(3));
  double norm_sq = 0.0;
  for (float v : row) norm_sq += static_cast<double>(v) * v;
  EXPECT_NEAR(norm_sq, 1.0, 1e-5);
}

// The batched local step equals one ApplyLocalGradient per cached key:
// same rows, same accumulators (SaveState covers both), with uncached
// keys skipped and reported.
TEST(HotEmbeddingTableTest, BatchedLocalGradientsMatchPerKey) {
  for (const bool normalize : {false, true}) {
    HotEmbeddingTable batched(3, 2, 5, 7, 0.1);
    HotEmbeddingTable per_key(3, 2, 5, 7, 0.1);
    const std::vector<EmbKey> hot = {EntityKey(1), EntityKey(4),
                                     EntityKey(6), RelationKey(0),
                                     RelationKey(2)};
    batched.Assign(hot);
    per_key.Assign(hot);
    Rng rng(31);
    for (EmbKey key : hot) {
      std::vector<float> value(IsRelationKey(key) ? 7 : 5);
      for (float& v : value) v = static_cast<float>(rng.NextUniform(-1, 1));
      batched.Refresh(key, value);
      per_key.Refresh(key, value);
    }
    // Cached and uncached keys of both kinds, interleaved.
    const std::vector<EmbKey> keys = {RelationKey(2), EntityKey(4),
                                      EntityKey(9),   RelationKey(1),
                                      EntityKey(1),   RelationKey(0),
                                      EntityKey(6)};
    std::vector<uint8_t> cached;
    for (int step = 0; step < 3; ++step) {
      std::vector<std::vector<float>> grads;
      std::vector<std::span<const float>> spans;
      for (EmbKey key : keys) {
        grads.emplace_back(IsRelationKey(key) ? 7 : 5);
        for (float& g : grads.back()) {
          g = static_cast<float>(rng.NextUniform(-0.5, 0.5));
        }
      }
      for (const auto& g : grads) spans.emplace_back(g);
      batched.ApplyLocalGradients(keys, spans, normalize, &cached);
      for (size_t i = 0; i < keys.size(); ++i) {
        if (per_key.Contains(keys[i])) {
          per_key.ApplyLocalGradient(keys[i], spans[i], normalize);
        }
      }
    }
    EXPECT_EQ(cached, (std::vector<uint8_t>{1, 1, 0, 0, 1, 1, 1}));
    ByteWriter a;
    ByteWriter b;
    batched.SaveState(&a);
    per_key.SaveState(&b);
    EXPECT_EQ(a.buffer(), b.buffer()) << "normalize=" << normalize;
  }
}

TEST(ComputeQuotaTest, SplitsByEntityRatio) {
  const auto quota = ComputeQuota({100, 0.25, true}, 1000, 1000);
  EXPECT_EQ(quota.entity_slots, 25u);
  EXPECT_EQ(quota.relation_slots, 75u);
}

TEST(ComputeQuotaTest, SurplusFlowsToOtherKind) {
  // Only 10 relations exist: the unused 65 relation slots go to
  // entities.
  const auto quota = ComputeQuota({100, 0.25, true}, 1000, 10);
  EXPECT_EQ(quota.entity_slots, 90u);
  EXPECT_EQ(quota.relation_slots, 10u);
}

TEST(ComputeQuotaTest, HeterogeneityBlindUsesFullCapacity) {
  const auto quota = ComputeQuota({100, 0.25, false}, 1000, 1000);
  EXPECT_EQ(quota.entity_slots, 100u);
  EXPECT_EQ(quota.relation_slots, 100u);
}

FrequencyMap MakeFreq(
    std::initializer_list<std::pair<EmbKey, uint32_t>> items) {
  FrequencyMap freq;
  for (const auto& [k, v] : items) freq[k] = v;
  return freq;
}

TEST(FilterHotKeysTest, TakesTopKPerKind) {
  const auto freq = MakeFreq({{EntityKey(1), 10},
                              {EntityKey(2), 30},
                              {EntityKey(3), 20},
                              {RelationKey(1), 100},
                              {RelationKey(2), 50}});
  const FilterOptions options{3, 1.0 / 3.0, true};
  const FilterQuota quota{1, 2};
  const auto hot = FilterHotKeys(freq, options, quota);
  ASSERT_EQ(hot.size(), 3u);
  EXPECT_EQ(hot[0], EntityKey(2));     // Top entity.
  EXPECT_EQ(hot[1], RelationKey(1));   // Top relations.
  EXPECT_EQ(hot[2], RelationKey(2));
}

TEST(FilterHotKeysTest, HeterogeneityBlindTakesGlobalTopK) {
  const auto freq = MakeFreq({{EntityKey(1), 10},
                              {EntityKey(2), 30},
                              {RelationKey(1), 100},
                              {RelationKey(2), 50}});
  const FilterOptions options{2, 0.25, false};
  const FilterQuota quota = ComputeQuota(options, 100, 100);
  const auto hot = FilterHotKeys(freq, options, quota);
  ASSERT_EQ(hot.size(), 2u);
  // Relations dominate the global ranking — the caching preference the
  // paper warns about.
  EXPECT_EQ(hot[0], RelationKey(1));
  EXPECT_EQ(hot[1], RelationKey(2));
}

TEST(FilterHotKeysTest, DeterministicTieBreaking) {
  const auto freq = MakeFreq(
      {{EntityKey(5), 7}, {EntityKey(3), 7}, {EntityKey(9), 7}});
  const FilterOptions options{2, 1.0, true};
  const FilterQuota quota{2, 0};
  const auto hot = FilterHotKeys(freq, options, quota);
  ASSERT_EQ(hot.size(), 2u);
  EXPECT_EQ(hot[0], EntityKey(3));
  EXPECT_EQ(hot[1], EntityKey(5));
}

TEST(FilterHotKeysTest, PredictedHitRatio) {
  const auto freq = MakeFreq({{EntityKey(1), 60}, {EntityKey(2), 40}});
  const std::vector<EmbKey> hot = {EntityKey(1)};
  EXPECT_NEAR(PredictedHitRatio(freq, hot, 100), 0.6, 1e-9);
  EXPECT_EQ(PredictedHitRatio(freq, hot, 0), 0.0);
}

TEST(SyncControllerTest, RefreshEveryPIterations) {
  const auto sync =
      SyncController::Create({CacheStrategy::kCps, 4, 16}).value();
  EXPECT_FALSE(sync.ShouldRefresh(0));
  EXPECT_FALSE(sync.ShouldRefresh(1));
  EXPECT_TRUE(sync.ShouldRefresh(4));
  EXPECT_FALSE(sync.ShouldRefresh(5));
  EXPECT_TRUE(sync.ShouldRefresh(8));
  EXPECT_EQ(sync.MaxStaleness(), 4u);
}

TEST(SyncControllerTest, RebuildOnlyForDps) {
  const auto cps =
      SyncController::Create({CacheStrategy::kCps, 4, 16}).value();
  EXPECT_FALSE(cps.ShouldRebuild(16));
  const auto dps =
      SyncController::Create({CacheStrategy::kDps, 4, 16}).value();
  EXPECT_FALSE(dps.ShouldRebuild(0));
  EXPECT_FALSE(dps.ShouldRebuild(8));
  EXPECT_TRUE(dps.ShouldRebuild(16));
  EXPECT_TRUE(dps.ShouldRebuild(32));
}

TEST(SyncControllerTest, NoCacheNeverSyncs) {
  const auto none =
      SyncController::Create({CacheStrategy::kNone, 8, 16}).value();
  EXPECT_FALSE(none.ShouldRefresh(8));
  EXPECT_FALSE(none.ShouldRebuild(16));
  EXPECT_EQ(none.MaxStaleness(), 0u);
}

TEST(SyncControllerTest, RejectsZeroThresholds) {
  EXPECT_FALSE(SyncController::Create({CacheStrategy::kCps, 0, 16}).ok());
  EXPECT_FALSE(SyncController::Create({CacheStrategy::kDps, 4, 0}).ok());
  EXPECT_TRUE(SyncController::Create({CacheStrategy::kNone, 0, 0}).ok());
}

TEST(SyncControllerTest, WriteBackPeriodOnlyConstrainedWhenCacheActive) {
  // kNone runs no cache, so its don't-care zeros must be accepted —
  // a DGL-KE config with write_back_period = 0 used to be rejected.
  SyncConfig none;
  none.strategy = CacheStrategy::kNone;
  none.staleness_bound = 0;
  none.dps_window = 64;
  none.write_back_period = 0;
  EXPECT_TRUE(SyncController::Create(none).ok());

  SyncConfig cps = none;
  cps.strategy = CacheStrategy::kCps;
  cps.staleness_bound = 8;
  EXPECT_FALSE(SyncController::Create(cps).ok());  // wb = 0 still invalid.
  cps.write_back_period = 1;
  EXPECT_TRUE(SyncController::Create(cps).ok());

  SyncConfig dps = cps;
  dps.strategy = CacheStrategy::kDps;
  dps.write_back_period = 0;
  EXPECT_FALSE(SyncController::Create(dps).ok());
}

TEST(FifoCacheTest, EvictsOldestFirst) {
  FifoCache cache(2);
  EXPECT_FALSE(cache.Access(EntityKey(1)));
  EXPECT_FALSE(cache.Access(EntityKey(2)));
  EXPECT_TRUE(cache.Access(EntityKey(1)));   // Hit; FIFO order unchanged.
  EXPECT_FALSE(cache.Access(EntityKey(3)));  // Evicts 1 (oldest).
  EXPECT_FALSE(cache.Access(EntityKey(1)));
  EXPECT_NEAR(cache.HitRatio(), 1.0 / 5.0, 1e-9);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache cache(2);
  cache.Access(EntityKey(1));
  cache.Access(EntityKey(2));
  EXPECT_TRUE(cache.Access(EntityKey(1)));   // 1 becomes most recent.
  EXPECT_FALSE(cache.Access(EntityKey(3)));  // Evicts 2.
  EXPECT_TRUE(cache.Access(EntityKey(1)));
  EXPECT_FALSE(cache.Access(EntityKey(2)));
}

TEST(LfuCacheTest, KeepsFrequentKeys) {
  LfuCache cache(2);
  for (int i = 0; i < 5; ++i) cache.Access(EntityKey(1));
  cache.Access(EntityKey(2));
  // Key 3 evicts key 2 (frequency 1 < 5), never key 1.
  cache.Access(EntityKey(3));
  EXPECT_TRUE(cache.Access(EntityKey(1)));
  EXPECT_FALSE(cache.Access(EntityKey(2)));
}

TEST(LfuCacheTest, HistoryCountsSurviveEviction) {
  LfuCache cache(1);
  cache.Access(EntityKey(1));
  cache.Access(EntityKey(1));
  cache.Access(EntityKey(2));  // Evicts 1, but 1's count (2) persists.
  cache.Access(EntityKey(1));  // Re-admitted with frequency 3.
  cache.Access(EntityKey(2));  // freq(2)=2 < freq(1)=3 after this access?
  // Behaviour check: cache holds exactly one key at any time.
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ImportanceCacheTest, StaticSetNeverChanges) {
  ImportanceCache cache({EntityKey(1), RelationKey(0)});
  EXPECT_TRUE(cache.Access(EntityKey(1)));
  EXPECT_TRUE(cache.Access(RelationKey(0)));
  EXPECT_FALSE(cache.Access(EntityKey(2)));
  EXPECT_FALSE(cache.Access(EntityKey(2)));  // Still a miss: no admission.
  EXPECT_EQ(cache.size(), 2u);
}

TEST(TopDegreeKeysTest, RanksAcrossKinds) {
  const std::vector<uint32_t> degrees = {5, 50, 10};
  const std::vector<uint32_t> rel_freqs = {100, 1};
  const auto keys = TopDegreeKeys(degrees, rel_freqs, 3);
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0], RelationKey(0));
  EXPECT_EQ(keys[1], EntityKey(1));
  EXPECT_EQ(keys[2], EntityKey(2));
}

}  // namespace
}  // namespace hetkg::core
