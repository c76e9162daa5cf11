// Reproduces Table VI: cache hit ratio of HET-KG's prefetch+filter
// construction versus FIFO / LRU / LFU / static degree-"importance"
// caching, at equal capacity, on all three datasets. Paper numbers:
// FB15k 7.4/11.7/15.2/25.2%, WN18 16.5/17.6/32.1/35.5%, Freebase-86m
// 6.6/8.6/34.3/43.1% (FIFO/LRU/Importance/HET-KG).
//
// Methodology: every policy replays the IDENTICAL per-iteration
// deduplicated key-request stream a training worker produces. HET-KG is
// replayed as its DPS construction behaves: every D iterations the next
// window is prefetched, the top-k (with the 25% entity quota) becomes
// the resident set, and the window's requests are scored against it.
#include "harness.h"

#include <unordered_set>

#include "hetkg/hetkg.h"

namespace {

using namespace hetkg;

using namespace std::string_literals;

struct StreamSpec {
  const std::vector<Triple>* triples;
  size_t num_entities;
  size_t num_relations;
  size_t batch_size;
  size_t negatives;
  size_t chunk;
  uint64_t seed;
  size_t iterations;
};

/// Replays the stream through an access-driven policy.
void ReplayPolicy(const StreamSpec& s, core::CachePolicy* policy) {
  embedding::BatchedNegativeSampler sampler(s.num_entities, s.negatives,
                                            s.chunk, s.seed);
  core::Prefetcher prefetcher(s.triples, s.batch_size, &sampler,
                              s.seed ^ 0xF00);
  for (size_t i = 0; i < s.iterations; ++i) {
    const auto window = prefetcher.Prefetch(1);
    for (EmbKey key : core::BatchKeys(window.batches[0])) {
      policy->Access(key);
    }
  }
}

/// Replays the stream through HET-KG's DPS construction: prefetch a
/// window, filter the top-k into the resident set, score the window.
double ReplayHetKg(const StreamSpec& s, size_t capacity, double entity_ratio,
                   size_t dps_window) {
  embedding::BatchedNegativeSampler sampler(s.num_entities, s.negatives,
                                            s.chunk, s.seed);
  core::Prefetcher prefetcher(s.triples, s.batch_size, &sampler,
                              s.seed ^ 0xF00);
  const core::FilterOptions options{capacity, entity_ratio, true};
  const core::FilterQuota quota =
      core::ComputeQuota(options, s.num_entities, s.num_relations);
  uint64_t hits = 0;
  uint64_t total = 0;
  size_t done = 0;
  while (done < s.iterations) {
    const size_t window_len = std::min(dps_window, s.iterations - done);
    const auto window = prefetcher.Prefetch(window_len);
    const auto hot_keys = core::FilterHotKeys(window.frequencies, options,
                                              quota);
    const std::unordered_set<EmbKey> hot(hot_keys.begin(), hot_keys.end());
    for (const auto& batch : window.batches) {
      for (EmbKey key : core::BatchKeys(batch)) {
        ++total;
        if (hot.contains(key)) ++hits;
      }
    }
    done += window_len;
  }
  return total == 0 ? 0.0 : static_cast<double>(hits) / total;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hetkg;
  FlagParser flags;
  bench::DefineCommonFlags(&flags);
  bench::InitBench(&flags, argc, argv);

  bench::PrintBanner("bench_table6_cache_policies",
                     "Table VI - hit ratio vs simple caching techniques");

  bench::Table table(
      {"Dataset", "Capacity", "FIFO", "LRU", "LFU", "Importance", "HET-KG"});
  for (const std::string& name : {"fb15k"s, "wn18"s, "freebase86m"s}) {
    const auto dataset = bench::GetDataset(name, flags);
    core::TrainerConfig config = bench::ConfigFromFlags(flags);
    bench::ApplyDatasetDefaults(name, flags, &config);
    // Policy comparison needs capacities above the per-iteration working
    // set or the access-driven baselines degenerate to zero.
    const size_t capacity = flags.IsSet("cache")
                                ? config.cache_capacity
                                : (name == "freebase86m" ? 4096 : 512);

    StreamSpec spec;
    spec.triples = &dataset.split.train;
    spec.num_entities = dataset.graph.num_entities();
    spec.num_relations = dataset.graph.num_relations();
    spec.batch_size = config.batch_size;
    spec.negatives = config.negatives_per_positive;
    spec.chunk = config.negative_chunk_size;
    spec.seed = config.seed;
    spec.iterations =
        (dataset.split.train.size() + config.batch_size - 1) /
        config.batch_size / config.num_machines;

    core::FifoCache fifo(capacity);
    core::LruCache lru(capacity);
    core::LfuCache lfu(capacity);
    core::ImportanceCache importance(core::TopDegreeKeys(
        dataset.graph.EntityDegrees(), dataset.graph.RelationFrequencies(),
        capacity));
    for (core::CachePolicy* policy :
         std::initializer_list<core::CachePolicy*>{&fifo, &lru, &lfu,
                                                   &importance}) {
      ReplayPolicy(spec, policy);
    }
    const double hetkg = ReplayHetKg(spec, capacity,
                                     config.cache_entity_ratio,
                                     config.sync.dps_window);

    auto pct = [](double v) { return bench::Fmt(v * 100.0, 1) + "%"; };
    table.AddRow({dataset.graph.name(), std::to_string(capacity),
                  pct(fifo.HitRatio()), pct(lru.HitRatio()),
                  pct(lfu.HitRatio()), pct(importance.HitRatio()),
                  pct(hetkg)});
  }
  table.Print("Table VI: cache hit ratio on the identical request stream");
  std::printf(
      "\nPaper reference: FB15k 7.4/11.7/-/15.2/25.2, WN18 16.5/17.6/-/"
      "32.1/35.5,\nFreebase-86m 6.6/8.6/-/34.3/43.1 (FIFO/LRU/Importance/"
      "HET-KG).\nExpected ordering: FIFO < LRU <= Importance < HET-KG.\n");
  return 0;
}
