// Golden hashes of generated datasets. The generator is the only source
// of the paper's workloads, so any change to its output bytes (a new
// sampler, a reordered draw, a different float expression) changes
// every trained number downstream. These hashes pin the train, valid
// and test triples of the shapes the benches and the perf workloads
// use; a deliberate change to the generator must update them and say
// so.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "graph/synthetic.h"

namespace hetkg::graph {
namespace {

/// FNV-1a over the (head, relation, tail) ids of `triples` in order.
uint64_t HashTriples(const std::vector<Triple>& triples) {
  uint64_t h = 0xCBF29CE484222325ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  };
  mix(triples.size());
  for (const Triple& t : triples) {
    mix(t.head);
    mix(t.relation);
    mix(t.tail);
  }
  return h;
}

struct SplitHashes {
  uint64_t train;
  uint64_t valid;
  uint64_t test;
};

void ExpectDatasetHashes(const SyntheticSpec& spec, SplitHashes expected) {
  const SyntheticDataset d = GenerateDataset(spec).value();
  const SplitHashes got{HashTriples(d.split.train),
                        HashTriples(d.split.valid),
                        HashTriples(d.split.test)};
  EXPECT_EQ(got.train, expected.train)
      << spec.name << " train 0x" << std::hex << got.train;
  EXPECT_EQ(got.valid, expected.valid)
      << spec.name << " valid 0x" << std::hex << got.valid;
  EXPECT_EQ(got.test, expected.test)
      << spec.name << " test 0x" << std::hex << got.test;
}

SyntheticSpec Scaled(SyntheticSpec spec, double fraction, uint64_t seed) {
  spec.num_triples = static_cast<size_t>(spec.num_triples * fraction);
  spec.seed = seed;
  return spec;
}

TEST(SyntheticGoldenTest, Fb15kAtThirtyPercent) {
  ExpectDatasetHashes(Scaled(Fb15kSpec(), 0.30, 7),
                      {0xDB40929D47B55548ULL, 0x480780B74A26A852ULL,
                       0x17367BDA8943A67EULL});
}

TEST(SyntheticGoldenTest, Freebase86mScaled) {
  ExpectDatasetHashes(Scaled(Freebase86mSpec(0.01), 0.04, 7),
                      {0x799316329614865AULL, 0xD8153FE7DD2AA991ULL,
                       0x04C54310AFE31BA6ULL});
}

TEST(SyntheticGoldenTest, Wn18Full) {
  ExpectDatasetHashes(Wn18Spec(),
                      {0x40F15C912657FBBDULL, 0x358C45FAF2E032C3ULL,
                       0x7A54447F9C075914ULL});
}

TEST(SyntheticGoldenTest, UnstructuredWithDuplicates) {
  SyntheticSpec spec;
  spec.name = "unstructured";
  // Dense enough (500 x 8 x 500 slots) that repeats do occur.
  spec.num_entities = 500;
  spec.num_relations = 8;
  spec.num_triples = 60000;
  spec.planted_structure = false;
  spec.deduplicate = false;
  spec.seed = 7;
  ExpectDatasetHashes(spec, {0x1B1615844B8A3A2AULL, 0x739A88619519A19DULL,
                             0x02EAC176EAEC9863ULL});
}

}  // namespace
}  // namespace hetkg::graph
