#include "graph/knowledge_graph.h"

#include <gtest/gtest.h>

#include "graph/loader.h"
#include "graph/stats.h"
#include "graph/synthetic.h"

namespace hetkg::graph {
namespace {

KnowledgeGraph TinyGraph() {
  // 0 -r0-> 1, 1 -r1-> 2, 0 -r0-> 2, 2 -r1-> 3 and a parallel 0 -r1-> 1.
  std::vector<Triple> triples = {
      {0, 0, 1}, {1, 1, 2}, {0, 0, 2}, {2, 1, 3}, {0, 1, 1}};
  return KnowledgeGraph::Create(4, 2, triples, "tiny").value();
}

TEST(KnowledgeGraphTest, CreateValidatesIds) {
  std::vector<Triple> bad_entity = {{0, 0, 9}};
  EXPECT_FALSE(KnowledgeGraph::Create(4, 2, bad_entity).ok());
  std::vector<Triple> bad_relation = {{0, 7, 1}};
  EXPECT_FALSE(KnowledgeGraph::Create(4, 2, bad_relation).ok());
  EXPECT_FALSE(KnowledgeGraph::Create(0, 2, {}).ok());
  EXPECT_FALSE(KnowledgeGraph::Create(4, 0, {}).ok());
}

TEST(KnowledgeGraphTest, CountsAndDegrees) {
  const auto g = TinyGraph();
  EXPECT_EQ(g.num_entities(), 4u);
  EXPECT_EQ(g.num_relations(), 2u);
  EXPECT_EQ(g.num_triples(), 5u);
  const auto deg = g.EntityDegrees();
  EXPECT_EQ(deg[0], 3u);  // Head of 3 triples.
  EXPECT_EQ(deg[1], 3u);  // Tail of 2, head of 1.
  EXPECT_EQ(deg[2], 3u);
  EXPECT_EQ(deg[3], 1u);
  const auto rel = g.RelationFrequencies();
  EXPECT_EQ(rel[0], 2u);
  EXPECT_EQ(rel[1], 3u);
}

TEST(KnowledgeGraphTest, ContainsTriple) {
  const auto g = TinyGraph();
  EXPECT_TRUE(g.ContainsTriple({0, 0, 1}));
  EXPECT_TRUE(g.ContainsTriple({2, 1, 3}));
  EXPECT_FALSE(g.ContainsTriple({3, 1, 2}));
  EXPECT_FALSE(g.ContainsTriple({0, 1, 2}));
}

TEST(KnowledgeGraphTest, CsrCollapsesParallelEdges) {
  const auto g = TinyGraph();
  const auto& csr = g.BuildCsr();
  ASSERT_EQ(csr.offsets.size(), 5u);
  // Vertex 0 neighbors: 1 (weight 2: r0 and r1 edges) and 2 (weight 1).
  const auto begin = csr.offsets[0];
  const auto end = csr.offsets[1];
  ASSERT_EQ(end - begin, 2u);
  EXPECT_EQ(csr.neighbors[begin], 1u);
  EXPECT_EQ(csr.weights[begin], 2u);
  EXPECT_EQ(csr.neighbors[begin + 1], 2u);
  EXPECT_EQ(csr.weights[begin + 1], 1u);
  // Symmetry: vertex 3 has exactly one neighbor, 2.
  EXPECT_EQ(csr.offsets[4] - csr.offsets[3], 1u);
  EXPECT_EQ(csr.neighbors[csr.offsets[3]], 2u);
}

TEST(SplitTest, FractionsRespected) {
  std::vector<Triple> triples;
  for (EntityId i = 0; i + 1 < 100; ++i) {
    triples.push_back({i, 0, static_cast<EntityId>(i + 1)});
  }
  const auto split = SplitTriples(triples, 0.1, 0.2, 5).value();
  EXPECT_EQ(split.valid.size(), 9u);   // floor(99 * 0.1)
  EXPECT_EQ(split.test.size(), 19u);   // floor(99 * 0.2)
  EXPECT_EQ(split.train.size(), 99u - 9u - 19u);
}

TEST(SplitTest, PartitionsAreDisjointAndComplete) {
  std::vector<Triple> triples;
  for (EntityId i = 0; i + 1 < 60; ++i) {
    triples.push_back({i, 0, static_cast<EntityId>(i + 1)});
  }
  const auto split = SplitTriples(triples, 0.25, 0.25, 9).value();
  std::unordered_set<Triple, TripleHash> seen;
  for (const auto* part : {&split.train, &split.valid, &split.test}) {
    for (const Triple& t : *part) {
      EXPECT_TRUE(seen.insert(t).second) << "duplicate across splits";
    }
  }
  EXPECT_EQ(seen.size(), triples.size());
}

TEST(SplitTest, RejectsBadFractions) {
  std::vector<Triple> triples = {{0, 0, 1}};
  EXPECT_FALSE(SplitTriples(triples, 0.6, 0.5, 1).ok());
  EXPECT_FALSE(SplitTriples(triples, -0.1, 0.2, 1).ok());
}

TEST(SyntheticTest, MatchesSpecCounts) {
  SyntheticSpec spec;
  spec.num_entities = 300;
  spec.num_relations = 7;
  spec.num_triples = 2500;
  spec.seed = 3;
  const auto g = GenerateSynthetic(spec).value();
  EXPECT_EQ(g.num_entities(), 300u);
  EXPECT_EQ(g.num_relations(), 7u);
  EXPECT_EQ(g.num_triples(), 2500u);
}

TEST(SyntheticTest, DeduplicationProducesUniqueTriples) {
  SyntheticSpec spec;
  spec.num_entities = 200;
  spec.num_relations = 5;
  spec.num_triples = 3000;
  spec.seed = 4;
  const auto g = GenerateSynthetic(spec).value();
  std::unordered_set<Triple, TripleHash> seen;
  for (const Triple& t : g.triples()) {
    EXPECT_TRUE(seen.insert(t).second);
    EXPECT_NE(t.head, t.tail);
  }
}

TEST(SyntheticTest, DeterministicForSeed) {
  SyntheticSpec spec;
  spec.num_entities = 100;
  spec.num_relations = 4;
  spec.num_triples = 500;
  spec.seed = 12;
  const auto a = GenerateSynthetic(spec).value();
  const auto b = GenerateSynthetic(spec).value();
  ASSERT_EQ(a.num_triples(), b.num_triples());
  for (size_t i = 0; i < a.num_triples(); ++i) {
    EXPECT_EQ(a.triple(i), b.triple(i));
  }
}

TEST(SyntheticTest, RejectsOverDenseDedupSpec) {
  SyntheticSpec spec;
  spec.num_entities = 10;
  spec.num_relations = 1;
  spec.num_triples = 80;  // 10*10*1 = 100 < 4*80.
  EXPECT_FALSE(GenerateSynthetic(spec).ok());
}

TEST(SyntheticTest, AccessSkewMatchesPaperObservation) {
  // Sec. IV-B: on FB15k the top 1% of entities take ~6% of accesses and
  // the top 1% of relations ~36%. The generator is calibrated to land
  // in that neighbourhood.
  const auto g = GenerateSynthetic(Fb15kSpec()).value();
  const auto freq = CountEpochAccesses(g, /*negatives=*/8, /*seed=*/1);
  const double entity_share = TopShare(freq.entity, 0.01);
  const double relation_share = TopShare(freq.relation, 0.01);
  EXPECT_GT(entity_share, 0.03);
  EXPECT_LT(entity_share, 0.12);
  EXPECT_GT(relation_share, 0.22);
  EXPECT_LT(relation_share, 0.52);
}

TEST(SyntheticTest, PresetSpecsMatchPaperTable) {
  const auto fb = Fb15kSpec();
  EXPECT_EQ(fb.num_entities, 14951u);
  EXPECT_EQ(fb.num_relations, 1345u);
  EXPECT_EQ(fb.num_triples, 592213u);
  const auto wn = Wn18Spec();
  EXPECT_EQ(wn.num_entities, 40943u);
  EXPECT_EQ(wn.num_relations, 18u);
  EXPECT_EQ(wn.num_triples, 151442u);
  const auto fb86 = Freebase86mSpec(0.01);
  EXPECT_EQ(fb86.num_relations, 14824u);
  EXPECT_NEAR(static_cast<double>(fb86.num_entities), 86054151.0 * 0.01,
              2.0);
}

TEST(StatsTest, TopShareAndGini) {
  // Uniform distribution: top 10% holds ~10%, Gini ~0.
  std::vector<uint32_t> uniform(100, 5);
  EXPECT_NEAR(TopShare(uniform, 0.1), 0.1, 1e-9);
  EXPECT_NEAR(ComputeSkew(uniform).gini, 0.0, 1e-9);

  // One-hot distribution: top 1% holds everything, Gini ~ 1.
  std::vector<uint32_t> onehot(100, 0);
  onehot[42] = 1000;
  EXPECT_NEAR(TopShare(onehot, 0.01), 1.0, 1e-9);
  EXPECT_GT(ComputeSkew(onehot).gini, 0.95);
}

TEST(LoaderTest, ParsesTsvAndBuildsVocab) {
  Vocabulary entities;
  Vocabulary relations;
  const auto triples = ParseTsvTriples(
                           "alice\tknows\tbob\n"
                           "bob\tknows\tcarol\n"
                           "\n"
                           "# comment line\n"
                           "alice\tlikes\tcarol\n",
                           &entities, &relations)
                           .value();
  ASSERT_EQ(triples.size(), 3u);
  EXPECT_EQ(entities.size(), 3u);
  EXPECT_EQ(relations.size(), 2u);
  EXPECT_EQ(entities.Token(triples[0].head), "alice");
  EXPECT_EQ(relations.Token(triples[2].relation), "likes");
  EXPECT_EQ(*entities.Get("carol"), triples[1].tail);
  EXPECT_FALSE(entities.Get("dave").ok());
}

TEST(LoaderTest, RejectsMalformedLines) {
  Vocabulary entities;
  Vocabulary relations;
  const auto result =
      ParseTsvTriples("alice\tknows\n", &entities, &relations);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST(LoaderTest, RejectsEmptyFields) {
  for (const char* body : {"alice\tknows\tbob\nalice\t\tbob\n",
                           "alice\tknows\tbob\nalice\t \tbob\n"}) {
    Vocabulary entities;
    Vocabulary relations;
    const auto result = ParseTsvTriples(body, &entities, &relations);
    ASSERT_FALSE(result.ok()) << body;
    EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
    EXPECT_NE(result.status().ToString().find("line 2"), std::string::npos)
        << result.status().ToString();
    EXPECT_FALSE(relations.Get("").ok());
  }
}

TEST(LoaderTest, LoadsDatasetFromFiles) {
  const std::string dir = ::testing::TempDir();
  const std::string train_path = dir + "/train.tsv";
  const std::string test_path = dir + "/test.tsv";
  {
    FILE* f = fopen(train_path.c_str(), "w");
    fputs("a\tr1\tb\nb\tr1\tc\n", f);
    fclose(f);
    f = fopen(test_path.c_str(), "w");
    fputs("a\tr1\tc\n", f);
    fclose(f);
  }
  const auto ds = LoadTsvDataset(train_path, "", test_path, "mini").value();
  EXPECT_EQ(ds.split.train.size(), 2u);
  EXPECT_EQ(ds.split.valid.size(), 0u);
  EXPECT_EQ(ds.split.test.size(), 1u);
  EXPECT_EQ(ds.graph.num_triples(), 3u);
  EXPECT_EQ(ds.graph.num_entities(), 3u);
  EXPECT_TRUE(ds.graph.ContainsTriple(ds.split.test[0]));
}

TEST(LoaderTest, MissingFileIsIoError) {
  const auto result = LoadTsvDataset("/nonexistent/path.tsv", "", "");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace hetkg::graph
