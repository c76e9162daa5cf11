#ifndef HETKG_GRAPH_LOADER_H_
#define HETKG_GRAPH_LOADER_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "graph/knowledge_graph.h"

namespace hetkg::graph {

/// Bidirectional string<->id dictionary built while loading raw triples.
class Vocabulary {
 public:
  /// Returns the existing id or assigns the next one.
  uint32_t GetOrAdd(const std::string& token);

  /// Returns the id, or nullopt-like -1 cast if unknown.
  Result<uint32_t> Get(const std::string& token) const;

  const std::string& Token(uint32_t id) const { return tokens_[id]; }
  size_t size() const { return tokens_.size(); }

 private:
  std::unordered_map<std::string, uint32_t> ids_;
  std::vector<std::string> tokens_;
};

/// A graph loaded from raw TSV splits with its dictionaries.
struct LoadedDataset {
  KnowledgeGraph graph;   // All triples (train + valid + test).
  DatasetSplit split;
  Vocabulary entities;
  Vocabulary relations;
};

/// Loads tab-separated "head<TAB>relation<TAB>tail" files, the standard
/// layout of the FB15k/WN18 distributions. Valid/test paths may be
/// empty, yielding empty evaluation sets. Ids are assigned in first-seen
/// order across the three files.
Result<LoadedDataset> LoadTsvDataset(const std::string& train_path,
                                     const std::string& valid_path,
                                     const std::string& test_path,
                                     std::string name = "tsv");

/// Parses one in-memory TSV body (used by tests and by LoadTsvDataset).
/// Blank and '#' lines are skipped; a line without exactly three
/// fields, or with a field that is empty after trimming, is Corruption
/// naming its line number.
Result<std::vector<Triple>> ParseTsvTriples(std::string_view body,
                                            Vocabulary* entities,
                                            Vocabulary* relations);

}  // namespace hetkg::graph

#endif  // HETKG_GRAPH_LOADER_H_
