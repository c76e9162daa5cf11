#include "graph/loader.h"

#include <fstream>
#include <sstream>

#include "common/string_util.h"

namespace hetkg::graph {

uint32_t Vocabulary::GetOrAdd(const std::string& token) {
  auto [it, inserted] =
      ids_.try_emplace(token, static_cast<uint32_t>(tokens_.size()));
  if (inserted) {
    tokens_.push_back(token);
  }
  return it->second;
}

Result<uint32_t> Vocabulary::Get(const std::string& token) const {
  auto it = ids_.find(token);
  if (it == ids_.end()) {
    return Status::NotFound("unknown token: " + token);
  }
  return it->second;
}

Result<std::vector<Triple>> ParseTsvTriples(std::string_view body,
                                            Vocabulary* entities,
                                            Vocabulary* relations) {
  std::vector<Triple> triples;
  size_t line_no = 0;
  for (std::string_view line : SplitString(body, '\n')) {
    ++line_no;
    line = TrimString(line);
    if (line.empty() || line.front() == '#') continue;
    const auto fields = SplitString(line, '\t');
    if (fields.size() != 3) {
      return Status::Corruption("line " + std::to_string(line_no) +
                                ": expected 3 tab-separated fields, got " +
                                std::to_string(fields.size()));
    }
    std::string_view tokens[3];
    for (size_t f = 0; f < 3; ++f) {
      tokens[f] = TrimString(fields[f]);
      if (tokens[f].empty()) {
        return Status::Corruption("line " + std::to_string(line_no) +
                                  ": field " + std::to_string(f + 1) +
                                  " is empty");
      }
    }
    Triple t;
    t.head = entities->GetOrAdd(std::string(tokens[0]));
    t.relation = relations->GetOrAdd(std::string(tokens[1]));
    t.tail = entities->GetOrAdd(std::string(tokens[2]));
    triples.push_back(t);
  }
  return triples;
}

namespace {

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

Result<LoadedDataset> LoadTsvDataset(const std::string& train_path,
                                     const std::string& valid_path,
                                     const std::string& test_path,
                                     std::string name) {
  Vocabulary entities;
  Vocabulary relations;

  HETKG_ASSIGN_OR_RETURN(std::string train_body, ReadFile(train_path));
  HETKG_ASSIGN_OR_RETURN(std::vector<Triple> train,
                         ParseTsvTriples(train_body, &entities, &relations));

  std::vector<Triple> valid;
  if (!valid_path.empty()) {
    HETKG_ASSIGN_OR_RETURN(std::string body, ReadFile(valid_path));
    HETKG_ASSIGN_OR_RETURN(valid,
                           ParseTsvTriples(body, &entities, &relations));
  }
  std::vector<Triple> test;
  if (!test_path.empty()) {
    HETKG_ASSIGN_OR_RETURN(std::string body, ReadFile(test_path));
    HETKG_ASSIGN_OR_RETURN(test, ParseTsvTriples(body, &entities, &relations));
  }

  std::vector<Triple> all;
  all.reserve(train.size() + valid.size() + test.size());
  all.insert(all.end(), train.begin(), train.end());
  all.insert(all.end(), valid.begin(), valid.end());
  all.insert(all.end(), test.begin(), test.end());

  HETKG_ASSIGN_OR_RETURN(
      KnowledgeGraph graph,
      KnowledgeGraph::Create(entities.size(), relations.size(), std::move(all),
                             std::move(name)));
  LoadedDataset out{std::move(graph),
                    DatasetSplit{std::move(train), std::move(valid),
                                 std::move(test)},
                    std::move(entities), std::move(relations)};
  return out;
}

}  // namespace hetkg::graph
