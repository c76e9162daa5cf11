#include "harness.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/logging.h"
#include "common/proc_stats.h"
#include "core/trainer_flags.h"
#include "graph/serialize.h"

namespace hetkg::bench {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::AddRow(std::vector<std::string> cells) {
  HETKG_CHECK(cells.size() == headers_.size())
      << "row has " << cells.size() << " cells, expected " << headers_.size();
  rows_.push_back(std::move(cells));
}

std::string Table::ToString() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    os << "|";
    for (size_t c = 0; c < row.size(); ++c) {
      os << " " << row[c];
      os << std::string(widths[c] - row[c].size(), ' ') << " |";
    }
    os << "\n";
  };
  emit_row(headers_);
  os << "|";
  for (size_t c = 0; c < headers_.size(); ++c) {
    os << std::string(widths[c] + 2, '-') << "|";
  }
  os << "\n";
  for (const auto& row : rows_) {
    emit_row(row);
  }
  return os.str();
}

std::string Table::ToCsv() const {
  std::string out;
  auto emit_row = [&out](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c != 0) out.push_back(',');
      const std::string& cell = row[c];
      if (cell.find_first_of(",\"\n\r") == std::string::npos) {
        out.append(cell);
        continue;
      }
      out.push_back('"');
      for (char ch : cell) {
        if (ch == '"') out.push_back('"');
        out.push_back(ch);
      }
      out.push_back('"');
    }
    out.push_back('\n');
  };
  emit_row(headers_);
  for (const auto& row : rows_) {
    emit_row(row);
  }
  return out;
}

void Table::Print(const std::string& title) const {
  std::printf("\n== %s ==\n%s", title.c_str(), ToString().c_str());
  std::fflush(stdout);
}

std::string Fmt(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

void PrintBanner(const std::string& name, const std::string& what) {
  std::printf("==============================================================\n");
  std::printf("%s\nReproduces: %s\n", name.c_str(), what.c_str());
  std::printf("==============================================================\n");
  std::fflush(stdout);
}

core::TrainerConfig FlagDefaults() {
  core::TrainerConfig defaults;
  defaults.dim = 16;
  defaults.batch_size = 32;
  defaults.cache_capacity = 64;
  return defaults;
}

void DefineCommonFlags(FlagParser* flags) {
  core::DefineTrainerFlags(flags, FlagDefaults());
  core::DefineDatasetFlags(flags, 0.25);
  flags->Define("epochs", "6", "training epochs");
  flags->Define("entity_ratio", "0.25", "entity share of the cache");
  flags->Define("eval_triples", "400", "test triples evaluated (0 = all)");
  flags->Define("eval_candidates", "1000",
                "ranking candidates (0 = all entities)");
}

namespace {

Result<core::TrainerConfig> BindFlags(const FlagParser& flags) {
  HETKG_ASSIGN_OR_RETURN(core::TrainerConfig config,
                         core::TrainerConfigFromFlags(flags));
  HETKG_ASSIGN_OR_RETURN(config.cache_entity_ratio,
                         flags.TryGetDouble("entity_ratio"));
  return config;
}

}  // namespace

std::string SuffixedPath(const std::string& path, const std::string& tag) {
  if (path.empty() || tag.empty()) return path;
  const size_t slash = path.find_last_of('/');
  const size_t dot = path.find_last_of('.');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return path + "_" + tag;
  }
  return path.substr(0, dot) + "_" + tag + path.substr(dot);
}

core::TrainerConfig ConfigFromFlags(const FlagParser& flags) {
  Result<core::TrainerConfig> config = BindFlags(flags);
  HETKG_CHECK(config.ok()) << config.status().ToString();
  return std::move(config).value();
}

eval::EvalOptions EvalOptionsFromFlags(const FlagParser& flags) {
  eval::EvalOptions options;
  options.max_triples = static_cast<size_t>(flags.GetInt("eval_triples"));
  options.num_candidates =
      static_cast<size_t>(flags.GetInt("eval_candidates"));
  options.num_threads = static_cast<size_t>(flags.GetInt("threads"));
  options.seed = static_cast<uint64_t>(flags.GetInt("seed")) ^ 0xEEAA;
  return options;
}

graph::SyntheticDataset GetDataset(const std::string& name,
                                   const FlagParser& flags) {
  Result<graph::SyntheticSpec> preset = core::PresetSpecFromFlags(name, flags);
  if (!preset.ok()) {
    std::fprintf(stderr, "%s\n", preset.status().ToString().c_str());
    std::exit(2);
  }
  graph::SyntheticSpec spec = std::move(preset).value();
  spec.num_triples = std::max<size_t>(10000, spec.num_triples);

  // Generation is the slowest part of a bench run; cache the snapshot
  // keyed by every generation parameter.
  char cache_path[256];
  std::snprintf(cache_path, sizeof(cache_path),
                "/tmp/hetkg_dataset_%s_%zu_%zu_%zu_%.3f_%.3f_%zu_%zu_%llu.bin",
                spec.name.c_str(), spec.num_entities, spec.num_relations,
                spec.num_triples, spec.entity_exponent,
                spec.relation_exponent, spec.latent_dim,
                spec.tail_candidates,
                static_cast<unsigned long long>(spec.seed));
  if (auto cached = graph::LoadDataset(cache_path); cached.ok()) {
    return graph::SyntheticDataset{std::move(cached->graph),
                                   std::move(cached->split)};
  }
  auto dataset = graph::GenerateDataset(spec);
  HETKG_CHECK(dataset.ok()) << dataset.status().ToString();
  graph::SaveDataset(cache_path, dataset->graph, dataset->split)
      .ok();  // Best-effort; regeneration is always possible.
  return std::move(dataset).value();
}

void InitBench(FlagParser* flags, int argc, char** argv) {
  const Status status = flags->Parse(argc, argv);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 flags->Usage(argv[0]).c_str());
    std::exit(2);
  }
  if (const Result<core::TrainerConfig> bound = BindFlags(*flags);
      !bound.ok()) {
    std::fprintf(stderr, "%s\n", bound.status().ToString().c_str());
    std::exit(2);
  }
  SetLogLevel(LogLevel::kWarning);
}

void ApplyDatasetDefaults(const std::string& dataset_name,
                          const FlagParser& flags,
                          core::TrainerConfig* config) {
  if (dataset_name != "freebase86m") return;
  if (!flags.IsSet("batch")) {
    config->batch_size = 512;  // Paper Table II: b = 512 on Freebase-86m.
    config->negative_chunk_size = std::max(
        config->negative_chunk_size, config->negatives_per_positive);
  }
  if (!flags.IsSet("cache")) {
    // "setting the top-k value larger" (Sec. VI-B3): bigger batches make
    // more rows profitable to cache.
    config->cache_capacity = 1024;
  }
}

RunOutcome RunSystem(core::SystemKind system,
                     const core::TrainerConfig& config,
                     const graph::SyntheticDataset& dataset,
                     size_t num_epochs, const eval::EvalOptions& eval_options,
                     bool with_validation_curve) {
  // Benches train several systems against one set of flags; give each
  // run its own trace/metrics file instead of overwriting the last.
  core::TrainerConfig run_config = config;
  const std::string tag(core::SystemKindName(system));
  run_config.obs.trace_out = SuffixedPath(config.obs.trace_out, tag);
  run_config.obs.metrics_json = SuffixedPath(config.obs.metrics_json, tag);
  auto engine = core::MakeEngine(system, run_config, dataset.graph,
                                 dataset.split.train);
  HETKG_CHECK(engine.ok()) << engine.status().ToString();
  if (with_validation_curve) {
    eval::EvalOptions valid_options = eval_options;
    valid_options.max_triples =
        std::min<size_t>(eval_options.max_triples == 0
                             ? 200
                             : eval_options.max_triples,
                         200);
    (*engine)->EnableValidation(&dataset.graph, dataset.split.valid,
                                valid_options);
  }
  if (!run_config.resume_from.empty()) {
    const Status status =
        (*engine)->RestoreTrainState(run_config.resume_from);
    HETKG_CHECK(status.ok()) << status.ToString();
  }
  auto report = (*engine)->Train(num_epochs);
  HETKG_CHECK(report.ok()) << report.status().ToString();
  auto metrics = eval::EvaluateLinkPrediction(
      (*engine)->Embeddings(), (*engine)->ScoreFn(), dataset.graph,
      dataset.split.test, eval_options);
  HETKG_CHECK(metrics.ok()) << metrics.status().ToString();
  return RunOutcome{std::move(report).value(), std::move(metrics).value()};
}

void RunLinkPredictionTable(const std::string& title,
                            const graph::SyntheticDataset& dataset,
                            const core::TrainerConfig& base_config,
                            const std::vector<embedding::ModelKind>& models,
                            size_t num_epochs,
                            const eval::EvalOptions& eval_options) {
  static const core::SystemKind kSystems[] = {
      core::SystemKind::kPbg, core::SystemKind::kDglKe,
      core::SystemKind::kHetKgCps, core::SystemKind::kHetKgDps};
  Table table({"System", "Model", "MRR", "Hits@1", "Hits@10", "Time(s)",
               "Hit ratio", "Rows/s", "RSS(MB)"});
  for (embedding::ModelKind model : models) {
    for (core::SystemKind system : kSystems) {
      core::TrainerConfig config = base_config;
      config.model = model;
      // PBG rejects --storage=tiered (it swaps whole partitions from
      // disk by design — that IS its tiering); keep the baseline
      // comparable by running it in-RAM as always.
      if (system == core::SystemKind::kPbg) config.storage = {};
      // RunSystem adds the per-system suffix; the model tag here keeps
      // multi-model tables from reusing a file across models.
      const std::string tag(embedding::ModelKindName(model));
      config.obs.trace_out = SuffixedPath(base_config.obs.trace_out, tag);
      config.obs.metrics_json =
          SuffixedPath(base_config.obs.metrics_json, tag);
      const RunOutcome outcome = RunSystem(system, config, dataset,
                                           num_epochs, eval_options);
      // Trained-triples throughput against real wall time (the
      // simulated Time(s) column models the cluster critical path, not
      // this process), and the process RSS right after the run — the
      // number the tiered storage mode exists to shrink.
      const double wall = outcome.report.total_wall_seconds;
      const double rows_per_sec =
          wall > 0.0 ? static_cast<double>(dataset.split.train.size()) *
                           static_cast<double>(num_epochs) / wall
                     : 0.0;
      table.AddRow({std::string(core::SystemKindName(system)),
                    std::string(embedding::ModelKindName(model)),
                    Fmt(outcome.test_metrics.mrr, 3),
                    Fmt(outcome.test_metrics.hits1, 3),
                    Fmt(outcome.test_metrics.hits10, 3),
                    Fmt(outcome.report.total_time.total_seconds(), 2),
                    system == core::SystemKind::kPbg ||
                            system == core::SystemKind::kDglKe
                        ? "-"
                        : Fmt(outcome.report.overall_hit_ratio, 3),
                    Fmt(rows_per_sec, 0),
                    Fmt(static_cast<double>(CurrentRssBytes()) / 1048576.0,
                        1)});
    }
  }
  table.Print(title);
}

}  // namespace hetkg::bench
