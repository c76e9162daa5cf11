#ifndef HETKG_BENCH_HARNESS_H_
#define HETKG_BENCH_HARNESS_H_

#include <string>
#include <vector>

#include "common/flags.h"
#include "core/trainer.h"
#include "eval/link_prediction.h"
#include "graph/synthetic.h"

namespace hetkg::bench {

/// Fixed-width console table matching the row/column layout of the
/// paper's tables, so bench output can be diffed against the paper
/// side by side.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Appends one row; must have as many cells as there are headers.
  void AddRow(std::vector<std::string> cells);

  /// Renders with aligned columns.
  std::string ToString() const;

  /// Renders as RFC 4180 CSV: one header line then one line per row;
  /// cells containing commas, quotes or newlines are quoted, with
  /// embedded quotes doubled.
  std::string ToCsv() const;

  /// Convenience: render to stdout with a title banner.
  void Print(const std::string& title) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with `digits` decimal places.
std::string Fmt(double value, int digits = 3);

/// Prints the standard bench banner: binary name + what it reproduces.
void PrintBanner(const std::string& name, const std::string& what);

/// The single-core-scale defaults of the TrainerConfig flags on the
/// benches: dim 16, batch 32, cache 64; every other field keeps
/// TrainerConfig's default. Pass paper-scale values to override.
core::TrainerConfig FlagDefaults();

/// Registers the flags every table/figure bench accepts: the shared
/// TrainerConfig and dataset-scale flags (core/trainer_flags.h, with
/// FlagDefaults() and --triple_fraction 0.25) plus the bench-only
/// --epochs --entity_ratio --eval_triples --eval_candidates.
void DefineCommonFlags(FlagParser* flags);

/// Builds a TrainerConfig from the parsed common flags. InitBench has
/// already rejected malformed values, so this cannot fail.
core::TrainerConfig ConfigFromFlags(const FlagParser& flags);

/// Inserts "_tag" before `path`'s extension ("run.json", "cps" ->
/// "run_cps.json"); appends when there is none. Empty paths stay empty,
/// so disabled obs outputs pass through unchanged. Benches that train
/// several systems use this to give each run its own trace/metrics file
/// instead of letting later runs clobber earlier ones.
std::string SuffixedPath(const std::string& path, const std::string& tag);

/// Evaluation options from the parsed common flags.
eval::EvalOptions EvalOptionsFromFlags(const FlagParser& flags);

/// One of the paper's datasets, generated synthetically at the scale
/// given by the flags. `name` is "fb15k", "wn18" or "freebase86m";
/// `triple_fraction` (from flags) scales the triple count so benches
/// finish on one core, floored at 10000 triples, and `freebase_scale`
/// scales the Freebase entity count.
graph::SyntheticDataset GetDataset(const std::string& name,
                                   const FlagParser& flags);

/// Parses flags and binds them once (exits 2 with a message on an
/// unknown flag or a malformed value, before any dataset is built), and
/// silences info logs so table output stays clean.
void InitBench(FlagParser* flags, int argc, char** argv);

/// Applies the paper's per-dataset hyperparameters (Table II) for
/// values the user did not override: Freebase-86m trains with batch 512
/// (vs 32 on FB15k/WN18) and a proportionally larger cache.
void ApplyDatasetDefaults(const std::string& dataset_name,
                          const FlagParser& flags,
                          core::TrainerConfig* config);

/// Trains `system` on a dataset and evaluates the test split.
struct RunOutcome {
  core::TrainReport report;
  eval::EvalMetrics test_metrics;
};
RunOutcome RunSystem(core::SystemKind system,
                     const core::TrainerConfig& config,
                     const graph::SyntheticDataset& dataset,
                     size_t num_epochs, const eval::EvalOptions& eval_options,
                     bool with_validation_curve = false);

/// Emits one of the paper's link-prediction tables (III/IV/V): every
/// system x model combination with MRR / Hits@1 / Hits@10 / Time.
void RunLinkPredictionTable(const std::string& title,
                            const graph::SyntheticDataset& dataset,
                            const core::TrainerConfig& base_config,
                            const std::vector<embedding::ModelKind>& models,
                            size_t num_epochs,
                            const eval::EvalOptions& eval_options);

}  // namespace hetkg::bench

#endif  // HETKG_BENCH_HARNESS_H_
