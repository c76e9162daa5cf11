#ifndef HETKG_CORE_TRAINER_FLAGS_H_
#define HETKG_CORE_TRAINER_FLAGS_H_

#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/status.h"
#include "core/trainer.h"
#include "graph/synthetic.h"
#include "sim/transport.h"

namespace hetkg::core {

/// The one command-line binding of TrainerConfig, shared by
/// example_hetkg_train and every paper bench.

/// Registers the TrainerConfig flags: model and batch sizes, cache and
/// sync knobs, pipeline, threads, kernel, seed, the simulated network
/// faults and fault schedules, checkpointing, observability and
/// storage. Each flag defaults to the matching field of `defaults`; the
/// fault schedules always default to empty.
void DefineTrainerFlags(FlagParser* flags, const TrainerConfig& defaults);

/// Binds the flags registered by DefineTrainerFlags onto a
/// TrainerConfig. Fields without a flag keep TrainerConfig's own
/// defaults, except negative_chunk_size (= max(1, --negatives)) and
/// pbg_partitions (= 2 * --machines). A non-numeric or non-boolean
/// value, a negative count, a malformed fault schedule, or a bad
/// --storage / --cold_dtype is InvalidArgument naming the flag.
Result<TrainerConfig> TrainerConfigFromFlags(const FlagParser& flags);

/// Parses one "machine:tick[,machine:tick...]" process-fault schedule
/// (--fault_worker_crash, --fault_ps_restart; the proc runtime's
/// --proc_kill and --proc_stop reuse it). Malformed items, ids that do
/// not fit a uint32, and ticks that overflow uint64 (ERANGE) are
/// InvalidArgument, never silently clamped or wrapped. The empty
/// string is the empty schedule.
Result<std::vector<sim::ProcessFault>> ParseProcessFaultSpec(
    const std::string& spec, sim::ProcessFaultKind kind);

/// For the command-line binaries: prints "`what`: <status>" (just the
/// status when `what` is empty) to stderr and returns the exit code, 2
/// for InvalidArgument (a rejected flag value or setting combination)
/// and 1 for any other error. Returning it from main() runs the
/// destructors that reap proc workers and remove cold-tier slabs.
int ReportError(const Status& status, std::string_view what);

/// The value of `result`; on an error exits with ReportError's code,
/// skipping destructors, so only for steps before any engine exists.
template <typename T>
T ValueOrExit(Result<T> result, std::string_view what) {
  if (!result.ok()) std::exit(ReportError(result.status(), what));
  return std::move(result).value();
}

/// Registers --triple_fraction (defaulting to `triple_fraction`) and
/// --freebase_scale, the scale knobs of the synthetic presets.
void DefineDatasetFlags(FlagParser* flags, double triple_fraction);

/// The synthetic preset `name` ("fb15k", "wn18" or "freebase86m") with
/// its triple count scaled by --triple_fraction and, for freebase86m,
/// its size by --freebase_scale. Unknown names and malformed values are
/// InvalidArgument.
Result<graph::SyntheticSpec> PresetSpecFromFlags(std::string_view name,
                                                 const FlagParser& flags);

}  // namespace hetkg::core

#endif  // HETKG_CORE_TRAINER_FLAGS_H_
