#include "core/trainer_flags.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdint>
#include <cstdlib>

#include "embedding/tiered_store.h"

namespace hetkg::core {

namespace {

std::string FlagDefault(size_t value) { return std::to_string(value); }
std::string FlagDefault(bool value) { return value ? "true" : "false"; }
std::string FlagDefault(double value) {
  // Shortest round-trip form, so 0.1 shows as "0.1" and parses back to
  // the same bits.
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

/// Reads a count flag into an unsigned field; negative values are
/// rejected rather than wrapped to a huge size.
template <typename T>
Status ReadCount(const FlagParser& flags, std::string_view name, T* out) {
  HETKG_ASSIGN_OR_RETURN(const int64_t value, flags.TryGetInt(name));
  if (value < 0) {
    return Status::InvalidArgument("flag --" + std::string(name) +
                                   " must be non-negative: " +
                                   std::to_string(value));
  }
  *out = static_cast<T>(value);
  return Status::OK();
}

/// Appends the schedule of one process-fault flag to `events`.
Status ReadSchedule(const FlagParser& flags, std::string_view name,
                    sim::ProcessFaultKind kind,
                    std::vector<sim::ProcessFault>* events) {
  Result<std::vector<sim::ProcessFault>> parsed =
      ParseProcessFaultSpec(flags.GetString(name), kind);
  if (!parsed.ok()) {
    return Status::InvalidArgument("flag --" + std::string(name) + ": " +
                                   parsed.status().message());
  }
  events->insert(events->end(), parsed->begin(), parsed->end());
  return Status::OK();
}

}  // namespace

void DefineTrainerFlags(FlagParser* flags, const TrainerConfig& defaults) {
  flags->Define("dim", FlagDefault(defaults.dim),
                "embedding dimension (paper: 400)");
  flags->Define("lr", FlagDefault(defaults.learning_rate),
                "AdaGrad learning rate");
  flags->Define("batch", FlagDefault(defaults.batch_size),
                "mini-batch size per worker (paper Table II)");
  flags->Define("negatives", FlagDefault(defaults.negatives_per_positive),
                "negatives per positive (paper Table II)");
  flags->Define("machines", FlagDefault(defaults.num_machines),
                "simulated machines / workers");
  flags->Define("cache", FlagDefault(defaults.cache_capacity),
                "hot-embedding cache rows per worker");
  flags->Define("staleness", FlagDefault(defaults.sync.staleness_bound),
                "staleness bound P (iterations)");
  flags->Define("dps_window", FlagDefault(defaults.sync.dps_window),
                "DPS prefetch window D (iterations)");
  // Async pipeline engine (DESIGN.md §12). Off by default: the
  // deterministic mode ticks the stages in lockstep.
  flags->Define("async", FlagDefault(defaults.sync.async_pipeline),
                "run the PS engines' sample/pull/compute/push stages on "
                "their own threads with bounded-staleness overlap "
                "(results no longer bit-reproducible run to run)");
  flags->Define("max_pipeline_staleness",
                FlagDefault(defaults.sync.pipeline_staleness),
                "async mode: iterations the pull stage may run ahead of "
                "the last fully pushed iteration (0 = rendezvous)");
  flags->Define("threads", FlagDefault(defaults.num_threads),
                "compute threads for the intra-batch forward/backward "
                "fan-out (bit-identical results at any value)");
  flags->Define("kernel", defaults.kernel,
                "score/optimizer kernel path: auto | scalar | vector "
                "(bit-identical results at any value)");
  flags->Define("seed", FlagDefault(defaults.seed), "global seed");
  // Simulated network faults (sim/transport.h). All-zero probabilities
  // keep the perfect-network behaviour bit-identical; a fixed
  // --fault_seed replays a scenario exactly.
  flags->Define("fault_drop", FlagDefault(defaults.fault.drop_prob),
                "probability one wire attempt is lost in the network");
  flags->Define("fault_duplicate", FlagDefault(defaults.fault.duplicate_prob),
                "probability a delivered message arrives twice");
  flags->Define("fault_delay", FlagDefault(defaults.fault.delay_prob),
                "probability a delivered message is late");
  flags->Define("fault_retries", FlagDefault(defaults.fault.max_retries),
                "retransmissions before the sender gives up");
  flags->Define("fault_seed", FlagDefault(defaults.fault.seed),
                "seed of the deterministic fault plan");
  // Process-level fault events (DESIGN.md §9): explicit schedules on the
  // transport's logical clock, so a crash scenario replays
  // bit-identically; they fire even when every probability is zero.
  flags->Define("fault_worker_crash", "",
                "scheduled worker crashes as machine:tick[,machine:tick...] "
                "on the transport's logical clock (empty = none)");
  flags->Define("fault_ps_restart", "",
                "scheduled PS shard restarts as machine:tick[,...] "
                "(empty = none)");
  flags->Define("fault_halt_after", FlagDefault(defaults.halt_after_iterations),
                "simulate a hard crash: stop training after N global "
                "iterations without flushing (0 = run to completion)");
  // Crash-recovery checkpointing (DESIGN.md §9).
  flags->Define("checkpoint_dir", defaults.checkpoint_dir,
                "directory receiving periodic full-training-state "
                "snapshots + MANIFEST (empty = checkpointing off)");
  flags->Define("checkpoint_every", FlagDefault(defaults.checkpoint_every),
                "snapshot every N global iterations (PBG: every N "
                "epochs; 0 = no periodic saves)");
  flags->Define("keep_checkpoints", FlagDefault(defaults.keep_checkpoints),
                "retained snapshots; older ones are pruned (0 = keep all)");
  flags->Define("checkpoint_fsync", FlagDefault(defaults.checkpoint_fsync),
                "fsync snapshot/manifest temp files before the rename "
                "and the directory after it (power-loss durability; "
                "false = faster saves, process-crash durability only)");
  flags->Define("resume_from", defaults.resume_from,
                "resume training from a snapshot file or checkpoint "
                "directory (newest valid manifest entry wins)");
  // Observability outputs (DESIGN.md §8). Empty paths keep tracing and
  // metrics export disabled, bit-identical to a build without them.
  flags->Define("trace_out", defaults.obs.trace_out,
                "Chrome/Perfetto trace-event JSON output path; open at "
                "ui.perfetto.dev (empty = tracing off)");
  flags->Define("metrics_json", defaults.obs.metrics_json,
                "per-epoch metrics time-series JSON output path "
                "(empty = export off)");
  flags->Define("metrics_window", FlagDefault(defaults.obs.metrics_window),
                "also sample metrics every N iterations within an epoch "
                "(0 = per-epoch only; needs --metrics_json)");
  // Two-tier embedding storage (DESIGN.md §16).
  flags->Define("storage", defaults.storage.enabled ? "tiered" : "ram",
                "embedding table backing: ram (all rows resident) | "
                "tiered (mmap-backed cold tier; PS engines + sim runtime "
                "only)");
  flags->Define("cold_dir", defaults.storage.cold_dir,
                "directory for the tiered cold-tier slab files (required "
                "with --storage=tiered)");
  flags->Define("cold_dtype",
                std::string(embedding::ColdDtypeName(defaults.storage.dtype)),
                "cold-tier row encoding: fp32 | fp16 | int8 (per-row "
                "affine scale; fp32 accumulation everywhere)");
}

Result<TrainerConfig> TrainerConfigFromFlags(const FlagParser& flags) {
  TrainerConfig config;
  HETKG_RETURN_IF_ERROR(ReadCount(flags, "dim", &config.dim));
  HETKG_ASSIGN_OR_RETURN(config.learning_rate, flags.TryGetDouble("lr"));
  HETKG_RETURN_IF_ERROR(ReadCount(flags, "batch", &config.batch_size));
  HETKG_RETURN_IF_ERROR(
      ReadCount(flags, "negatives", &config.negatives_per_positive));
  config.negative_chunk_size =
      std::max<size_t>(1, config.negatives_per_positive);
  HETKG_RETURN_IF_ERROR(ReadCount(flags, "machines", &config.num_machines));
  config.pbg_partitions = 2 * config.num_machines;
  HETKG_RETURN_IF_ERROR(ReadCount(flags, "cache", &config.cache_capacity));
  HETKG_RETURN_IF_ERROR(
      ReadCount(flags, "staleness", &config.sync.staleness_bound));
  HETKG_RETURN_IF_ERROR(
      ReadCount(flags, "dps_window", &config.sync.dps_window));
  HETKG_ASSIGN_OR_RETURN(config.sync.async_pipeline,
                         flags.TryGetBool("async"));
  HETKG_RETURN_IF_ERROR(ReadCount(flags, "max_pipeline_staleness",
                                  &config.sync.pipeline_staleness));
  HETKG_RETURN_IF_ERROR(ReadCount(flags, "threads", &config.num_threads));
  config.kernel = flags.GetString("kernel");
  // Seeds are bit patterns, so a negative value is accepted and wraps.
  HETKG_ASSIGN_OR_RETURN(const int64_t seed, flags.TryGetInt("seed"));
  config.seed = static_cast<uint64_t>(seed);

  sim::FaultConfig& fault = config.fault;
  HETKG_ASSIGN_OR_RETURN(fault.drop_prob, flags.TryGetDouble("fault_drop"));
  HETKG_ASSIGN_OR_RETURN(fault.duplicate_prob,
                         flags.TryGetDouble("fault_duplicate"));
  HETKG_ASSIGN_OR_RETURN(fault.delay_prob, flags.TryGetDouble("fault_delay"));
  HETKG_RETURN_IF_ERROR(ReadCount(flags, "fault_retries", &fault.max_retries));
  HETKG_ASSIGN_OR_RETURN(const int64_t fault_seed,
                         flags.TryGetInt("fault_seed"));
  fault.seed = static_cast<uint64_t>(fault_seed);
  fault.enabled = fault.drop_prob > 0.0 || fault.duplicate_prob > 0.0 ||
                  fault.delay_prob > 0.0;
  HETKG_RETURN_IF_ERROR(ReadSchedule(flags, "fault_worker_crash",
                                     sim::ProcessFaultKind::kWorkerCrash,
                                     &fault.process_faults));
  HETKG_RETURN_IF_ERROR(ReadSchedule(flags, "fault_ps_restart",
                                     sim::ProcessFaultKind::kPsShardRestart,
                                     &fault.process_faults));
  HETKG_RETURN_IF_ERROR(
      ReadCount(flags, "fault_halt_after", &config.halt_after_iterations));

  config.checkpoint_dir = flags.GetString("checkpoint_dir");
  HETKG_RETURN_IF_ERROR(
      ReadCount(flags, "checkpoint_every", &config.checkpoint_every));
  HETKG_RETURN_IF_ERROR(
      ReadCount(flags, "keep_checkpoints", &config.keep_checkpoints));
  HETKG_ASSIGN_OR_RETURN(config.checkpoint_fsync,
                         flags.TryGetBool("checkpoint_fsync"));
  config.resume_from = flags.GetString("resume_from");

  config.obs.trace_out = flags.GetString("trace_out");
  config.obs.metrics_json = flags.GetString("metrics_json");
  HETKG_RETURN_IF_ERROR(
      ReadCount(flags, "metrics_window", &config.obs.metrics_window));

  const std::string storage = flags.GetString("storage");
  if (storage != "ram" && storage != "tiered") {
    return Status::InvalidArgument("flag --storage: want ram | tiered, got \"" +
                                   storage + "\"");
  }
  Result<embedding::ColdDtype> dtype =
      embedding::ParseColdDtype(flags.GetString("cold_dtype"));
  if (!dtype.ok()) {
    return Status::InvalidArgument("flag --cold_dtype: " +
                                   dtype.status().message());
  }
  if (storage == "tiered") {
    if (flags.GetString("cold_dir").empty()) {
      return Status::InvalidArgument(
          "flag --cold_dir is required with --storage=tiered (it holds "
          "the cold-tier slab files)");
    }
    config.storage.enabled = true;
    config.storage.cold_dir = flags.GetString("cold_dir");
    config.storage.dtype = *dtype;
  }
  return config;
}

Result<std::vector<sim::ProcessFault>> ParseProcessFaultSpec(
    const std::string& spec, sim::ProcessFaultKind kind) {
  std::vector<sim::ProcessFault> events;
  size_t pos = 0;
  while (pos <= spec.size() && !spec.empty()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    const size_t colon = item.find(':');
    // Both fields must be non-empty pure-digit runs. strtoul alone is
    // too lenient here: it skips leading whitespace, accepts a sign
    // (strtoull silently WRAPS "-5" to ULLONG_MAX - 4 with no ERANGE),
    // and an empty field like ":5" parses zero digits yet lands end ==
    // start, which the pointer check below cannot distinguish.
    const auto all_digits = [&item](size_t from, size_t to) {
      if (from >= to) return false;
      for (size_t i = from; i < to; ++i) {
        if (item[i] < '0' || item[i] > '9') return false;
      }
      return true;
    };
    if (colon == std::string::npos || !all_digits(0, colon) ||
        !all_digits(colon + 1, item.size())) {
      return Status::InvalidArgument("bad event \"" + item +
                                     "\" (want machine:tick)");
    }
    char* end = nullptr;
    sim::ProcessFault fault;
    fault.kind = kind;
    errno = 0;
    const unsigned long machine = std::strtoul(item.c_str(), &end, 10);
    // strtoul both clamps at ULONG_MAX (ERANGE) and, on LP64, happily
    // returns values a uint32 machine id cannot hold — either way the
    // schedule would silently target the wrong machine.
    if (errno == ERANGE || machine > UINT32_MAX) {
      return Status::InvalidArgument("machine id out of range in \"" + item +
                                     "\"");
    }
    fault.machine = static_cast<uint32_t>(machine);
    errno = 0;
    fault.tick = std::strtoull(item.c_str() + colon + 1, &end, 10);
    if (end != item.c_str() + item.size()) {
      return Status::InvalidArgument("bad event \"" + item +
                                     "\" (want machine:tick)");
    }
    // An overflowing tick clamps to ULLONG_MAX: the fault would wait
    // forever instead of firing — reject it instead.
    if (errno == ERANGE) {
      return Status::InvalidArgument("tick out of range in \"" + item +
                                     "\"");
    }
    events.push_back(fault);
    if (comma == spec.size()) break;
    pos = comma + 1;
  }
  return events;
}

void DefineDatasetFlags(FlagParser* flags, double triple_fraction) {
  flags->Define("triple_fraction", FlagDefault(triple_fraction),
                "fraction of the synthetic dataset's triples to generate");
  flags->Define("freebase_scale", "0.002",
                "entity/triple scale of the freebase86m synthetic preset "
                "(paper: 1.0 = full 86.1M entities; needs --storage=tiered "
                "to fit in RAM)");
}

Result<graph::SyntheticSpec> PresetSpecFromFlags(std::string_view name,
                                                 const FlagParser& flags) {
  graph::SyntheticSpec spec;
  if (name == "fb15k") {
    spec = graph::Fb15kSpec();
  } else if (name == "wn18") {
    spec = graph::Wn18Spec();
  } else if (name == "freebase86m") {
    HETKG_ASSIGN_OR_RETURN(const double scale,
                           flags.TryGetDouble("freebase_scale"));
    spec = graph::Freebase86mSpec(scale);
  } else {
    return Status::InvalidArgument("unknown dataset: " + std::string(name));
  }
  HETKG_ASSIGN_OR_RETURN(const double fraction,
                         flags.TryGetDouble("triple_fraction"));
  spec.num_triples = static_cast<size_t>(spec.num_triples * fraction);
  return spec;
}

}  // namespace hetkg::core
