// Full command-line trainer: pick a dataset (synthetic preset or TSV
// files), a system, a model, and the cache/sync knobs; train; evaluate;
// optionally checkpoint. This is the "binary you would actually deploy"
// walkthrough of the public API.
//
//   ./example_hetkg_train --dataset fb15k --system hetkg-d --model transe
//       --epochs 10 --dim 32 --checkpoint /tmp/model.ck
//   ./example_hetkg_train --train train.tsv --valid valid.tsv --test test.tsv
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "hetkg/hetkg.h"

namespace {

// Parses a "machine:iter[,machine:iter...]" real-kill schedule for the
// process runtime (the worker SIGKILLs or SIGSTOPs itself at that step
// command); exits 2 on malformed input.
std::vector<hetkg::net::ProcKill> ParseProcKills(const hetkg::FlagParser& flags,
                                                 const char* flag_name) {
  std::vector<hetkg::net::ProcKill> kills;
  for (const hetkg::sim::ProcessFault& f : hetkg::core::ValueOrExit(
           hetkg::core::ParseProcessFaultSpec(
               flags.GetString(flag_name),
               hetkg::sim::ProcessFaultKind::kWorkerCrash),
           std::string("--") + flag_name)) {
    kills.push_back(hetkg::net::ProcKill{f.machine, f.tick});
  }
  return kills;
}

// Splits "host:port"; exits with usage on malformed input.
std::pair<std::string, uint16_t> ParseHostPort(const std::string& spec) {
  const size_t colon = spec.rfind(':');
  char* end = nullptr;
  errno = 0;
  const unsigned long port =
      colon == std::string::npos
          ? 0
          : std::strtoul(spec.c_str() + colon + 1, &end, 10);
  if (colon == std::string::npos || colon == 0 ||
      end != spec.c_str() + spec.size() || errno == ERANGE || port == 0 ||
      port > 65535) {
    std::fprintf(stderr, "--connect: want host:port, got \"%s\"\n",
                 spec.c_str());
    std::exit(2);
  }
  return {spec.substr(0, colon), static_cast<uint16_t>(port)};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hetkg;

  FlagParser flags;
  core::TrainerConfig defaults;
  defaults.batch_size = 64;
  defaults.cache_capacity = 256;
  core::DefineTrainerFlags(&flags, defaults);
  core::DefineDatasetFlags(&flags, 0.1);
  flags.Define("dataset", "fb15k",
               "synthetic preset: fb15k | wn18 | freebase86m (ignored when "
               "--train is given)");
  flags.Define("train", "", "TSV training triples (head\\trel\\ttail)");
  flags.Define("valid", "", "TSV validation triples");
  flags.Define("test", "", "TSV test triples");
  flags.Define("system", "hetkg-d", "pbg | dglke | hetkg-c | hetkg-d");
  flags.Define("model", "transe",
               "transe | transe_l2 | distmult | complex | transh | transr | "
               "transd | hole | rescal");
  flags.Define("loss", "margin", "margin | logistic");
  flags.Define("epochs", "10", "training epochs");
  flags.Define("checkpoint", "", "path to write the trained embeddings");
  // Process runtime (DESIGN.md §13): real worker processes behind the
  // same engine; checkpoints stay bit-identical to --runtime=sim.
  flags.Define("runtime", "sim",
               "sim (in-process simulated workers) | proc (one real OS "
               "process per worker; PS engines)");
  flags.Define("workers", "0",
               "proc runtime: worker process count (overrides --machines "
               "when > 0)");
  flags.Define("proc_transport", "shm",
               "proc runtime coordinator<->worker transport: shm "
               "(shared-memory rings) | tcp (loopback sockets)");
  flags.Define("listen", "0",
               "proc runtime: accept externally started workers on this "
               "TCP port instead of forking (0 = fork locally)");
  flags.Define("connect", "",
               "run as a standalone proc worker: coordinator host:port "
               "(requires --worker_id; suppresses training output)");
  flags.Define("worker_id", "0", "machine id of this --connect worker");
  flags.Define("proc_kill", "",
               "real fault injection: machine:iter[,machine:iter...] — the "
               "worker process SIGKILLs itself at that step (proc runtime "
               "analogue of --fault_worker_crash)");
  flags.Define("proc_stop", "",
               "hung-worker injection: machine:iter[,machine:iter...] — the "
               "worker process SIGSTOPs itself at that step; only the "
               "heartbeat watchdog can detect and recover it");
  // Real-transport wire faults (DESIGN.md §15): injected on actual
  // shm/tcp frames of every link, healed by CRC + retransmit so the
  // run's final bytes stay identical to a fault-free one.
  flags.Define("proc_fault_drop", "0",
               "probability one sent proc frame is silently lost");
  flags.Define("proc_fault_duplicate", "0",
               "probability one sent proc frame crosses the wire twice");
  flags.Define("proc_fault_delay", "0",
               "probability one sent proc frame is delayed");
  flags.Define("proc_fault_corrupt", "0",
               "probability one byte of a sent proc frame is flipped "
               "(caught by the CRC-32 frame trailer)");
  flags.Define("proc_fault_reset", "0",
               "probability a mid-frame connection reset truncates a sent "
               "proc frame");
  flags.Define("proc_fault_seed", "42",
               "seed of the deterministic wire-fault plan (per-link "
               "counter-mode, replayable)");
  flags.Define("proc_heartbeat_ms", "1000",
               "worker liveness-beacon period in ms (0 = heartbeats off)");
  flags.Define("proc_watchdog_ms", "15000",
               "coordinator hung-worker deadline in ms: no frame or "
               "heartbeat for this long mid-turn SIGKILLs the worker into "
               "crash recovery (0 = watchdog off; requires heartbeats)");
  flags.Define("save_state", "",
               "write a full training-state snapshot here after Train() "
               "(the byte-comparable artifact of equivalence tests)");
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.ToString().c_str(),
                 flags.Usage(argv[0]).c_str());
    return 2;
  }
  core::TrainerConfig config =
      core::ValueOrExit(core::TrainerConfigFromFlags(flags), "");
  // Launcher-only flags; a malformed value exits 2 naming the flag.
  const auto int_flag = [&flags](const char* name) {
    return core::ValueOrExit(flags.TryGetInt(name), "");
  };
  const auto prob_flag = [&flags](const char* name) {
    return core::ValueOrExit(flags.TryGetDouble(name), "");
  };
  const int64_t epochs = int_flag("epochs");
  const int64_t worker_id = int_flag("worker_id");
  const int64_t listen_port = int_flag("listen");
  if (epochs < 0 || worker_id < 0 || listen_port < 0 ||
      listen_port > 65535) {
    std::fprintf(stderr,
                 "--epochs and --worker_id must be >= 0, --listen a port "
                 "in 0..65535\n");
    return 2;
  }
  const std::string runtime = flags.GetString("runtime");
  if (runtime != "sim" && runtime != "proc") {
    std::fprintf(stderr, "--runtime: want sim | proc, got \"%s\"\n",
                 runtime.c_str());
    return 2;
  }
  const bool proc_runtime = runtime == "proc";
  if (const int64_t workers = int_flag("workers");
      proc_runtime && workers > 0) {
    config.num_machines = static_cast<size_t>(workers);
    config.pbg_partitions = 2 * config.num_machines;
  }
  net::ProcOptions proc_options;
  proc_options.transport = core::ValueOrExit(
      net::ParseTransportKind(flags.GetString("proc_transport")), "");
  proc_options.retry = net::RetryPolicy::FromFaultConfig(config.fault);
  proc_options.kills = ParseProcKills(flags, "proc_kill");
  proc_options.stops = ParseProcKills(flags, "proc_stop");
  net::WireFaultConfig& wire = proc_options.fault;
  wire.drop_prob = prob_flag("proc_fault_drop");
  wire.duplicate_prob = prob_flag("proc_fault_duplicate");
  wire.delay_prob = prob_flag("proc_fault_delay");
  wire.corrupt_prob = prob_flag("proc_fault_corrupt");
  wire.reset_prob = prob_flag("proc_fault_reset");
  wire.seed = static_cast<uint64_t>(int_flag("proc_fault_seed"));
  wire.enabled = wire.drop_prob > 0.0 || wire.duplicate_prob > 0.0 ||
                 wire.delay_prob > 0.0 || wire.corrupt_prob > 0.0 ||
                 wire.reset_prob > 0.0;
  proc_options.heartbeat_ms = static_cast<int>(int_flag("proc_heartbeat_ms"));
  proc_options.watchdog_ms = static_cast<int>(int_flag("proc_watchdog_ms"));
  const std::string connect = flags.GetString("connect");
  if (!connect.empty() && !proc_runtime) {
    std::fprintf(stderr, "--connect requires --runtime=proc\n");
    return 2;
  }

  // ---- Dataset --------------------------------------------------------
  graph::SyntheticDataset dataset{
      graph::KnowledgeGraph::Create(1, 1, {}, "empty").value(), {}};
  if (!flags.GetString("train").empty()) {
    auto loaded = core::ValueOrExit(
        graph::LoadTsvDataset(flags.GetString("train"),
                              flags.GetString("valid"),
                              flags.GetString("test"), "tsv"),
        "load");
    dataset.graph = std::move(loaded.graph);
    dataset.split = std::move(loaded.split);
  } else {
    dataset = core::ValueOrExit(
        graph::GenerateDataset(core::ValueOrExit(
            core::PresetSpecFromFlags(flags.GetString("dataset"), flags),
            "")),
        "generate");
  }
  std::printf("dataset %s: %zu entities, %zu relations, %zu train triples\n",
              dataset.graph.name().c_str(), dataset.graph.num_entities(),
              dataset.graph.num_relations(), dataset.split.train.size());

  // ---- Engine ---------------------------------------------------------
  const core::SystemKind system =
      core::ValueOrExit(core::ParseSystemKind(flags.GetString("system")), "");
  config.model = core::ValueOrExit(
      embedding::ParseModelKind(flags.GetString("model")), "");
  config.loss = flags.GetString("loss");

  const std::unique_ptr<core::TrainingEngine> engine = core::ValueOrExit(
      core::MakeEngine(system, config, dataset.graph, dataset.split.train),
      "engine");

  core::PsTrainingEngine* ps_engine = nullptr;
  if (proc_runtime) {
    ps_engine = dynamic_cast<core::PsTrainingEngine*>(engine.get());
    if (ps_engine == nullptr) {
      std::fprintf(stderr,
                   "--runtime=proc supports the parameter-server engines "
                   "only (pbg trains partition-at-a-time in one process; "
                   "keep --runtime=sim for it)\n");
      return 2;
    }
  }
  if (!connect.empty()) {
    // Standalone worker: serve the remote coordinator until shutdown;
    // no local training, evaluation, or output.
    const auto [host, port] = ParseHostPort(connect);
    if (static_cast<uint64_t>(worker_id) >= config.num_machines) {
      std::fprintf(stderr,
                   "--worker_id %lld out of range (%zu machines)\n",
                   static_cast<long long>(worker_id), config.num_machines);
      return 2;
    }
    const Status served =
        net::RunStandaloneWorker(ps_engine, static_cast<uint32_t>(worker_id),
                                 host, port, proc_options);
    return served.ok() ? 0 : core::ReportError(served, "worker");
  }

  eval::EvalOptions eval_options;
  eval_options.max_triples = 500;
  eval_options.num_candidates = 1000;
  eval_options.num_threads = config.num_threads;
  if (!dataset.split.valid.empty()) {
    eval::EvalOptions valid_options = eval_options;
    valid_options.max_triples = 200;
    engine->EnableValidation(&dataset.graph, dataset.split.valid,
                                valid_options);
  }

  // ---- Train ----------------------------------------------------------
  if (!config.resume_from.empty()) {
    const Status restored = engine->RestoreTrainState(config.resume_from);
    if (!restored.ok()) return core::ReportError(restored, "resume");
    std::printf("resumed training state from %s\n",
                config.resume_from.c_str());
  }
  // Launch worker processes AFTER any restore so they inherit (fork) or
  // are shipped (listen) the resumed state, then train through them.
  std::unique_ptr<net::ProcCoordinator> coordinator;
  if (proc_runtime) {
    auto launched =
        listen_port != 0
            ? net::ProcCoordinator::ListenForWorkers(
                  ps_engine, static_cast<uint16_t>(listen_port), proc_options)
            : net::ProcCoordinator::ForkWorkers(ps_engine, proc_options);
    if (!launched.ok()) {
      return core::ReportError(launched.status(), "proc launch");
    }
    coordinator = std::move(launched).value();
  }
  auto trained = engine->Train(static_cast<size_t>(epochs));
  if (!trained.ok()) return core::ReportError(trained.status(), "train");
  const core::TrainReport& report = *trained;
  // A recovered crash leaves stdout identical to a fault-free run; the
  // process-local recovery counters say what happened.
  const MetricRegistry& recovery = engine->RecoveryMetrics();
  if (const uint64_t crashes = recovery.Get(metric::kRecoveryWorkerCrashes);
      crashes > 0) {
    const uint64_t restores = recovery.Get(metric::kCheckpointRestores);
    std::fprintf(stderr,
                 "recovered %llu worker crash%s from checkpoint (%llu "
                 "restore%s)\n",
                 static_cast<unsigned long long>(crashes),
                 crashes == 1 ? "" : "es",
                 static_cast<unsigned long long>(restores),
                 restores == 1 ? "" : "s");
  }
  for (const auto& epoch : report.epochs) {
    std::printf("epoch %2zu  loss=%.4f  sim=%s  hit=%.2f%s\n",
                epoch.epoch + 1, epoch.mean_loss,
                HumanSeconds(epoch.epoch_time.total_seconds()).c_str(),
                epoch.cache_hit_ratio,
                epoch.has_valid_metrics
                    ? ("  validMRR=" +
                       std::to_string(epoch.valid_metrics.mrr))
                          .c_str()
                    : "");
  }
  std::printf("total %s simulated, %s transferred, hit ratio %.3f\n",
              HumanSeconds(report.total_time.total_seconds()).c_str(),
              HumanBytes(static_cast<double>(report.total_remote_bytes))
                  .c_str(),
              report.overall_hit_ratio);
  if (config.fault.enabled) {
    std::printf(
        "faults: %llu dropped, %llu retries, %llu duplicates ignored, "
        "%llu stale serves, %llu lost push rows\n",
        static_cast<unsigned long long>(
            report.metrics.Get(metric::kTransportDroppedMessages)),
        static_cast<unsigned long long>(
            report.metrics.Get(metric::kTransportRetries)),
        static_cast<unsigned long long>(
            report.metrics.Get(metric::kTransportDuplicatesIgnored)),
        static_cast<unsigned long long>(
            report.metrics.Get(metric::kTransportStaleServes)),
        static_cast<unsigned long long>(
            report.metrics.Get(metric::kTransportLostPushRows)));
  }
  if (coordinator != nullptr) {
    // Real-transport totals (DESIGN.md §14): always counted, even with
    // observability off — they live outside the training state.
    const net::ProcCoordinator::TransportTotals totals =
        coordinator->Totals();
    std::printf(
        "proc net (%s): %llu rpc round trips, %llu frames / %s sent, "
        "%llu frames / %s received, %llu send stalls\n",
        coordinator->TransportName(),
        static_cast<unsigned long long>(totals.rpc_round_trips),
        static_cast<unsigned long long>(totals.frames_sent),
        HumanBytes(static_cast<double>(totals.bytes_sent)).c_str(),
        static_cast<unsigned long long>(totals.frames_received),
        HumanBytes(static_cast<double>(totals.bytes_received)).c_str(),
        static_cast<unsigned long long>(totals.send_stalls));
    if (proc_options.fault.enabled || totals.watchdog_escalations > 0) {
      // Coordinator-direction counters only; each worker's own
      // injections ship through the obs registry (net.fault.* keys).
      std::printf(
          "proc faults (coordinator side): %llu injected, %llu crc "
          "errors, %llu retransmits, %llu heartbeats seen, %llu watchdog "
          "escalations\n",
          static_cast<unsigned long long>(totals.faults_injected),
          static_cast<unsigned long long>(totals.crc_errors),
          static_cast<unsigned long long>(totals.retransmits),
          static_cast<unsigned long long>(totals.heartbeats_received),
          static_cast<unsigned long long>(totals.watchdog_escalations));
    }
    if (config.obs.Enabled()) {
      const Histogram* rpc = report.metrics.FindHistogram(
          std::string(metric::kNetRpcLatency) + "." +
          coordinator->TransportName());
      if (rpc != nullptr && rpc->count() > 0) {
        std::printf(
            "proc rpc latency (%s): p50=%.0fus p99=%.0fus over %llu "
            "timed rpcs\n",
            coordinator->TransportName(), rpc->Quantile(0.5),
            rpc->Quantile(0.99),
            static_cast<unsigned long long>(rpc->count()));
      }
    }
  }

  const std::string save_state = flags.GetString("save_state");
  if (!save_state.empty()) {
    const Status saved = engine->SaveTrainState(save_state);
    if (!saved.ok()) return core::ReportError(saved, "save_state");
    std::printf("training state saved to %s\n", save_state.c_str());
  }
  if (coordinator != nullptr) {
    const Status stopped = coordinator->Shutdown();
    if (!stopped.ok()) {
      std::fprintf(stderr, "proc shutdown: %s\n",
                   stopped.ToString().c_str());
    }
    // Abnormal worker terminations the coordinator reaped (injected
    // kills, watchdog escalations, genuine crashes). Orderly exits are
    // silent.
    for (const net::ProcCoordinator::WorkerExit& we :
         coordinator->WorkerExits()) {
      std::printf("proc worker %u terminated abnormally: %s %d (%s)\n",
                  we.machine, we.signaled ? "signal" : "exit code", we.code,
                  we.context.c_str());
    }
  }

  if (config.obs.TraceRequested()) {
    std::printf("trace written to %s (open at https://ui.perfetto.dev)\n",
                config.obs.trace_out.c_str());
  }
  if (config.obs.MetricsRequested()) {
    std::printf("metrics time-series written to %s\n",
                config.obs.metrics_json.c_str());
  }

  // ---- Evaluate + checkpoint -------------------------------------------
  if (!dataset.split.test.empty()) {
    auto metrics = eval::EvaluateLinkPrediction(
        engine->Embeddings(), engine->ScoreFn(), dataset.graph,
        dataset.split.test, eval_options);
    if (metrics.ok()) {
      std::printf("test: MRR=%.3f MR=%.1f Hits@1=%.3f Hits@3=%.3f "
                  "Hits@10=%.3f\n",
                  metrics->mrr, metrics->mr, metrics->hits1, metrics->hits3,
                  metrics->hits10);
    }
  }
  const std::string checkpoint = flags.GetString("checkpoint");
  if (!checkpoint.empty()) {
    const Status saved = core::SaveEngineCheckpoint(*engine, checkpoint);
    if (!saved.ok()) return core::ReportError(saved, "checkpoint");
    std::printf("checkpoint saved to %s\n", checkpoint.c_str());
  }
  return 0;
}
