#ifndef HETKG_NET_PROC_RUNTIME_H_
#define HETKG_NET_PROC_RUNTIME_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "core/ps_engine.h"
#include "net/channel.h"
#include "net/fault_channel.h"
#include "net/tcp_channel.h"
#include "obs/flight.h"

namespace hetkg::net {

enum class TransportKind { kShm, kTcp };

Result<TransportKind> ParseTransportKind(std::string_view name);

/// Real process-fault injection: the worker for `machine` SIGKILLs
/// itself upon receiving the kRunStep command for `iter` — before it
/// issues any RPC of that step, so the coordinator's state stays at
/// the pre-step barrier. The same schedule shape drives `--proc_stop`
/// SIGSTOP injection (a hung-but-alive worker the watchdog must
/// detect; DESIGN.md §15).
struct ProcKill {
  uint32_t machine = 0;
  uint64_t iter = 0;
};

struct ProcOptions {
  TransportKind transport = TransportKind::kShm;
  /// Per-direction shm ring capacity.
  size_t shm_ring_bytes = 1 << 20;
  /// Connect retry policy (shaped from the run's sim::FaultConfig).
  RetryPolicy retry;
  /// Scheduled worker kills (see ProcKill). Entries are pruned once
  /// triggered so the relaunched fleet does not re-die forever.
  std::vector<ProcKill> kills;
  /// Scheduled worker SIGSTOPs (same schedule shape and pruning as
  /// `kills`): the worker hangs alive at the kRunStep barrier, and
  /// only the heartbeat watchdog can tell it from a slow one, so stops
  /// need watchdog_ms > 0.
  std::vector<ProcKill> stops;
  /// Wire-level fault injection (DESIGN.md §15), applied on every
  /// link in both directions; `fault.enabled` also arms the
  /// Messenger's retransmit layer that heals the injected faults.
  WireFaultConfig fault;
  /// Worker liveness-beacon period (heartbeat thread in each worker
  /// process); 0 disables heartbeats.
  int heartbeat_ms = 1000;
  /// Coordinator watchdog: a worker whose link shows no activity (no
  /// RPC, no heartbeat) for this long mid-turn is declared hung and
  /// SIGKILLed into the rewind-and-refork recovery path. 0 disables;
  /// nonzero needs heartbeat_ms > 0.
  int watchdog_ms = 15'000;
  /// Worker-side deadline on each blocking RPC reply (a vanished
  /// coordinator fails the RPC with DeadlineExceeded instead of
  /// hanging the worker forever).
  int rpc_deadline_ms = 120'000;
  /// Liveness-poll granularity while waiting on a worker message: each
  /// timeout slice reaps dead children via waitpid(WNOHANG), so a
  /// SIGKILLed worker is detected in ~this many milliseconds.
  int poll_ms = 100;
  /// Hard deadline for one worker message (a hung worker becomes a
  /// worker failure after this long even with the watchdog off).
  int worker_deadline_ms = 120'000;
  /// Per-worker trace ring capacity when obs tracing is on (events
  /// buffered between kShipObs drains; overflow counts as
  /// trace.dropped_events).
  size_t trace_ring_capacity = 1 << 16;
  /// Crash flight-recorder depth (last-N trace events preserved across
  /// SIGKILL; DESIGN.md §14).
  size_t flight_slots = obs::FlightRecorder::kDefaultSlots;
};

/// The worker-process side of the PsBackend seam: every shared-state
/// mutation the pipeline stages perform is serialized as an RPC to the
/// coordinator, which applies it to the authoritative server/cluster
/// in the worker's program order. Row-dimension queries resolve
/// locally (pure construction-config functions).
class RemotePsBackend final : public core::PsBackend {
 public:
  /// `rpc_deadline_ms` bounds every blocking reply wait; a reply that
  /// never comes aborts the worker (DeadlineExceeded) instead of
  /// hanging it forever.
  RemotePsBackend(Messenger* messenger, const ps::ParameterServer* server,
                  int rpc_deadline_ms = 120'000)
      : messenger_(messenger),
        server_(server),
        rpc_deadline_ms_(rpc_deadline_ms) {}

  ps::PullResult PullBatch(uint32_t machine, std::span<const EmbKey> keys,
                           std::span<std::span<float>> out) override;
  ps::PushResult PushGradBatch(
      uint32_t machine, std::span<const EmbKey> keys,
      std::span<const std::span<const float>> grads) override;
  void ReadRow(EmbKey key, std::span<float> out) override;
  void RecordCompute(uint32_t machine, uint64_t flops) override;
  void IncrementServerMetric(const std::string& name,
                             uint64_t delta) override;
  void AdviseHotKeys(std::span<const EmbKey> keys, bool admitted) override;

 private:
  /// An RPC failure means the coordinator is gone; the worker process
  /// has nothing left to do and exits.
  [[noreturn]] void Abort(const char* what);
  void SendOrAbort(const ByteWriter& msg);
  /// Blocking reply wait under the per-RPC deadline; aborts the worker
  /// on deadline, corruption, or close.
  void RecvOrAbort(std::string* payload);

  Messenger* messenger_;
  const ps::ParameterServer* server_;
  const int rpc_deadline_ms_;
};

/// Command loop of one worker process: executes kRunStep / kEpochEnd /
/// kSyncState / kLoadState against its (fork-inherited or locally
/// constructed) engine until kShutdown. Returns the process exit code.
class ProcWorker {
 public:
  /// `flight` is the fork-inherited shm flight recorder (shm transport
  /// only; null otherwise — tcp workers create a spill-file recorder on
  /// kStartObs). `fault_stats` is the process's fault/heartbeat
  /// counter sink (shared with its FaultChannel/Messenger; may be
  /// null), folded into the shipped obs registry.
  ProcWorker(core::PsTrainingEngine* engine, uint32_t machine,
             Messenger* messenger, const ProcOptions& options,
             obs::FlightRecorder* flight, NetFaultStats* fault_stats)
      : engine_(engine),
        machine_(machine),
        messenger_(messenger),
        kills_(options.kills),
        stops_(options.stops),
        heartbeat_ms_(options.heartbeat_ms),
        rpc_deadline_ms_(options.rpc_deadline_ms),
        shared_flight_(flight),
        fault_stats_(fault_stats) {}

  int Run();

 private:
  /// kStartObs handler: turns on this process's tracer session,
  /// transport profiling, and flight recorder per the coordinator's
  /// payload.
  void HandleStartObs(ByteReader* r);
  /// Ships the cumulative obs snapshot (trace ring drain + gauges +
  /// never-serialized metric registry) as one kObsData message.
  bool SendObsData(core::PsTrainingEngine::Worker* w);

  core::PsTrainingEngine* engine_;
  const uint32_t machine_;
  Messenger* messenger_;
  std::vector<ProcKill> kills_;
  std::vector<ProcKill> stops_;
  const int heartbeat_ms_;
  const int rpc_deadline_ms_;
  /// Fork-inherited shm flight region (not owned) / tcp spill-file
  /// recorder (owned). At most one is active as the tracer event sink.
  obs::FlightRecorder* shared_flight_ = nullptr;
  std::unique_ptr<obs::FlightRecorder> file_flight_;
  /// Process-local, never serialized: transport profiling + dropped-
  /// event counts shipped to the coordinator, kept out of engine state
  /// so proc snapshots stay byte-identical to sim, obs on or off.
  MetricRegistry net_metrics_;
  /// Fault/heartbeat counter sink (not owned; may be null) plus the
  /// already-folded watermark, so each kObsData shipment adds only the
  /// delta into the cumulative net_metrics_.
  NetFaultStats* fault_stats_ = nullptr;
  NetFaultCounts folded_faults_;
  bool obs_on_ = false;
  bool obs_trace_ = false;
  /// Epoch-cumulative cache counters: the command loop zeroes the
  /// engine's per-epoch hit/miss counters at kEpochEnd, so the shipped
  /// cache.hit_ratio gauge accumulates here first.
  uint64_t cum_hits_ = 0;
  uint64_t cum_misses_ = 0;
  uint64_t last_dropped_ = 0;
};

/// Coordinator (parent-process) side of the process runtime
/// (DESIGN.md §13). Owns the worker processes and their channels,
/// implements the engine's StepDriver by running each step in the
/// worker's process while servicing its backend RPCs against the
/// authoritative PS/cluster — strictly turn-based, so every mutation
/// lands in exactly the order the sim runtime would produce (the
/// checkpoint bit-identity invariant).
class ProcCoordinator final : public core::PsTrainingEngine::StepDriver {
 public:
  /// Fork-mode launch: forks one worker process per engine machine
  /// over the chosen transport (shm ring pairs created pre-fork; TCP
  /// children connect back to an ephemeral loopback listener). On
  /// return the engine's step driver is installed. InvalidArgument,
  /// before anything is forked, when core::ValidateConfig rejects the
  /// engine's config or `options` contradicts itself (watchdog without
  /// heartbeats, stops without watchdog).
  static Result<std::unique_ptr<ProcCoordinator>> ForkWorkers(
      core::PsTrainingEngine* engine, const ProcOptions& options);

  /// Standalone launch (`--listen`): accepts one TCP connection per
  /// machine from externally started workers (`--connect`), matches
  /// them by their kHello machine id, and ships each its initial
  /// worker state. RestartWorkers is Unimplemented in this mode (the
  /// coordinator cannot relaunch a remote process). Validates like
  /// ForkWorkers before listening.
  static Result<std::unique_ptr<ProcCoordinator>> ListenForWorkers(
      core::PsTrainingEngine* engine, uint16_t port,
      const ProcOptions& options);

  ~ProcCoordinator() override;

  /// Orderly shutdown: kShutdown/kBye round-trip, reap children.
  Status Shutdown();

  // StepDriver:
  Result<std::pair<double, uint64_t>> DriveStep(uint32_t machine,
                                                size_t iter) override;
  Status DriveEpochEnd(uint32_t machine) override;
  Status SyncWorkerState(uint32_t machine) override;
  bool WorkerFailed() const override { return worker_failed_; }
  Status RestartWorkers() override;
  Status SetupObs() override;
  Status FlushObs() override;
  const MetricRegistry* ObsMetrics() const override;

  /// Always-on transport totals for the launcher's end-of-run net.*
  /// summary (counted even with obs off; never serialized).
  struct TransportTotals {
    uint64_t rpc_round_trips = 0;
    uint64_t frames_sent = 0;
    uint64_t bytes_sent = 0;
    uint64_t frames_received = 0;
    uint64_t bytes_received = 0;
    uint64_t send_stalls = 0;
    /// Coordinator-side fault accounting (injection on its send
    /// direction; detection/healing on its receive direction).
    uint64_t faults_injected = 0;
    uint64_t crc_errors = 0;
    uint64_t retransmits = 0;
    uint64_t heartbeats_received = 0;
    uint64_t watchdog_escalations = 0;
  };
  TransportTotals Totals() const;
  const char* TransportName() const;

  /// One reaped worker termination worth reporting (died by signal, or
  /// exited nonzero, or was escalated to SIGKILL by the coordinator).
  /// Orderly kBye exits are not recorded.
  struct WorkerExit {
    uint32_t machine = 0;
    bool signaled = false;
    /// Signal number when signaled, exit code otherwise.
    int code = 0;
    /// Why the coordinator reaped it ("died mid-turn", "watchdog
    /// escalation", ...).
    std::string context;
  };
  const std::vector<WorkerExit>& WorkerExits() const {
    return worker_exits_;
  }

 private:
  struct WorkerLink {
    pid_t pid = -1;  // -1: standalone remote worker (not our child).
    std::unique_ptr<Channel> channel;
    /// Coordinator-direction fault decorator (installed between
    /// channel and messenger when wire faults are armed).
    std::unique_ptr<FaultChannel> faulty;
    std::unique_ptr<Messenger> messenger;
    bool alive = false;
    /// Worker monotonic clock minus coordinator monotonic clock, from
    /// the kClockSync min-RTT handshake; remote trace timestamps are
    /// rebased by subtracting it.
    int64_t clock_offset_us = 0;
    /// shm transport: the fork-shared flight-recorder region (parent's
    /// mapping; survives the child's SIGKILL). tcp: null — the worker
    /// spills to `flight_path` instead.
    std::unique_ptr<obs::FlightRecorder> flight;
    std::string flight_path;
  };

  ProcCoordinator(core::PsTrainingEngine* engine, ProcOptions options)
      : engine_(engine), options_(std::move(options)) {}

  /// Forks the whole fleet from the engine's current state (initial
  /// launch and post-restore relaunch share this path).
  Status ForkFleet();
  /// Forks one worker; the child never returns from this call.
  Status ForkWorker(uint32_t machine);
  /// Installs the per-link wire stack on `link`: always-on channel
  /// stats, the FaultChannel decorator when wire faults are armed, and
  /// a Messenger (reliable mode armed with the faults) on top.
  void WireLink(WorkerLink& link, uint64_t link_salt);
  /// SIGKILL + reap + channel teardown of every child (deliberate
  /// teardown: exits are not recorded).
  void KillFleet();
  void MarkWorkerFailed(uint32_t machine, uint64_t at_iter,
                        const char* context = "worker failure");
  /// Decodes a waitpid status and records it when abnormal (signaled
  /// or nonzero exit).
  void RecordExit(uint32_t machine, int wait_status, const char* context);

  /// Receives the worker's message stream, applying backend RPCs in
  /// arrival order, until a message of type `until` arrives (its
  /// fields land in `reader`). Fails (and marks the worker dead) on
  /// channel close, child death, protocol violation, or deadline.
  Status ServiceUntil(uint32_t machine, uint8_t until, std::string* payload,
                      ByteReader* reader, uint64_t at_iter);

  /// Applies one worker→coordinator backend RPC. `handled` is false
  /// for non-backend message types (the caller's terminator).
  Status ApplyBackendRpc(uint32_t machine, uint8_t type, ByteReader* r,
                         bool* handled);

  // -- Cross-process observability (DESIGN.md §14) ----------------------

  /// One-time removal of <trace_out>.flight.w* spill files a crashed
  /// previous run left behind (mirrors the stale-checkpoint sweep).
  void SweepOrphanFlightSpills(const std::string& trace_out);
  /// Min-RTT monotonic clock-offset handshake with one worker; stores
  /// the offset in its link.
  Status ClockSync(uint32_t machine);
  /// Segment-barrier shipment: kShipObs round trip + ingest.
  Status ShipObs(uint32_t machine);
  /// Parses one kObsData payload into the merged trace / per-worker
  /// registries. Returns false on a malformed payload.
  bool IngestObsData(uint32_t machine, ByteReader* r);
  /// Post-mortem flight-recorder harvest of a dead worker (shm region
  /// or tcp spill file), injected as a "flight.w<m>" track.
  void HarvestFlight(uint32_t machine);

  /// Harvested flight events, kept so a post-crash retry's fresh trace
  /// session (which overwrites the same trace file) re-injects them.
  struct FlightCapture {
    uint32_t machine = 0;
    int64_t offset_us = 0;
    std::string blob;  // SerializeHarvest wire bytes.
  };
  void InjectFlight(const FlightCapture& capture);

  core::PsTrainingEngine* engine_;
  ProcOptions options_;
  std::vector<WorkerLink> links_;
  std::unique_ptr<TcpListener> listener_;  // TCP fork mode only.
  bool standalone_ = false;
  bool worker_failed_ = false;
  bool shut_down_ = false;

  // Observability state. None of it is ever serialized into training
  // snapshots (the byte-identity invariant); `net_metrics_` holds the
  // coordinator-side transport histograms, `worker_regs_`/
  // `worker_gauges_` the last cumulative shipment of each worker
  // (replaced wholesale per shipment, so re-ships never double-count),
  // and `obs_report_` the merged view ObsMetrics() hands the engine.
  bool obs_on_ = false;
  bool trace_on_ = false;
  MetricRegistry net_metrics_;
  std::vector<MetricRegistry> worker_regs_;
  std::vector<std::vector<std::pair<std::string, double>>> worker_gauges_;
  mutable MetricRegistry obs_report_;
  std::vector<FlightCapture> flights_;
  /// Always-on frame/byte totals shared by every worker channel.
  ChannelStats channel_stats_;
  /// Always-on fault/heartbeat totals shared by every coordinator-side
  /// FaultChannel and Messenger. Folded (absolute) into the ObsMetrics
  /// report; read directly by Totals() with obs off.
  NetFaultStats net_fault_stats_;
  uint64_t rpc_round_trips_ = 0;
  uint64_t watchdog_escalations_ = 0;
  /// Reaped abnormal worker terminations, for the launcher summary.
  std::vector<WorkerExit> worker_exits_;
  /// The orphaned flight-spill sweep runs once per coordinator, before
  /// the first fleet can create fresh spill files.
  bool flight_swept_ = false;
};

/// Entry point of an externally started TCP worker (`--runtime=proc
/// --connect=host:port --worker_id=m`): connects, introduces itself,
/// loads the coordinator-shipped state, and serves until shutdown.
Status RunStandaloneWorker(core::PsTrainingEngine* engine, uint32_t machine,
                           const std::string& host, uint16_t port,
                           const ProcOptions& options);

}  // namespace hetkg::net

#endif  // HETKG_NET_PROC_RUNTIME_H_
