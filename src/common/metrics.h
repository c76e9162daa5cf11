#ifndef HETKG_COMMON_METRICS_H_
#define HETKG_COMMON_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/histogram.h"

namespace hetkg {

/// A named bag of metrics: monotonically increasing counters, gauges
/// (point-in-time doubles), and latency/size histograms. Each simulated
/// component (PS client, cache, network link) owns one; benches merge
/// them for reporting. Not thread-safe by design: simulation accounting
/// is single-threaded and deterministic. The intra-batch compute
/// fan-out (core/parallel_batch.h) must therefore NEVER touch a
/// MetricRegistry from inside a parallel region — engines record
/// metrics before or after the fan-out, on the scheduling thread.
class MetricRegistry {
 public:
  // -- Counters ----------------------------------------------------------

  /// Adds `delta` to counter `name`, creating it at zero on first use.
  void Increment(const std::string& name, uint64_t delta = 1);

  /// Current value; zero for counters never touched.
  uint64_t Get(const std::string& name) const;

  // -- Gauges ------------------------------------------------------------

  /// Sets gauge `name` to `value` (last write wins).
  void SetGauge(const std::string& name, double value);

  /// Current gauge value; 0.0 for gauges never set.
  double GetGauge(const std::string& name) const;

  // -- Histograms --------------------------------------------------------

  /// Records one observation into histogram `name`, creating it empty
  /// on first use.
  void Observe(const std::string& name, double value);

  /// The named histogram, or nullptr when never observed.
  const Histogram* FindHistogram(const std::string& name) const;

  // -- Whole-registry operations ----------------------------------------

  /// Folds `other` into this registry: counters sum, gauges take
  /// `other`'s value when it has one (last write wins), histograms
  /// merge bucket-wise.
  void Merge(const MetricRegistry& other);

  /// Resets all metrics to zero/empty without forgetting their names.
  void Clear();

  /// Snapshot of all counters in name order. Deliberately counters-only
  /// so existing determinism tests comparing snapshots are unaffected
  /// by new gauge/histogram instrumentation.
  std::vector<std::pair<std::string, uint64_t>> Snapshot() const;

  /// Gauges in name order.
  std::vector<std::pair<std::string, double>> GaugeSnapshot() const;

  /// One JSON object covering everything:
  ///   {"counters":{...},"gauges":{...},
  ///    "histograms":{"name":{"count":..,"sum":..,"min":..,"max":..,
  ///                          "mean":..,"p50":..,"p95":..,"p99":..}}}
  /// Keys appear in name order; numbers use shortest-round-trip
  /// formatting, so output is deterministic.
  std::string SnapshotJson() const;

  /// Multi-line "name = value" rendering, for debug output.
  std::string ToString() const;

  /// Exact state round-trip (counters, gauges, histograms) for the
  /// HETKGCK2 training snapshots, so a resumed run's final metric
  /// snapshot is bit-identical to an uninterrupted run's.
  void SaveState(ByteWriter* w) const;
  bool LoadState(ByteReader* r);

 private:
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// Well-known counter names shared between the PS, cache, and network
/// layers so benches can aggregate without string drift.
namespace metric {
inline constexpr char kRemotePullRows[] = "ps.remote_pull_rows";
inline constexpr char kRemotePushRows[] = "ps.remote_push_rows";
inline constexpr char kLocalPullRows[] = "ps.local_pull_rows";
inline constexpr char kLocalPushRows[] = "ps.local_push_rows";
inline constexpr char kRemoteMessages[] = "net.remote_messages";
inline constexpr char kRemoteBytes[] = "net.remote_bytes";
inline constexpr char kCacheHits[] = "cache.hits";
inline constexpr char kCacheMisses[] = "cache.misses";
inline constexpr char kCacheRefreshRows[] = "cache.refresh_rows";
inline constexpr char kCacheRebuilds[] = "cache.rebuilds";
inline constexpr char kWriteBackFlushes[] = "cache.write_back_flushes";
inline constexpr char kTriplesTrained[] = "engine.triples_trained";
inline constexpr char kNegativesTrained[] = "engine.negatives_trained";
inline constexpr char kPartitionSwaps[] = "pbg.partition_swaps";
inline constexpr char kPartitionSwapBytes[] = "pbg.partition_swap_bytes";
inline constexpr char kDenseRelationBytes[] = "pbg.dense_relation_bytes";
// Fault-injection transport (sim/transport.h). These counters exist
// only when the corresponding fault fires, so fault-free runs keep
// their pre-transport metric snapshots byte-identical.
inline constexpr char kTransportRetries[] = "transport.retries";
inline constexpr char kTransportDroppedMessages[] =
    "transport.dropped_messages";
inline constexpr char kTransportDuplicates[] =
    "transport.duplicate_deliveries";
inline constexpr char kTransportDelayed[] = "transport.delayed_deliveries";
inline constexpr char kTransportExhaustedRetries[] =
    "transport.exhausted_retries";
// Degradation paths taken by the PS client when the transport gives up.
inline constexpr char kTransportStaleServes[] = "transport.stale_serves";
inline constexpr char kTransportDegradedReads[] =
    "transport.degraded_reads";
inline constexpr char kTransportLostPushRows[] =
    "transport.lost_push_rows";
inline constexpr char kTransportDuplicatesIgnored[] =
    "transport.duplicates_ignored";
inline constexpr char kTransportSkippedSyncs[] =
    "transport.skipped_relation_syncs";
// Observability (src/obs/). Gauges and histograms below are recorded
// only when tracing or metrics export is active, so plain runs keep
// their counter snapshots unchanged. All time values are *simulated*
// seconds from sim::ClusterSim — deterministic across thread counts —
// matching the per-phase taxonomy of the paper's Fig. 7.
inline constexpr char kPhasePrefetchSeconds[] = "phase.prefetch_s";
inline constexpr char kPhaseRebuildSeconds[] = "phase.rebuild_s";
inline constexpr char kPhasePullSeconds[] = "phase.pull_s";
inline constexpr char kPhaseComputeSeconds[] = "phase.compute_s";
inline constexpr char kPhasePushSeconds[] = "phase.push_s";
inline constexpr char kPhaseSwapSeconds[] = "phase.swap_s";
inline constexpr char kPhaseRelationSyncSeconds[] = "phase.relation_sync_s";
inline constexpr char kCacheHitRatio[] = "cache.hit_ratio";
inline constexpr char kSimSeconds[] = "sim.machine_seconds";
inline constexpr char kPullSimSeconds[] = "ps.pull_sim_seconds";
inline constexpr char kPushSimSeconds[] = "ps.push_sim_seconds";
inline constexpr char kTraceDroppedEvents[] = "trace.dropped_events";
// Real-transport profiling under --runtime=proc (DESIGN.md §14). The
// frame/byte counters and per-transport histograms
// (net.frame.bytes.<shm|tcp>, net.rpc.latency_us.<shm|tcp>) are
// recorded only when obs is enabled, and only into process-local
// registries that are never serialized — proc snapshots stay
// byte-identical to sim, obs on or off.
inline constexpr char kNetRpcLatency[] = "net.rpc.latency_us";
inline constexpr char kNetFrameBytes[] = "net.frame.bytes";
inline constexpr char kNetShipBytes[] = "net.ship.bytes";
inline constexpr char kNetFramesSent[] = "net.frames.sent";
inline constexpr char kNetFramesReceived[] = "net.frames.received";
inline constexpr char kNetBytesSent[] = "net.bytes.sent";
inline constexpr char kNetBytesReceived[] = "net.bytes.received";
// Real-transport fault hardening (DESIGN.md §15). Injection counters
// fire in the FaultChannel decorator; detection/healing counters fire
// in the Messenger's CRC + retransmit layer. All live in the
// never-serialized per-process net registries, and every entry is
// created lazily on its first increment — a fault-free run exports no
// net.fault.* keys at all.
inline constexpr char kNetFaultInjectedDrops[] = "net.fault.injected_drops";
inline constexpr char kNetFaultInjectedDuplicates[] =
    "net.fault.injected_duplicates";
inline constexpr char kNetFaultInjectedDelays[] = "net.fault.injected_delays";
inline constexpr char kNetFaultInjectedCorruptions[] =
    "net.fault.injected_corruptions";
inline constexpr char kNetFaultInjectedResets[] = "net.fault.injected_resets";
inline constexpr char kNetFaultCrcErrors[] = "net.fault.crc_errors";
inline constexpr char kNetFaultRetransmits[] = "net.fault.retransmits";
inline constexpr char kNetFaultDuplicatesDropped[] =
    "net.fault.duplicate_frames_dropped";
// Hung-worker watchdog (DESIGN.md §15). Heartbeats tick on every
// liveness frame a worker emits; escalations count SIGKILLs the
// coordinator issued after a liveness deadline expired.
inline constexpr char kWatchdogHeartbeats[] = "watchdog.heartbeats";
inline constexpr char kWatchdogEscalations[] = "watchdog.escalations";
// Orphaned flight-recorder spill files removed at proc-obs startup.
inline constexpr char kObsFlightOrphansRemoved[] =
    "obs.flight_orphans_removed";
// Tiered embedding storage (DESIGN.md §16). Reported only under
// --storage=tiered, in never-serialized registries: cold_reads counts
// rows dequantized out of the cold tier, promotions counts cold->cache
// admissions, bytes_mapped is the total mmap-backed footprint, and
// mem.rss_bytes samples /proc/self/status VmRSS at report time (the
// number the full-scale RSS budget in EXPERIMENTS.md tracks).
inline constexpr char kTierColdReads[] = "tier.cold_reads";
inline constexpr char kTierPromotions[] = "tier.promotions";
inline constexpr char kTierBytesMapped[] = "tier.bytes_mapped";
inline constexpr char kMemRssBytes[] = "mem.rss_bytes";
// Async pipeline engine (DESIGN.md §12). Reported only in --async
// runs: stall/depth counts depend on real thread scheduling, so the
// deterministic mode — whose reports are bit-identity-checked — never
// emits them.
inline constexpr char kPipelineStalls[] = "pipeline.stall";
inline constexpr char kPipelineStalenessWaits[] =
    "pipeline.staleness_waits";
inline constexpr char kPipelineQueueDepthSample[] =
    "pipeline.queue_depth.sample_pull";
inline constexpr char kPipelineQueueDepthCompute[] =
    "pipeline.queue_depth.pull_compute";
inline constexpr char kPipelineQueueDepthPush[] =
    "pipeline.queue_depth.compute_push";
inline constexpr char kPipelineMaxRowLag[] = "pipeline.max_row_lag";
// Resolved score/optimizer kernel path (embedding/kernels.h):
// 0 = scalar, 1 = portable vector, 2 = AVX2. Constant for a run; every
// value produces bit-identical training output.
inline constexpr char kKernelDispatch[] = "kernel.dispatch";
// Crash recovery (DESIGN.md §9). checkpoint.* counters exist only when
// periodic checkpointing is configured; both the crashed and the
// uninterrupted reference run take the same snapshot schedule, so the
// counters stay bit-identical across a crash + resume.
// recovery.ps_shard_restarts counts in-sim kPsShardRestart faults, a
// deterministic function of the fault plan. recovery.worker_crashes
// counts worker crashes: the PS engines rewind a crash to the latest
// snapshot, so for them it is a process-local RecoveryMetrics() counter
// like those below; PBG's epoch-granularity model reports it.
inline constexpr char kCheckpointSaves[] = "checkpoint.saves";
inline constexpr char kCheckpointBytes[] = "checkpoint.bytes";
inline constexpr char kRecoveryWorkerCrashes[] = "recovery.worker_crashes";
inline constexpr char kRecoveryPsShardRestarts[] =
    "recovery.ps_shard_restarts";
// Process-local restore bookkeeping, kept OUT of the training metric
// snapshot (a resumed run restores once; the uninterrupted reference
// run never does, so these may not perturb the bit-identity contract).
// Engines expose them via RecoveryMetrics() instead.
inline constexpr char kCheckpointRestores[] = "checkpoint.restores";
inline constexpr char kCheckpointFallbacks[] =
    "checkpoint.manifest_fallbacks";
inline constexpr char kCheckpointOrphanTemps[] =
    "checkpoint.orphan_temps_removed";
}  // namespace metric

}  // namespace hetkg

#endif  // HETKG_COMMON_METRICS_H_
