#ifndef HETKG_NET_RPC_H_
#define HETKG_NET_RPC_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/serialize.h"

namespace hetkg::net {

/// RPC message vocabulary of the process runtime (DESIGN.md §13). One
/// Messenger connects the coordinator to each worker; every payload is
/// a 1-byte type followed by ByteWriter-encoded fields. The protocol
/// is strictly turn-based: the coordinator issues one command, then
/// services the worker's stream of backend calls (in the worker's
/// program order — which IS the sim runtime's accounting order) until
/// the matching completion message arrives.
enum class MsgType : uint8_t {
  // Coordinator → worker commands and replies.
  kRunStep = 1,   // U64 iter — run one training step.
  kEpochEnd,      // Flush write-back gradients, report hit counters.
  kSyncState,     // Serialize and ship the full worker state.
  kLoadState,     // raw SaveWorkerState blob — overwrite worker state.
  kShutdown,      // Orderly exit.
  kPullReply,     // U64 n_failed, U32 failed[n], raw floats (all keys).
  kReadRowReply,  // raw floats (one row).
  // Cross-process observability (DESIGN.md §14).
  kStartObs,    // U8 trace_on, U64 ring_capacity, U8 flight_kind
                // (0 none / 1 inherited shm / 2 spill file),
                // U64 flight_slots, Str flight_path, Str transport —
                // start the worker's obs session.
  kClockSync,   // empty — reply kClockSyncReply with the worker clock.
  kShipObs,     // empty — reply kObsData with drained trace + metrics.

  // Worker → coordinator: backend calls and completions.
  kHello = 32,   // U32 machine — standalone TCP worker introduction.
  kPull,         // U64 n, U64 keys[n] — ParameterServer::PullBatch.
  kPush,         // U64 n, U64 keys[n], raw floats — PushGradBatch.
  kReadRow,      // U64 key — degraded read (PsBackend::ReadRow).
  kCharge,       // U64 flops — ClusterSim::RecordCompute.
  kMetric,       // Str name, U64 delta — server metric increment.
  kStepDone,     // F64 loss_sum, U64 pair_count.
  kEpochDone,    // U64 hits, U64 misses.
  kWorkerState,  // raw SaveWorkerState blob.
  kBye,          // Acknowledges kShutdown.
  kClockSyncReply,  // U64 worker Tracer::NowMicros().
  kObsData,         // U64 trace_len, raw Tracer shipment batch,
                    // U64 n_gauges, {Str name, F64 value}[n],
                    // MetricRegistry::SaveState bytes (cumulative —
                    // the coordinator replaces, never accumulates).
                    // Sent in reply to kShipObs and unsolicited right
                    // before kBye, so the kShutdown drain gets the
                    // final shipment.
  kAdvise,  // U8 admitted, U64 n, U64 keys[n] — PsBackend::AdviseHotKeys
            // (tiered storage only; the engine never calls it otherwise).
};

inline ByteWriter RpcMessage(MsgType type) {
  ByteWriter w;
  w.U8(static_cast<uint8_t>(type));
  return w;
}

/// Splits a received payload into its type byte and field reader.
/// Returns false (type undisturbed) on an empty payload.
inline bool RpcOpen(std::string_view payload, MsgType* type,
                    ByteReader* reader) {
  if (payload.empty()) return false;
  *type = static_cast<MsgType>(static_cast<uint8_t>(payload[0]));
  *reader = ByteReader(payload.data() + 1, payload.size() - 1);
  return true;
}

}  // namespace hetkg::net

#endif  // HETKG_NET_RPC_H_
