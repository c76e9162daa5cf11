#ifndef HETKG_CORE_PS_BACKEND_H_
#define HETKG_CORE_PS_BACKEND_H_

#include <algorithm>
#include <span>
#include <string>

#include "ps/parameter_server.h"
#include "sim/cluster.h"

namespace hetkg::core {

/// The engine-side seam between the pipeline stages and the shared
/// PS/cluster state (DESIGN.md §13). Stage code never touches the
/// parameter server or the cluster simulator directly for mutating
/// operations — it goes through this interface, so the same stage code
/// runs in two deployments:
///
///   * sim runtime (LocalPsBackend): calls land on the in-process
///     ParameterServer/ClusterSim, exactly as before the seam existed.
///   * process runtime (net::RemotePsBackend): the stages run inside a
///     forked worker process and every call is forwarded as an RPC to
///     the coordinator process, which applies it to the authoritative
///     server/cluster in the same order the sim runtime would — the
///     basis of the sim/proc checkpoint bit-identity invariant.
///
/// Read-only configuration queries (RowDim, score-function shape) stay
/// direct: they are pure functions of the construction config, which
/// every process derives identically.
class PsBackend {
 public:
  virtual ~PsBackend() = default;

  /// ParameterServer::PullBatch with identical semantics: rows land in
  /// `out`, spans of failed (retry-exhausted) shards stay untouched and
  /// their indices are returned.
  virtual ps::PullResult PullBatch(uint32_t machine,
                                   std::span<const EmbKey> keys,
                                   std::span<std::span<float>> out) = 0;

  /// ParameterServer::PushGradBatch with identical semantics (the
  /// engine ignores the result, so the remote implementation may
  /// forward fire-and-forget).
  virtual ps::PushResult PushGradBatch(
      uint32_t machine, std::span<const EmbKey> keys,
      std::span<const std::span<const float>> grads) = 0;

  /// Unaccounted degraded read of a row's live value — the fallback
  /// after a pull exhausted its retries (DESIGN.md §7).
  virtual void ReadRow(EmbKey key, std::span<float> out) = 0;

  /// ClusterSim::RecordCompute for the calling worker's machine. The
  /// sim cost model stays authoritative in both runtimes, so modeled
  /// clocks (and hence fault-plan decisions) never diverge.
  virtual void RecordCompute(uint32_t machine, uint64_t flops) = 0;

  /// Server-side metric increment (cache.rebuilds, stale serves, ...).
  virtual void IncrementServerMetric(const std::string& name,
                                     uint64_t delta) = 0;

  /// ParameterServer::AdviseHotKeys, the hotness hint for tiered
  /// storage (DESIGN.md §16): the keys the hot filter just admitted
  /// (`admitted`, counted as tier.promotions) or the prefetch window is
  /// about to pull. The server madvise()s their cold pages in ahead of
  /// use; trained bytes are identical with or without the hint.
  virtual void AdviseHotKeys(std::span<const EmbKey> keys,
                             bool admitted) = 0;
};

/// The sim-runtime backend: every call forwards to the in-process
/// server/cluster, bit-identical to the pre-seam direct calls.
class LocalPsBackend final : public PsBackend {
 public:
  LocalPsBackend(ps::ParameterServer* server, sim::ClusterSim* cluster)
      : server_(server), cluster_(cluster) {}

  ps::PullResult PullBatch(uint32_t machine, std::span<const EmbKey> keys,
                           std::span<std::span<float>> out) override {
    return server_->PullBatch(machine, keys, out);
  }

  ps::PushResult PushGradBatch(
      uint32_t machine, std::span<const EmbKey> keys,
      std::span<const std::span<const float>> grads) override {
    return server_->PushGradBatch(machine, keys, grads);
  }

  void ReadRow(EmbKey key, std::span<float> out) override {
    const std::span<const float> value = server_->Value(key);
    std::copy(value.begin(), value.end(), out.begin());
  }

  void RecordCompute(uint32_t machine, uint64_t flops) override {
    cluster_->RecordCompute(machine, flops);
  }

  void IncrementServerMetric(const std::string& name,
                             uint64_t delta) override {
    server_->metrics().Increment(name, delta);
  }

  void AdviseHotKeys(std::span<const EmbKey> keys, bool admitted) override {
    server_->AdviseHotKeys(keys, admitted);
  }

 private:
  ps::ParameterServer* server_;
  sim::ClusterSim* cluster_;
};

}  // namespace hetkg::core

#endif  // HETKG_CORE_PS_BACKEND_H_
