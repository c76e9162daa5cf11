#ifndef HETKG_CORE_SYNC_CONTROLLER_H_
#define HETKG_CORE_SYNC_CONTROLLER_H_

#include <cstddef>

#include "common/status.h"

namespace hetkg::core {

/// Cache construction strategies (Sec. IV-B).
enum class CacheStrategy {
  kNone,  // No worker cache: plain PS training (the DGL-KE baseline).
  kCps,   // Constant partial stale: hot set fixed from a whole-epoch
          // prefetch before training.
  kDps,   // Dynamic partial stale: hot set rebuilt from the next D
          // iterations' prefetch, every D iterations.
};

/// How cached values are refreshed against the staleness bound.
enum class RefreshMode {
  /// Algorithm 3 lines 8-9: every P iterations the ENTIRE hot table is
  /// re-pulled — the paper's coarse-grained protocol, chosen over HET's
  /// per-embedding clocks for simplicity.
  kFullTable,
  /// Fine-grained per-row staleness in the spirit of HET's embedding
  /// clocks: a cached row is refreshed on access when its last refresh
  /// is more than P iterations old. Rows that are cached but unread
  /// generate no refresh traffic; every row actually READ is still at
  /// most P iterations stale, so the convergence bound is preserved.
  kOnAccess,
};

/// Timing of the hot-embedding synchronization protocol (Algorithms 3-4).
struct SyncConfig {
  CacheStrategy strategy = CacheStrategy::kCps;
  /// P: cached values are re-pulled from the PS every P iterations,
  /// bounding staleness by P (Sec. IV-C).
  size_t staleness_bound = 8;
  /// D: the DPS prefetch/rebuild window, in iterations.
  size_t dps_window = 64;
  RefreshMode refresh_mode = RefreshMode::kFullTable;
  /// Write-back extension (beyond the paper): gradients for CACHED rows
  /// are accumulated locally and pushed to the PS every
  /// `write_back_period` iterations instead of every iteration. 1 =
  /// the paper's write-through behaviour. Larger values cut push
  /// traffic symmetrically to how the cache cuts pull traffic, at the
  /// cost of the server lagging a worker's hot updates by up to this
  /// many iterations. Pending gradients are always flushed before a
  /// refresh or hot-set rebuild so no update is ever lost.
  size_t write_back_period = 1;
  /// Asynchronous pipeline mode (DESIGN.md §12): the engine's
  /// sample/pull/compute/push stages run on their own threads and
  /// iterations overlap, HET-style. Off = deterministic mode, where the
  /// stages rendezvous once per iteration and results are bit-identical
  /// to the serial engine.
  bool async_pipeline = false;
  /// N: in async mode, the pull of iteration i may proceed once
  /// iteration i - N has fully pushed, so every value an iteration
  /// reads lags the global tables by at most N iterations (on top of
  /// the cache's own staleness bound P). 0 = rendezvous per iteration.
  size_t pipeline_staleness = 2;
};

/// Pure schedule logic of Algorithm 3's worker loop, factored out so the
/// trigger arithmetic is testable in isolation. Iterations are counted
/// from 0; construction happens before iteration 0 for every strategy.
class SyncController {
 public:
  static Result<SyncController> Create(const SyncConfig& config);

  const SyncConfig& config() const { return config_; }

  /// True when the cached values must be refreshed from the PS before
  /// running `iteration` (every P iterations, skipping iteration 0
  /// where the cache was just filled).
  bool ShouldRefresh(size_t iteration) const {
    if (config_.strategy == CacheStrategy::kNone) return false;
    return iteration != 0 && iteration % config_.staleness_bound == 0;
  }

  /// True when DPS must prefetch the next window and rebuild the hot
  /// set before running `iteration`.
  bool ShouldRebuild(size_t iteration) const {
    if (config_.strategy != CacheStrategy::kDps) return false;
    return iteration != 0 && iteration % config_.dps_window == 0;
  }

  /// Worst-case number of iterations a cached value may lag the global
  /// value — the staleness bound the convergence analysis relies on.
  size_t MaxStaleness() const {
    return config_.strategy == CacheStrategy::kNone
               ? 0
               : config_.staleness_bound;
  }

  /// Staleness bound that still holds when the fault-injection
  /// transport lost `missed_refreshes` consecutive refresh rounds for a
  /// row: each lost round stretches the row's lag by one more P window
  /// (the worker keeps serving the stale copy until the next refresh
  /// attempt succeeds), so degradation is graceful — linear in the
  /// number of lost refreshes, never unbounded while retries eventually
  /// succeed. See DESIGN.md "Fault model".
  size_t DegradedMaxStaleness(size_t missed_refreshes) const {
    if (config_.strategy == CacheStrategy::kNone) return 0;
    return (missed_refreshes + 1) * config_.staleness_bound;
  }

  /// Asynchronous pipeline mode on?
  bool AsyncPipeline() const { return config_.async_pipeline; }

  /// N: the pipeline run-ahead bound (0 in deterministic mode, where
  /// the stages rendezvous every iteration).
  size_t PipelineStaleness() const {
    return config_.async_pipeline ? config_.pipeline_staleness : 0;
  }

 private:
  explicit SyncController(const SyncConfig& config) : config_(config) {}
  SyncConfig config_;
};

}  // namespace hetkg::core

#endif  // HETKG_CORE_SYNC_CONTROLLER_H_
