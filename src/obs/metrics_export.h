#ifndef HETKG_OBS_METRICS_EXPORT_H_
#define HETKG_OBS_METRICS_EXPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"

namespace hetkg::obs {

/// What the observability layer should record for one training run.
/// Default-constructed = fully disabled; engines then skip every
/// instrumentation branch and behave bit-identically to an
/// uninstrumented build.
struct ObsConfig {
  /// Chrome/Perfetto trace-event JSON output path; empty disables
  /// tracing.
  std::string trace_out;
  /// Per-epoch metrics time-series JSON output path; empty disables
  /// the export.
  std::string metrics_json;
  /// When > 0, additionally snapshot metrics every `metrics_window`
  /// iterations (e.g. set it to the staleness bound P to watch cache
  /// behaviour between refreshes). 0 = per-epoch samples only.
  uint64_t metrics_window = 0;

  bool TraceRequested() const { return !trace_out.empty(); }
  bool MetricsRequested() const { return !metrics_json.empty(); }
  /// True when any instrumentation should run.
  bool Enabled() const { return TraceRequested() || MetricsRequested(); }
};

/// One point of the metrics time-series: the cumulative registry state
/// observed at an epoch (or window) boundary, stamped with both clocks.
struct MetricsSample {
  /// "epoch" or "window".
  std::string kind;
  /// Epoch index of the sample (the epoch just finished for kind ==
  /// "epoch"; the containing epoch for kind == "window").
  uint64_t epoch = 0;
  /// Iterations completed within the epoch at sample time.
  uint64_t iteration = 0;
  /// Simulated-cluster critical-path seconds (deterministic).
  double sim_seconds = 0.0;
  /// Wall-clock seconds since training start (informational only).
  double wall_seconds = 0.0;
  /// Cumulative metric state at the sample point.
  MetricRegistry metrics;
};

/// An ordered series of samples, serialisable as one JSON document:
///   {"samples":[{"kind":...,"epoch":...,"iteration":...,
///                "sim_seconds":...,"wall_seconds":...,
///                "metrics":{...SnapshotJson()...}}, ...]}
class MetricsSeries {
 public:
  void Add(MetricsSample sample) {
    samples_.push_back(std::move(sample));
  }

  const std::vector<MetricsSample>& samples() const { return samples_; }
  bool empty() const { return samples_.empty(); }

  /// Drops every sample taken after `iteration` of `epoch` (the epoch
  /// sample of `epoch` included): a crash rewind to that point records
  /// them again.
  void DropAfter(uint64_t epoch, uint64_t iteration);

  std::string ToJson() const;

  /// Writes ToJson() to `path`.
  Status WriteJson(const std::string& path) const;

 private:
  std::vector<MetricsSample> samples_;
};

}  // namespace hetkg::obs

#endif  // HETKG_OBS_METRICS_EXPORT_H_
