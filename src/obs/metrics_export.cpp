#include "obs/metrics_export.h"

#include <cstdio>

#include "obs/json.h"

namespace hetkg::obs {

void MetricsSeries::DropAfter(uint64_t epoch, uint64_t iteration) {
  std::erase_if(samples_, [&](const MetricsSample& s) {
    return s.epoch > epoch ||
           (s.epoch == epoch && (s.kind == "epoch" || s.iteration > iteration));
  });
}

std::string MetricsSeries::ToJson() const {
  std::string out;
  out.append("{\"samples\":[\n");
  bool first = true;
  for (const MetricsSample& sample : samples_) {
    if (!first) out.append(",\n");
    first = false;
    out.append("{\"kind\":");
    AppendJsonString(&out, sample.kind);
    out.append(",\"epoch\":");
    AppendJsonNumber(&out, sample.epoch);
    out.append(",\"iteration\":");
    AppendJsonNumber(&out, sample.iteration);
    out.append(",\"sim_seconds\":");
    AppendJsonNumber(&out, sample.sim_seconds);
    out.append(",\"wall_seconds\":");
    AppendJsonNumber(&out, sample.wall_seconds);
    out.append(",\"metrics\":");
    out.append(sample.metrics.SnapshotJson());
    out.push_back('}');
  }
  out.append("\n]}\n");
  return out;
}

Status MetricsSeries::WriteJson(const std::string& path) const {
  const std::string out = ToJson();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot open metrics file: " + path);
  }
  const size_t written = std::fwrite(out.data(), 1, out.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != out.size() || !closed) {
    return Status::IoError("short write to metrics file: " + path);
  }
  return Status::OK();
}

}  // namespace hetkg::obs
