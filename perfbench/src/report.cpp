#include <algorithm>
#include <cstdio>
#include <fstream>

#include "bench.h"
#include "obs/json.h"

namespace perfbench {

using hetkg::Status;
using hetkg::obs::AppendJsonNumber;
using hetkg::obs::AppendJsonString;

bool Record::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    failures_.push_back(detail.empty() ? name : name + ": " + detail);
    std::fprintf(stderr, "check failed: %s\n", failures_.back().c_str());
  }
  return ok;
}

bool Record::Call(const std::string& name, const Status& status) {
  return Check(name, status.ok(), status.ok() ? "" : status.ToString());
}

std::string Record::ToJson() const {
  std::string out = "{\"attempted\":";
  AppendJsonNumber(&out, attempted_);
  out += ",\"failed\":";
  AppendJsonNumber(&out, failed_);
  out += ",\"failures\":[";
  for (size_t i = 0; i < failures_.size(); ++i) {
    if (i > 0) out += ",";
    AppendJsonString(&out, failures_[i]);
  }
  out += "],\"samples\":{";
  bool first = true;
  for (const auto& [name, values] : samples_) {
    if (!first) out += ",";
    first = false;
    AppendJsonString(&out, name);
    out += ":[";
    for (size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out += ",";
      AppendJsonNumber(&out, values[i]);
    }
    out += "]";
  }
  out += "},\"values\":{";
  first = true;
  for (const auto& [name, value] : values_) {
    if (!first) out += ",";
    first = false;
    AppendJsonString(&out, name);
    out += ":";
    AppendJsonNumber(&out, value);
  }
  out += "},\"info\":{";
  first = true;
  for (const auto& [key, value] : info_) {
    if (!first) out += ",";
    first = false;
    AppendJsonString(&out, key);
    out += ":";
    AppendJsonString(&out, value);
  }
  out += "}}\n";
  return out;
}

int64_t SpanLog::Begin(std::string name, int64_t iter) {
  Span s;
  s.id = static_cast<int64_t>(spans_.size());
  s.parent = open_.empty() ? -1 : open_.back();
  s.iter = iter >= 0 || s.parent < 0 ? iter : spans_[s.parent].iter;
  s.name = std::move(name);
  s.start_ns = NowNs();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void SpanLog::End(int64_t id) {
  spans_[id].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

Status SpanLog::Attach(const std::string& trace_path) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    events_.clear();
    marker_tid_ = UINT32_MAX;
  }
  hetkg::obs::TraceOptions options;
  options.path = trace_path;
  HETKG_RETURN_IF_ERROR(hetkg::obs::Tracer::Start(options));
  session_origin_ns_ = NowNs();
  hetkg::obs::Tracer::SetEventSink(this);
  // Identifies the benchmark thread's tracer tid.
  hetkg::obs::Tracer::Instant("perfbench.marker", "perfbench");
  return Status::OK();
}

void SpanLog::OnEvent(const char* name, const char* cat, char phase,
                      uint32_t tid, uint64_t ts_us, uint64_t dur_us,
                      double v1) {
  (void)cat;
  (void)v1;
  std::lock_guard<std::mutex> lock(mu_);
  if (phase == 'X') {
    events_.push_back(Event{name, tid, ts_us, dur_us});
  } else if (std::string_view(name) == "perfbench.marker") {
    marker_tid_ = tid;
  }
}

Status SpanLog::Detach(int64_t root) {
  hetkg::obs::Tracer::SetEventSink(nullptr);
  const Status stopped = hetkg::obs::Tracer::Stop();
  std::vector<Event> events;
  {
    std::lock_guard<std::mutex> lock(mu_);
    events.swap(events_);
  }
  // Outer spans first: by thread, start, then longest.
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
    return a.dur_us > b.dur_us;
  });
  const int64_t root_iter = root < 0 ? -1 : spans_[root].iter;
  std::vector<int64_t> stack;
  uint32_t stack_tid = UINT32_MAX;
  int64_t step = 0;
  for (const Event& e : events) {
    Span s;
    s.id = static_cast<int64_t>(spans_.size());
    s.tid = e.tid == marker_tid_ ? 0 : e.tid + 1;
    s.start_ns = session_origin_ns_ + static_cast<int64_t>(e.ts_us) * 1000;
    s.end_ns = s.start_ns + static_cast<int64_t>(e.dur_us) * 1000;
    s.name = e.name;
    if (e.tid != stack_tid) {
      stack.clear();
      stack_tid = e.tid;
    }
    // Pop spans that do not contain this one, allowing the tracer's
    // 1 us rounding at the end.
    while (!stack.empty() && (s.start_ns >= spans_[stack.back()].end_ns ||
                              s.end_ns > spans_[stack.back()].end_ns + 1000)) {
      stack.pop_back();
    }
    s.parent = stack.empty() ? root : stack.back();
    s.iter = stack.empty() ? root_iter : spans_[stack.back()].iter;
    // One engine step is one worker iteration; its id tags the stage
    // spans under it.
    if (s.name == "ps.step") s.iter = step++;
    spans_.push_back(std::move(s));
    stack.push_back(spans_.back().id);
  }
  return stopped;
}

Status SpanLog::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot write " + path);
  out << "id\tparent\titer\ttid\tstart_ns\tend_ns\tname\n";
  for (const Span& s : spans_) {
    out << s.id << '\t' << s.parent << '\t' << s.iter << '\t' << s.tid
        << '\t' << s.start_ns << '\t' << s.end_ns << '\t' << s.name << '\n';
  }
  out.flush();
  return out ? Status::OK() : Status::IoError("short write to " + path);
}

}  // namespace perfbench
