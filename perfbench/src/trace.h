// In-memory span recorder for the traced benchmark run.
//
// Spans wrap the benchmark's own calls into each layer (graph, core, device,
// feature, serving, dyn, loadgen): name, layer, start, end, the span that
// caused it, and the request it belongs to. Spans inside the server come
// from each response's StageBreakdown and are added after the fact as
// children of the request span. Nothing is written until the run ends,
// when WriteChromeJson dumps Chrome trace-event JSON (open it in Perfetto
// or chrome://tracing).
//
// Only the benchmark's main thread records spans, so the recorder takes
// no locks. When disabled, Begin/End cost one branch.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // 0 = not part of a request
  std::string name;
  std::string layer;
  int64_t start_ns = 0;  // relative to the recorder's origin
  int64_t end_ns = 0;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  int64_t Now() const { return NsBetween(origin_, Clock::now()); }
  int64_t Offset(Clock::time_point t) const { return NsBetween(origin_, t); }

  // Opens a span under the innermost open one; returns its id (0 when
  // disabled). End() closes it.
  uint64_t Begin(const std::string& name, const std::string& layer, uint64_t request = 0);
  void End(uint64_t id);

  // Records a finished span with explicit times and parent (children
  // reconstructed from a response's stage breakdown). Returns its id.
  uint64_t Add(const std::string& name, const std::string& layer, int64_t start_ns,
               int64_t end_ns, uint64_t parent, uint64_t request);

  // The innermost open span (parent for Add), 0 when none.
  uint64_t current() const { return open_.empty() ? 0 : open_.back(); }

  // Per-layer self time in ms: each span's duration minus the part of it
  // its direct children cover, summed by layer.
  std::map<std::string, double> SelfMsByLayer() const;

  size_t size() const { return spans_.size(); }
  // Chrome trace-event JSON ("X" complete events, microsecond timestamps).
  bool WriteChromeJson(const std::string& path) const;

 private:
  bool enabled_ = false;
  Clock::time_point origin_;
  std::vector<Span> spans_;  // index = id - 1
  std::vector<uint64_t> open_;
};

// RAII span around one call.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, const std::string& layer,
             uint64_t request = 0)
      : tracer_(tracer), id_(tracer.Begin(name, layer, request)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  uint64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
