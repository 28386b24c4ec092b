#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

uint64_t Tracer::Begin(const std::string& name, const std::string& layer, uint64_t request) {
  if (!enabled_) {
    return 0;
  }
  const int64_t now = Now();
  const uint64_t id = Add(name, layer, now, now, current(), request);
  open_.push_back(id);
  return id;
}

void Tracer::End(uint64_t id) {
  if (id == 0) {
    return;
  }
  spans_[id - 1].end_ns = Now();
  // Spans close in LIFO order; tolerate an out-of-order close by dropping
  // everything above it.
  while (!open_.empty()) {
    const uint64_t top = open_.back();
    open_.pop_back();
    if (top == id) {
      break;
    }
  }
}

uint64_t Tracer::Add(const std::string& name, const std::string& layer, int64_t start_ns,
                     int64_t end_ns, uint64_t parent, uint64_t request) {
  if (!enabled_) {
    return 0;
  }
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.request = request;
  span.name = name;
  span.layer = layer;
  span.start_ns = start_ns;
  span.end_ns = std::max(start_ns, end_ns);
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::map<std::string, double> Tracer::SelfMsByLayer() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent != 0) {
      children[s.parent - 1].push_back({s.start_ns, s.end_ns});
    }
  }
  std::map<std::string, double> self_ms;
  for (const Span& s : spans_) {
    std::vector<std::pair<int64_t, int64_t>>& kids = children[s.id - 1];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent.
    int64_t covered = 0;
    int64_t reach = s.start_ns;
    for (const auto& [begin, end] : kids) {
      const int64_t b = std::max(begin, reach);
      const int64_t e = std::min(end, s.end_ns);
      if (e > b) {
        covered += e - b;
        reach = e;
      }
    }
    self_ms[s.layer] += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  return self_ms;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Requests overlap, so each gets its own track; main-thread spans
    // share track 0.
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,"
                 "\"request\":%llu}}",
                 i > 0 ? "," : "", s.name.c_str(), s.layer.c_str(),
                 static_cast<unsigned long long>(s.request),
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id), static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
