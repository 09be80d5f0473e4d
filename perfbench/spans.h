// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded only by the benchmark's own code, around its calls into
// each simulator module, so the simulator itself is unchanged between traced
// and untraced runs. Spans of one op share an op id; a span's parent is the
// span that caused it. Spans stay in memory until the run ends and are then
// written out as Chrome trace-event JSON.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"

namespace flexbench {

using flexstep::i64;
using flexstep::u64;
using flexstep::u8;

/// The simulator modules a span can be attributed to, plus the benchmark's
/// own bookkeeping (counter collection, oracle comparison).
enum class Layer : u8 {
  kBench,
  kWorkloads,
  kAnalysis,
  kSim,
  kSoc,
  kSnapshot,
  kFault,
  kRuntime,
};
inline constexpr std::size_t kLayerCount = 8;

constexpr const char* layer_name(Layer layer) {
  constexpr std::array<const char*, kLayerCount> names = {
      "bench", "workloads", "analysis", "sim", "soc", "snapshot", "fault", "runtime"};
  return names[static_cast<std::size_t>(layer)];
}

struct Span {
  const char* name = "";
  Layer layer = Layer::kBench;
  u64 op = 0;       ///< Shared by every span of one op.
  i64 parent = -1;  ///< Index of the causing span, -1 for a root.
  double start = 0.0;  ///< Seconds since the tracer was created.
  double end = 0.0;
};

/// Thread-safe: campaign shards open spans from worker threads.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span and returns its index (-1 when tracing is off).
  i64 open(const char* name, Layer layer, u64 op, i64 parent = -1) {
    if (!enabled_) return -1;
    const double now = elapsed();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, layer, op, parent, now, now});
    return static_cast<i64>(spans_.size() - 1);
  }

  void close(i64 index) {
    if (index < 0) return;
    const double now = elapsed();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(index)].end = now;
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  double elapsed() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
        .count();
  }

  const bool enabled_;
  const std::chrono::steady_clock::time_point t0_ = std::chrono::steady_clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span: opened on construction, closed on destruction.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, Layer layer, u64 op, i64 parent = -1)
      : tracer_(tracer), index_(tracer.open(name, layer, op, parent)) {}
  ~Scope() { tracer_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  i64 id() const { return index_; }

 private:
  Tracer& tracer_;
  const i64 index_;
};

/// Self time of every span: its duration minus the part of its interval that
/// its children cover (children running in parallel are counted once).
inline std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = spans[i].start;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, reach);
      hi = std::min(hi, spans[i].end);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    self[i] = std::max(0.0, spans[i].end - spans[i].start - covered);
  }
  return self;
}

/// Chrome trace-event JSON (chrome://tracing and Perfetto open it offline).
/// Returns false when the file cannot be written.
inline bool write_chrome_trace(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"span\":%zu,\"parent\":%lld}}\n",
                 i == 0 ? "" : ",", s.name, layer_name(s.layer),
                 static_cast<unsigned long long>(s.op), s.start * 1e6,
                 (s.end - s.start) * 1e6, i, static_cast<long long>(s.parent));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace flexbench
