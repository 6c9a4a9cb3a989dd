// Spans and sample statistics for the benchmark. Spans are recorded by the
// benchmark around its own calls into gqzoo's public entry points (the
// program itself is not instrumented), kept in memory, and written out as
// JSON lines when the run ends.
#ifndef GQZOO_PERFBENCH_TRACE_H_
#define GQZOO_PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// One timed call: `parent` is the id of the span that caused it (0 for a
/// root), `request` groups the spans of one benchmark operation.
struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  Clock::time_point start;
  Clock::time_point end;
};

/// In-memory span store. When disabled, `Record` is never reached: the
/// untraced (end-to-end) runs pay only a branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  uint64_t NewId() { return next_id_.fetch_add(1) + 1; }
  void Record(const Span& span);
  size_t size() const;
  /// Writes one JSON object per span, times in µs since the first span.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::atomic<bool> enabled_;
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Times its own lifetime as one span (a no-op when tracing is off).
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, uint64_t parent = 0,
             uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }

 private:
  Tracer& tracer_;
  bool on_;
  Span span_;
};

/// Nearest-rank percentile (p in [0, 100]) of `v`; 0 for an empty sample.
double Percentile(std::vector<double> v, double p);
inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 50);
}

/// FNV-1a over a byte string: the per-text answer digest.
uint64_t Digest(std::string_view bytes);

}  // namespace perfbench

#endif  // GQZOO_PERFBENCH_TRACE_H_
