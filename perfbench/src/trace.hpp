// In-memory span tracing for the benchmark's traced mode.
//
// A span is one timed call into a layer of the program: name, start,
// end, the span that caused it, and how many work items (queries,
// replica changes) it covered. Spans are kept in memory and written as
// JSON lines when the run ends; every per-layer metric is derived from
// them afterwards (derive_layer_metrics in the workloads).
//
// The same ScopedSpan doubles as the untraced run's stopwatch: it always
// measures, and records only when the tracer is enabled, so both modes
// time the same interval.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  const char* name = "";     ///< a string literal (layer.call)
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t items = 0;
  std::uint32_t lanes = 1;   ///< worker threads available to the call
  std::uint32_t thread = 0;

  [[nodiscard]] double seconds() const noexcept {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

/// A value read from the program at a layer boundary (table bytes,
/// counter census) rather than timed.
struct Reading {
  std::string name;
  double value = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] std::int64_t now_ns() const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }
  [[nodiscard]] std::uint64_t next_id() noexcept;

  /// Thread-safe; engine spans arrive from driver worker threads.
  void record(const Span& span);
  void read(std::string name, double value);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] const std::vector<Reading>& readings() const noexcept {
    return readings_;
  }
  /// Spans named `name` (single-threaded use, after the run).
  [[nodiscard]] std::vector<const Span*> named(const char* name) const;

  /// One JSON object per line: spans, then readings.
  void write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::mutex mutex_;  // guards the two vectors and the id counter
  std::uint64_t last_id_ = 0;
  std::vector<Span> spans_;
  std::vector<Reading> readings_;
};

/// Small dense id of the calling thread (for the span file).
[[nodiscard]] std::uint32_t thread_tag() noexcept;

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t parent = 0,
             std::uint64_t items = 0);
  ~ScopedSpan() { stop(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return span_.id; }
  void set_lanes(std::uint32_t lanes) noexcept { span_.lanes = lanes; }
  /// Ends the span (first call only) and returns its length in seconds.
  double stop();

 private:
  Tracer* tracer_;
  Span span_;
  bool open_ = true;
};

/// Length of the union of [start, end) intervals, clipped to [lo, hi).
[[nodiscard]] std::int64_t covered_ns(std::vector<const Span*> spans,
                                      std::int64_t lo, std::int64_t hi);

}  // namespace perfbench
