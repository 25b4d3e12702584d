// Spans recorded by the benchmark around its calls into the simulator's
// public functions (name, start, end, parent), kept in memory and written
// out once as a Chrome/Perfetto trace (chrome://tracing, ui.perfetto.dev).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

class Tracer {
 public:
  /// A disabled tracer records nothing; its spans cost one branch.
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII span: opened by Tracer::span, closed when it goes out of scope.
  /// The innermost span open at construction is its parent.
  class Span {
   public:
    Span(Tracer& tracer, std::string name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& tracer_;
    int index_ = -1;
  };

  /// Open a span; `name` is "<layer>.<call>", e.g. "batch.run_scale_serial".
  Span span(std::string name) { return Span(*this, std::move(name)); }

  void set_enabled(bool enabled) { enabled_ = enabled; }
  std::size_t spans() const { return records_.size(); }

  /// Write every closed span as Chrome trace-event JSON ("X" complete
  /// events, microsecond timestamps, parent id in args).  Throws
  /// std::runtime_error when the file cannot be written.
  void write_chrome(const std::string& path) const;

 private:
  struct Record {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
    int parent = -1;
  };

  std::int64_t now_ns() const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Record> records_;
  std::vector<int> open_;  // indices of spans not yet closed, innermost last
};

}  // namespace perfbench
