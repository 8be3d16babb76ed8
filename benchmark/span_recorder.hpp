// In-memory span recorder for the benchmark's traced runs. Spans are kept in
// memory while the workload runs and written out once, as a Chrome trace
// (chrome://tracing / Perfetto "X" events), when the run ends. Each span
// carries its name, a category (the graph kind, or "" for none), start and
// end, the id of the span that caused it, and the id of the request it
// belongs to; up to kMaxArgs numeric arguments ride along (plan and
// execution statistics, JobStats fields). benchmark/run.py derives self
// times and every per-layer metric from the written file.
//
// Spans are recorded after they close, so a parent reserves its id with
// next_id() before its children record themselves.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <mutex>
#include <string>
#include <vector>

namespace tilq_bench {

/// Microseconds on the steady clock since the first call in the process.
inline double now_us() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch)
      .count();
}

class SpanRecorder {
 public:
  struct Arg {
    const char* key;
    double value;
  };

  static constexpr std::size_t kMaxArgs = 16;

  /// Reserves a span id, for a span whose children record before it does.
  std::uint64_t next_id() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return ++last_id_;
  }

  /// Records one closed span. `name` and `category` must be string
  /// literals (or otherwise outlive the recorder). `id` 0 allocates one.
  /// Returns the span's id.
  std::uint64_t record(const char* name, const char* category,
                       std::uint64_t request, std::uint64_t parent,
                       double start_us, double end_us,
                       std::initializer_list<Arg> args = {},
                       std::uint64_t id = 0) {
    Span span{};
    span.name = name;
    span.category = category;
    span.request = request;
    span.parent = parent;
    span.start_us = start_us;
    span.end_us = end_us;
    span.thread = thread_number();
    for (const Arg& arg : args) {
      if (span.arg_count < kMaxArgs) {
        span.args[span.arg_count++] = arg;
      }
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    span.id = id != 0 ? id : ++last_id_;
    spans_.push_back(span);
    return span.id;
  }

  /// Writes every recorded span as a Chrome trace. Returns false when the
  /// file cannot be written.
  bool write_chrome_trace(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      return false;
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", out);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"name\":\"%s\","
                   "\"cat\":\"%s\",\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                   "\"span\":%llu,\"parent\":%llu,\"request\":%llu",
                   s.thread, s.name, s.category, s.start_us,
                   s.end_us - s.start_us,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
      for (std::size_t a = 0; a < s.arg_count; ++a) {
        std::fprintf(out, ",\"%s\":%.17g", s.args[a].key, s.args[a].value);
      }
      std::fputs(i + 1 < spans_.size() ? "}},\n" : "}}\n", out);
    }
    std::fputs("]}\n", out);
    return std::fclose(out) == 0;
  }

 private:
  struct Span {
    const char* name;
    const char* category;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t request;
    double start_us;
    double end_us;
    int thread;
    std::array<Arg, kMaxArgs> args;
    std::size_t arg_count;
  };

  /// Small per-thread number for the trace's tid column.
  int thread_number() {
    thread_local int number = -1;
    if (number < 0) {
      const std::lock_guard<std::mutex> lock(mutex_);
      number = ++last_thread_;
    }
    return number;
  }

  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t last_id_ = 0;
  int last_thread_ = 0;
};

}  // namespace tilq_bench
