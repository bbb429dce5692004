// In-memory span recorder for the traced run.
//
// Spans are opened only by the benchmark's own code, around calls into the
// library's public entry points (see layers.hpp). Each thread appends to
// its own log, so recording takes no lock after a thread's first span.
// Every span is folded into per-name aggregates when it closes (count,
// total and self time, where self time is the span's duration minus the
// time its child spans cover); the first `span_cap` spans are also kept
// whole, with parent and query id, and written out as Chrome trace-event
// JSON when the run ends.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Span names, one per layer boundary the benchmark wraps.
enum class SpanKind : std::uint8_t {
  kSimRun,            ///< sim::Simulation::run_until / run_all
  kClusterSubmit,     ///< ShardFrontend::submit
  kEngineSubmit,      ///< CascadeEngine::submit (bare or shard-side)
  kEngineTimer,       ///< callback handed to ExecutionBackend::defer
  kEngineCompletion,  ///< callback handed to ExecutionBackend::execute
  kNetSend,           ///< net::Endpoint::send
  kNetDeliver,        ///< receiver of a non-query frame
  kNetHop,            ///< loopback hop event (frame decode + receiver)
  kControlSolve,      ///< control::Allocator::allocate
  kCount,
};
inline constexpr std::size_t kSpanKinds =
    static_cast<std::size_t>(SpanKind::kCount);
const char* span_name(SpanKind k);

/// Per-thread sample streams (distributions, not spans).
enum class SampleKind : std::uint8_t {
  kTimerLateUs,  ///< wall µs a deferred callback fired after it was due
  kExecLateUs,   ///< wall µs a batch completion arrived after it was due
  kGuardWaitNs,  ///< wall ns spent acquiring the engine guard
  kCount,
};
inline constexpr std::size_t kSampleKinds =
    static_cast<std::size_t>(SampleKind::kCount);

struct SpanAgg {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

class Tracer {
 public:
  static Tracer& get();

  /// Turn recording on or off; `span_cap` bounds the spans kept whole.
  /// Call only while no traced thread runs.
  void enable(bool on, std::size_t span_cap = 200'000);
  bool on() const { return on_; }
  /// Drop every log (aggregates, samples, kept spans). Call only while no
  /// traced thread runs.
  void reset();

  void open(SpanKind k, std::uint64_t query);
  void close();
  void sample(SampleKind k, double v);
  void add_bytes(std::uint64_t n);

  /// Aggregates summed over every thread's log.
  std::array<SpanAgg, kSpanKinds> aggregates() const;
  std::vector<double> samples(SampleKind k) const;
  std::uint64_t bytes() const;
  std::size_t kept_spans() const;
  /// Chrome trace-event JSON ("X" events, µs timestamps) of the kept spans.
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Open {
    SpanKind kind;
    std::uint64_t start;
    std::uint64_t child_ns;
    std::int64_t kept;  ///< index into spans, -1 when not kept
  };
  struct Kept {
    SpanKind kind;
    std::uint64_t start;
    std::uint64_t end;
    std::int64_t parent;  ///< index into the same thread's spans, or -1
    std::uint64_t query;
  };
  struct ThreadLog {
    std::uint32_t tid = 0;
    std::vector<Open> stack;
    std::vector<Kept> spans;
    std::array<SpanAgg, kSpanKinds> agg{};
    std::array<std::vector<double>, kSampleKinds> samples;
    std::uint64_t bytes = 0;
  };
  ThreadLog& log();

  bool on_ = false;
  std::size_t span_cap_ = 0;
  std::uint64_t generation_ = 1;
  mutable std::mutex mu_;  ///< guards logs_ (registration, harvest)
  std::vector<std::unique_ptr<ThreadLog>> logs_;
  std::atomic<std::size_t> kept_total_{0};
  std::uint64_t epoch_ns_ = 0;
};

/// RAII span; a no-op while the tracer is off.
class Span {
 public:
  explicit Span(SpanKind k, std::uint64_t query = 0)
      : on_(Tracer::get().on()) {
    if (on_) Tracer::get().open(k, query);
  }
  ~Span() {
    if (on_) Tracer::get().close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_;
};

}  // namespace perfbench
