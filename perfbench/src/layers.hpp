// Decorators the traced run places at each layer's public seam. Each one
// forwards every call unchanged and records a span (tracer.hpp) or a
// sample around it, so the library under test runs exactly the code it
// runs untraced. The untraced run does not construct them at all.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "control/allocator.hpp"
#include "control/milp_allocator.hpp"
#include "engine/backend.hpp"
#include "net/messages.hpp"
#include "net/transport.hpp"
#include "tracer.hpp"

namespace perfbench {

/// Times every solve; records MILP branch-and-bound nodes when the inner
/// allocator is the MILP one.
class TracedAllocator final : public diffserve::control::Allocator {
 public:
  explicit TracedAllocator(std::unique_ptr<diffserve::control::Allocator> inner)
      : inner_(std::move(inner)),
        milp_(dynamic_cast<diffserve::control::MilpAllocator*>(inner_.get())) {}

  diffserve::control::AllocationDecision allocate(
      const diffserve::control::AllocationInput& input) override {
    const std::uint64_t t0 = now_ns();
    diffserve::control::AllocationDecision d;
    {
      Span s(SpanKind::kControlSolve);
      d = inner_->allocate(input);
    }
    solve_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    if (milp_ != nullptr) nodes.push_back(milp_->last_nodes());
    return d;
  }
  std::string name() const override { return inner_->name(); }

  std::vector<double> solve_ms;
  std::vector<double> nodes;

 private:
  std::unique_ptr<diffserve::control::Allocator> inner_;
  diffserve::control::MilpAllocator* milp_;
};

/// Wraps the callbacks the engine hands to defer/execute in spans, and on
/// a wall-clock backend samples how late they fire and how long the
/// engine guard takes to acquire.
class TracedBackend final : public diffserve::engine::ExecutionBackend {
 public:
  /// `wall_us_per_trace_s` converts trace-time lateness to wall µs; 0
  /// marks a simulated clock (no lateness, an empty guard).
  TracedBackend(diffserve::engine::ExecutionBackend& inner,
                double wall_us_per_trace_s)
      : inner_(inner), wall_us_(wall_us_per_trace_s) {}

  double now() const override { return inner_.now(); }
  diffserve::engine::TimerHandle defer(double delay_seconds,
                                       std::function<void()> fn) override {
    const double due = inner_.now() + std::max(delay_seconds, 0.0);
    return inner_.defer(delay_seconds, [this, due, fn = std::move(fn)] {
      if (wall_us_ > 0.0)
        Tracer::get().sample(SampleKind::kTimerLateUs,
                             (inner_.now() - due) * wall_us_);
      Span s(SpanKind::kEngineTimer);
      fn();
    });
  }
  bool cancel(diffserve::engine::TimerHandle h) override {
    return inner_.cancel(h);
  }
  void execute(int worker_id, double exec_seconds,
               std::function<void()> done) override {
    const double due = inner_.now() + exec_seconds;
    inner_.execute(worker_id, exec_seconds,
                   [this, due, done = std::move(done)] {
                     if (wall_us_ > 0.0)
                       Tracer::get().sample(SampleKind::kExecLateUs,
                                            (inner_.now() - due) * wall_us_);
                     Span s(SpanKind::kEngineCompletion);
                     done();
                   });
  }
  std::unique_lock<std::mutex> guard() override {
    if (wall_us_ <= 0.0) return inner_.guard();
    const std::uint64_t t0 = now_ns();
    auto g = inner_.guard();
    Tracer::get().sample(SampleKind::kGuardWaitNs,
                         static_cast<double>(now_ns() - t0));
    return g;
  }
  void offload(std::function<void()> fn) override {
    inner_.offload(std::move(fn));
  }

 private:
  diffserve::engine::ExecutionBackend& inner_;
  double wall_us_;
};

/// Counts frames and wire bytes and times send() and the receiver. On a
/// shard-side endpoint the receiver of a query frame is the shard's
/// admission (QueryMsg decode + CascadeEngine::submit) and is recorded as
/// engine.submit; every other frame's receiver is net.deliver.
class TracedEndpoint final : public diffserve::net::Endpoint {
 public:
  explicit TracedEndpoint(std::unique_ptr<diffserve::net::Endpoint> inner)
      : inner_(std::move(inner)) {}

  void send(const diffserve::net::Frame& f) override {
    Tracer::get().add_bytes(4 + diffserve::net::kBodyHeaderLen +
                            f.topic.size() + f.payload.size());
    Span s(SpanKind::kNetSend);
    inner_->send(f);
  }
  void set_receiver(
      std::function<void(diffserve::net::Frame)> receiver) override {
    inner_->set_receiver([r = std::move(receiver)](diffserve::net::Frame f) {
      Span s(f.topic == diffserve::net::kTopicQuery ? SpanKind::kEngineSubmit
                                                    : SpanKind::kNetDeliver);
      r(std::move(f));
    });
  }
  void start() override { inner_->start(); }
  void stop() override { inner_->stop(); }

 private:
  std::unique_ptr<diffserve::net::Endpoint> inner_;
};

}  // namespace perfbench
