#include "tracer.hpp"

#include <cstdio>

namespace perfbench {

const char* span_name(SpanKind k) {
  switch (k) {
    case SpanKind::kSimRun: return "sim.run";
    case SpanKind::kClusterSubmit: return "cluster.submit";
    case SpanKind::kEngineSubmit: return "engine.submit";
    case SpanKind::kEngineTimer: return "engine.timer";
    case SpanKind::kEngineCompletion: return "engine.completion";
    case SpanKind::kNetSend: return "net.send";
    case SpanKind::kNetDeliver: return "net.deliver";
    case SpanKind::kNetHop: return "net.hop";
    case SpanKind::kControlSolve: return "control.solve";
    case SpanKind::kCount: break;
  }
  return "?";
}

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::enable(bool on, std::size_t span_cap) {
  on_ = on;
  span_cap_ = span_cap;
  if (epoch_ns_ == 0) epoch_ns_ = now_ns();
}

void Tracer::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  logs_.clear();
  kept_total_ = 0;
  ++generation_;
}

Tracer::ThreadLog& Tracer::log() {
  thread_local ThreadLog* mine = nullptr;
  thread_local std::uint64_t mine_generation = 0;
  if (mine == nullptr || mine_generation != generation_) {
    std::lock_guard<std::mutex> lock(mu_);
    logs_.push_back(std::make_unique<ThreadLog>());
    mine = logs_.back().get();
    mine->tid = static_cast<std::uint32_t>(logs_.size());
    mine_generation = generation_;
  }
  return *mine;
}

void Tracer::open(SpanKind k, std::uint64_t query) {
  ThreadLog& l = log();
  std::int64_t kept = -1;
  if (kept_total_.load(std::memory_order_relaxed) < span_cap_) {
    kept_total_.fetch_add(1, std::memory_order_relaxed);
    const std::int64_t parent = l.stack.empty() ? -1 : l.stack.back().kept;
    kept = static_cast<std::int64_t>(l.spans.size());
    l.spans.push_back({k, 0, 0, parent, query});
  }
  l.stack.push_back({k, now_ns(), 0, kept});
  if (kept >= 0) l.spans[static_cast<std::size_t>(kept)].start =
      l.stack.back().start;
}

void Tracer::close() {
  ThreadLog& l = log();
  const std::uint64_t end = now_ns();
  const Open o = l.stack.back();
  l.stack.pop_back();
  const std::uint64_t dur = end - o.start;
  SpanAgg& a = l.agg[static_cast<std::size_t>(o.kind)];
  ++a.count;
  a.total_ns += dur;
  a.self_ns += dur > o.child_ns ? dur - o.child_ns : 0;
  if (!l.stack.empty()) l.stack.back().child_ns += dur;
  if (o.kept >= 0) l.spans[static_cast<std::size_t>(o.kept)].end = end;
}

void Tracer::sample(SampleKind k, double v) {
  log().samples[static_cast<std::size_t>(k)].push_back(v);
}

void Tracer::add_bytes(std::uint64_t n) { log().bytes += n; }

std::array<SpanAgg, kSpanKinds> Tracer::aggregates() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::array<SpanAgg, kSpanKinds> out{};
  for (const auto& l : logs_)
    for (std::size_t i = 0; i < kSpanKinds; ++i) {
      out[i].count += l->agg[i].count;
      out[i].total_ns += l->agg[i].total_ns;
      out[i].self_ns += l->agg[i].self_ns;
    }
  return out;
}

std::vector<double> Tracer::samples(SampleKind k) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const auto& l : logs_) {
    const auto& s = l->samples[static_cast<std::size_t>(k)];
    out.insert(out.end(), s.begin(), s.end());
  }
  return out;
}

std::uint64_t Tracer::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const auto& l : logs_) n += l->bytes;
  return n;
}

std::size_t Tracer::kept_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& l : logs_) n += l->spans.size();
  return n;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  bool first = true;
  for (const auto& l : logs_)
    for (const auto& s : l->spans) {
      if (s.end == 0) continue;  // still open when the run ended
      std::fprintf(
          f,
          "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
          "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"query\":%llu,\"parent\":%lld}}",
          first ? "" : ",", span_name(s.kind), l->tid,
          static_cast<double>(s.start - epoch_ns_) / 1e3,
          static_cast<double>(s.end - s.start) / 1e3,
          static_cast<unsigned long long>(s.query),
          static_cast<long long>(s.parent));
      first = false;
    }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
