#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "models/latency_profile.hpp"
#include "net/messages.hpp"
#include "tracer.hpp"

namespace perfbench {

namespace de = diffserve::engine;

void Report::queries(std::uint64_t n, std::uint64_t bad,
                     const std::string& where) {
  attempted_ += n;
  failed_ += bad;
  if (bad > 0)
    std::fprintf(stderr, "CHECK FAILED: %s: %llu of %llu admitted queries "
                 "did not reach exactly one terminal\n", where.c_str(),
                 static_cast<unsigned long long>(bad),
                 static_cast<unsigned long long>(n));
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

void Report::print() const {
  for (const auto& m : metrics_)
    std::printf("%-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("attempted %llu failed %llu\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct() ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics_[i].name.c_str(), v,
                metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<std::uint32_t> shuffled_prompts(std::size_t n_prompts,
                                            std::size_t count,
                                            std::uint64_t seed) {
  std::vector<std::uint32_t> perm(n_prompts);
  for (std::size_t i = 0; i < n_prompts; ++i)
    perm[i] = static_cast<std::uint32_t>(i);
  std::uint64_t state = seed;
  for (std::size_t i = n_prompts; i > 1; --i) {
    state = mix_seed(state, i);
    std::swap(perm[i - 1], perm[state % i]);
  }
  std::vector<std::uint32_t> out(count);
  for (std::size_t i = 0; i < count; ++i) out[i] = perm[i % n_prompts];
  return out;
}

de::Query make_query(const Request& r, std::uint64_t seq, double arrival,
                     double slo, const de::SloClassConfig& c) {
  de::Query q;
  q.seq = seq;
  q.prompt_id = r.prompt;
  q.arrival_time = arrival;
  q.query_class = r.cls;
  q.deadline = arrival + slo * (c.enabled ? c.multiplier(r.cls) : 1.0);
  return q;
}

std::uint64_t bad_terminals(std::size_t admitted,
                            const std::vector<Terminal>& log) {
  std::vector<std::uint8_t> seen(admitted, 0);
  std::uint64_t bad = 0;
  for (const auto& t : log) {
    if (t.seq >= admitted) {
      ++bad;
      continue;
    }
    if (seen[t.seq] < 2) ++seen[t.seq];
  }
  for (const auto s : seen) bad += s != 1;
  return bad;
}

ClientEndpoint::ClientEndpoint(std::unique_ptr<diffserve::net::Endpoint> inner,
                               std::size_t reserve)
    : inner_(std::move(inner)) {
  log_.reserve(reserve);
}

void ClientEndpoint::set_receiver(
    std::function<void(diffserve::net::Frame)> receiver) {
  inner_->set_receiver(
      [this, r = std::move(receiver)](diffserve::net::Frame f) {
        if (f.topic == diffserve::net::kTopicTerminal) {
          diffserve::net::TerminalMsg m;
          // An undecodable frame is left to the frontend, which rejects
          // it; the query then shows up as missing a terminal.
          if (diffserve::net::decode(f, &m))
            log_.push_back({m.query.seq, now_ns()});
        }
        r(std::move(f));
      });
}

SinkFigures check_sink(Report& rep, const std::string& where,
                       const de::MetricsSink& sink,
                       const std::vector<Request>& admitted,
                       const std::vector<Terminal>& client, double duration) {
  rep.queries(admitted.size(), bad_terminals(admitted.size(), client),
              where + " client terminals");
  std::vector<Terminal> recorded;
  recorded.reserve(sink.records().size());
  std::size_t good = 0;
  std::size_t completed = 0;
  double latency_sum = 0.0;
  for (const auto& r : sink.records()) {
    recorded.push_back({r.seq, 0});
    good += !r.dropped && !r.violated;
    if (r.dropped) continue;
    ++completed;
    latency_sum += r.latency;
  }
  rep.check(bad_terminals(admitted.size(), recorded) == 0,
            where + ": sink records hold each admitted query once");
  std::array<std::size_t, de::kQueryClassCount> per_class{};
  for (const auto& r : admitted) ++per_class[static_cast<std::size_t>(r.cls)];
  bool classes_ok = true;
  for (std::size_t c = 0; c < de::kQueryClassCount; ++c)
    classes_ok &= sink.class_total(static_cast<de::QueryClass>(c)) ==
                  per_class[c];
  rep.check(classes_ok, where + ": per-class terminals equal admissions");
  const double from_records = static_cast<double>(good) / duration;
  const double from_sink = static_cast<double>(sink.total()) *
                           (1.0 - sink.violation_ratio()) / duration;
  rep.check(std::fabs(from_records - from_sink) <=
                1e-9 * std::max(1.0, from_sink),
            where + ": goodput from records equals the sink's");
  SinkFigures out;
  out.goodput_qps = from_records;
  out.mean_latency_s =
      completed == 0 ? 0.0 : latency_sum / static_cast<double>(completed);
  rep.check(std::fabs(out.mean_latency_s - sink.mean_latency()) <=
                1e-9 * std::max(1.0, sink.mean_latency()),
            where + ": mean latency from records equals the sink's");
  return out;
}

bool plan_fits(const std::vector<int>& workers, const std::vector<int>& batches,
               int budget) {
  const auto& standard = diffserve::models::standard_batch_sizes();
  if (workers.size() != batches.size()) return false;
  int used = 0;
  for (const int w : workers) {
    if (w < 0) return false;
    used += w;
  }
  for (const int b : batches)
    if (std::find(standard.begin(), standard.end(), b) == standard.end())
      return false;
  return used <= budget;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double seconds_since(std::uint64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) / 1e9;
}

}  // namespace perfbench
