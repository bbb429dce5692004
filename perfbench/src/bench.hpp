// Shared pieces of the benchmark program: command-line options, the run
// report (metrics + attempted/failed counts), input generation, and the
// correctness checks every workload applies to its outputs.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/metrics_sink.hpp"
#include "engine/plan.hpp"
#include "engine/query.hpp"
#include "net/transport.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// What one invocation prints: every metric with its unit, and the count
/// of attempted and failed operations. An operation is one admitted query
/// (it fails unless it reaches exactly one terminal) or one correctness
/// check (it fails when the property does not hold).
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  /// Counts `n` admitted queries, `bad` of which did not terminate once.
  void queries(std::uint64_t n, std::uint64_t bad, const std::string& where);
  /// Counts one check; prints `what` to stderr when it fails.
  void check(bool ok, const std::string& what);
  /// Prints one "name value unit" line per metric, then the JSON line.
  void print() const;
  bool correct() const { return failed_ == 0; }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// One generated request: when it is due and what it asks for.
struct Request {
  double due = 0.0;  ///< trace seconds (DES workloads)
  std::uint32_t prompt = 0;
  diffserve::engine::QueryClass cls = diffserve::engine::QueryClass::kStandard;
};

/// splitmix64: the benchmark's own seed expander (sub-seeds per round and
/// per stream), independent of the library's generators.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);
/// `count` prompt ids that walk a seeded permutation of [0, n_prompts)
/// cyclically — round-robin coverage in an order the seed picks.
std::vector<std::uint32_t> shuffled_prompts(std::size_t n_prompts,
                                            std::size_t count,
                                            std::uint64_t seed);
/// The admitted query for request `r`: sequence number, prompt, arrival
/// time, class, and deadline = arrival + slo x class multiplier.
diffserve::engine::Query make_query(const Request& r, std::uint64_t seq,
                                    double arrival, double slo,
                                    const diffserve::engine::SloClassConfig& c);

/// A terminal as the client saw it: the query and the wall-clock instant
/// (steady clock, ns) it came back.
struct Terminal {
  std::uint64_t seq;
  std::uint64_t wall_ns;
};
/// Admitted queries (seq in [0, admitted)) that did not reach exactly one
/// terminal in `log`, plus terminals for sequence numbers never admitted.
std::uint64_t bad_terminals(std::size_t admitted,
                            const std::vector<Terminal>& log);

/// Frontend-side endpoint wrapper that logs every terminal frame's query
/// and wall-clock arrival (the client's view of the round trip). One per
/// link; a link's receiver runs on one thread, so the log needs no lock.
class ClientEndpoint final : public diffserve::net::Endpoint {
 public:
  ClientEndpoint(std::unique_ptr<diffserve::net::Endpoint> inner,
                 std::size_t reserve);
  void send(const diffserve::net::Frame& f) override { inner_->send(f); }
  void set_receiver(
      std::function<void(diffserve::net::Frame)> receiver) override;
  void start() override { inner_->start(); }
  void stop() override { inner_->stop(); }
  const std::vector<Terminal>& log() const { return log_; }

 private:
  std::unique_ptr<diffserve::net::Endpoint> inner_;
  std::vector<Terminal> log_;
};

/// What a round's sink says about its service, recomputed from the
/// terminal records.
struct SinkFigures {
  double goodput_qps = 0.0;     ///< deadline-meeting completions per trace s
  double mean_latency_s = 0.0;  ///< over completed queries, trace seconds
};

/// Checks every terminal-count and sink-consistency property of one
/// round's sink: each admitted query exactly once in the records and in
/// the client log, per-class totals equal to what was admitted per class,
/// and goodput and mean latency recomputed from the records equal to the
/// sink's. Returns the recomputed figures.
SinkFigures check_sink(Report& rep, const std::string& where,
                       const diffserve::engine::MetricsSink& sink,
                       const std::vector<Request>& admitted,
                       const std::vector<Terminal>& client, double duration);

/// A plan fits `budget` workers and uses standard batch sizes.
bool plan_fits(const std::vector<int>& workers, const std::vector<int>& batches,
               int budget);

double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
double peak_rss_mb();
double seconds_since(std::uint64_t t0_ns);

}  // namespace perfbench
