// The three workloads. Each one builds the cascade environment, assembles
// its topology from the library's public classes, drives generated
// requests through it in whole rounds until the run's time is used, checks
// every round's outputs, and reports end-to-end metrics (untraced rounds)
// or per-layer metrics (traced rounds, with the layer decorators of
// layers.hpp in place).
#include "workloads.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "cluster/cluster_controller.hpp"
#include "cluster/shard_frontend.hpp"
#include "cluster/shard_node.hpp"
#include "control/controller.hpp"
#include "control/exhaustive_allocator.hpp"
#include "control/milp_allocator.hpp"
#include "core/environment.hpp"
#include "engine/engine.hpp"
#include "layers.hpp"
#include "net/messages.hpp"
#include "runtime/threaded_runtime.hpp"
#include "serving/system.hpp"
#include "sim/simulation.hpp"
#include "trace/arrivals.hpp"
#include "trace/prompt_mix.hpp"
#include "trace/rate_trace.hpp"
#include "tracer.hpp"
#include "util/rng.hpp"
#include "util/trace_clock.hpp"

namespace perfbench {

namespace ds = diffserve;
namespace de = diffserve::engine;

namespace {

// ---------------------------------------------------------------------------
// Per-round outputs and per-layer accumulators
// ---------------------------------------------------------------------------

struct RoundOut {
  double wall_s = 0.0;      ///< timed phase
  std::size_t queries = 0;  ///< admitted
  double fid = 0.0;
  std::vector<std::size_t> served_by_stage;
  double goodput_qps = 0.0;
  /// DES: mean simulated latency of completed queries. tcp_flood: median
  /// wall-clock round trip of the paced phase.
  double latency_ms = 0.0;
  std::vector<double> late_us;    ///< generator lateness (tcp_flood)
};

/// Layer counts summed over the traced rounds.
struct Layers {
  std::vector<double> solve_ms;
  std::vector<double> nodes;
  std::uint64_t sim_events = 0;
  std::uint64_t batches = 0;
  std::uint64_t processed = 0;
  std::uint64_t deferrals = 0;
  std::uint64_t drops = 0;
  std::uint64_t admission_drops = 0;
  std::uint64_t reconfigurations = 0;
  std::vector<double> queue_len;
  ds::cache::CacheStats cache;
  std::uint64_t scorings = 0;
  std::uint64_t fallback_routes = 0;
  std::vector<double> shard_imbalance;
  std::vector<double> late_us;
  double wall_s = 0.0;
  double queries = 0.0;
};

void add_cache(ds::cache::CacheStats& a, const ds::cache::CacheStats& b) {
  a.lookups += b.lookups;
  a.exact_hits += b.exact_hits;
  a.near_hits += b.near_hits;
  a.far_hits += b.far_hits;
  a.insertions += b.insertions;
  a.latent_insertions += b.latent_insertions;
  a.evictions += b.evictions;
  a.lsh_probed_cells += b.lsh_probed_cells;
  a.lsh_probe_candidates += b.lsh_probe_candidates;
  a.heap_compactions += b.heap_compactions;
}

void add_engine(Layers& l, const de::CascadeEngine& e) {
  for (std::size_t i = 0; i < e.worker_count(); ++i) {
    const auto info = e.worker_info(i);
    l.batches += info.batches;
    l.processed += info.processed;
  }
  for (const auto d : e.class_admission_drops()) l.admission_drops += d;
  l.reconfigurations += e.reconfigurations();
  add_cache(l.cache, e.cache_stats());
}

/// Adds deferrals and drops from the terminal records to `l` and returns
/// the discriminator scorings recomputed from them: a query is scored once
/// per deferral, plus once more when it completes at a non-final stage it
/// actually ran (exact cache hits complete without running a stage).
std::uint64_t add_records(Layers& l, const de::MetricsSink& sink,
                          std::size_t stages) {
  std::uint64_t scored = 0;
  for (const auto& r : sink.records()) {
    l.deferrals += static_cast<std::uint64_t>(r.deferrals);
    l.drops += r.dropped;
    scored += static_cast<std::uint64_t>(r.deferrals);
    scored += !r.dropped && r.stage + 1 < stages &&
              r.hit_level != ds::cache::HitLevel::kExact;
  }
  return scored;
}

/// Sum of every worker's queue (sampled during traced rounds).
double queued(const de::CascadeEngine& e) {
  double n = 0.0;
  for (std::size_t i = 0; i < e.worker_count(); ++i)
    n += static_cast<double>(e.worker_info(i).queue_length);
  return n;
}

/// The wall-clock round trip (us) of each client terminal with seq >=
/// `first`, from when its query was due.
std::vector<double> round_trips_us(const std::vector<Terminal>& client,
                                   const std::vector<std::uint64_t>& due_ns,
                                   std::size_t first) {
  std::vector<double> out;
  for (const auto& t : client)
    if (t.seq >= first && t.seq < due_ns.size())
      out.push_back(static_cast<double>(t.wall_ns - due_ns[t.seq]) / 1e3);
  return out;
}

bool same_outcome(const RoundOut& a, const RoundOut& b) {
  return a.fid == b.fid && a.served_by_stage == b.served_by_stage &&
         a.queries == b.queries;
}

std::vector<std::size_t> stage_counts(const de::MetricsSink& sink,
                                      std::size_t stages) {
  std::vector<std::size_t> out(stages);
  for (std::size_t s = 0; s < stages; ++s) out[s] = sink.served_by_stage(s);
  return out;
}

std::unique_ptr<ds::control::Allocator> maybe_traced(
    std::unique_ptr<ds::control::Allocator> a, bool traced,
    TracedAllocator** handle) {
  *handle = nullptr;
  if (!traced) return a;
  auto t = std::make_unique<TracedAllocator>(std::move(a));
  *handle = t.get();
  return t;
}

std::unique_ptr<ds::net::Endpoint> maybe_traced(
    std::unique_ptr<ds::net::Endpoint> e, bool traced) {
  if (!traced) return e;
  return std::make_unique<TracedEndpoint>(std::move(e));
}

void harvest_solves(Layers* l, const TracedAllocator* t) {
  if (l == nullptr || t == nullptr) return;
  l->solve_ms.insert(l->solve_ms.end(), t->solve_ms.begin(), t->solve_ms.end());
  l->nodes.insert(l->nodes.end(), t->nodes.begin(), t->nodes.end());
}

// ---------------------------------------------------------------------------
// Workload interface
// ---------------------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build the topology and tear it down again (set-up timing).
  virtual void assemble(const ds::core::CascadeEnvironment& env) = 0;
  /// Run round `round` and check its outputs. `layers` is non-null on a
  /// traced round.
  virtual RoundOut round(const ds::core::CascadeEnvironment& env,
                         std::size_t round, Layers* layers, Report& rep) = 0;
  /// Whether a round's outcome is a pure function of its input (the DES),
  /// so a traced round must serve every query exactly as its untraced twin.
  virtual bool deterministic() const { return true; }
};

// ---------------------------------------------------------------------------
// paper_trace: the paper's headline scenario on the bare DES
// ---------------------------------------------------------------------------

/// Cascade 1, 8 workers, the MILP allocator, Azure-like diurnal load
/// 4 -> 32 qps over 720 trace seconds, default knobs. The trace shape is
/// fixed (the paper replays one trace); each round draws its own Poisson
/// arrivals and prompt order from the run's seed. 8 workers rather than
/// the paper's 16: how long the MILP takes varies with each round's input
/// (at 16 workers one round took 3 to 9 s), and the cheaper solves let a
/// run average over about 15 inputs instead of 6 while solves keep about
/// 95% of the wall time.
class PaperTrace final : public Workload {
 public:
  static constexpr int kWorkers = 8;

  explicit PaperTrace(std::uint64_t seed)
      : seed_(seed), trace_(ds::trace::RateTrace::azure_like(4.0, 32.0, 720.0, 3)) {}

  void assemble(const ds::core::CascadeEnvironment& env) override {
    ds::sim::Simulation sim;
    ds::serving::SimulationBackend backend(sim);
    de::CascadeEngine eng(backend, env.workload(), env.repository(),
                          env.cascade(), env.discs(), env.scorer(),
                          engine_config(env));
    ds::control::Controller ctl(eng, std::make_unique<ds::control::MilpAllocator>(),
                                env.offline_profiles(), controller_config());
  }

  RoundOut round(const ds::core::CascadeEnvironment& env, std::size_t round,
                 Layers* layers, Report& rep) override {
    const bool traced = layers != nullptr;
    const std::uint64_t sub = mix_seed(seed_, round);
    ds::util::Rng rng(sub);
    const auto arrivals = ds::trace::generate_arrivals(trace_, rng);
    const auto prompts =
        shuffled_prompts(env.workload().size(), arrivals.size(), mix_seed(sub, 1));
    std::vector<Request> reqs(arrivals.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) reqs[i] = {arrivals[i], prompts[i]};

    ds::sim::Simulation sim;
    ds::serving::SimulationBackend des(sim);
    TracedBackend traced_backend(des, 0.0);
    de::ExecutionBackend& backend =
        traced ? static_cast<de::ExecutionBackend&>(traced_backend) : des;
    const auto ecfg = engine_config(env);
    de::CascadeEngine eng(backend, env.workload(), env.repository(),
                          env.cascade(), env.discs(), env.scorer(), ecfg);
    eng.sink_reserve(reqs.size());
    std::vector<Terminal> client;
    client.reserve(reqs.size());
    eng.set_terminal_observer([&client](const de::Query& q, int, double, bool) {
      client.push_back({q.seq, now_ns()});
    });
    TracedAllocator* solver = nullptr;
    ds::control::Controller ctl(
        eng, maybe_traced(std::make_unique<ds::control::MilpAllocator>(), traced, &solver),
        env.offline_profiles(), controller_config());

    for (std::size_t i = 0; i < reqs.size(); ++i)
      sim.schedule_at(reqs[i].due, [&, i] {
        const de::Query q =
            make_query(reqs[i], i, sim.now(), ecfg.slo_seconds, ecfg.slo_classes);
        {
          Span s(SpanKind::kEngineSubmit, i);
          eng.submit(q);
        }
        if (traced && i % 64 == 0) layers->queue_len.push_back(queued(eng));
      });

    const std::uint64_t t0 = now_ns();
    {
      Span s(SpanKind::kSimRun);
      ctl.start();
      sim.run_until(trace_.duration() + ecfg.slo_seconds + 20.0);
      ctl.stop();
      sim.run_all();
    }
    RoundOut out;
    out.wall_s = seconds_since(t0);
    out.queries = reqs.size();

    const auto& sink = eng.sink();
    const auto figures =
        check_sink(rep, "paper_trace", sink, reqs, client, trace_.duration());
    out.goodput_qps = figures.goodput_qps;
    out.latency_ms = figures.mean_latency_s * 1e3;
    bool plans_ok = true;
    for (const auto& h : ctl.history())
      plans_ok &= plan_fits(h.decision.workers, h.decision.batches, ecfg.total_workers);
    const auto final_plan = eng.plan();
    plans_ok &= plan_fits(final_plan.workers, final_plan.batches, ecfg.total_workers);
    rep.check(plans_ok && !ctl.history().empty(),
              "paper_trace: every applied plan fits its workers with standard batches");
    out.fid = sink.overall_fid();
    out.served_by_stage = stage_counts(sink, eng.stage_count());

    if (traced) {
      layers->sim_events += sim.executed();
      add_engine(*layers, eng);
      layers->scorings += add_records(*layers, sink, eng.stage_count());
      harvest_solves(layers, solver);
    }
    return out;
  }

 private:
  de::EngineConfig engine_config(const ds::core::CascadeEnvironment& env) const {
    de::EngineConfig c;
    c.total_workers = kWorkers;
    c.slo_seconds = env.default_slo();
    return c;
  }
  ds::control::ControllerConfig controller_config() const {
    ds::control::ControllerConfig c;
    c.over_provision = 1.05;
    c.initial_demand_guess = trace_.qps_at(0.0);
    return c;
  }

  std::uint64_t seed_;
  ds::trace::RateTrace trace_;
};

// ---------------------------------------------------------------------------
// sharded_reuse: 4 shards on the DES over loopback links, cache + classes
// ---------------------------------------------------------------------------

/// 4 shards x 8 workers behind the consistent-hash frontend, loopback links
/// with a 5 ms hop, the exhaustive allocator in the cluster controller,
/// Azure-like 8 -> 48 qps over 3600 trace seconds (about 10^5 queries),
/// Zipf(1.0) prompts with a 20% interactive / 20% batch class mix, and the
/// reuse cache on with latent levels, interpolated step fractions and a
/// per-shard capacity (64) below the prompt working set, so lookups and
/// insert-evictions both run. cache_aware stays at its default.
class ShardedReuse final : public Workload {
 public:
  static constexpr int kShards = 4;
  static constexpr int kWorkersPerShard = 8;
  static constexpr double kHopSeconds = 0.005;

  explicit ShardedReuse(std::uint64_t seed)
      : seed_(seed),
        trace_(ds::trace::RateTrace::azure_like(8.0, 48.0, 3600.0, 5)) {
    classes_.enabled = true;
    cache_.enabled = true;
    cache_.capacity = 64;
    cache_.latent_levels = true;
    cache_.interpolate_step_fraction = true;
  }

  void assemble(const ds::core::CascadeEnvironment& env) override {
    Topology t(*this, env, false, 0);
  }

  RoundOut round(const ds::core::CascadeEnvironment& env, std::size_t round,
                 Layers* layers, Report& rep) override {
    const bool traced = layers != nullptr;
    const std::uint64_t sub = mix_seed(seed_, round);
    ds::util::Rng rng(sub);
    const auto arrivals = ds::trace::generate_arrivals(trace_, rng);
    ds::trace::PromptMixConfig mix;
    mix.kind = ds::trace::PromptMixConfig::Kind::kZipf;
    mix.zipf_exponent = 1.0;
    mix.seed = mix_seed(sub, 1);
    mix.interactive_share = 0.2;
    mix.batch_share = 0.2;
    mix.class_seed = mix_seed(sub, 2);
    ds::trace::PromptSampler sampler(env.workload().size(), mix);
    std::vector<Request> reqs(arrivals.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      reqs[i].due = arrivals[i];
      reqs[i].prompt = sampler.next();
      reqs[i].cls = static_cast<de::QueryClass>(sampler.next_class());
    }

    Topology t(*this, env, traced, reqs.size());
    const double slo = env.default_slo();
    for (std::size_t i = 0; i < reqs.size(); ++i)
      t.sim.schedule_at(reqs[i].due, [&, i] {
        const de::Query q = make_query(reqs[i], i, t.sim.now(), slo, classes_);
        if (!traced) {
          t.frontend->submit(q);
          return;
        }
        layers->fallback_routes +=
            t.frontend->route(q.prompt_id) != t.frontend->hash_shard(q.prompt_id);
        {
          Span s(SpanKind::kClusterSubmit, i);
          t.frontend->submit(q);
        }
        if (i % 64 == 0) {
          double n = 0.0;
          for (const auto& e : t.engines) n += queued(*e);
          layers->queue_len.push_back(n);
        }
      });

    const std::uint64_t t0 = now_ns();
    {
      Span s(SpanKind::kSimRun);
      t.cc->start();
      // Batch-class deadlines reach 8 x SLO past arrival.
      t.sim.run_until(trace_.duration() + 8.0 * slo + 20.0);
      t.cc->stop();
      t.sim.run_all();
    }
    RoundOut out;
    out.wall_s = seconds_since(t0);
    out.queries = reqs.size();

    const auto& sink = t.frontend->sink();
    std::vector<Terminal> client;
    for (const auto* c : t.clients)
      client.insert(client.end(), c->log().begin(), c->log().end());
    const auto figures =
        check_sink(rep, "sharded_reuse", sink, reqs, client, trace_.duration());
    out.goodput_qps = figures.goodput_qps;
    out.latency_ms = figures.mean_latency_s * 1e3;
    bool classes_ok = true;
    for (std::size_t c = 0; c < de::kQueryClassCount; ++c) {
      const auto cls = static_cast<de::QueryClass>(c);
      std::size_t shard_total = 0;
      for (const auto& e : t.engines) shard_total += e->sink().class_total(cls);
      classes_ok &= shard_total == sink.class_total(cls);
    }
    rep.check(classes_ok, "sharded_reuse: per-class terminals summed over "
                          "shards equal the frontend's");
    bool plans_ok = !t.cc->history().empty();
    for (const auto& h : t.cc->history()) {
      plans_ok &= plan_fits(h.decision.workers, h.decision.batches,
                            kShards * kWorkersPerShard);
      for (const auto& p : h.shard_plans)
        plans_ok &= plan_fits(p.workers, p.batches, kWorkersPerShard);
    }
    rep.check(plans_ok, "sharded_reuse: every plan fits its worker budget "
                        "with standard batches");
    out.fid = sink.overall_fid();
    const std::size_t stages = t.engines.front()->stage_count();
    out.served_by_stage = stage_counts(sink, stages);

    if (traced) {
      layers->sim_events += t.sim.executed();
      double most = 0.0;
      double total = 0.0;
      for (const auto& e : t.engines) {
        add_engine(*layers, *e);
        most = std::max(most, static_cast<double>(e->submitted()));
        total += static_cast<double>(e->submitted());
      }
      layers->shard_imbalance.push_back(most * kShards / total);
      const std::uint64_t scored = add_records(*layers, sink, stages);
      rep.check(scored == t.scorings, "sharded_reuse: discriminator scorings "
                                      "from the records equal the observer's");
      layers->scorings += t.scorings;
      harvest_solves(layers, t.solver);
    }
    return out;
  }

 private:
  /// One cluster assembled on the DES, torn down at the end of the round.
  struct Topology {
    Topology(const ShardedReuse& w, const ds::core::CascadeEnvironment& env,
             bool traced, std::size_t queries)
        : des(sim), traced_backend(des, 0.0) {
      de::ExecutionBackend& backend =
          traced ? static_cast<de::ExecutionBackend&>(traced_backend) : des;
      const double slo = env.default_slo();
      for (int s = 0; s < kShards; ++s) {
        de::EngineConfig c;
        c.total_workers = kWorkersPerShard;
        c.slo_seconds = slo;
        c.seed = 1 + static_cast<std::uint64_t>(s);
        // The frontend's sink holds the cluster's records.
        c.record_terminal_events = false;
        c.cache = w.cache_;
        c.slo_classes = w.classes_;
        engines.push_back(std::make_unique<de::CascadeEngine>(
            backend, env.workload(), env.repository(), env.cascade(),
            env.discs(), env.scorer(), c));
      }
      ds::cluster::FrontendConfig f;
      f.slo_seconds = slo;
      f.slo_classes = w.classes_;
      frontend = std::make_unique<ds::cluster::ShardFrontend>(
          env.workload(), env.scorer(), f);
      ds::net::DeferFn defer = [this, traced](double delay,
                                              std::function<void()> fn) {
        if (!traced) {
          sim.schedule_in(delay, std::move(fn));
          return;
        }
        sim.schedule_in(delay, [fn = std::move(fn)] {
          Span s(SpanKind::kNetHop);
          fn();
        });
      };
      for (int s = 0; s < kShards; ++s) {
        auto link = ds::net::make_loopback_link(kHopSeconds, defer);
        nodes.push_back(std::make_unique<ds::cluster::ShardNode>(
            static_cast<std::uint32_t>(s), *engines[static_cast<std::size_t>(s)],
            maybe_traced(std::move(link.second), traced)));
        auto client = std::make_unique<ClientEndpoint>(
            maybe_traced(std::move(link.first), traced), 2 * queries / kShards);
        clients.push_back(client.get());
        frontend->attach_shard(std::move(client));
      }
      if (queries > 0) frontend->sink().reserve(queries);
      ds::cluster::ClusterControllerConfig cfg;
      cfg.control.over_provision = 1.05;
      cfg.control.initial_demand_guess = w.trace_.qps_at(0.0);
      cc = std::make_unique<ds::cluster::ClusterController>(
          *frontend, *engines.front(), kWorkersPerShard, slo,
          maybe_traced(std::make_unique<ds::control::ExhaustiveAllocator>(),
                       traced, &solver),
          env.offline_profiles(), cfg);
      for (auto& e : engines)
        e->set_confidence_observer([this](std::size_t b, double c) {
          ++scorings;
          cc->observe_confidence(b, c);
        });
    }

    ds::sim::Simulation sim;
    ds::serving::SimulationBackend des;
    TracedBackend traced_backend;
    std::vector<std::unique_ptr<de::CascadeEngine>> engines;
    std::unique_ptr<ds::cluster::ShardFrontend> frontend;
    std::vector<std::unique_ptr<ds::cluster::ShardNode>> nodes;
    std::vector<const ClientEndpoint*> clients;
    std::unique_ptr<ds::cluster::ClusterController> cc;
    TracedAllocator* solver = nullptr;
    std::uint64_t scorings = 0;
  };

  std::uint64_t seed_;
  ds::trace::RateTrace trace_;
  de::SloClassConfig classes_;
  ds::cache::CacheConfig cache_;
};

// ---------------------------------------------------------------------------
// tcp_flood: 2 shards on real threads over TCP, static plan
// ---------------------------------------------------------------------------

/// 2 shards x 2 workers on ThreadedBackend at time scale 2*10^4, TCP links,
/// one static plan per shard (1 light worker at batch 8, 1 heavy worker at
/// batch 1, threshold for 2% deferral), no controller, a deadline far
/// enough away that nothing is dropped. One generator thread floods
/// kFlood queries (closed by socket back-pressure and a kWindow in-flight
/// cap), then paces kPaced more at kPacedRate wall queries/s (open loop).
/// Every round replays the same seeded prompt order.
class TcpFlood final : public Workload {
 public:
  static constexpr int kShards = 2;
  static constexpr int kWorkersPerShard = 2;
  static constexpr double kTimeScale = 2e4;
  static constexpr double kSlo = 1e9;
  static constexpr std::size_t kFlood = 100'000;
  static constexpr std::size_t kWindow = 8192;
  static constexpr std::size_t kPaced = 10'000;
  static constexpr double kPacedRate = 20'000.0;

  explicit TcpFlood(std::uint64_t seed) : seed_(seed) {}

  bool deterministic() const override { return false; }

  void assemble(const ds::core::CascadeEnvironment& env) override {
    Topology t(env, false, 0, plan(env));
    t.stop();
  }

  RoundOut round(const ds::core::CascadeEnvironment& env, std::size_t /*round*/,
                 Layers* layers, Report& rep) override {
    const bool traced = layers != nullptr;
    const std::size_t n = kFlood + kPaced;
    const auto prompts =
        shuffled_prompts(env.workload().size(), n, mix_seed(seed_, 0));
    if (reference_.served_by_stage.empty()) reference_ = des_reference(env, prompts);

    std::vector<Request> reqs(n);
    for (std::size_t i = 0; i < n; ++i) reqs[i].prompt = prompts[i];
    const de::SloClassConfig no_classes;
    Topology t(env, traced, n, plan(env));
    auto submit = [&](std::size_t i, double arrival) {
      const de::Query q = make_query(reqs[i], i, arrival, kSlo, no_classes);
      {
        Span s(SpanKind::kClusterSubmit, i);
        t.frontend->submit(q);
      }
      if (traced && i % 64 == 0) {
        double queue = 0.0;
        for (const auto& e : t.engines) queue += queued(*e);
        layers->queue_len.push_back(queue);
      }
    };

    // Flood: submit as fast as the links accept, with at most about
    // kWindow queries in flight so the backlog (and the memory it holds)
    // does not depend on how the threads happen to be scheduled.
    RoundOut out;
    std::vector<std::uint64_t> due_ns(n);
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < kFlood; ++i) {
      if (i % 256 == 0)
        while (t.frontend->terminated() + kWindow < i) std::this_thread::yield();
      submit(i, t.clock.now());
    }
    t.wait_terminated(kFlood);
    out.wall_s = seconds_since(t0);
    out.queries = kFlood;

    // Paced: open loop, each query due at a fixed offset from the start.
    // The client times it from when it was due, so generator stalls count
    // in latency_ms; the engine sees it arrive when it was actually sent.
    const std::uint64_t w0 = now_ns();
    out.late_us.reserve(kPaced);
    for (std::size_t j = 0; j < kPaced; ++j) {
      const double offset_s = static_cast<double>(j) / kPacedRate;
      const std::size_t i = kFlood + j;
      due_ns[i] = w0 + static_cast<std::uint64_t>(offset_s * 1e9);
      // Spin, yielding: a sleeping generator wakes milliseconds late on a
      // busy machine, and a plain spin would take a core from the shards.
      while (now_ns() < due_ns[i]) std::this_thread::yield();
      out.late_us.push_back(static_cast<double>(now_ns() - due_ns[i]) / 1e3);
      submit(i, t.clock.now());
    }
    t.wait_terminated(n);
    const double paced_trace_s = static_cast<double>(kPaced) / kPacedRate * kTimeScale;
    t.stop();

    const auto& sink = t.frontend->sink();
    std::vector<Terminal> client;
    for (const auto* c : t.clients)
      client.insert(client.end(), c->log().begin(), c->log().end());
    check_sink(rep, "tcp_flood", sink, reqs, client, paced_trace_s);
    std::size_t shard_total = 0;
    for (const auto& e : t.engines) shard_total += e->sink().total();
    rep.check(shard_total == sink.total(),
              "tcp_flood: terminals summed over shards equal the frontend's");
    bool plans_ok = true;
    for (const auto& e : t.engines) {
      const auto p = e->plan();
      plans_ok &= p.workers == t.plan.workers && p.batches == t.plan.batches &&
                  plan_fits(p.workers, p.batches, kWorkersPerShard);
    }
    rep.check(plans_ok, "tcp_flood: every shard runs the static plan");
    out.fid = sink.overall_fid();
    out.served_by_stage = stage_counts(sink, t.engines.front()->stage_count());
    rep.check(out.served_by_stage == reference_.served_by_stage &&
                  std::fabs(out.fid - reference_.fid) <= 1e-9 * reference_.fid,
              "tcp_flood: FID and per-stage served counts equal the DES run "
              "of the same plan and prompts");

    // Paced-phase round trip and goodput. The engine's deadline is far
    // away so that nothing is dropped; goodput judges each paced
    // completion against the cascade's own SLO instead.
    out.latency_ms = median(round_trips_us(client, due_ns, kFlood)) / 1e3;
    std::size_t good = 0;
    for (const auto& r : sink.records())
      good += r.seq >= kFlood && !r.dropped && r.latency <= env.default_slo();
    out.goodput_qps = static_cast<double>(good) / paced_trace_s;

    if (traced) {
      for (const auto& e : t.engines) add_engine(*layers, *e);
      layers->scorings +=
          add_records(*layers, sink, t.engines.front()->stage_count());
      double most = 0.0;
      double total = 0.0;
      for (const auto& e : t.engines) {
        most = std::max(most, static_cast<double>(e->submitted()));
        total += static_cast<double>(e->submitted());
      }
      layers->shard_imbalance.push_back(most * kShards / total);
      layers->late_us.insert(layers->late_us.end(), out.late_us.begin(),
                             out.late_us.end());
    }
    return out;
  }

 private:
  de::AllocationPlan plan(const ds::core::CascadeEnvironment& env) const {
    auto p = de::AllocationPlan::for_stages(2);
    p.workers = {1, 1};
    p.batches = {8, 1};
    p.thresholds = {env.offline_profile().threshold_for_fraction(0.02)};
    return p;
  }

  struct Reference {
    double fid = 0.0;
    std::vector<std::size_t> served_by_stage;
  };

  /// The same prompts under the same plan (both shards' workers on one
  /// engine) on the DES: served tiers depend only on prompt and plan when
  /// nothing is dropped, so FID and per-stage counts must match exactly.
  Reference des_reference(const ds::core::CascadeEnvironment& env,
                          const std::vector<std::uint32_t>& prompts) const {
    ds::sim::Simulation sim;
    ds::serving::SimulationBackend backend(sim);
    de::EngineConfig c;
    c.total_workers = kShards * kWorkersPerShard;
    c.slo_seconds = kSlo;
    de::CascadeEngine eng(backend, env.workload(), env.repository(),
                          env.cascade(), env.discs(), env.scorer(), c);
    auto p = plan(env);
    for (auto& w : p.workers) w *= kShards;
    eng.apply(p);
    eng.sink_reserve(prompts.size());
    const de::SloClassConfig no_classes;
    for (std::size_t i = 0; i < prompts.size(); ++i)
      sim.schedule_at(1e-3 * static_cast<double>(i), [&, i] {
        eng.submit(make_query({0.0, prompts[i]}, i, sim.now(), kSlo, no_classes));
      });
    sim.run_all();
    return {eng.sink().overall_fid(), stage_counts(eng.sink(), eng.stage_count())};
  }

  /// Two threaded shards wired to the frontend over TCP, running.
  struct Topology {
    Topology(const ds::core::CascadeEnvironment& env, bool traced,
             std::size_t queries, de::AllocationPlan static_plan)
        : clock(kTimeScale), plan(std::move(static_plan)) {
      for (int s = 0; s < kShards; ++s) {
        backends.push_back(
            std::make_unique<ds::runtime::ThreadedBackend>(clock, kWorkersPerShard));
        traced_backends.push_back(
            std::make_unique<TracedBackend>(*backends.back(), 1e6 / kTimeScale));
        de::EngineConfig c;
        c.total_workers = kWorkersPerShard;
        c.slo_seconds = kSlo;
        c.seed = 1 + static_cast<std::uint64_t>(s);
        c.record_terminal_events = false;
        de::ExecutionBackend& b =
            traced ? static_cast<de::ExecutionBackend&>(*traced_backends.back())
                   : *backends.back();
        engines.push_back(std::make_unique<de::CascadeEngine>(
            b, env.workload(), env.repository(), env.cascade(), env.discs(),
            env.scorer(), c));
      }
      ds::cluster::FrontendConfig f;
      f.slo_seconds = kSlo;
      frontend = std::make_unique<ds::cluster::ShardFrontend>(
          env.workload(), env.scorer(), f);
      for (int s = 0; s < kShards; ++s) {
        auto link = ds::net::make_tcp_link();
        nodes.push_back(std::make_unique<ds::cluster::ShardNode>(
            static_cast<std::uint32_t>(s), *engines[static_cast<std::size_t>(s)],
            maybe_traced(std::move(link.second), traced)));
        auto client = std::make_unique<ClientEndpoint>(
            maybe_traced(std::move(link.first), traced), 2 * queries / kShards);
        clients.push_back(client.get());
        frontend->attach_shard(std::move(client));
      }
      if (queries > 0) frontend->sink().reserve(queries);
      frontend->start_transports();
      for (auto& n : nodes) n->start();
      for (auto& b : backends) b->start();
      // The plan rides the same ordered link as the queries, so every
      // shard applies it before its first query.
      for (std::uint32_t s = 0; s < kShards; ++s)
        frontend->send_to_shard(s, ds::net::encode(ds::net::PlanMsg{s, plan}));
    }
    ~Topology() { stop(); }

    /// Waits (at most 60 s) until `n` terminals reached the frontend.
    void wait_terminated(std::size_t n) const {
      const std::uint64_t give_up = now_ns() + 60'000'000'000ULL;
      while (frontend->terminated() < n && now_ns() < give_up)
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    }

    /// Quiesces the engines, lets the last frames cross, then joins every
    /// transport thread. Idempotent.
    void stop() {
      if (stopped) return;
      stopped = true;
      for (auto& b : backends) b->stop();
      wait_terminated(frontend->submitted());
      for (auto& n : nodes) n->stop();
      frontend->stop_transports();
    }

    ds::util::TraceClock clock;
    de::AllocationPlan plan;
    std::vector<std::unique_ptr<ds::runtime::ThreadedBackend>> backends;
    std::vector<std::unique_ptr<TracedBackend>> traced_backends;
    std::vector<std::unique_ptr<de::CascadeEngine>> engines;
    std::unique_ptr<ds::cluster::ShardFrontend> frontend;
    std::vector<std::unique_ptr<ds::cluster::ShardNode>> nodes;
    std::vector<const ClientEndpoint*> clients;
    bool stopped = false;
  };

  std::uint64_t seed_;
  Reference reference_;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "paper_trace") return std::make_unique<PaperTrace>(seed);
  if (name == "sharded_reuse") return std::make_unique<ShardedReuse>(seed);
  if (name == "tcp_flood") return std::make_unique<TcpFlood>(seed);
  return nullptr;
}

double ns_per(const SpanAgg& a, bool self = false) {
  return a.count == 0 ? 0.0
                      : static_cast<double>(self ? a.self_ns : a.total_ns) /
                            static_cast<double>(a.count);
}

double per_round(const std::vector<RoundOut>& rounds, double q,
                 const std::function<double(const RoundOut&)>& f) {
  std::vector<double> v;
  for (const auto& r : rounds) v.push_back(f(r));
  return quantile(v, q);
}

/// On the DES a round's trace-time figures are a pure function of its
/// input: each is the median over rounds, and wall_qps is all rounds'
/// queries over their wall time. On the threaded pipeline every round
/// replays one input and host contention only ever slows a round down, so
/// the wall-clock figures (wall_qps, goodput_qps, latency_ms) come from
/// the run's quietest round: the highest rates, the lowest latency.
void end_to_end(Report& rep, const std::vector<RoundOut>& rounds,
                bool deterministic, double setup_s, double rss_mb) {
  const double fast = deterministic ? 0.5 : 1.0;
  double queries = 0.0;
  double wall_s = 0.0;
  for (const auto& r : rounds) {
    queries += static_cast<double>(r.queries);
    wall_s += r.wall_s;
  }
  rep.metric("setup_s", setup_s, "s");
  rep.metric("wall_qps",
             deterministic ? queries / wall_s
                           : per_round(rounds, fast, [](const RoundOut& r) {
                               return static_cast<double>(r.queries) / r.wall_s;
                             }),
             "1/s");
  rep.metric("peak_rss_mb", rss_mb, "MB");
  rep.metric("goodput_qps", per_round(rounds, fast, [](const RoundOut& r) {
               return r.goodput_qps;
             }), "1/s");
  rep.metric("fid", per_round(rounds, 0.5, [](const RoundOut& r) {
               return r.fid;
             }), "score");
  rep.metric("latency_ms", per_round(rounds, 1.0 - fast, [](const RoundOut& r) {
               return r.latency_ms;
             }), "ms");
}

void per_layer(Report& rep, const Layers& l, double untraced_wall,
               double untraced_queries) {
  const auto agg = Tracer::get().aggregates();
  const auto at = [&agg](SpanKind k) {
    return agg[static_cast<std::size_t>(k)];
  };
  double solve_total_ms = 0.0;
  for (const double ms : l.solve_ms) solve_total_ms += ms;
  rep.metric("control.solves", static_cast<double>(l.solve_ms.size()), "count");
  rep.metric("control.solve_ms_p50", quantile(l.solve_ms, 0.5), "ms");
  rep.metric("control.solve_ms_p90", quantile(l.solve_ms, 0.9), "ms");
  rep.metric("control.solve_ms_max", quantile(l.solve_ms, 1.0), "ms");
  rep.metric("control.solve_share",
             l.wall_s > 0.0 ? solve_total_ms / 1e3 / l.wall_s : 0.0, "ratio");
  double nodes = 0.0;
  for (const double n : l.nodes) nodes += n;
  rep.metric("milp.nodes", nodes, "count");
  rep.metric("milp.nodes_p50", quantile(l.nodes, 0.5), "count");
  rep.metric("milp.nodes_max", quantile(l.nodes, 1.0), "count");

  rep.metric("sim.events", static_cast<double>(l.sim_events), "count");
  rep.metric("sim.dispatch_ns",
             l.sim_events == 0 ? 0.0
                               : static_cast<double>(at(SpanKind::kSimRun).self_ns) /
                                     static_cast<double>(l.sim_events),
             "ns");

  rep.metric("engine.submit_ns", ns_per(at(SpanKind::kEngineSubmit)), "ns");
  rep.metric("engine.completion_ns", ns_per(at(SpanKind::kEngineCompletion)), "ns");
  rep.metric("engine.timer_ns", ns_per(at(SpanKind::kEngineTimer)), "ns");
  rep.metric("engine.batches", static_cast<double>(l.batches), "count");
  rep.metric("engine.batch_size_mean",
             l.batches == 0 ? 0.0
                            : static_cast<double>(l.processed) /
                                  static_cast<double>(l.batches),
             "count");
  rep.metric("engine.deferrals", static_cast<double>(l.deferrals), "count");
  rep.metric("engine.admission_drops", static_cast<double>(l.admission_drops),
             "count");
  rep.metric("engine.deadline_drops",
             static_cast<double>(l.drops - std::min(l.drops, l.admission_drops)),
             "count");
  rep.metric("engine.reconfigurations", static_cast<double>(l.reconfigurations),
             "count");
  rep.metric("engine.queue_len_p90", quantile(l.queue_len, 0.9), "count");

  const auto& c = l.cache;
  const double lookups = static_cast<double>(c.lookups);
  rep.metric("cache.lookups", lookups, "count");
  rep.metric("cache.hit_ratio", c.hit_ratio(), "ratio");
  rep.metric("cache.exact_hit_ratio", c.exact_hit_ratio(), "ratio");
  rep.metric("cache.probed_cells_mean", c.mean_probed_cells(), "count");
  rep.metric("cache.insertions", static_cast<double>(c.insertions), "count");
  rep.metric("cache.evictions", static_cast<double>(c.evictions), "count");
  rep.metric("cache.heap_compactions", static_cast<double>(c.heap_compactions),
             "count");

  rep.metric("discriminator.scorings", static_cast<double>(l.scorings), "count");
  rep.metric("discriminator.defer_ratio",
             l.scorings == 0 ? 0.0
                             : static_cast<double>(l.deferrals) /
                                   static_cast<double>(l.scorings),
             "ratio");

  rep.metric("net.frames", static_cast<double>(at(SpanKind::kNetSend).count),
             "count");
  rep.metric("net.bytes", static_cast<double>(Tracer::get().bytes()), "B");
  rep.metric("net.send_ns", ns_per(at(SpanKind::kNetSend)), "ns");
  rep.metric("net.deliver_ns", ns_per(at(SpanKind::kNetDeliver)), "ns");

  rep.metric("cluster.submit_ns", ns_per(at(SpanKind::kClusterSubmit)), "ns");
  rep.metric("cluster.fallback_routes", static_cast<double>(l.fallback_routes),
             "count");
  rep.metric("cluster.shard_imbalance", median(l.shard_imbalance), "ratio");

  const auto timer_late = Tracer::get().samples(SampleKind::kTimerLateUs);
  const auto exec_late = Tracer::get().samples(SampleKind::kExecLateUs);
  const auto guard_wait = Tracer::get().samples(SampleKind::kGuardWaitNs);
  double guard_sum = 0.0;
  for (const double g : guard_wait) guard_sum += g;
  rep.metric("runtime.timer_late_us_p50", quantile(timer_late, 0.5), "us");
  rep.metric("runtime.timer_late_us_p99", quantile(timer_late, 0.99), "us");
  rep.metric("runtime.exec_late_us_p50", quantile(exec_late, 0.5), "us");
  rep.metric("runtime.exec_late_us_p99", quantile(exec_late, 0.99), "us");
  rep.metric("runtime.guard_wait_ns",
             guard_wait.empty() ? 0.0
                                : guard_sum / static_cast<double>(guard_wait.size()),
             "ns");
  rep.metric("client.late_us_p50", quantile(l.late_us, 0.5), "us");
  rep.metric("client.late_us_p99", quantile(l.late_us, 0.99), "us");

  const double traced_qps = l.queries / l.wall_s;
  const double untraced_qps = untraced_queries / untraced_wall;
  rep.metric("trace.overhead_pct", (untraced_qps / traced_qps - 1.0) * 100.0,
             "%");
}

}  // namespace

int run(const Options& opt) {
  auto workload = make_workload(opt.workload, opt.seed);
  if (!workload) {
    std::fprintf(stderr, "unknown workload '%s' (paper_trace, sharded_reuse, "
                 "tcp_flood)\n", opt.workload.c_str());
    return 2;
  }
  Report rep;

  // Set-up: environment build plus topology assembly, several times.
  constexpr int kSetups = 5;
  std::vector<double> setup_s;
  std::unique_ptr<ds::core::CascadeEnvironment> env;
  for (int k = 0; k < kSetups; ++k) {
    const std::uint64_t t0 = now_ns();
    env = std::make_unique<ds::core::CascadeEnvironment>(
        ds::core::EnvironmentConfig{});
    workload->assemble(*env);
    setup_s.push_back(seconds_since(t0));
  }

  // Whole rounds while the next one, at the mean pace so far, still ends
  // within the run's time.
  const std::uint64_t start = now_ns();
  const auto more = [&](std::size_t done) {
    const double used = seconds_since(start);
    return done == 0 ||
           used + used / static_cast<double>(done) <= opt.seconds;
  };
  if (!opt.trace) {
    std::vector<RoundOut> rounds;
    double rss_mb = 0.0;
    for (std::size_t r = 0; more(r); ++r) {
      rounds.push_back(workload->round(*env, r, nullptr, rep));
      const RoundOut& o = rounds.back();
      std::fprintf(stderr, "round %zu: %zu queries in %.3f s, goodput %.4f, "
                   "latency %.4f ms\n", r, o.queries, o.wall_s, o.goodput_qps,
                   o.latency_ms);
      // Set-up plus one round: later rounds only reuse freed memory, but
      // how much of it the allocator keeps depends on the round count.
      if (r == 0) rss_mb = peak_rss_mb();
    }
    std::fprintf(stderr, "%zu rounds in %.1f s\n", rounds.size(),
                 seconds_since(start));
    if (!rounds.front().late_us.empty()) {
      std::vector<double> late;
      for (const auto& r : rounds)
        late.insert(late.end(), r.late_us.begin(), r.late_us.end());
      std::printf("generator lateness: p50 %.2f us, p99 %.2f us\n",
                  quantile(late, 0.5), quantile(late, 0.99));
    }
    end_to_end(rep, rounds, workload->deterministic(), median(setup_s),
               rss_mb);
  } else {
    // Alternate untraced and traced rounds of the same input: the
    // difference in wall_qps is the tracing overhead, and on the DES the
    // two must serve every query identically.
    Layers layers;
    double untraced_wall = 0.0;
    double untraced_queries = 0.0;
    Tracer::get().reset();
    std::size_t r = 0;
    for (; more(r); ++r) {
      const RoundOut plain = workload->round(*env, r, nullptr, rep);
      Tracer::get().enable(true);
      const RoundOut traced = workload->round(*env, r, &layers, rep);
      Tracer::get().enable(false);
      untraced_wall += plain.wall_s;
      untraced_queries += static_cast<double>(plain.queries);
      layers.wall_s += traced.wall_s;
      layers.queries += static_cast<double>(traced.queries);
      if (workload->deterministic())
        rep.check(same_outcome(plain, traced),
                  opt.workload + ": traced round serves every query as the "
                                 "untraced one (FID, per-stage counts)");
    }
    std::fprintf(stderr, "%zu round pairs in %.1f s\n", r, seconds_since(start));
    per_layer(rep, layers, untraced_wall, untraced_queries);
    ::mkdir(".bench_out", 0755);
    const std::string path = ".bench_out/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + ".trace.json";
    if (Tracer::get().write_chrome_trace(path))
      std::fprintf(stderr, "chrome trace (%zu spans): %s\n",
                   Tracer::get().kept_spans(), path.c_str());
  }
  rep.print();
  return 0;
}

}  // namespace perfbench
