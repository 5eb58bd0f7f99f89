// paper_search: the paper's search configuration (§4) at its 100k nodes.
// A Makalu overlay built by OverlayBuilder over a Euclidean latency
// model serves closed-loop batches of TTL-4 floods at 1% replication and
// per-arc (kPooledStack) ABF identifier queries at 0.5% replication.
// Overlay construction dominates set-up; batches are large, so driver
// dispatch stays negligible in throughput. An open-loop round of ABF
// queries at a fixed rate after each round's batches gives the sojourn.
#include <memory>

#include "core/overlay_builder.hpp"
#include "harness.hpp"
#include "net/latency_model.hpp"
#include "search/flood_search.hpp"
#include "support/stopwatch.hpp"

namespace perfbench {

namespace {

using namespace makalu;

struct Params {
  std::size_t nodes = 100'000;
  std::size_t objects = 64;
  double flood_replication = 0.01;
  double abf_replication = 0.005;
  std::uint32_t flood_ttl = 4;
  /// Every ABF query resolved within 7 messages on 400k trial queries;
  /// 64 leaves the route ample room.
  std::uint32_t abf_ttl = 64;
  std::size_t flood_batch = 128;
  /// 32 of the engines' 64-query passes per batch: the per-call cost
  /// stays small against the kernel's.
  std::size_t abf_batch = 2048;
  std::size_t abf_batches = 4;   ///< after each flood batch
  std::size_t flood_batches = 4;  ///< per round
  double rate_qps = 1000.0;   ///< open-loop offered rate
  std::size_t stream = 1000;  ///< queries per open-loop round
  /// Replicas published after the checks, in passes; update_us is the
  /// median of the passes' means.
  std::size_t publishes = 8192;
  std::size_t publish_pass = 256;
};

Params params_for(Scale scale) {
  Params p;
  if (scale == Scale::kTiny) {
    p.nodes = 2'000;
    p.flood_batch = 64;
    p.abf_batch = 256;
    p.flood_batches = 1;
    p.stream = 200;
  }
  return p;
}

struct State {
  std::unique_ptr<EuclideanModel> latency;
  Graph graph;
  CsrGraph csr;
  ObjectCatalog flood_catalog;
  ObjectCatalog abf_catalog;
  std::unique_ptr<FloodEngine> flood;
  std::unique_ptr<AbfRouter> abf;
};

std::unique_ptr<State> build(const Config& config, const Params& p,
                             Tracer& tracer, std::uint64_t parent) {
  auto s = std::make_unique<State>();
  {
    ScopedSpan span(tracer, "net.latency_model", parent);
    s->latency = std::make_unique<EuclideanModel>(
        p.nodes, derive_seed(config.seed, 1));
  }
  {
    ScopedSpan span(tracer, "core.overlay_build", parent);
    s->graph = OverlayBuilder(MakaluParameters{})
                   .build(*s->latency, derive_seed(config.seed, 2))
                   .graph;
  }
  {
    ScopedSpan span(tracer, "graph.csr_build", parent);
    s->csr = CsrGraph::from_graph(s->graph);
  }
  {
    ScopedSpan span(tracer, "sim.catalog_build", parent);
    s->flood_catalog = ObjectCatalog(p.nodes, p.objects, p.flood_replication,
                                     derive_seed(config.seed, 3));
    s->abf_catalog = ObjectCatalog(p.nodes, p.objects, p.abf_replication,
                                   derive_seed(config.seed, 4));
  }
  FloodOptions flood;
  flood.ttl = p.flood_ttl;
  s->flood = std::make_unique<FloodEngine>(s->csr, flood);
  {
    ScopedSpan span(tracer, "search.abf_table_build", parent);
    AbfOptions abf;  // depth 3, 1024-bit levels: the paper's filters
    abf.ttl = p.abf_ttl;
    abf.layout = TableLayout::kPooledStack;
    s->abf = std::make_unique<AbfRouter>(s->csr, s->abf_catalog, abf);
  }
  return s;
}

}  // namespace

void run_paper_search(const Config& config, Outcome& out) {
  const Params p = params_for(config.scale);
  Tracer tracer(config.trace);

  std::vector<double> setup_s;
  const std::unique_ptr<State> s = repeated_setup<State>(
      3, tracer,
      [&](std::uint64_t parent) { return build(config, p, tracer, parent); },
      setup_s);

  const ParallelQueryDriver driver(kDriverThreads);
  TimedEngine timed_flood(*s->flood, tracer, "search.flood");
  TimedEngine timed_abf(*s->abf, tracer, "search.abf");
  const SearchEngine& flood_engine =
      config.trace ? static_cast<const SearchEngine&>(timed_flood) : *s->flood;
  const SearchEngine& abf_engine =
      config.trace ? static_cast<const SearchEngine&>(timed_abf) : *s->abf;
  QueryChecker flood_check(QueryChecker::Kind::kFlood, s->flood_catalog,
                           p.flood_ttl, derive_seed(config.seed, 10), 64,
                           config.inject, out);
  QueryChecker abf_check(QueryChecker::Kind::kAbf, s->abf_catalog, p.abf_ttl,
                         derive_seed(config.seed, 11), 256, config.inject,
                         out);
  QueryChecker open_check(QueryChecker::Kind::kAbf, s->abf_catalog,
                          p.abf_ttl, derive_seed(config.seed, 12), 256,
                          config.inject, out);
  flood_check.keep_reference(0, 64);
  abf_check.keep_reference(0, 256);
  Bfs bfs(s->csr);

  BatchQueryOptions flood_opts;
  flood_opts.queries = p.flood_batch;
  flood_opts.seed = derive_seed(config.seed, 20);
  flood_opts.batch = true;
  flood_opts.trace_sink = flood_check.sink();
  BatchQueryOptions abf_opts = flood_opts;
  abf_opts.queries = p.abf_batch;
  abf_opts.seed = derive_seed(config.seed, 21);
  abf_opts.trace_sink = abf_check.sink();
  OpenLoopRounds open_loop(abf_engine, config.trace ? &timed_abf : nullptr,
                           s->abf_catalog, {}, open_check, p.rate_qps,
                           p.stream, config.seed, tracer, out);

  // Closed loop: flood_batches times one flood batch and abf_batches ABF
  // batches, then one open-loop round, per round.
  BatchLog flood_log{{}, p.flood_batch};
  BatchLog abf_log{{}, p.abf_batch};
  std::uint64_t flood_no = 0;
  std::uint64_t abf_no = 0;
  QueryAggregate flood_agg;
  QueryAggregate abf_agg;
  {
    ScopedSpan measure(tracer, "measure");
    const Stopwatch clock;
    for (std::uint64_t round = 0;
         another_round(config, round, clock.seconds()); ++round) {
      ScopedSpan span(tracer, "round", measure.id());
      for (std::size_t f = 0; f < p.flood_batches; ++f) {
        flood_opts.first_query_index = flood_no++ * p.flood_batch;
        const double fs = timed_batch(driver, flood_engine,
                                      config.trace ? &timed_flood : nullptr,
                                      s->flood_catalog, flood_opts, flood_agg,
                                      tracer, span.id(), out);
        if (fs > 0.0) flood_log.seconds.push_back(fs);
        for (std::size_t b = 0; b < p.abf_batches; ++b) {
          abf_opts.first_query_index = abf_no++ * p.abf_batch;
          const double as = timed_batch(driver, abf_engine,
                                        config.trace ? &timed_abf : nullptr,
                                        s->abf_catalog, abf_opts, abf_agg,
                                        tracer, span.id(), out);
          if (as > 0.0) abf_log.seconds.push_back(as);
        }
      }
      open_loop.run(round, abf_agg, span.id());
      span.stop();
      flood_check.verify(bfs);
      abf_check.verify(bfs);
      open_check.verify(bfs);
    }
  }

  const double rss_mb = peak_rss_mb();

  // Determinism: the first recorded batches again, serially and batched.
  flood_opts.trace_sink = nullptr;
  abf_opts.trace_sink = nullptr;
  check_determinism(*s->flood, s->flood_catalog, flood_opts,
                    flood_check.reference(), determinism_threads(),
                    "paper_search floods", out);
  check_determinism(*s->abf, s->abf_catalog, abf_opts, abf_check.reference(),
                    determinism_threads(), "paper_search abf", out);

  // Publishing, after the checks: seeded new replicas, each an insert
  // wave into the per-arc tables. A withdrawal on these counter-less
  // tables is a full rebuild, which set-up already times
  // (search.abf_table_build).
  std::vector<double> change_s;
  {
    ScopedSpan updates(tracer, "updates");
    Rng rng(derive_seed(config.seed, 30));
    for (std::size_t i = 0; i < p.publishes; ++i) {
      const auto object = static_cast<ObjectId>(rng.uniform_below(p.objects));
      auto node = static_cast<NodeId>(rng.uniform_below(p.nodes));
      while (s->abf_catalog.node_has_object(node, object)) {
        node = static_cast<NodeId>(rng.uniform_below(p.nodes));
      }
      const double t = timed_change(tracer, *s->abf, s->abf_catalog, true,
                                    node, object, updates.id(), out);
      if (t > 0.0) change_s.push_back(t);
    }
  }

  out.metric("setup_s", "s", median(setup_s));
  out.metric("flood_qps", "queries/s", flood_log.median_qps());
  out.metric("abf_qps", "queries/s", abf_log.median_qps());
  open_loop.sojourn().report(out);
  out.metric("update_us", "us",
             median_of_means(change_s, p.publish_pass) * 1e6);
  out.metric("flood_msgs_per_query", "messages", flood_agg.mean_messages());
  out.metric("flood_hit_hops", "hops", flood_agg.hit_hops().mean());
  out.metric("abf_msgs_per_query", "messages", abf_agg.mean_messages());
  out.metric("peak_rss_mb", "MB", rss_mb);

  tracer.read("search.abf_table_mb",
              static_cast<double>(s->abf->table_bytes()) / (1024.0 * 1024.0));
  tracer.read("search.flood_duplicate_ratio", flood_agg.duplicate_fraction());
  emit_layer_metrics(tracer, out);
  if (config.trace && !config.trace_out.empty()) {
    tracer.write_jsonl(config.trace_out);
  }
}

}  // namespace perfbench
