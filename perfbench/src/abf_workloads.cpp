// abf_openloop and abf_churn: ABF identifier search over a 100k-node
// hard-cutoff scale-free overlay (Guclu & Yuksel) with blocked-delta
// tables and a Zipf(0.8) catalog in which every object stays live.
//
//   abf_openloop  counting off. Poisson arrivals at one fixed rate go
//                 through OpenLoopEngine and DriverQueryBackend; slices
//                 stay small, so per-call dispatch and workspace set-up,
//                 not the match kernel, set the sojourn.
//   abf_churn     counting maintenance on. A closed loop alternates
//                 query batches with replica adds, moves and removes,
//                 each through ObjectCatalog and then the router's
//                 notify_insert / notify_remove: the write path beside
//                 reads on the same tables. An open-loop round like
//                 abf_openloop's after each phase gives the sojourn.
//
// Both also flood (TTL 3) on the same overlay once per round, and
// abf_openloop publishes replicas after its checks, so that every
// end-to-end metric is measured on every workload (README.md lists what
// each means where).
#include <algorithm>
#include <memory>
#include <numeric>
#include <string>

#include "harness.hpp"
#include "search/flood_search.hpp"
#include "support/stopwatch.hpp"
#include "topology/generators.hpp"
#include "workload/catalog.hpp"

namespace perfbench {

namespace {

using namespace makalu;

struct Params {
  std::size_t nodes = 100'000;
  /// The overlay is one fixed draw: which nodes become hubs moves the
  /// per-change cost by +-20% between draws, more than any bound a
  /// write-path change could be held to. --seed varies everything else.
  std::uint64_t topology_seed = 0x6c0b5eedULL;
  std::size_t objects = 512;
  double zipf_exponent = 0.8;
  std::size_t replicas = 4;
  std::size_t level_bits = 1024;
  /// Every query resolved within 103 messages on 400k trial queries.
  std::uint32_t abf_ttl = 1024;
  std::uint32_t flood_ttl = 3;
  std::size_t flood_batch = 256;
  double rate_qps = 1000.0;           ///< open-loop offered rate
  std::size_t stream = 1000;          ///< queries per open-loop round
  // abf_churn
  std::size_t strata = 8;             ///< churned nodes (walk strata)
  /// Queries per closed-loop batch: large enough that the per-call cost
  /// stays a few percent.
  std::size_t churn_batch = 128;
  std::size_t batches_per_gap = 6;    ///< batches between two changes
  std::size_t flood_batches_per_phase = 8;
  std::size_t open_rounds_per_phase = 3;
  /// abf_openloop: passes of publishes over the churn slots; update_us is
  /// the median of the passes' means.
  std::size_t publish_passes = 3;
};

Params params_for(Scale scale) {
  Params p;
  if (scale == Scale::kTiny) {
    p.nodes = 2'000;
    p.flood_batch = 16;
    p.stream = 200;
    p.strata = 4;
    p.churn_batch = 64;
    p.batches_per_gap = 1;
    p.flood_batches_per_phase = 1;
    p.open_rounds_per_phase = 1;
    p.publish_passes = 1;
  }
  return p;
}

struct State {
  Graph graph;
  CsrGraph csr;
  std::unique_ptr<workload::ZipfCatalog> zipf;
  std::unique_ptr<FloodEngine> flood;
  std::unique_ptr<AbfRouter> abf;

  [[nodiscard]] ObjectCatalog& catalog() { return zipf->catalog(); }
};

AbfOptions abf_options(const Params& p, bool counting) {
  AbfOptions o;
  o.layout = TableLayout::kBlockedDelta;
  // A content catalog, not 64 identifiers: wide levels keep hub-adjacent
  // base stacks selective.
  o.blocked_level_bits = p.level_bits;
  o.counting_maintenance = counting;
  o.ttl = p.abf_ttl;
  return o;
}

std::unique_ptr<State> build(const Config& config, const Params& p,
                             bool counting, Tracer& tracer,
                             std::uint64_t parent) {
  auto s = std::make_unique<State>();
  {
    ScopedSpan span(tracer, "topology.generate", parent);
    PowerLawParameters plp;
    plp.min_degree = 2;
    plp.hard_cutoff_factor = 1.0;  // degree cap sqrt(n)
    s->graph = PowerLawGenerator(plp).generate(p.nodes, p.topology_seed);
  }
  {
    ScopedSpan span(tracer, "graph.csr_build", parent);
    s->csr = CsrGraph::from_graph(s->graph);
  }
  {
    ScopedSpan span(tracer, "sim.catalog_build", parent);
    workload::ZipfCatalogOptions z;
    z.objects = p.objects;
    z.zipf_exponent = p.zipf_exponent;
    z.replicas_per_object = p.replicas;
    z.seed = derive_seed(config.seed, 3);
    s->zipf = std::make_unique<workload::ZipfCatalog>(p.nodes, z);
  }
  FloodOptions flood;
  flood.ttl = p.flood_ttl;
  s->flood = std::make_unique<FloodEngine>(s->csr, flood);
  {
    ScopedSpan span(tracer, "search.abf_table_build", parent);
    s->abf = std::make_unique<AbfRouter>(s->csr, s->catalog(),
                                         abf_options(p, counting));
  }
  return s;
}

/// Everything both workloads share around their own measured loop.
struct Common {
  Common(const Config& config, const Params& params, bool counting,
         Outcome& outcome)
      : c(config),
        p(params),
        out(outcome),
        tracer(config.trace),
        s(repeated_setup<State>(
            3, tracer,
            [&](std::uint64_t parent) {
              return build(config, params, counting, tracer, parent);
            },
            setup_s)),
        driver(kDriverThreads),
        timed_flood(*s->flood, tracer, "search.flood"),
        timed_abf(*s->abf, tracer, "search.abf"),
        flood_check(QueryChecker::Kind::kFlood, s->catalog(), params.flood_ttl,
                    derive_seed(config.seed, 10), 16, config.inject, outcome),
        abf_check(QueryChecker::Kind::kAbf, s->catalog(), params.abf_ttl,
                  derive_seed(config.seed, 11), 256, config.inject, outcome),
        bfs(s->csr) {
    flood_opts.queries = p.flood_batch;
    flood_opts.seed = derive_seed(config.seed, 20);
    flood_opts.batch = true;
    flood_opts.object_sampler = sampler();
    flood_opts.trace_sink = flood_check.sink();
    flood_log.queries_per_batch = p.flood_batch;
    flood_check.keep_reference(0, p.flood_batch);
  }

  [[nodiscard]] std::function<ObjectId(Rng&)> sampler() const {
    const workload::ZipfCatalog* zipf = s->zipf.get();
    return [zipf](Rng& rng) { return zipf->sample(rng); };
  }

  [[nodiscard]] TimedEngine* traced(TimedEngine& engine) const {
    return c.trace ? &engine : nullptr;
  }
  /// The engine to call: its span-recording decorator when traced.
  [[nodiscard]] const SearchEngine& serving(const TimedEngine& timed,
                                            const SearchEngine& raw) const {
    return c.trace ? static_cast<const SearchEngine&>(timed) : raw;
  }

  /// One closed-loop batch of TTL-3 floods, the `index`-th of the run.
  void flood_batch(std::uint64_t index, std::uint64_t parent) {
    flood_opts.first_query_index = index * p.flood_batch;
    const double t = timed_batch(driver, serving(timed_flood, *s->flood),
                                 traced(timed_flood),
                                 s->catalog(), flood_opts, flood_agg, tracer,
                                 parent, out);
    if (t > 0.0) flood_log.seconds.push_back(t);
    flood_check.verify(bfs);
  }

  /// One replica change, its seconds appended to change_s.
  void change(bool add, NodeId node, ObjectId object, std::uint64_t parent) {
    const double t = timed_change(tracer, *s->abf, s->catalog(), add, node,
                                  object, parent, out);
    if (t > 0.0) change_s.push_back(t);
  }

  /// The metrics both workloads report the same way; update_us is the
  /// median over groups of `change_group` changes of their mean.
  void report_common(double rss_mb, std::size_t change_group) {
    out.metric("setup_s", "s", median(setup_s));
    out.metric("flood_qps", "queries/s", flood_log.median_qps());
    out.metric("update_us", "us",
               median_of_means(change_s, change_group) * 1e6);
    out.metric("flood_msgs_per_query", "messages", flood_agg.mean_messages());
    out.metric("flood_hit_hops", "hops", flood_agg.hit_hops().mean());
    out.metric("abf_msgs_per_query", "messages", abf_agg.mean_messages());
    out.metric("peak_rss_mb", "MB", rss_mb);
    tracer.read("search.abf_table_mb",
                static_cast<double>(s->abf->table_bytes()) /
                    (1024.0 * 1024.0));
    tracer.read("bloom.delta_entries",
                static_cast<double>(
                    s->abf->blocked_table()->delta_entry_count()));
    tracer.read("search.flood_duplicate_ratio",
                flood_agg.duplicate_fraction());
  }

  void finish() {
    emit_layer_metrics(tracer, out);
    if (c.trace && !c.trace_out.empty()) tracer.write_jsonl(c.trace_out);
  }

  const Config& c;
  const Params& p;
  Outcome& out;
  Tracer tracer;
  std::vector<double> setup_s;
  std::unique_ptr<State> s;
  ParallelQueryDriver driver;
  TimedEngine timed_flood;
  TimedEngine timed_abf;
  QueryChecker flood_check;
  QueryChecker abf_check;
  Bfs bfs;
  BatchQueryOptions flood_opts;
  BatchLog flood_log;
  QueryAggregate flood_agg;
  QueryAggregate abf_agg;
  std::vector<double> change_s;
};

/// All nodes ranked by their number of length-2 walks (the size of the
/// ball a replica change repaints), fewest first.
std::vector<NodeId> by_walks2(const CsrGraph& csr) {
  const std::size_t n = csr.node_count();
  std::vector<std::uint64_t> walks2(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    for (const NodeId u : csr.neighbors(v)) walks2[v] += csr.neighbors(u).size();
  }
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return walks2[a] != walks2[b] ? walks2[a] < walks2[b] : a < b;
  });
  return order;
}

/// The churned nodes: the middle node of each of `strata` strata of
/// by_walks2, a fixed spread from leaves to hubs where a uniform draw of
/// a few nodes would swing the change cost several-fold, then the node
/// at the 99th percentile. The strata midpoints stop at the 1 - 1/(2k)
/// quantile; the last slot keeps the hub-adjacent tail, where one change
/// costs ~40x a median one, on the measured path.
std::vector<NodeId> churn_slots(const CsrGraph& csr, std::size_t strata) {
  const std::vector<NodeId> order = by_walks2(csr);
  const std::size_t n = order.size();
  std::vector<NodeId> picked(strata + 1);
  for (std::size_t i = 0; i < strata; ++i) {
    picked[i] = order[(2 * i + 1) * n / (2 * strata)];
  }
  picked[strata] = order[n * 99 / 100];
  return picked;
}

/// Publishes, in each of publish_passes passes, one new replica of a
/// seeded Zipf-drawn object on each churn slot: insert waves into the
/// blocked tables. With counting off, a withdrawal would be the router's
/// full rebuild, which set-up already times (search.abf_table_build).
void publish(Common& w, const std::vector<NodeId>& slots,
             std::uint64_t parent) {
  Rng rng(derive_seed(w.c.seed, 30));
  for (std::size_t pass = 0; pass < w.p.publish_passes; ++pass) {
    for (const NodeId node : slots) {
      ObjectId object = w.s->zipf->sample(rng);
      while (w.s->catalog().node_has_object(node, object)) {
        object = w.s->zipf->sample(rng);
      }
      w.change(true, node, object, parent);
    }
  }
}

}  // namespace

void run_abf_openloop(const Config& config, Outcome& out) {
  const Params p = params_for(config.scale);
  Common w(config, p, /*counting=*/false, out);
  w.abf_check.keep_reference(0, 256);

  OpenLoopRounds open_loop(w.serving(w.timed_abf, *w.s->abf),
                           w.traced(w.timed_abf), w.s->catalog(), w.sampler(),
                           w.abf_check, p.rate_qps, p.stream, config.seed,
                           w.tracer, out);
  {
    ScopedSpan measure(w.tracer, "measure");
    const Stopwatch clock;
    for (std::uint64_t round = 0;
         another_round(config, round, clock.seconds()); ++round) {
      ScopedSpan span(w.tracer, "round", measure.id());
      open_loop.run(round, w.abf_agg, span.id());
      if (round == 0) w.abf_check.freeze_reference();
      w.abf_check.verify(w.bfs);
      w.flood_batch(round, span.id());
    }
  }
  const double rss_mb = peak_rss_mb();

  // The first round's reference queries again, in one serial and one
  // threaded batch: slicing and threads must not change any result.
  BatchQueryOptions again;
  again.seed = open_loop.query_seed(0);
  again.object_sampler = w.sampler();
  check_determinism(*w.s->abf, w.s->catalog(), again, w.abf_check.reference(),
                    determinism_threads(), "abf_openloop", out);
  w.flood_opts.trace_sink = nullptr;
  check_determinism(*w.s->flood, w.s->catalog(), w.flood_opts,
                    w.flood_check.reference(), determinism_threads(),
                    "abf_openloop floods", out);
  const std::vector<NodeId> slots = churn_slots(w.s->csr, p.strata);
  {
    ScopedSpan updates(w.tracer, "updates");
    publish(w, slots, updates.id());
  }

  out.metric("abf_qps", "queries/s", open_loop.served_qps());
  open_loop.sojourn().report(out);
  w.report_common(rss_mb, slots.size());
  w.finish();
}

void run_abf_churn(const Config& config, Outcome& out) {
  const Params p = params_for(config.scale);
  Common w(config, p, /*counting=*/true, out);
  const CsrGraph& csr = w.s->csr;

  const std::vector<NodeId> slot = churn_slots(csr, p.strata);
  const std::size_t k = slot.size();

  // One distinct Zipf-drawn object per slot, held by neither the slot's
  // node nor the next one (where its replica moves).
  std::vector<ObjectId> object(k);
  {
    Rng rng(derive_seed(config.seed, 40));
    const ObjectCatalog& catalog = w.s->catalog();
    for (std::size_t i = 0; i < k; ++i) {
      for (;;) {
        const ObjectId o = w.s->zipf->sample(rng);
        const bool taken =
            std::find(object.begin(), object.begin() + static_cast<long>(i),
                      o) != object.begin() + static_cast<long>(i);
        if (!taken && !catalog.node_has_object(slot[i], o) &&
            !catalog.node_has_object(slot[(i + 1) % k], o)) {
          object[i] = o;
          break;
        }
      }
    }
  }

  BatchQueryOptions abf_opts;
  abf_opts.queries = p.churn_batch;
  abf_opts.seed = derive_seed(config.seed, 21);
  abf_opts.batch = true;
  abf_opts.object_sampler = w.sampler();
  abf_opts.trace_sink = w.abf_check.sink();
  BatchLog abf_log{{}, p.churn_batch};
  QueryChecker open_check(QueryChecker::Kind::kAbf, w.s->catalog(),
                          p.abf_ttl, derive_seed(config.seed, 12), 256,
                          config.inject, out);
  OpenLoopRounds open_loop(w.serving(w.timed_abf, *w.s->abf),
                           w.traced(w.timed_abf), w.s->catalog(), w.sampler(),
                           open_check, p.rate_qps, p.stream, config.seed,
                           w.tracer, out);
  std::uint64_t open_no = 0;
  std::uint64_t batch_no = 0;
  const auto abf_batch = [&](std::uint64_t parent) {
    abf_opts.first_query_index = batch_no++ * p.churn_batch;
    const double t = timed_batch(w.driver, w.serving(w.timed_abf, *w.s->abf),
                                 w.traced(w.timed_abf), w.s->catalog(),
                                 abf_opts, w.abf_agg, w.tracer, parent, out);
    if (t > 0.0) abf_log.seconds.push_back(t);
    w.abf_check.verify(w.bfs);
  };

  // Each round publishes one extra replica per slot, moves it to the next
  // slot, and withdraws it: the catalog ends every round as it began,
  // and every object keeps its original replicas throughout. Floods
  // follow each phase; the determinism reference is the first flood batch
  // after the withdrawals, when the catalog is back to its final state.
  std::uint64_t flood_no = 0;
  w.flood_check.keep_reference(
      2 * p.flood_batches_per_phase * p.flood_batch, p.flood_batch);
  {
    ScopedSpan measure(w.tracer, "measure");
    const Stopwatch clock;
    for (std::uint64_t round = 0;
         another_round(config, round, clock.seconds()); ++round) {
      ScopedSpan span(w.tracer, "round", measure.id());
      for (int phase = 0; phase < 3; ++phase) {
        for (std::size_t i = 0; i < k; ++i) {
          const NodeId here = slot[i];
          const NodeId next = slot[(i + 1) % k];
          if (phase == 0) {
            w.change(true, here, object[i], span.id());
          } else if (phase == 1) {
            w.change(false, here, object[i], span.id());
            w.change(true, next, object[i], span.id());
          } else {
            w.change(false, next, object[i], span.id());
          }
          for (std::size_t b = 0; b < p.batches_per_gap; ++b) {
            abf_batch(span.id());
          }
        }
        for (std::size_t f = 0; f < p.flood_batches_per_phase; ++f) {
          w.flood_batch(flood_no++, span.id());
        }
        for (std::size_t r = 0; r < p.open_rounds_per_phase; ++r) {
          open_loop.run(open_no++, w.abf_agg, span.id());
          open_check.verify(w.bfs);
        }
      }
    }
    // The determinism reference: one more batch on the final tables.
    w.abf_check.keep_reference(batch_no * p.churn_batch, p.churn_batch);
    abf_batch(measure.id());
  }
  const double rss_mb = peak_rss_mb();

  BatchQueryOptions again = abf_opts;
  again.trace_sink = nullptr;
  check_determinism(*w.s->abf, w.s->catalog(), again, w.abf_check.reference(),
                    determinism_threads(), "abf_churn", out);
  w.flood_opts.trace_sink = nullptr;
  check_determinism(*w.s->flood, w.s->catalog(), w.flood_opts,
                    w.flood_check.reference(), determinism_threads(),
                    "abf_churn floods", out);

  // Churned tables: no arc filter misses a key held within its depth, on
  // the churned objects and a seeded sample of others.
  std::vector<ObjectId> sample = object;
  {
    Rng rng(derive_seed(config.seed, 50));
    for (int i = 0; i < 8; ++i) sample.push_back(w.s->zipf->sample(rng));
  }
  if (config.inject == Inject::kClearFilterBit) {
    const ObjectId o = sample.front();
    clear_key_bit(*w.s->abf, w.s->catalog().holders(o).front(),
                  ObjectCatalog::object_key(o));
  }
  std::uint64_t arcs = 0;
  std::size_t missing = 0;
  for (const ObjectId o : sample) {
    missing += missing_arc_keys(*w.s->abf, w.s->catalog(), o, w.bfs, &arcs);
  }
  if (missing > 0) {
    out.fail_check("churned tables: " + std::to_string(missing) + " of " +
                   std::to_string(arcs) + " arcs miss a key held within "
                   "their depth");
  }

  // While no counter has saturated the tables must equal a fresh build;
  // past saturation the live base may only be wider.
  const CountingAbfTable* counting = w.s->abf->counting_table();
  const SaturationCensus census = saturation_census(*counting);
  {
    const AbfRouter fresh(csr, w.s->catalog(),
                          abf_options(p, /*counting=*/true));
    if (census.saturated == 0) {
      if (!w.s->abf->blocked_table()->equals(*fresh.blocked_table()) ||
          !counting->equals(*fresh.counting_table())) {
        out.fail_check("churned tables differ from a fresh build with no "
                       "counter saturated");
      }
    } else if (!base_superset(*w.s->abf->blocked_table(),
                              *fresh.blocked_table())) {
      out.fail_check("churned base lost bits a fresh build sets");
    }
  }

  out.metric("abf_qps", "queries/s", abf_log.median_qps());
  open_loop.sojourn().report(out);
  w.report_common(rss_mb, w.change_s.size());
  w.tracer.read("bloom.counting_mb",
                static_cast<double>(counting->memory_bytes()) /
                    (1024.0 * 1024.0));
  w.tracer.read("bloom.saturated_slots_ppm",
                census.slots > 0 ? 1e6 * static_cast<double>(census.saturated) /
                                       static_cast<double>(census.slots)
                                 : 0.0);
  w.finish();
}

}  // namespace perfbench
