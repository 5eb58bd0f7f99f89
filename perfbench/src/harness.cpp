#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <map>
#include <thread>

namespace perfbench {

using makalu::QueryTrace;

QueryChecker::QueryChecker(Kind kind, const makalu::ObjectCatalog& catalog,
                           std::uint32_t ttl, std::uint64_t seed,
                           std::uint64_t stride, Inject inject, Outcome& out)
    : kind_(kind),
      catalog_(&catalog),
      ttl_(ttl),
      seed_(seed),
      stride_(stride),
      inject_(inject),
      out_(&out) {}

void QueryChecker::observe(const QueryTrace& seen) {
  QueryTrace trace = seen;  // injections corrupt this copy only
  const bool sampled = derive_seed(seed_, trace.query_index) % stride_ == 0;
  if (!injected_ && kind_ == Kind::kAbf &&
      inject_ == Inject::kFlipSuccess) {
    trace.result.success = !trace.result.success;
    injected_ = true;
  }
  if (!injected_ && sampled && kind_ == Kind::kFlood &&
      inject_ == Inject::kWrongMessages) {
    trace.result.messages += 1;
    injected_ = true;
  }
  if (seen.query_index >= ref_first_ &&
      seen.query_index < ref_first_ + ref_count_) {
    reference_.push_back(seen);
  }
  if (kind_ == Kind::kAbf) {
    // Every object stays live, and the TTL is sized so that every query
    // for a live object resolves.
    if (!trace.result.success) {
      out_->fail_op(label(trace) + ": unresolved");
      return;
    }
    if (trace.result.messages > ttl_) {
      out_->fail_op(label(trace) + ": messages exceed the TTL");
      return;
    }
  }
  if (sampled) pending_.push_back(trace);
}

std::string QueryChecker::label(const QueryTrace& trace) const {
  return (kind_ == Kind::kFlood ? "flood query " : "abf query ") +
         std::to_string(trace.query_index);
}

void QueryChecker::verify(Bfs& bfs) {
  for (const QueryTrace& t : pending_) {
    const auto& holders = catalog_->holders(t.object);
    if (kind_ == Kind::kFlood) {
      const makalu::QueryResult want =
          bfs.expected_flood(t.source, holders, ttl_);
      std::string field;
      if (!same_result(want, t.result, &field)) {
        out_->fail_op(label(t) + ": " + field +
                      " differs from the BFS oracle");
      }
    } else {
      const std::uint32_t nearest = bfs.nearest_holder(t.source, holders);
      if (t.result.first_hit_hop < nearest) {
        out_->fail_op(label(t) + ": fewer hops than the nearest replica");
      }
    }
  }
  pending_.clear();
}

double timed_batch(const makalu::ParallelQueryDriver& driver,
                   const makalu::SearchEngine& engine, TimedEngine* timed,
                   const makalu::ObjectCatalog& catalog,
                   const makalu::BatchQueryOptions& options,
                   makalu::QueryAggregate& aggregate, Tracer& tracer,
                   std::uint64_t parent, Outcome& out) {
  out.attempt(options.queries);
  ScopedSpan span(tracer, "analysis.run_batch", parent, options.queries);
  span.set_lanes(static_cast<std::uint32_t>(driver.threads()));
  if (timed != nullptr) timed->set_parent(span.id());
  try {
    driver.run_batch(engine, catalog, options, aggregate);
  } catch (const std::exception& e) {
    for (std::size_t q = 0; q < options.queries; ++q) {
      out.fail_op(std::string("batch threw: ") + e.what());
    }
    return -1.0;
  }
  return span.stop();
}

std::size_t determinism_threads() {
  return std::min<std::size_t>(
      2, std::max(1U, std::thread::hardware_concurrency()));
}

void check_determinism(const makalu::SearchEngine& engine,
                       const makalu::ObjectCatalog& catalog,
                       makalu::BatchQueryOptions options,
                       const std::vector<QueryTrace>& reference,
                       std::size_t threads, const char* label,
                       Outcome& out) {
  if (reference.empty()) {
    out.fail_check(std::string(label) + ": no reference queries recorded");
    return;
  }
  options.first_query_index = reference.front().query_index;
  options.queries = reference.size();
  for (const bool batched : {false, true}) {
    const makalu::ParallelQueryDriver driver(batched ? threads : 1);
    std::vector<QueryTrace> again;
    options.batch = batched;
    options.trace_sink = [&again](const QueryTrace& t) {
      again.push_back(t);
    };
    try {
      (void)driver.run_batch(engine, catalog, options);
    } catch (const std::exception& e) {
      out.fail_check(std::string(label) + ": re-run threw: " + e.what());
      return;
    }
    for (std::size_t i = 0; i < reference.size(); ++i) {
      const QueryTrace& a = reference[i];
      const QueryTrace& b = again.at(i);
      std::string field;
      if (a.query_index != b.query_index || a.source != b.source ||
          a.object != b.object || !same_result(a.result, b.result, &field)) {
        out.fail_check(std::string(label) + ": query " +
                       std::to_string(a.query_index) + " differs when re-run " +
                       (batched ? "batched on " + std::to_string(threads) +
                                      " threads"
                                : std::string("serially")) +
                       (field.empty() ? "" : " (" + field + ")"));
        return;
      }
    }
  }
}

double timed_change(Tracer& tracer, makalu::AbfRouter& router,
                    makalu::ObjectCatalog& catalog, bool add,
                    makalu::NodeId node, makalu::ObjectId object,
                    std::uint64_t parent, Outcome& out) {
  out.attempt(1);
  ScopedSpan change(tracer, "replica_change", parent, 1);
  try {
    {
      ScopedSpan span(tracer, "sim.catalog_update", change.id(), 1);
      if (add) {
        catalog.add_replica(object, node);
      } else if (!catalog.remove_replica(object, node)) {
        out.fail_op("remove of a replica the catalog does not hold");
        return -1.0;
      }
    }
    if (add) {
      ScopedSpan span(tracer, "search.notify_insert", change.id(), 1);
      router.notify_insert(node, object);
    } else {
      ScopedSpan span(tracer, "search.notify_remove", change.id(), 1);
      router.notify_remove(node, object);
    }
  } catch (const std::exception& e) {
    out.fail_op(std::string("replica change threw: ") + e.what());
    return -1.0;
  }
  return change.stop();
}

double BatchLog::median_qps() const {
  std::vector<double> qps;
  qps.reserve(seconds.size());
  for (const double s : seconds) {
    if (s > 0.0) qps.push_back(static_cast<double>(queries_per_batch) / s);
  }
  return median(std::move(qps));
}

void SojournLog::add(const std::vector<double>& sojourn_ms) {
  if (sojourn_ms.empty()) return;
  p50_ms.push_back(quantile(sojourn_ms, 0.50));
  p99_ms.push_back(quantile(sojourn_ms, 0.99));
}

void SojournLog::report(Outcome& out) const {
  out.metric("sojourn_p50_ms", "ms", median(p50_ms));
  out.metric("sojourn_p99_ms", "ms", median(p99_ms));
}

namespace {

/// Exact open-loop sojourns of one round, recomputed from the arrival
/// timestamps and the slices the backend served, with the engine's own
/// clock rule (idle-skip to the next arrival, then advance by service).
std::vector<double> sojourns(const std::vector<double>& arrival_ms,
                             const std::vector<SliceRecord>& slices,
                             double* makespan_ms, bool* contiguous) {
  std::vector<double> out;
  out.reserve(arrival_ms.size());
  double now = 0.0;
  std::uint64_t next = 0;
  *contiguous = true;
  for (const SliceRecord& slice : slices) {
    if (slice.first != next || slice.count == 0 ||
        slice.first + slice.count > arrival_ms.size()) {
      *contiguous = false;
      return out;
    }
    now = std::max(now, arrival_ms[slice.first]);
    now += slice.service_s * 1000.0;
    for (std::uint64_t q = slice.first; q < slice.first + slice.count; ++q) {
      out.push_back(now - arrival_ms[q]);
    }
    next = slice.first + slice.count;
  }
  *contiguous = next == arrival_ms.size();
  *makespan_ms = now;
  return out;
}

}  // namespace

OpenLoopRounds::OpenLoopRounds(
    const makalu::SearchEngine& engine, TimedEngine* timed,
    const makalu::ObjectCatalog& catalog,
    std::function<makalu::ObjectId(makalu::Rng&)> sampler,
    QueryChecker& check, double rate_qps, std::size_t stream,
    std::uint64_t seed, Tracer& tracer, Outcome& out)
    : engine_(&engine),
      timed_(timed),
      catalog_(&catalog),
      sampler_(std::move(sampler)),
      check_(&check),
      rate_qps_(rate_qps),
      stream_(stream),
      seed_(seed),
      tracer_(&tracer),
      out_(&out) {}

std::uint64_t OpenLoopRounds::query_seed(std::uint64_t index) const {
  return derive_seed(seed_, 1000 + index);
}

double OpenLoopRounds::served_qps() const {
  return service_s_ > 0.0 ? static_cast<double>(served_) / service_s_ : 0.0;
}

void OpenLoopRounds::run(std::uint64_t index,
                         makalu::QueryAggregate& aggregate,
                         std::uint64_t parent) {
  namespace wl = makalu::workload;
  ScopedSpan span(*tracer_, "open_loop", parent);
  wl::DriverQueryBackend::Options bo;
  bo.seed = query_seed(index);
  bo.threads = kDriverThreads;
  bo.batch = true;
  bo.object_sampler = sampler_;
  bo.trace_sink = check_->sink();
  wl::DriverQueryBackend backend(*engine_, *catalog_, bo);
  RecordingBackend recorder(backend, *tracer_, timed_, span.id(),
                            static_cast<std::uint32_t>(kDriverThreads));
  const std::uint64_t arrival_seed = derive_seed(seed_, 2000 + index);
  const auto poisson = wl::poisson_arrivals(rate_qps_, arrival_seed);
  std::unique_ptr<BufferedArrivals> buffered;
  wl::ArrivalProcess* arrivals = poisson.get();
  if (tracer_->enabled()) {
    buffered = std::make_unique<BufferedArrivals>(*poisson, stream_,
                                                  *tracer_, span.id());
    arrivals = buffered.get();
  }
  out_->attempt(stream_);
  wl::OpenLoopEngine engine_loop(recorder);
  wl::OpenLoopReport report;
  try {
    report = engine_loop.run(*arrivals, stream_, {}, aggregate);
  } catch (const std::exception& e) {
    std::size_t done = 0;
    for (const SliceRecord& slice : recorder.slices()) done += slice.count;
    for (std::size_t q = done; q < stream_; ++q) {
      out_->fail_op(std::string("open-loop slice threw: ") + e.what());
    }
    return;
  }
  span.stop();

  const std::vector<double> arrival_ms =
      wl::poisson_arrivals(rate_qps_, arrival_seed)->take(stream_);
  double makespan_ms = 0.0;
  bool contiguous = false;
  const std::vector<double> round_ms =
      sojourns(arrival_ms, recorder.slices(), &makespan_ms, &contiguous);
  const double mean_ms = mean(round_ms);
  if (!contiguous || makespan_ms != report.makespan_ms ||
      std::abs(mean_ms - report.mean_sojourn_ms) >
          1e-9 * std::max(1.0, mean_ms)) {
    out_->fail_check("open-loop round " + std::to_string(index) +
                     ": engine sojourn accounting differs from the "
                     "recomputed slices");
  }
  sojourn_.add(round_ms);
  for (const SliceRecord& slice : recorder.slices()) {
    service_s_ += slice.service_s;
    served_ += slice.count;
  }
  tracer_->read("workload.makespan_ms", report.makespan_ms);
  tracer_->read("workload.max_queue_depth",
                static_cast<double>(report.max_queue_depth));
}

namespace {

double total_seconds(const std::vector<const Span*>& spans) {
  double s = 0.0;
  for (const Span* span : spans) s += span->seconds();
  return s;
}

std::uint64_t total_items(const std::vector<const Span*>& spans) {
  std::uint64_t n = 0;
  for (const Span* span : spans) n += span->items;
  return n;
}

double mean_us(const std::vector<const Span*>& spans) {
  return spans.empty() ? 0.0
                       : total_seconds(spans) * 1e6 /
                             static_cast<double>(spans.size());
}

/// Median over set-up repetitions of one set-up step's seconds.
double setup_step_s(const Tracer& tracer, const char* name) {
  std::vector<double> s;
  for (const Span* span : tracer.named(name)) s.push_back(span->seconds());
  return median(std::move(s));
}

double reading(const Tracer& tracer, const char* name, bool take_max) {
  double value = 0.0;
  bool seen = false;
  for (const Reading& r : tracer.readings()) {
    if (r.name != name) continue;
    value = !seen ? r.value : take_max ? std::max(value, r.value)
                                       : value + r.value;
    seen = true;
  }
  return value;
}

}  // namespace

void emit_layer_metrics(const Tracer& tracer, Outcome& out) {
  // Set-up: each step's median over the repetitions.
  out.layer("net.latency_model_s", "s",
             setup_step_s(tracer, "net.latency_model"));
  out.layer("core.overlay_build_s", "s",
             setup_step_s(tracer, "core.overlay_build"));
  out.layer("topology.generate_s", "s",
             setup_step_s(tracer, "topology.generate"));
  out.layer("graph.csr_build_s", "s", setup_step_s(tracer, "graph.csr_build"));
  out.layer("sim.catalog_build_s", "s",
             setup_step_s(tracer, "sim.catalog_build"));
  out.layer("search.abf_table_build_s", "s",
             setup_step_s(tracer, "search.abf_table_build"));

  // Memory and table quality, read through the program's public API.
  out.layer("search.abf_table_mb", "MB",
             reading(tracer, "search.abf_table_mb", true));
  out.layer("bloom.counting_mb", "MB",
             reading(tracer, "bloom.counting_mb", true));
  out.layer("bloom.delta_entries", "count",
             reading(tracer, "bloom.delta_entries", true));
  out.layer("bloom.saturated_slots_ppm", "ppm",
             reading(tracer, "bloom.saturated_slots_ppm", true));

  // Query engines: busy time per query inside the SearchEngine decorator.
  const auto flood = tracer.named("search.flood");
  const auto abf = tracer.named("search.abf");
  const auto per_query_us = [](const std::vector<const Span*>& spans) {
    const std::uint64_t q = total_items(spans);
    return q > 0 ? total_seconds(spans) * 1e6 / static_cast<double>(q) : 0.0;
  };
  out.layer("search.flood_us_per_query", "us", per_query_us(flood));
  out.layer("search.abf_us_per_query", "us", per_query_us(abf));
  out.layer("search.flood_duplicate_ratio", "ratio",
             reading(tracer, "search.flood_duplicate_ratio", true));

  // Churn: one span per call into the catalog and the router.
  out.layer("search.notify_insert_us", "us",
             mean_us(tracer.named("search.notify_insert")));
  out.layer("search.notify_remove_us", "us",
             mean_us(tracer.named("search.notify_remove")));
  out.layer("sim.catalog_update_us", "us",
             mean_us(tracer.named("sim.catalog_update")));

  // Driver dispatch: a call's self time is its span minus the union of
  // its engine spans; efficiency is engine busy over lanes x wall.
  std::map<std::uint64_t, std::vector<const Span*>> by_parent;
  for (const Span& s : tracer.spans()) by_parent[s.parent].push_back(&s);
  std::vector<const Span*> calls = tracer.named("analysis.run_batch");
  const auto slices = tracer.named("workload.slice");
  calls.insert(calls.end(), slices.begin(), slices.end());
  double self_s = 0.0;
  double busy_s = 0.0;
  double capacity_s = 0.0;
  for (const Span* call : calls) {
    const auto it = by_parent.find(call->id);
    std::vector<const Span*> engine_spans;
    if (it != by_parent.end()) engine_spans = it->second;
    self_s += static_cast<double>(call->end_ns - call->start_ns -
                                  covered_ns(engine_spans, call->start_ns,
                                             call->end_ns)) *
              1e-9;
    busy_s += total_seconds(engine_spans);
    capacity_s += call->seconds() * call->lanes;
  }
  out.layer("analysis.run_batch_calls", "count",
             static_cast<double>(calls.size()));
  out.layer("analysis.dispatch_us_per_call", "us",
             calls.empty() ? 0.0
                           : self_s * 1e6 / static_cast<double>(calls.size()));
  out.layer("analysis.parallel_efficiency", "ratio",
             capacity_s > 0.0 ? busy_s / capacity_s : 0.0);

  // Admission and queueing, from the QueryBackend decorator.
  std::vector<double> service_ms;
  for (const Span* s : slices) service_ms.push_back(s->seconds() * 1e3);
  const double makespan_s = reading(tracer, "workload.makespan_ms", false) / 1e3;
  out.layer("workload.queries_per_slice", "count",
             slices.empty() ? 0.0
                            : static_cast<double>(total_items(slices)) /
                                  static_cast<double>(slices.size()));
  out.layer("workload.service_ms_p50", "ms", quantile(service_ms, 0.5));
  out.layer("workload.service_ms_p99", "ms", quantile(service_ms, 0.99));
  out.layer("workload.busy_fraction", "ratio",
             makespan_s > 0.0 ? total_seconds(slices) / makespan_s : 0.0);
  out.layer("workload.max_queue_depth", "count",
             reading(tracer, "workload.max_queue_depth", true));
  out.layer("workload.arrival_gen_ms", "ms",
             total_seconds(tracer.named("workload.arrival_gen")) * 1e3);
}

}  // namespace perfbench
