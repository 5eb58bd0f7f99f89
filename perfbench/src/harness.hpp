// Pieces every workload shares: per-query checking from the driver's
// trace sink, the timed closed-loop batch, the determinism re-run,
// repeated set-up, and the per-layer metrics derived from the spans.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analysis/parallel_query_driver.hpp"
#include "checks.hpp"
#include "common.hpp"
#include "layers.hpp"
#include "trace.hpp"

namespace perfbench {

/// Checks every query as the driver hands it to the trace sink (in
/// stream order, on the calling thread) and keeps a seeded sample for
/// the breadth-first checks, which verify() runs while the catalog still
/// holds the state the queries saw.
class QueryChecker {
 public:
  enum class Kind { kFlood, kAbf };

  QueryChecker(Kind kind, const makalu::ObjectCatalog& catalog,
               std::uint32_t ttl, std::uint64_t seed, std::uint64_t stride,
               Inject inject, Outcome& out);

  void observe(const makalu::QueryTrace& trace);
  /// Breadth-first checks of the sampled queries since the last call.
  void verify(Bfs& bfs);

  /// Keep full traces of stream indices [first, first + count) for the
  /// determinism re-run.
  void keep_reference(std::uint64_t first, std::size_t count) {
    ref_first_ = first;
    ref_count_ = count;
    reference_.clear();
  }
  /// Stop adding to the reference (later rounds reuse stream indices).
  void freeze_reference() noexcept { ref_count_ = 0; }
  [[nodiscard]] const std::vector<makalu::QueryTrace>& reference() const {
    return reference_;
  }

  [[nodiscard]] std::function<void(const makalu::QueryTrace&)> sink() {
    return [this](const makalu::QueryTrace& t) { observe(t); };
  }

 private:
  [[nodiscard]] std::string label(const makalu::QueryTrace& trace) const;

  Kind kind_;
  const makalu::ObjectCatalog* catalog_;
  std::uint32_t ttl_;
  std::uint64_t seed_;
  std::uint64_t stride_;
  Inject inject_;
  Outcome* out_;
  std::vector<makalu::QueryTrace> pending_;
  std::uint64_t ref_first_ = 0;
  std::size_t ref_count_ = 0;
  std::vector<makalu::QueryTrace> reference_;
  bool injected_ = false;
};

/// One closed-loop ParallelQueryDriver::run_batch call of `engine` inside
/// an `analysis.run_batch` span; `timed` (the traced engine somewhere
/// below `engine`, or null) learns the span as its parent. Returns the
/// call's wall seconds, or a negative value if it threw (its queries are
/// then counted failed).
double timed_batch(const makalu::ParallelQueryDriver& driver,
                   const makalu::SearchEngine& engine, TimedEngine* timed,
                   const makalu::ObjectCatalog& catalog,
                   const makalu::BatchQueryOptions& options,
                   makalu::QueryAggregate& aggregate, Tracer& tracer,
                   std::uint64_t parent, Outcome& out);

/// Closed-loop and open-loop batches run on one driver thread: on a
/// shared 4-vCPU machine, 2- and 4-thread batches spread 10-25% between
/// runs (stragglers, a pool built per call) against ~5% for one thread.
inline constexpr std::size_t kDriverThreads = 1;

[[nodiscard]] std::size_t determinism_threads();

/// One replica change: the catalog first, then the router's incremental
/// notify (a `replica_change` span with both calls as children). Returns
/// its wall seconds, or a negative value if it failed.
double timed_change(Tracer& tracer, makalu::AbfRouter& router,
                    makalu::ObjectCatalog& catalog, bool add,
                    makalu::NodeId node, makalu::ObjectId object,
                    std::uint64_t parent, Outcome& out);

/// Re-runs the reference queries serially (one thread, scalar path) and
/// on `threads` threads (batched path); every result must equal the one
/// recorded during the measured run. determinism_threads() picks two
/// threads where the machine has them, whatever the measured runs use.
void check_determinism(const makalu::SearchEngine& engine,
                       const makalu::ObjectCatalog& catalog,
                       makalu::BatchQueryOptions options,
                       const std::vector<makalu::QueryTrace>& reference,
                       std::size_t threads, const char* label, Outcome& out);

/// Builds a workload's state `reps` times (dropping the previous copy
/// first, so peak memory holds one) inside `setup` spans; returns the last
/// copy and appends each build's seconds.
template <typename State>
std::unique_ptr<State> repeated_setup(
    int reps, Tracer& tracer,
    const std::function<std::unique_ptr<State>(std::uint64_t)>& build,
    std::vector<double>& seconds) {
  std::unique_ptr<State> state;
  for (int r = 0; r < reps; ++r) {
    state.reset();
    ScopedSpan span(tracer, "setup");
    state = build(span.id());
    seconds.push_back(span.stop());
  }
  return state;
}

/// Whole rounds until the run's seconds are spent (at least one), or
/// exactly config.rounds when that is set.
[[nodiscard]] inline bool another_round(const Config& config,
                                        std::uint64_t round,
                                        double elapsed_s) {
  if (config.rounds > 0) return round < config.rounds;
  return round == 0 || elapsed_s < config.seconds;
}

/// Every per-layer metric, derived from the recorded spans and readings
/// (0 where the workload leaves a layer idle).
void emit_layer_metrics(const Tracer& tracer, Outcome& out);

/// Closed-loop batch summary: per-batch wall seconds and queries.
struct BatchLog {
  std::vector<double> seconds;
  std::uint64_t queries_per_batch = 0;

  [[nodiscard]] double median_qps() const;
};

/// Sojourn percentiles kept per open-loop round (each its exact
/// percentile over the round's queries) and reported as the median
/// across rounds: a burst of interference on the machine moves one
/// round's tail, not the run's.
struct SojournLog {
  std::vector<double> p50_ms;
  std::vector<double> p99_ms;

  /// One round's sojourns, in ms.
  void add(const std::vector<double>& sojourn_ms);
  /// sojourn_p50_ms and sojourn_p99_ms.
  void report(Outcome& out) const;
};

/// Fixed-rate open-loop rounds, every workload's sojourn measurement.
/// A round sends `stream` ABF queries as a Poisson stream at `rate_qps`
/// through OpenLoopEngine and DriverQueryBackend (one driver thread,
/// batched) and checks each query with `check`. It then recomputes every
/// sojourn from the arrival times and the slices served, holds the
/// engine's accounting to that, and adds the round to sojourn().
class OpenLoopRounds {
 public:
  /// `engine` is the engine to call; `timed` its traced decorator, or
  /// null when untraced.
  OpenLoopRounds(const makalu::SearchEngine& engine, TimedEngine* timed,
                 const makalu::ObjectCatalog& catalog,
                 std::function<makalu::ObjectId(makalu::Rng&)> sampler,
                 QueryChecker& check, double rate_qps, std::size_t stream,
                 std::uint64_t seed, Tracer& tracer, Outcome& out);

  /// Round `index`. If a slice throws, the queries no slice had served
  /// are failed and the round's sojourns are not taken.
  void run(std::uint64_t index, makalu::QueryAggregate& aggregate,
           std::uint64_t parent);

  /// The driver seed of round `index`'s queries.
  [[nodiscard]] std::uint64_t query_seed(std::uint64_t index) const;
  [[nodiscard]] const SojournLog& sojourn() const noexcept {
    return sojourn_;
  }
  /// Queries served over the slices' total service time.
  [[nodiscard]] double served_qps() const;

 private:
  const makalu::SearchEngine* engine_;
  TimedEngine* timed_;
  const makalu::ObjectCatalog* catalog_;
  std::function<makalu::ObjectId(makalu::Rng&)> sampler_;
  QueryChecker* check_;
  double rate_qps_;
  std::size_t stream_;
  std::uint64_t seed_;
  Tracer* tracer_;
  Outcome* out_;
  SojournLog sojourn_;
  double service_s_ = 0.0;
  std::uint64_t served_ = 0;
};

}  // namespace perfbench
