// Decorators over the program's public seams. Each forwards every call
// unchanged and records one span around it, so the traced run sees the
// layers without a line of the program changing:
//
//   TimedEngine        SearchEngine  -> engine time (search.flood,
//                                       search.abf), parented to the
//                                       driver call that made it
//   RecordingBackend   QueryBackend  -> one admission slice
//                                       (workload.slice); also logs
//                                       (first, count, service) so the
//                                       benchmark can recompute every
//                                       sojourn itself, traced or not
//   BufferedArrivals   ArrivalProcess -> arrival generation
//                                       (workload.arrival_gen), done up
//                                       front so it stays out of service
#pragma once

#include <atomic>
#include <string>
#include <vector>

#include "search/search_engine.hpp"
#include "trace.hpp"
#include "workload/arrival.hpp"
#include "workload/engine.hpp"

namespace perfbench {

class TimedEngine final : public makalu::SearchEngine {
 public:
  TimedEngine(const makalu::SearchEngine& inner, Tracer& tracer,
              const char* span_name)
      : inner_(&inner), tracer_(&tracer), span_name_(span_name) {}

  using SearchEngine::run;

  [[nodiscard]] makalu::QueryResult run(
      makalu::NodeId source, makalu::NodePredicate has_object,
      makalu::QueryWorkspace& workspace) const override {
    ScopedSpan span(*tracer_, span_name_, parent_.load(), 1);
    return inner_->run(source, has_object, workspace);
  }
  void run_many(std::span<const makalu::BatchQueryJob> jobs,
                const makalu::ObjectCatalog& catalog,
                makalu::QueryWorkspace& workspace,
                makalu::QueryResult* results) const override {
    ScopedSpan span(*tracer_, span_name_, parent_.load(), jobs.size());
    inner_->run_many(jobs, catalog, workspace, results);
  }
  [[nodiscard]] bool supports_query_batching() const noexcept override {
    return inner_->supports_query_batching();
  }
  [[nodiscard]] const makalu::CsrGraph& graph() const noexcept override {
    return inner_->graph();
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }

  /// The driver-call span that engine spans report as their cause; set
  /// on the driver thread before each call, read by its workers.
  void set_parent(std::uint64_t id) noexcept { parent_.store(id); }

 private:
  const makalu::SearchEngine* inner_;
  Tracer* tracer_;
  const char* span_name_;
  std::atomic<std::uint64_t> parent_{0};
};

struct SliceRecord {
  std::uint64_t first = 0;
  std::size_t count = 0;
  double service_s = 0.0;
};

class RecordingBackend final : public makalu::workload::QueryBackend {
 public:
  RecordingBackend(makalu::workload::QueryBackend& inner, Tracer& tracer,
                   TimedEngine* engine, std::uint64_t parent,
                   std::uint32_t lanes)
      : inner_(&inner),
        tracer_(&tracer),
        engine_(engine),
        parent_(parent),
        lanes_(lanes) {}

  double run_slice(std::uint64_t first_query_index, std::size_t count,
                   makalu::QueryAggregate& aggregate) override {
    ScopedSpan span(*tracer_, "workload.slice", parent_, count);
    span.set_lanes(lanes_);
    if (engine_ != nullptr) engine_->set_parent(span.id());
    const double service_s =
        inner_->run_slice(first_query_index, count, aggregate);
    span.stop();
    slices_.push_back({first_query_index, count, service_s});
    return service_s;
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }

  [[nodiscard]] const std::vector<SliceRecord>& slices() const noexcept {
    return slices_;
  }

 private:
  makalu::workload::QueryBackend* inner_;
  Tracer* tracer_;
  TimedEngine* engine_;
  std::uint64_t parent_;
  std::uint32_t lanes_;
  std::vector<SliceRecord> slices_;
};

class BufferedArrivals final : public makalu::workload::ArrivalProcess {
 public:
  BufferedArrivals(makalu::workload::ArrivalProcess& inner,
                   std::size_t count, Tracer& tracer, std::uint64_t parent)
      : name_(inner.name()), nominal_qps_(inner.nominal_qps()) {
    ScopedSpan span(tracer, "workload.arrival_gen", parent, count);
    buffer_ = inner.take(count);
  }

  [[nodiscard]] double next_ms() override { return buffer_.at(next_++); }
  [[nodiscard]] std::string_view name() const noexcept override {
    return name_;
  }
  [[nodiscard]] double nominal_qps() const noexcept override {
    return nominal_qps_;
  }

 private:
  std::string name_;
  double nominal_qps_;
  std::vector<double> buffer_;
  std::size_t next_ = 0;
};

}  // namespace perfbench
