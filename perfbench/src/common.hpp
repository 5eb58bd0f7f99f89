// Shared plumbing of the repository benchmark: run configuration, the
// result every workload fills in, seed derivation and order statistics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Input sizes. kFull is the benchmark proper (the paper's 100k nodes);
/// kTiny runs every code path in seconds for the benchmark's own test.
enum class Scale { kFull, kTiny };

/// Deliberate corruptions the benchmark's own test feeds through the
/// checkers to prove they reject bad results.
enum class Inject { kNone, kFlipSuccess, kWrongMessages, kClearFilterBit };

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Scale scale = Scale::kFull;
  Inject inject = Inject::kNone;
  /// Exactly this many rounds instead of --seconds of them (0 = timed):
  /// fixed work, so the self-test can compare aggregates across runs.
  std::uint64_t rounds = 0;
  std::string trace_out;     ///< span file written by a traced run
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// What one run reports. `failed` counts operations (queries and replica
/// changes) that threw or whose result a checker rejected; `correct`
/// turns false only for checks that are not about one operation (table
/// soundness, determinism, accounting).
class Outcome {
 public:
  void attempt(std::uint64_t ops) { attempted_ += ops; }
  void fail_op(const std::string& why);
  void fail_check(const std::string& why);
  /// End-to-end metric (printed by the untraced run).
  void metric(std::string name, std::string unit, double value) {
    metrics_.push_back({std::move(name), std::move(unit), value});
  }
  /// Per-layer metric (printed by the traced run).
  void layer(std::string name, std::string unit, double value) {
    layers_.push_back({std::move(name), std::move(unit), value});
  }

  [[nodiscard]] bool correct() const noexcept { return correct_; }
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::vector<Metric>& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] const std::vector<Metric>& layers() const noexcept {
    return layers_;
  }
  [[nodiscard]] const std::vector<std::string>& problems() const noexcept {
    return problems_;
  }

 private:
  void note(const std::string& why);

  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
  std::vector<Metric> layers_;
  std::vector<std::string> problems_;  // first few, for stderr
};

/// Independent stream for one purpose of one run: (seed, tag) -> seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t tag) noexcept;

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample;
/// 0 for an empty one.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
[[nodiscard]] double mean(const std::vector<double>& values);
/// Median over consecutive groups of `group` values of each group's
/// mean (a short last group is dropped unless it is the only one): a mean
/// that a burst of interference on the machine moves in one group only.
[[nodiscard]] double median_of_means(const std::vector<double>& values,
                                     std::size_t group);

/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Workload entry points (one translation unit each).
void run_paper_search(const Config& config, Outcome& out);
void run_abf_openloop(const Config& config, Outcome& out);
void run_abf_churn(const Config& config, Outcome& out);

}  // namespace perfbench
