#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "obs/memory.hpp"
#include "support/rng.hpp"

namespace perfbench {

void Outcome::note(const std::string& why) {
  if (problems_.size() < 8) problems_.push_back(why);
}

void Outcome::fail_op(const std::string& why) {
  ++failed_;
  note(why);
}

void Outcome::fail_check(const std::string& why) {
  correct_ = false;
  note(why);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) noexcept {
  std::uint64_t state = seed ^ (tag * 0x9e3779b97f4a7c15ULL);
  makalu::splitmix64(state);
  return makalu::splitmix64(state);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double median_of_means(const std::vector<double>& values,
                       std::size_t group) {
  if (group == 0 || values.size() <= group) return mean(values);
  std::vector<double> means;
  for (std::size_t lo = 0; lo + group <= values.size(); lo += group) {
    means.push_back(mean({values.begin() + static_cast<long>(lo),
                          values.begin() + static_cast<long>(lo + group)}));
  }
  return median(std::move(means));
}

double peak_rss_mb() {
  return static_cast<double>(makalu::obs::peak_rss_bytes()) /
         (1024.0 * 1024.0);
}

}  // namespace perfbench
