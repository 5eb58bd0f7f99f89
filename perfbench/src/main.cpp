// makalu_perfbench: runs one benchmark workload and prints, as the last
// line of standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// derived from spans (--trace 1). The other set is printed above it as
// `# name value unit` lines. See README.md for the workloads.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>

#include "common.hpp"

namespace {

using perfbench::Config;
using perfbench::Inject;
using perfbench::Metric;
using perfbench::Outcome;
using perfbench::Scale;

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "error: " << problem << "\n"
            << "usage: makalu_perfbench --workload "
               "paper_search|abf_openloop|abf_churn --seed N --seconds S "
               "--trace 0|1 [--scale full|tiny] [--rounds N] "
               "[--trace-out FILE] [--inject "
               "flip-success|wrong-messages|clear-filter-bit]\n";
  std::exit(2);
}

Config parse(int argc, char** argv) {
  Config c;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        c.workload = value;
      } else if (flag == "--seed") {
        c.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        c.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        c.trace = value == "1";
      } else if (flag == "--scale") {
        if (value != "full" && value != "tiny") usage("bad --scale");
        c.scale = value == "tiny" ? Scale::kTiny : Scale::kFull;
      } else if (flag == "--rounds") {
        c.rounds = std::stoull(value);
      } else if (flag == "--trace-out") {
        c.trace_out = value;
      } else if (flag == "--inject") {
        if (value == "flip-success") {
          c.inject = Inject::kFlipSuccess;
        } else if (value == "wrong-messages") {
          c.inject = Inject::kWrongMessages;
        } else if (value == "clear-filter-bit") {
          c.inject = Inject::kClearFilterBit;
        } else {
          usage("bad --inject");
        }
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (c.workload.empty()) usage("--workload is required");
  if (!(c.seconds > 0.0)) usage("--seconds must be positive");
  return c;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "0";  // flagged as a failed check
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_json(const Outcome& out, const std::vector<Metric>& metrics) {
  std::cout << "{\"correct\": " << (out.correct() ? "true" : "false")
            << ", \"attempted\": " << out.attempted()
            << ", \"failed\": " << out.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::cout << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
              << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) try {
  const Config config = parse(argc, argv);
  Outcome out;
  if (config.workload == "paper_search") {
    perfbench::run_paper_search(config, out);
  } else if (config.workload == "abf_openloop") {
    perfbench::run_abf_openloop(config, out);
  } else if (config.workload == "abf_churn") {
    perfbench::run_abf_churn(config, out);
  } else {
    usage("unknown workload " + config.workload);
  }
  const auto& shown = config.trace ? out.layers() : out.metrics();
  const auto& other = config.trace ? out.metrics() : out.layers();
  for (const Metric& m : other) {
    std::cout << "# " << m.name << " " << number(m.value) << " " << m.unit
              << "\n";
  }
  for (const Metric& m : shown) {
    if (!std::isfinite(m.value)) out.fail_check(m.name + " is not finite");
  }
  for (const std::string& p : out.problems()) {
    std::cerr << "check failed: " << p << "\n";
  }
  print_json(out, shown);
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
