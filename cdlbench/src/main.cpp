// cdlbench --workload NAME --seed N --seconds S --trace 0|1 [--work-dir DIR]
//
// Runs one workload and prints, as the last line of stdout, one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: cdlbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR] [--smoke]\n");
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = std::chrono::steady_clock::now();
  cdlbench::Options o;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
        return argv[++i];
      };
      if (a == "--workload") {
        o.workload = value();
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        o.trace = std::stoi(value()) != 0;
      } else if (a == "--work-dir") {
        o.work_dir = value();
      } else if (a == "--smoke") {
        o.smoke = true;
      } else {
        throw std::invalid_argument("unknown argument " + a);
      }
    }
    if (o.workload.empty() || !(o.seconds > 0.0)) {
      throw std::invalid_argument("--workload and a positive --seconds are required");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    usage();
    return 2;
  }

  cdlbench::Outcome out;
  try {
    out = cdlbench::run_workload(o, process_start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  for (const std::string& n : out.notes) std::printf("# %s\n", n.c_str());
  for (const std::string& f : out.failures) std::printf("# CHECK FAILED: %s\n", f.c_str());
  for (const cdlbench::Metric& m : out.metrics) {
    std::printf("# %-44s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string js = "{\"correct\": ";
  js += out.correct() ? "true" : "false";
  js += ", \"attempted\": " + std::to_string(out.attempted);
  js += ", \"failed\": " + std::to_string(out.failed);
  js += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const cdlbench::Metric& m = out.metrics[i];
    if (i) js += ", ";
    js += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
          ", \"unit\": \"" + m.unit + "\"}";
  }
  js += "}}";
  std::printf("%s\n", js.c_str());
  return 0;
}
