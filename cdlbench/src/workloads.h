// The four benchmark workloads over the CDL cascade and its serving engine.
// Each run trains both paper networks from scratch (the timed set-up), runs
// one workload for a fixed time, checks the program's outputs and returns
// every metric by name.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace cdlbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;        ///< per-layer pass (profiler on) instead of end-to-end
  std::string work_dir = ".";  ///< scratch files (weight copies) go here
  bool smoke = false;        ///< tiny sizes, for the benchmark's own tests
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;        ///< the result line's metrics
  std::vector<std::string> notes;     ///< human-readable detail lines
  std::vector<std::string> failures;  ///< correctness checks that did not hold
  [[nodiscard]] bool correct() const { return failures.empty(); }
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload. `process_start` anchors setup_s. Throws
/// std::invalid_argument on an unknown workload.
[[nodiscard]] Outcome run_workload(const Options& options,
                                   std::chrono::steady_clock::time_point process_start);

}  // namespace cdlbench
