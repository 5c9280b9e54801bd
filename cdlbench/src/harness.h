// Benchmark-side building blocks that do not depend on the program's
// internals: the trial estimator, the Table I/II op counter, the correctness
// checks, the host probe and process accounting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cdl/conditional_network.h"

namespace cdlbench {

// --- trial estimator --------------------------------------------------------

/// Type-7 percentile (p in [0,1]) of `v`; 0 for an empty vector.
[[nodiscard]] double percentile(std::vector<double> v, double p);
[[nodiscard]] inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

/// Timings of one variant over a run. Each trial is one pass over the same
/// inputs in the same order, so call i of every trial does the same work: a
/// slow phase moves whole trials, and a quantile over trials of call i is
/// that input's own time.
struct TrialSeries {
  std::vector<double> trial_ns;                ///< duration of each trial
  std::vector<std::vector<double>> position_ns;  ///< [call i] -> one time per trial

  void add_trial(const std::vector<double>& call_ns);
  /// q-quantile of the trial durations.
  [[nodiscard]] double trial_ns_at(double q) const { return percentile(trial_ns, q); }
  /// p-quantile over inputs of each input's q-quantile call time over trials.
  [[nodiscard]] double call_ns(double p, double q) const;
};

// --- op counts from the paper's layer shapes --------------------------------

struct LayerShape {
  enum Kind { kConv, kSigmoid, kMaxPool, kDense } kind;
  std::size_t out_channels = 0;  ///< conv maps / dense outputs
  std::size_t kernel = 0;        ///< conv kernel or pool window
};

/// A baseline network as Tables I/II write it, with the layer-prefix length
/// after which each linear classifier reads its features.
struct NetShape {
  std::string name;
  std::size_t channels = 1, height = 28, width = 28, classes = 10;
  std::vector<LayerShape> layers;
  std::vector<std::size_t> exit_prefixes;
};

[[nodiscard]] NetShape table1_mnist_2c();
[[nodiscard]] NetShape table2_mnist_3c();

/// Cumulative compute operations (2 per MAC, plus adds, compares,
/// activations and divides) of an input that exits at each stage; the last
/// entry is the final FC exit. Every linear-classifier stage scores with a
/// dense layer plus softmax and a max-probability gate; the FC exit adds
/// softmax plus an argmax scan.
[[nodiscard]] std::vector<std::uint64_t> exit_ops_from_shapes(const NetShape& net);

// --- correctness checks -----------------------------------------------------
// Each returns an empty string when the property holds, else a description.

/// Summed ClassificationResult::ops equal the exit-weighted shape counts.
[[nodiscard]] std::string check_ops(const std::vector<cdl::ClassificationResult>& results,
                                    const std::vector<std::uint64_t>& exit_ops);
/// Two result sets agree bit for bit (label, exit, confidence,
/// probabilities, ops).
[[nodiscard]] std::string check_identical(const cdl::ClassificationResult& got,
                                          const cdl::ClassificationResult& want);
/// Every early exit has confidence >= its stage's delta.
[[nodiscard]] std::string check_exit_confidence(
    const std::vector<cdl::ClassificationResult>& results,
    const std::vector<float>& stage_deltas);
/// Cascade accuracy is at most `max_drop_pp` below the baseline network's.
[[nodiscard]] std::string check_accuracy(std::size_t cascade_correct,
                                         std::size_t baseline_correct,
                                         std::size_t n, double max_drop_pp);
/// Share of inputs exiting at stage 0 is at least `min_o1` and the share
/// reaching the final stage is at least `min_final`.
[[nodiscard]] std::string check_exit_mix(const std::vector<std::uint64_t>& exits,
                                         double min_o1, double min_final);
/// Mean energy lies in [exit-0 cost, final cost]; for the int8 twin every
/// exit and the mean cost less than fp32.
[[nodiscard]] std::string check_energy(double mean_pj,
                                       const std::vector<double>& table);
[[nodiscard]] std::string check_int8_cheaper(const std::vector<double>& fp32_table,
                                             double fp32_mean_pj,
                                             const std::vector<double>& int8_table,
                                             double int8_mean_pj);

// --- host and process -------------------------------------------------------

/// Runs the fixed reference loop once and returns its wall time in ms.
[[nodiscard]] double host_probe_ms();
/// Pins the process's j-th thread (by thread id) to CPU (k + j) mod count of
/// the set the process could first run on. No-op where affinity cannot be set.
void pin_threads(std::size_t k);
/// Lets every thread run on that whole set again.
void unpin();
/// Peak resident set (VmHWM) in MiB.
[[nodiscard]] double peak_rss_mib();
/// Current thread count of this process.
[[nodiscard]] std::size_t thread_count();

/// FNV-1a 64 over the bytes of every image, for the README's input digest.
[[nodiscard]] std::uint64_t digest(const std::vector<cdl::Tensor>& images);

}  // namespace cdlbench
