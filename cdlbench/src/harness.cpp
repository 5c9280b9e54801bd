#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sched.h>
#include <sstream>

namespace cdlbench {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

void TrialSeries::add_trial(const std::vector<double>& call_ns) {
  double total = 0.0;
  for (double c : call_ns) total += c;
  trial_ns.push_back(total);
  if (position_ns.size() < call_ns.size()) position_ns.resize(call_ns.size());
  for (std::size_t i = 0; i < call_ns.size(); ++i) position_ns[i].push_back(call_ns[i]);
}

double TrialSeries::call_ns(double p, double q) const {
  std::vector<double> per_input;
  for (const std::vector<double>& times : position_ns) per_input.push_back(percentile(times, q));
  return percentile(std::move(per_input), p);
}

// --- op counts --------------------------------------------------------------

NetShape table1_mnist_2c() {
  using L = LayerShape;
  NetShape n;
  n.name = "MNIST_2C";
  n.layers = {{L::kConv, 6, 5},  {L::kSigmoid}, {L::kMaxPool, 0, 2},
              {L::kConv, 12, 5}, {L::kSigmoid}, {L::kMaxPool, 0, 2},
              {L::kDense, 10}};
  n.exit_prefixes = {3};
  return n;
}

NetShape table2_mnist_3c() {
  using L = LayerShape;
  NetShape n;
  n.name = "MNIST_3C";
  n.layers = {{L::kConv, 3, 3}, {L::kSigmoid}, {L::kMaxPool, 0, 2},
              {L::kConv, 6, 4}, {L::kSigmoid}, {L::kMaxPool, 0, 2},
              {L::kConv, 9, 3}, {L::kSigmoid}, {L::kMaxPool, 0, 1},
              {L::kDense, 10}};
  n.exit_prefixes = {3, 6};
  return n;
}

std::vector<std::uint64_t> exit_ops_from_shapes(const NetShape& net) {
  // Per-layer compute ops, walking the feature-map shape (valid convs,
  // non-overlapping pools).
  std::vector<std::uint64_t> layer_ops;
  std::vector<std::uint64_t> features_after;  // feature count after layer i
  std::uint64_t c = net.channels, h = net.height, w = net.width;
  for (const LayerShape& l : net.layers) {
    std::uint64_t ops = 0;
    switch (l.kind) {
      case LayerShape::kConv: {
        h = h - l.kernel + 1;
        w = w - l.kernel + 1;
        const std::uint64_t outs = l.out_channels * h * w;
        ops = 2 * outs * c * l.kernel * l.kernel + outs;  // MACs + bias adds
        c = l.out_channels;
        break;
      }
      case LayerShape::kSigmoid:
        ops = c * h * w;
        break;
      case LayerShape::kMaxPool:
        h /= l.kernel;
        w /= l.kernel;
        ops = c * h * w * (l.kernel * l.kernel - 1);
        break;
      case LayerShape::kDense: {
        const std::uint64_t in = c * h * w;
        ops = 2 * in * l.out_channels + l.out_channels;
        c = l.out_channels;
        h = w = 1;
        break;
      }
    }
    layer_ops.push_back(ops);
    features_after.push_back(c * h * w);
  }
  const std::uint64_t k = net.classes;
  const std::uint64_t softmax = (k - 1) + k + (2 * k - 1) + k;  // max, exp, adds, div
  const std::uint64_t gate = 2 * k;  // threshold compares + argmax scan

  std::vector<std::uint64_t> exits;
  std::uint64_t cumulative = 0;
  std::size_t layer = 0;
  for (std::size_t prefix : net.exit_prefixes) {
    for (; layer < prefix; ++layer) cumulative += layer_ops[layer];
    const std::uint64_t feats = features_after[prefix - 1];
    cumulative += 2 * feats * k + k + softmax + gate;  // linear classifier
    exits.push_back(cumulative);
  }
  std::uint64_t fc = cumulative;
  for (; layer < net.layers.size(); ++layer) fc += layer_ops[layer];
  exits.push_back(fc + softmax + (k - 1));
  return exits;
}

// --- checks -----------------------------------------------------------------

std::string check_ops(const std::vector<cdl::ClassificationResult>& results,
                      const std::vector<std::uint64_t>& exit_ops) {
  std::uint64_t summed = 0, expected = 0;
  for (const cdl::ClassificationResult& r : results) {
    if (r.exit_stage >= exit_ops.size()) return "exit stage out of range";
    summed += r.ops.total_compute();
    expected += exit_ops[r.exit_stage];
  }
  if (summed == expected) return {};
  return "summed ops " + std::to_string(summed) + " != shape-derived " +
         std::to_string(expected);
}

std::string check_identical(const cdl::ClassificationResult& got,
                            const cdl::ClassificationResult& want) {
  if (got.label != want.label) return "label differs";
  if (got.exit_stage != want.exit_stage) return "exit stage differs";
  if (std::memcmp(&got.confidence, &want.confidence, sizeof(float)) != 0) {
    return "confidence differs";
  }
  if (got.probabilities.numel() != want.probabilities.numel() ||
      std::memcmp(got.probabilities.data(), want.probabilities.data(),
                  got.probabilities.numel() * sizeof(float)) != 0) {
    return "probabilities differ";
  }
  if (!(got.ops == want.ops)) return "ops differ";
  return {};
}

std::string check_exit_confidence(
    const std::vector<cdl::ClassificationResult>& results,
    const std::vector<float>& stage_deltas) {
  for (const cdl::ClassificationResult& r : results) {
    if (r.exit_stage < stage_deltas.size() &&
        !(r.confidence >= stage_deltas[r.exit_stage])) {
      return "early exit at stage " + std::to_string(r.exit_stage) +
             " with confidence " + std::to_string(r.confidence) + " < delta " +
             std::to_string(stage_deltas[r.exit_stage]);
    }
  }
  return {};
}

std::string check_accuracy(std::size_t cascade_correct,
                           std::size_t baseline_correct, std::size_t n,
                           double max_drop_pp) {
  if (n == 0) return "no inputs";
  const double drop = 100.0 * (static_cast<double>(baseline_correct) -
                               static_cast<double>(cascade_correct)) /
                      static_cast<double>(n);
  if (drop <= max_drop_pp) return {};
  return "cascade accuracy " + std::to_string(drop) +
         " pp below the baseline (limit " + std::to_string(max_drop_pp) + ")";
}

std::string check_exit_mix(const std::vector<std::uint64_t>& exits,
                           double min_o1, double min_final) {
  std::uint64_t n = 0;
  for (std::uint64_t e : exits) n += e;
  if (n == 0 || exits.size() < 2) return "no exits recorded";
  const double o1 = static_cast<double>(exits.front()) / static_cast<double>(n);
  const double fin = static_cast<double>(exits.back()) / static_cast<double>(n);
  if (o1 < min_o1) {
    return "O1 exit share " + std::to_string(o1) + " < " + std::to_string(min_o1);
  }
  if (fin < min_final) {
    return "final-stage share " + std::to_string(fin) + " < " +
           std::to_string(min_final);
  }
  return {};
}

std::string check_energy(double mean_pj, const std::vector<double>& table) {
  if (table.empty()) return "empty exit-energy table";
  if (!(mean_pj >= table.front() && mean_pj <= table.back())) {
    return "mean energy " + std::to_string(mean_pj) + " pJ outside [" +
           std::to_string(table.front()) + ", " + std::to_string(table.back()) +
           "]";
  }
  return {};
}

std::string check_int8_cheaper(const std::vector<double>& fp32_table,
                               double fp32_mean_pj,
                               const std::vector<double>& int8_table,
                               double int8_mean_pj) {
  if (fp32_table.size() != int8_table.size()) return "exit tables differ in size";
  for (std::size_t s = 0; s < fp32_table.size(); ++s) {
    if (!(int8_table[s] < fp32_table[s])) {
      return "int8 exit " + std::to_string(s) + " costs no less than fp32";
    }
  }
  if (!(int8_mean_pj < fp32_mean_pj)) return "int8 mean energy >= fp32";
  return {};
}

// --- process ----------------------------------------------------------------

namespace {
std::string status_field(const char* key) {
  std::ifstream is("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(key);
  while (std::getline(is, line)) {
    if (line.compare(0, n, key) == 0) return line.substr(n);
  }
  return {};
}

const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}

std::vector<pid_t> thread_ids() {
  std::vector<pid_t> ids;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/task")) {
    ids.push_back(static_cast<pid_t>(std::stol(e.path().filename().string())));
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}
}  // namespace

void pin_threads(std::size_t k) {
  const std::vector<int>& cpus = allowed_cpus();
  if (cpus.empty()) return;
  const std::vector<pid_t> ids = thread_ids();
  for (std::size_t j = 0; j < ids.size(); ++j) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus[(k + j) % cpus.size()], &set);
    (void)sched_setaffinity(ids[j], sizeof set, &set);
  }
}

void unpin() {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : allowed_cpus()) CPU_SET(c, &set);
  if (CPU_COUNT(&set) == 0) return;
  for (pid_t id : thread_ids()) (void)sched_setaffinity(id, sizeof set, &set);
}

double peak_rss_mib() {
  std::istringstream is(status_field("VmHWM:"));
  double kib = 0.0;
  is >> kib;
  return kib / 1024.0;
}

std::size_t thread_count() {
  std::istringstream is(status_field("Threads:"));
  std::size_t n = 0;
  is >> n;
  return n;
}

std::uint64_t digest(const std::vector<cdl::Tensor>& images) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const cdl::Tensor& t : images) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(t.data());
    for (std::size_t i = 0; i < t.numel() * sizeof(float); ++i) {
      h = (h ^ bytes[i]) * 1099511628211ULL;
    }
  }
  return h;
}

}  // namespace cdlbench
