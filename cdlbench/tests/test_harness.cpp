// Tests of the benchmark itself: the shape-derived op counter, the trial
// estimator, each correctness check against a corrupted result, and a tiny
// run of every workload whose metric names must match BENCHMARK.json.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include "cdl/architectures.h"
#include "core/rng.h"
#include "data/synthetic_mnist.h"
#include "harness.h"
#include "workloads.h"

namespace {

using namespace cdlbench;

cdl::ConditionalNetwork untrained(const cdl::CdlArchitecture& arch) {
  cdl::Network base = arch.make_baseline();
  cdl::Rng rng(7);
  base.init(rng);
  cdl::ConditionalNetwork net(std::move(base), arch.input_shape);
  for (std::size_t p : arch.default_stages) {
    net.attach_classifier(p, cdl::LcTrainingRule::kLms, rng);
  }
  return net;
}

TEST(OpCounter, MatchesHandCountedTableI) {
  // conv1 2*86400+3456, sigmoid 3456, pool 2592, O1 2*8640+10+48+20.
  // conv2 2*115200+768, sigmoid 768, pool 576, FC 2*1920+10, softmax 48, argmax 9.
  EXPECT_EQ(exit_ops_from_shapes(table1_mnist_2c()),
            (std::vector<std::uint64_t>{199662, 436081}));
}

TEST(OpCounter, MatchesHandCountedTableII) {
  // O1: 38532+2028+1521+10218; O2: +58200+600+450+3078; FC: +8829+81+0+1630+57.
  EXPECT_EQ(exit_ops_from_shapes(table2_mnist_3c()),
            (std::vector<std::uint64_t>{52299, 114627, 125224}));
}

TEST(OpCounter, AgreesWithTheProgramsOwnAccounting) {
  const cdl::CdlArchitecture archs[2] = {cdl::mnist_2c(), cdl::mnist_3c()};
  const NetShape shapes[2] = {table1_mnist_2c(), table2_mnist_3c()};
  for (int a = 0; a < 2; ++a) {
    const cdl::ConditionalNetwork net = untrained(archs[a]);
    const std::vector<std::uint64_t> ours = exit_ops_from_shapes(shapes[a]);
    ASSERT_EQ(ours.size(), net.num_stages() + 1);
    for (std::size_t s = 0; s <= net.num_stages(); ++s) {
      EXPECT_EQ(ours[s], net.exit_ops(s).total_compute()) << archs[a].name << " exit " << s;
    }
  }
}

TEST(TrialEstimator, IgnoresASlowPhaseCoveringAThirdOfTheRun) {
  TrialSeries series;
  std::vector<double> pooled;
  for (int trial = 0; trial < 90; ++trial) {
    const double speed = (trial >= 30 && trial < 60) ? 1.8 : 1.0;  // slow phase
    std::vector<double> calls;
    for (int i = 0; i < 16; ++i) calls.push_back(speed * 1000.0 * (1.0 + 0.01 * i));
    series.add_trial(calls);
    pooled.insert(pooled.end(), calls.begin(), calls.end());
  }
  // Fast-phase median call is 1075 ns; the slow phase moves neither quantile.
  for (const double q : {0.2, 0.5}) {
    EXPECT_NEAR(series.call_ns(0.50, q), 1075.0, 1e-9);
    EXPECT_NEAR(series.trial_ns_at(q), 16 * 1075.0, 1e-6);
  }
  // The tail stays at the slowest input's fast-phase time (1150 ns), while
  // the pooled p99 lands in the slow phase.
  EXPECT_NEAR(series.call_ns(0.99, 0.2), 1148.5, 1e-9);
  EXPECT_GT(percentile(pooled, 0.99), 1.7 * 1075.0);
}

TEST(TrialEstimator, StaysInTheFastModeWhenMostTrialsAreSlow) {
  // Cores slowed in short spells: 70% of trials ran 1.6x slower, scattered
  // through the run. The median lands in the slow mode; the quantiles the
  // workloads report (the 20th percentile and the minimum) do not.
  TrialSeries series;
  for (int trial = 0; trial < 100; ++trial) {
    const bool slow = (trial * 7) % 10 < 7;
    series.add_trial(std::vector<double>(8, slow ? 1600.0 : 1000.0));
  }
  for (const double q : {0.0, 0.2}) {
    EXPECT_DOUBLE_EQ(series.call_ns(0.50, q), 1000.0);
    EXPECT_DOUBLE_EQ(series.trial_ns_at(q), 8000.0);
  }
  EXPECT_DOUBLE_EQ(series.call_ns(0.50, 0.5), 1600.0);
}

TEST(TrialEstimator, SlowThroughoutShows) {
  TrialSeries series;
  for (int trial = 0; trial < 10; ++trial) {
    series.add_trial(std::vector<double>(8, trial < 9 ? 2000.0 : 1000.0));
  }
  EXPECT_DOUBLE_EQ(series.call_ns(0.50, 0.2), 2000.0);
}

// --- each check fails on a corrupted result ---------------------------------

class Checks : public ::testing::Test {
 protected:
  void SetUp() override {
    const cdl::Dataset d = cdl::SyntheticMnist(cdl::SyntheticMnistConfig{.seed = 3}).generate(16);
    net_.set_delta(0.0F);  // any O1 confidence passes the gate
    for (std::size_t i = 0; i < d.size(); ++i) results_.push_back(net_.classify(d.image(i)));
    results_.back() = [&] {
      net_.set_delta(1.1F);  // unreachable: this one runs to the FC exit
      cdl::ClassificationResult r = net_.classify(d.image(0));
      net_.set_delta(0.0F);
      return r;
    }();
  }
  cdl::ConditionalNetwork net_ = untrained(cdl::mnist_2c());
  std::vector<cdl::ClassificationResult> results_;
};

TEST_F(Checks, OpsCheckFailsOnACorruptedCount) {
  const auto exits = exit_ops_from_shapes(table1_mnist_2c());
  EXPECT_EQ(check_ops(results_, exits), "");
  results_[3].ops.macs += 1;
  EXPECT_NE(check_ops(results_, exits), "");
}

TEST_F(Checks, IdentityCheckFailsOnAnyCorruptedField) {
  const cdl::ClassificationResult want = results_[2];
  EXPECT_EQ(check_identical(results_[2], want), "");
  cdl::ClassificationResult r = want;
  r.label = (r.label + 1) % 10;
  EXPECT_NE(check_identical(r, want), "");
  r = want;
  r.probabilities[4] = std::nextafter(r.probabilities[4], 2.0F);
  EXPECT_NE(check_identical(r, want), "");
  r = want;
  r.exit_stage ^= 1U;
  EXPECT_NE(check_identical(r, want), "");
  r = want;
  r.ops.compares += 1;
  EXPECT_NE(check_identical(r, want), "");
}

TEST_F(Checks, ExitConfidenceCheckFailsBelowDelta) {
  EXPECT_EQ(check_exit_confidence(results_, {0.0F}), "");
  for (cdl::ClassificationResult& r : results_) r.confidence = 0.5F;
  results_[0].exit_stage = 0;
  results_[0].confidence = 0.4F;
  EXPECT_EQ(check_exit_confidence(results_, {0.4F}), "");
  EXPECT_NE(check_exit_confidence(results_, {0.41F}), "");
}

TEST(CheckAccuracy, FailsBeyondTheStatedDrop) {
  EXPECT_EQ(check_accuracy(940, 955, 1000, 2.0), "");
  EXPECT_NE(check_accuracy(930, 955, 1000, 2.0), "");
  EXPECT_NE(check_accuracy(0, 0, 0, 2.0), "");
}

TEST(CheckExitMix, FailsOnTheWrongMix) {
  EXPECT_EQ(check_exit_mix({95, 5}, 0.90, 0.0), "");
  EXPECT_NE(check_exit_mix({80, 20}, 0.90, 0.0), "");
  EXPECT_EQ(check_exit_mix({20, 20, 60}, 0.0, 0.5), "");
  EXPECT_NE(check_exit_mix({50, 10, 40}, 0.0, 0.5), "");
}

TEST(CheckEnergy, FailsOutsideTheExitCosts) {
  const std::vector<double> fp32 = {100.0, 300.0}, int8 = {20.0, 60.0};
  EXPECT_EQ(check_energy(150.0, fp32), "");
  EXPECT_NE(check_energy(99.0, fp32), "");
  EXPECT_NE(check_energy(301.0, fp32), "");
  EXPECT_EQ(check_int8_cheaper(fp32, 150.0, int8, 30.0), "");
  EXPECT_NE(check_int8_cheaper(int8, 30.0, fp32, 150.0), "");
  EXPECT_NE(check_int8_cheaper(fp32, 150.0, {20.0, 400.0}, 30.0), "");
}

// --- smoke runs ---------------------------------------------------------------

std::vector<std::string> benchmark_names(const std::string& section) {
  std::ifstream is(std::string(CDLBENCH_ROOT) + "/BENCHMARK.json");
  std::stringstream ss;
  ss << is.rdbuf();
  const std::string text = ss.str();
  const std::size_t begin = text.find("\"" + section + "\"");
  const std::size_t end = text.find(']', begin);
  const std::string body = text.substr(begin, end - begin);
  std::vector<std::string> names;
  const std::regex re("\"name\": \"([^\"]+)\"");
  for (auto it = std::sregex_iterator(body.begin(), body.end(), re); it != std::sregex_iterator();
       ++it) {
    names.push_back((*it)[1]);
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<std::string> names_of(const Outcome& out) {
  std::vector<std::string> names;
  for (const Metric& m : out.metrics) names.push_back(m.name);
  std::sort(names.begin(), names.end());
  return names;
}

class Smoke : public ::testing::TestWithParam<std::string> {};

TEST_P(Smoke, RunsAndReportsEveryBenchmarkMetric) {
  const std::string dir = std::filesystem::temp_directory_path() /
                          ("cdlbench_smoke_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  for (const bool trace : {false, true}) {
    Options o;
    o.workload = GetParam();
    o.seed = 5;
    o.seconds = 0.3;
    o.trace = trace;
    o.work_dir = dir;
    o.smoke = true;
    const Outcome out = run_workload(o, std::chrono::steady_clock::now());
    EXPECT_GT(out.attempted, 0U);
    EXPECT_EQ(out.failed, 0U);
    EXPECT_EQ(names_of(out), benchmark_names(trace ? "per_layer" : "end_to_end"));
    for (const Metric& m : out.metrics) {
      if (!trace) EXPECT_GT(m.value, 0.0) << m.name;
    }
  }
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Workloads, Smoke, ::testing::ValuesIn(workload_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           std::replace(n.begin(), n.end(), '-', '_');
                           return n;
                         });

}  // namespace
