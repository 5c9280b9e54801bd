#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <filesystem>
#include <future>
#include <map>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "cdl/architectures.h"
#include "cdl/cdl_trainer.h"
#include "cdl/conditional_network.h"
#include "cdl/delta_selection.h"
#include "cdl/quantized_cascade.h"
#include "core/thread_pool.h"
#include "data/synthetic_mnist.h"
#include "harness.h"
#include "obs/energy_meter.h"
#include "obs/layer_profile.h"
#include "obs/registry.h"
#include "serve/engine.h"

namespace cdlbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// The trained system under test is fixed: training and validation data come
/// from this seed on every run, so exits, ops and energy compare across runs.
/// --seed picks the measured inputs only.
constexpr std::uint64_t kTrainSeed = 42;

struct Sizes {
  std::size_t train_n = 3000;
  std::size_t val_n = 500;
  std::size_t calib_n = 256;
  std::size_t pool_n = 4096;    ///< batch and serve inputs
  std::size_t stream_n = 1024;  ///< inputs per stream trial
  std::size_t batch = 256;
  std::size_t check_n = 64;     ///< batched-vs-per-image sample
  double serve_rate = 2000.0;  ///< offered requests/s
  double scrape_hz = 10.0;
};

Sizes sizes_for(bool smoke) {
  Sizes s;
  if (smoke) {
    s.train_n = 300;
    s.val_n = 100;
    s.calib_n = 64;
    s.pool_n = 512;
    s.stream_n = 64;
    s.batch = 64;
    s.check_n = 16;
    s.serve_rate = 2000.0;
  }
  return s;
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// --- set-up -----------------------------------------------------------------

struct Variant {
  std::string tag;  ///< "2c_fp32", ...
  cdl::ConditionalNetwork net;
  std::vector<double> exit_pj;          ///< exit-energy table (45 nm model)
  std::vector<std::uint64_t> exit_ops;  ///< shape-derived, cumulative
};

struct Setup {
  Clock::time_point process_start;  // setup_s runs from here
  Clock::time_point step_start = Clock::now();
  std::vector<Variant> variants;  // 2c_fp32, 2c_int8, 3c_fp32, 3c_int8
  cdl::Dataset inputs;            // the measured inputs, from --seed
  std::vector<Metric> layer;      // set-up per-layer metrics

  /// Seconds since the previous set-up step ended.
  double lap() {
    const auto now = Clock::now();
    return seconds_between(std::exchange(step_start, now), now);
  }
};

cdl::ConditionalNetwork train_net(const cdl::CdlArchitecture& arch,
                                  const cdl::Dataset& train) {
  cdl::Network base = arch.make_baseline();
  cdl::Rng rng(kTrainSeed);
  base.init(rng);
  cdl::train_baseline(base, train, cdl::BaselineTrainConfig{}, rng);
  cdl::ConditionalNetwork net(std::move(base), arch.input_shape);
  cdl::Rng lc_rng(kTrainSeed + 1);
  for (std::size_t prefix : arch.default_stages) {
    net.attach_classifier(prefix, cdl::LcTrainingRule::kLms, lc_rng);
  }
  cdl::CdlTrainConfig config;
  config.prune_by_gain = false;  // the paper's fixed CDLN configurations
  (void)cdl::train_cdl(net, train, config, lc_rng);
  return net;
}

/// A second network with the same weights (the int8 twin), through the
/// public save/load round trip.
cdl::ConditionalNetwork twin(cdl::ConditionalNetwork& src,
                             const cdl::CdlArchitecture& arch,
                             const std::string& path) {
  src.save(path);
  cdl::Network base = arch.make_baseline();
  cdl::Rng rng(kTrainSeed);
  base.init(rng);
  cdl::ConditionalNetwork dst(std::move(base), arch.input_shape);
  for (std::size_t s = 0; s < src.num_stages(); ++s) {
    dst.attach_classifier(src.stage_prefix(s), cdl::LcTrainingRule::kLms, rng);
  }
  dst.load(path);
  std::filesystem::remove(path);
  return dst;
}

cdl::Dataset measured_inputs(const std::string& workload, std::uint64_t seed,
                             std::size_t n) {
  cdl::SyntheticMnistConfig config;
  if (workload == "batch-hard") {
    config.seed = mix(seed, 2);
    config.clutter = 1.0F;
    config.difficulty_exponent = 0.5F;
  } else {
    config.seed = mix(seed, 1);
  }
  return cdl::SyntheticMnist(config).generate(n, 1'000'000);
}

Setup build_setup(const Options& o, const Sizes& sz, Clock::time_point process_start) {
  Setup s;
  s.process_start = process_start;
  const cdl::SyntheticMnist train_gen(cdl::SyntheticMnistConfig{.seed = kTrainSeed});
  const cdl::Dataset train = train_gen.generate(sz.train_n, 0);
  const cdl::Dataset validation = train_gen.generate(sz.val_n, 500'000);
  s.inputs = measured_inputs(o.workload, o.seed,
                             o.workload == "stream-single" ? sz.stream_n : sz.pool_n);
  s.layer.push_back({"data.generate_s", s.lap(), "s"});

  const cdl::CdlArchitecture archs[2] = {cdl::mnist_2c(), cdl::mnist_3c()};
  const NetShape shapes[2] = {table1_mnist_2c(), table2_mnist_3c()};
  const char* arch_tags[2] = {"2c", "3c"};
  std::vector<cdl::ConditionalNetwork> fp32;
  for (int a = 0; a < 2; ++a) {
    fp32.push_back(train_net(archs[a], train));
    s.layer.push_back({std::string("cdl.train_s.") + arch_tags[a], s.lap(), "s"});
  }

  for (cdl::ConditionalNetwork& net : fp32) {
    (void)cdl::select_delta(net, validation);  // leaves the winner set
  }
  s.layer.push_back({"cdl.select_delta_s", s.lap(), "s"});

  double calibrate_s = 0.0;
  const cdl::obs::EnergyMeter meter;
  for (int a = 0; a < 2; ++a) {
    cdl::ConditionalNetwork q =
        twin(fp32[a], archs[a],
             o.work_dir + "/cdlbench_" + std::to_string(::getpid()) + "_" +
                 arch_tags[a] + ".cdlw");
    q.set_delta(fp32[a].stage_delta(0));
    (void)s.lap();  // the twin's save/load counts toward setup_s only
    q.set_quantization(cdl::collect_quant_calibration(
        q.baseline(), q.input_shape(), train.images(), sz.calib_n, nullptr));
    q.set_cascade_precision(cdl::StagePrecision::kInt8);
    calibrate_s += s.lap();
    for (int prec = 0; prec < 2; ++prec) {
      cdl::ConditionalNetwork net = prec == 0 ? std::move(fp32[a]) : std::move(q);
      if (o.workload == "batch-hard") net.set_delta(0.9F);
      Variant v{std::string(arch_tags[a]) + (prec == 0 ? "_fp32" : "_int8"),
                std::move(net), {}, exit_ops_from_shapes(shapes[a])};
      v.exit_pj = v.net.exit_energy_table(meter);
      s.variants.push_back(std::move(v));
    }
  }
  s.layer.push_back({"cdl.calibrate_s", calibrate_s, "s"});
  return s;
}

// --- offline analysis and checks --------------------------------------------

struct Analysis {
  std::vector<std::uint64_t> exits;
  double mean_ops = 0.0;
  double mean_pj = 0.0;
};

std::vector<float> stage_deltas(const cdl::ConditionalNetwork& net) {
  std::vector<float> d;
  for (std::size_t s = 0; s < net.num_stages(); ++s) d.push_back(net.stage_delta(s));
  return d;
}

void fail_if(Outcome& out, const std::string& where, const std::string& error) {
  if (!error.empty()) out.failures.push_back(where + ": " + error);
}

/// Exit mix, ops and energy of one pass over the inputs, plus every check
/// that needs only the offline results.
Analysis analyze(const std::string& tag, const cdl::ConditionalNetwork& net,
                 const std::vector<double>& exit_pj,
                 const std::vector<std::uint64_t>& exit_ops,
                 const std::vector<cdl::ClassificationResult>& results,
                 const cdl::Dataset& inputs, const Sizes& sz, Outcome& out) {
  Analysis a;
  a.exits.assign(net.num_stages() + 1, 0);
  double ops = 0.0, pj = 0.0;
  std::size_t cascade_correct = 0, baseline_correct = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const cdl::ClassificationResult& r = results[i];
    ++a.exits.at(r.exit_stage);
    ops += static_cast<double>(r.ops.total_compute());
    pj += exit_pj.at(r.exit_stage);
    cascade_correct += r.label == inputs.label(i) ? 1 : 0;
    baseline_correct +=
        net.classify_baseline(inputs.image(i)).label == inputs.label(i) ? 1 : 0;
  }
  const auto n = static_cast<double>(results.size());
  a.mean_ops = ops / n;
  a.mean_pj = pj / n;
  fail_if(out, tag + " ops", check_ops(results, exit_ops));
  fail_if(out, tag + " exit confidence", check_exit_confidence(results, stage_deltas(net)));
  fail_if(out, tag + " accuracy",
          check_accuracy(cascade_correct, baseline_correct, results.size(), 2.0));
  fail_if(out, tag + " energy", check_energy(a.mean_pj, exit_pj));
  for (std::size_t i = 0; i < std::min(sz.check_n, results.size()); ++i) {
    const std::string e = check_identical(net.classify(inputs.image(i)), results[i]);
    if (!e.empty()) {
      fail_if(out, tag + " batched vs classify() on input " + std::to_string(i), e);
      break;
    }
  }
  std::ostringstream note;
  note << tag << ": delta " << net.stage_delta(0) << ", exits";
  for (std::uint64_t e : a.exits) note << ' ' << e;
  note << ", cascade acc " << 100.0 * static_cast<double>(cascade_correct) / n
       << " %, baseline acc " << 100.0 * static_cast<double>(baseline_correct) / n
       << " %, ops/img " << a.mean_ops << ", pJ/img " << a.mean_pj;
  out.notes.push_back(note.str());
  return a;
}

/// Workload-wide checks and the exact count metrics from per-variant analyses.
void finish_counts(const Setup& s, const std::vector<Analysis>& an,
                   const std::string& workload, Outcome& out,
                   std::vector<Metric>& layer) {
  double ops = 0.0, pj = 0.0;
  for (std::size_t v = 0; v < an.size(); ++v) {
    ops += an[v].mean_ops;
    pj += an[v].mean_pj;
    const bool hard = workload == "batch-hard";
    fail_if(out, s.variants[v].tag + " exit mix",
            check_exit_mix(an[v].exits, hard ? 0.0 : 0.90, hard ? 0.5 : 0.0));
    std::uint64_t n = 0;
    for (std::uint64_t e : an[v].exits) n += e;
    std::uint64_t entering = n;
    for (std::size_t st = 0; st < an[v].exits.size(); ++st) {
      layer.push_back({"cdl." + s.variants[v].tag + ".s" + std::to_string(st) + ".entering",
                       1000.0 * static_cast<double>(entering) / static_cast<double>(n),
                       "per_1000"});
      entering -= an[v].exits[st];
    }
  }
  for (std::size_t v = 0; v + 1 < an.size(); v += 2) {
    fail_if(out, s.variants[v].tag + " vs int8",
            check_int8_cheaper(s.variants[v].exit_pj, an[v].mean_pj,
                               s.variants[v + 1].exit_pj, an[v + 1].mean_pj));
  }
  const auto nv = static_cast<double>(an.size());
  out.metrics.push_back({"ops_per_image", ops / nv, "ops/image"});
  out.metrics.push_back({"energy_uj_per_image", pj / nv * 1e-6, "uJ/image"});
}

// --- per-layer rows ---------------------------------------------------------

/// Per-variant accumulation of profiler rows by (stage, step): "conv" for the
/// stage's convolution block, "fc" for the dense layer, "gate" for the
/// stage-level classifier+gate or softmax+argmax.
struct StepTotals {
  std::uint64_t time_ns = 0, ops = 0, images = 0;
};
using StepTable = std::map<std::pair<std::int32_t, std::string>, StepTotals>;

void fold_rows(StepTable& table) {
  auto& prof = cdl::obs::LayerProfiler::instance();
  std::map<std::pair<std::int32_t, std::string>, StepTotals> trial;
  for (const cdl::obs::LayerProfileRow& r : prof.snapshot()) {
    if (r.stage < 0) continue;
    std::string step = "conv";
    if (r.layer == cdl::obs::kStageLevel) {
      step = "gate";
    } else if (r.name.find("dense") != std::string::npos) {
      step = "fc";
    }
    StepTotals& t = trial[{r.stage, step}];
    t.time_ns += r.time_ns;
    t.ops += r.ops;
    t.images = std::max(t.images, r.samples);  // rows of one step see the same images
  }
  for (const auto& [key, t] : trial) {
    StepTotals& acc = table[key];
    acc.time_ns += t.time_ns;
    acc.ops += t.ops;
    acc.images += t.images;
  }
  prof.clear();
}

/// `tables` may be empty (the workload cannot attribute rows to a variant):
/// every step then reads 0.
void step_metrics(const std::vector<std::string>& tags,
                  const std::vector<std::size_t>& num_stages,
                  const std::vector<StepTable>& tables, std::vector<Metric>& layer) {
  for (std::size_t v = 0; v < tags.size(); ++v) {
    const std::size_t stages = num_stages[v];
    for (std::size_t st = 0; st <= stages; ++st) {
      std::vector<std::string> steps = {"conv"};
      if (st == stages) steps.push_back("fc");
      steps.push_back("gate");
      for (const std::string& step : steps) {
        StepTotals t;
        if (v < tables.size()) {
          const auto it = tables[v].find({static_cast<std::int32_t>(st), step});
          if (it != tables[v].end()) t = it->second;
        }
        const std::string base = "nn." + tags[v] + ".s" + std::to_string(st) + "." + step;
        layer.push_back({base + ".ns_per_image",
                         t.images ? static_cast<double>(t.time_ns) / static_cast<double>(t.images) : 0.0,
                         "ns"});
        layer.push_back({base + ".gops",
                         t.time_ns ? static_cast<double>(t.ops) / static_cast<double>(t.time_ns) : 0.0,
                         "GOP/s"});
      }
    }
  }
}

// --- timed loops ------------------------------------------------------------

struct TimedRun {
  std::vector<TrialSeries> series;  ///< per variant, untraced rounds
  std::vector<double> round_ns[2];  ///< [traced] round durations
  std::vector<double> probe_ms;
  std::vector<StepTable> steps;     ///< per variant, traced rounds
  std::uint64_t calls = 0;
  std::uint64_t traced_calls = 0;
  std::uint64_t pool_dispatches = 0;  ///< parallel_for calls, traced rounds
  std::uint64_t pool_ns = 0;
  std::size_t max_threads = 0;
};

/// Rounds of one trial per variant (rotating the order), each followed by a
/// host probe, until `seconds` elapse. With `trace`, odd rounds run with the
/// profiler on.
template <typename TrialFn>
TimedRun timed_rounds(std::size_t variants, double seconds, bool trace,
                      TrialFn&& trial) {
  TimedRun run;
  run.series.resize(variants);
  run.steps.resize(variants);
  auto& prof = cdl::obs::LayerProfiler::instance();
  prof.clear();
  std::vector<double> call_ns;
  const auto start = Clock::now();
  for (std::size_t round = 0;; ++round) {
    const bool traced = trace && round % 2 == 1;
    double round_total = 0.0;
    for (std::size_t k = 0; k < variants; ++k) {
      const std::size_t v = (round + k) % variants;
      call_ns.clear();
      prof.set_enabled(traced);
      trial(v, call_ns);
      prof.set_enabled(false);
      run.probe_ms.push_back(host_probe_ms());
      if (traced) {
        const auto pf = prof.parallel_for_stats();
        run.pool_dispatches += pf.invocations;
        run.pool_ns += pf.time_ns;
        fold_rows(run.steps[v]);
        run.traced_calls += call_ns.size();
      } else {
        run.series[v].add_trial(call_ns);
      }
      for (double c : call_ns) round_total += c;
      run.calls += call_ns.size();
    }
    run.round_ns[traced ? 1 : 0].push_back(round_total);
    run.max_threads = std::max(run.max_threads, thread_count());
    if (seconds_between(start, Clock::now()) >= seconds && (!trace || traced)) break;
  }
  return run;
}

/// images_per_s: the images of one trial of every variant over the sum of
/// the variants' q-quantile trial times. latency_p50_ms: the mean over
/// variants of the median over inputs (batches, for batch calls) of each
/// one's q-quantile call time over trials. The median over trials goes to a
/// note.
void timing_metrics(const TimedRun& run, std::size_t images_per_trial, double q,
                    Outcome& out) {
  const auto nv = static_cast<double>(run.series.size());
  const auto images = nv * static_cast<double>(images_per_trial);
  auto at = [&](double quantile) {  // -> {images/s, latency p50 ms}
    double p50 = 0.0, trials = 0.0;
    for (const TrialSeries& ts : run.series) {
      p50 += ts.call_ns(0.50, quantile);
      trials += ts.trial_ns_at(quantile);
    }
    return std::pair{images / (trials * 1e-9), p50 / nv * 1e-6};
  };
  const auto [ips, p50] = at(q);
  out.metrics.push_back({"images_per_s", ips, "images/s"});
  out.metrics.push_back({"latency_p50_ms", p50, "ms"});
  const auto [ips_median, p50_median] = at(0.5);
  out.notes.push_back("median over trials: images/s " + std::to_string(ips_median) +
                      ", latency p50 ms " + std::to_string(p50_median));
}

/// Host probe, trace overhead and the step rows every traced pass reports.
/// Traced and untraced rounds are compared at the workload's quantile `q`.
void run_layer_metrics(const Setup& s, const TimedRun& run, double q,
                       std::vector<Metric>& layer) {
  std::vector<std::string> tags;
  std::vector<std::size_t> stages;
  for (const Variant& v : s.variants) {
    tags.push_back(v.tag);
    stages.push_back(v.net.num_stages());
  }
  step_metrics(tags, stages, run.steps, layer);
  layer.push_back({"host.ref_loop_ms", median(run.probe_ms), "ms"});
  const double traced = percentile(run.round_ns[1], q);
  const double plain = percentile(run.round_ns[0], q);
  layer.push_back({"obs.trace_overhead_pct",
                   traced > 0.0 && plain > 0.0 ? 100.0 * (traced / plain - 1.0) : 0.0, "%"});
}

// --- workloads --------------------------------------------------------------

std::vector<std::vector<cdl::Tensor>> split_batches(const cdl::Dataset& d,
                                                    std::size_t batch) {
  std::vector<std::vector<cdl::Tensor>> out;
  for (std::size_t i = 0; i < d.size(); i += batch) {
    std::vector<cdl::Tensor> b;
    for (std::size_t j = i; j < std::min(i + batch, d.size()); ++j) b.push_back(d.image(j));
    out.push_back(std::move(b));
  }
  return out;
}

bool same_decision(const cdl::ClassificationResult& a, const cdl::ClassificationResult& b) {
  return a.label == b.label && a.exit_stage == b.exit_stage && a.ops == b.ops;
}

void zero_metrics(std::vector<Metric>& layer,
                  std::initializer_list<std::pair<const char*, const char*>> names) {
  for (const auto& [name, unit] : names) layer.push_back({name, 0.0, unit});
}

constexpr std::initializer_list<std::pair<const char*, const char*>> kServeLayer = {
    {"serve.latency_ms.p99", "ms"},    {"serve.submit_us.p99", "us"},        {"serve.scrape_ms.p50", "ms"},
    {"serve.scrape_ms.max", "ms"},        {"serve.generator_late_ms.max", "ms"},
    {"serve.queue_ms.p50", "ms"},         {"serve.batch_wait_ms.p50", "ms"},
    {"serve.compute_ms.p50", "ms"},       {"serve.mean_batch", "requests"}};
constexpr std::initializer_list<std::pair<const char*, const char*>> kPoolLayer = {
    {"core.pool.dispatches_per_call", "count"}, {"core.pool.parallel_for_ms", "ms"}};

void check_threads(std::size_t seen, std::size_t limit, Outcome& out) {
  if (seen > limit || seen > std::thread::hardware_concurrency()) {
    out.failures.push_back("process ran " + std::to_string(seen) + " threads (limit " +
                           std::to_string(limit) + ")");
  }
}

/// The quantile over trials that the timed metrics report, per workload. A
/// shared host slows each vCPU in spells of a quarter second to minutes.
/// Every trial first pins the process's threads to the vCPUs in rotation, so
/// the trials sample every vCPU. A batch trial is fast only while all three
/// of its threads' vCPUs are; over two sets of ten runs its median was
/// steadier than its 20th percentile, which jumped between a fast and a slow
/// mode from run to run. A stream trial runs on one vCPU and a run holds
/// about 200 per variant: even when most of the host is slow some trials are
/// not, and the fastest one is the steadiest.
constexpr double kBatchQuantile = 0.5;
constexpr double kStreamQuantile = 0.0;

void run_batch(const Options& o, const Sizes& sz, Setup& s,
               Outcome& out, std::vector<Metric>& layer) {
  cdl::ThreadPool pool(2);  // + the calling thread = 3 threads
  const auto batches = split_batches(s.inputs, sz.batch);
  std::vector<cdl::BatchWorkspace> ws(s.variants.size());
  out.metrics.push_back({"setup_s", seconds_between(s.process_start, Clock::now()), "s"});

  // Reference pass: warms every workspace and yields the exact counts.
  std::vector<std::vector<cdl::ClassificationResult>> ref(s.variants.size());
  std::vector<cdl::ClassificationResult> res;
  for (std::size_t v = 0; v < s.variants.size(); ++v) {
    for (const auto& b : batches) {
      s.variants[v].net.classify_batch_into(b, res, ws[v], &pool);
      ref[v].insert(ref[v].end(), res.begin(), res.end());
    }
  }

  std::size_t trials = 0;
  std::size_t mismatches = 0;
  const TimedRun run = timed_rounds(
      s.variants.size(), o.seconds, o.trace, [&](std::size_t v, std::vector<double>& calls) {
        pin_threads(trials++);
        for (std::size_t b = 0; b < batches.size(); ++b) {
          const auto c0 = Clock::now();
          s.variants[v].net.classify_batch_into(batches[b], res, ws[v], &pool);
          calls.push_back(ns_between(c0, Clock::now()));
          for (std::size_t i = 0; i < res.size(); ++i) {
            if (!same_decision(res[i], ref[v][b * sz.batch + i])) ++mismatches;
          }
        }
      });
  unpin();
  if (mismatches != 0) {
    out.failures.push_back("measured calls disagree with the reference pass on " +
                           std::to_string(mismatches) + " images");
  }
  check_threads(run.max_threads, 3, out);
  out.attempted = run.calls;
  timing_metrics(run, s.inputs.size(), kBatchQuantile, out);

  std::vector<Analysis> an;
  for (std::size_t v = 0; v < s.variants.size(); ++v) {
    const Variant& var = s.variants[v];
    an.push_back(analyze(var.tag, var.net, var.exit_pj, var.exit_ops, ref[v], s.inputs, sz, out));
  }
  finish_counts(s, an, o.workload, out, layer);
  run_layer_metrics(s, run, kBatchQuantile, layer);
  const double calls = static_cast<double>(std::max<std::uint64_t>(1, run.traced_calls));
  layer.push_back({"core.pool.dispatches_per_call",
                   static_cast<double>(run.pool_dispatches) / calls, "count"});
  layer.push_back({"core.pool.parallel_for_ms",
                   static_cast<double>(run.pool_ns) * 1e-6 / calls, "ms"});
  zero_metrics(layer, {{"cdl.classify.us_per_image", "us"}});
  zero_metrics(layer, kServeLayer);
}

void run_stream(const Options& o, const Sizes& sz, Setup& s,
                Outcome& out, std::vector<Metric>& layer) {
  out.metrics.push_back({"setup_s", seconds_between(s.process_start, Clock::now()), "s"});
  std::vector<std::vector<cdl::ClassificationResult>> ref(s.variants.size());
  for (std::size_t v = 0; v < s.variants.size(); ++v) {
    for (std::size_t i = 0; i < s.inputs.size(); ++i) {
      ref[v].push_back(s.variants[v].net.classify(s.inputs.image(i)));
    }
  }
  std::size_t trials = 0;
  std::size_t mismatches = 0;
  const TimedRun run = timed_rounds(
      s.variants.size(), o.seconds, o.trace, [&](std::size_t v, std::vector<double>& calls) {
        pin_threads(trials++);
        const cdl::ConditionalNetwork& net = s.variants[v].net;
        for (std::size_t i = 0; i < s.inputs.size(); ++i) {
          const auto c0 = Clock::now();
          const cdl::ClassificationResult r = net.classify(s.inputs.image(i));
          calls.push_back(ns_between(c0, Clock::now()));
          if (!same_decision(r, ref[v][i])) ++mismatches;
        }
      });
  unpin();
  if (mismatches != 0) {
    out.failures.push_back("measured calls disagree with the reference pass on " +
                           std::to_string(mismatches) + " images");
  }
  check_threads(run.max_threads, 1, out);
  out.attempted = run.calls;
  timing_metrics(run, s.inputs.size(), kStreamQuantile, out);

  // Per-image results must equal the batched path on the same inputs.
  std::vector<Analysis> an;
  for (std::size_t v = 0; v < s.variants.size(); ++v) {
    const auto batched = s.variants[v].net.classify_batch(s.inputs.images(), nullptr);
    for (std::size_t i = 0; i < batched.size(); ++i) {
      const std::string e = check_identical(batched[i], ref[v][i]);
      if (!e.empty()) {
        fail_if(out, s.variants[v].tag + " classify() vs batched on input " + std::to_string(i), e);
        break;
      }
    }
    const Variant& var = s.variants[v];
    an.push_back(analyze(var.tag, var.net, var.exit_pj, var.exit_ops, ref[v], s.inputs, sz, out));
  }
  finish_counts(s, an, o.workload, out, layer);
  run_layer_metrics(s, run, kStreamQuantile, layer);
  zero_metrics(layer, kPoolLayer);
  // Timed around the public call, over the untraced rounds.
  double us = 0.0;
  for (const TrialSeries& ts : run.series) us += ts.call_ns(0.50, kStreamQuantile) * 1e-3;
  layer.push_back({"cdl.classify.us_per_image", us / static_cast<double>(s.variants.size()), "us"});
  zero_metrics(layer, kServeLayer);
}

struct Served {
  std::future<cdl::serve::Response> response;
  std::uint64_t due_ns = 0;
  std::uint64_t late_ns = 0;  ///< submit time - due time (engine clock)
  std::uint32_t model = 0;
  std::uint32_t image = 0;
};

void run_serve(const Options& o, const Sizes& sz, Setup& s,
               Outcome& out, std::vector<Metric>& layer) {
  namespace sv = cdl::serve;
  const std::size_t nv = s.variants.size();
  std::vector<std::string> tags;
  std::vector<std::vector<double>> exit_pj;
  std::vector<std::vector<std::uint64_t>> exit_ops;
  std::vector<std::vector<float>> deltas;
  std::vector<std::size_t> num_stages;
  cdl::obs::Registry registry;
  sv::ModelRegistry models;
  for (Variant& v : s.variants) {
    tags.push_back(v.tag);
    exit_pj.push_back(v.exit_pj);
    exit_ops.push_back(v.exit_ops);
    deltas.push_back(stage_deltas(v.net));
    num_stages.push_back(v.net.num_stages());
    (void)models.add(v.tag, std::move(v.net));
  }
  sv::EngineConfig config;
  config.workers = 2;  // + generator + scraper = 4 threads
  config.registry = &registry;
  config.queue_capacity = 1 << 16;  // never the limit at this rate: no rejections
  sv::ServingEngine engine(std::move(models), config);
  out.metrics.push_back({"setup_s", seconds_between(s.process_start, Clock::now()), "s"});

  // Offline oracle for every (model, image), then a short warm-up.
  std::vector<std::vector<cdl::ClassificationResult>> ref(nv);
  for (std::size_t m = 0; m < nv; ++m) {
    ref[m] = engine.models().net(m).classify_batch(s.inputs.images(), nullptr);
  }
  {
    std::vector<std::future<sv::Response>> warm;
    for (std::size_t i = 0; i < 64 * nv; ++i) {
      warm.push_back(engine.submit(i % nv, cdl::Tensor(s.inputs.image(i % s.inputs.size()))).response);
    }
    for (auto& f : warm) (void)f.get();
  }

  // Poisson schedule: whole rounds of one request per model.
  const std::size_t n = std::max<std::size_t>(
      nv, static_cast<std::size_t>(sz.serve_rate * o.seconds) / nv * nv);
  std::mt19937_64 rng(mix(o.seed, 3));
  std::exponential_distribution<double> gap(sz.serve_rate);
  std::uniform_int_distribution<std::size_t> pick(0, s.inputs.size() - 1);
  std::vector<std::uint64_t> offset_ns(n);
  std::vector<std::uint32_t> image(n);
  double t = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    t += gap(rng);
    offset_ns[k] = static_cast<std::uint64_t>(t * 1e9);
    image[k] = static_cast<std::uint32_t>(pick(rng));
  }
  std::vector<double> latency_ms(n), submit_us(n);
  std::vector<double> compute_ms[2];
  compute_ms[0].reserve(n);
  compute_ms[1].reserve(n);

  // Scraper: reads the live state as /report and /metrics do.
  std::atomic<bool> stop{false};
  std::vector<double> scrape_ms, probe_ms;
  std::atomic<std::uint64_t> scrape_errors{0};
  std::size_t max_threads = 0;
  std::thread scraper([&] {
    const auto period = std::chrono::duration<double>(1.0 / sz.scrape_hz);
    auto next = Clock::now();
    while (!stop.load()) {
      next += std::chrono::duration_cast<Clock::duration>(period);
      std::this_thread::sleep_until(next);
      if (stop.load()) break;
      const auto c0 = Clock::now();
      if (engine.slo().summaries().size() != nv) scrape_errors.fetch_add(1);
      std::ostringstream os;
      engine.slo().write_openmetrics(os);
      if (os.str().find("cdl_serve_requests_total") == std::string::npos) {
        scrape_errors.fetch_add(1);
      }
      scrape_ms.push_back(ns_between(c0, Clock::now()) * 1e-6);
      probe_ms.push_back(host_probe_ms());
      max_threads = std::max(max_threads, thread_count());
    }
  });
  struct JoinOnExit {  // the scraper reads the engine: join it on every path
    std::atomic<bool>& stop;
    std::thread& thread;
    ~JoinOnExit() {
      stop.store(true);
      if (thread.joinable()) thread.join();
    }
  } join_scraper{stop, scraper};

  auto& prof = cdl::obs::LayerProfiler::instance();
  prof.clear();
  std::uint64_t failed = 0, completed = 0, mismatches = 0, last_done_ns = 0;
  std::vector<std::vector<std::uint64_t>> exits(nv);
  std::vector<double> ops_sum(nv, 0.0), pj_sum(nv, 0.0);
  std::vector<std::uint64_t> served(nv, 0), ops_seen(nv, 0), ops_expected(nv, 0);
  std::vector<std::string> conf_error(nv);
  for (std::size_t m = 0; m < nv; ++m) exits[m].assign(exit_pj[m].size(), 0);
  double late_max_ms = 0.0;
  constexpr std::uint64_t kTraceBlockNs = 500'000'000;  // traced/untraced halves

  std::deque<Served> pending;
  const std::uint64_t start_ns = engine.clock().now_ns() + 2'000'000;
  auto settle = [&](Served& p) {
    const sv::Response r = p.response.get();
    if (r.status != sv::RequestStatus::kOk) {
      ++failed;
      return;
    }
    // The engine stamps arrival on entry to submit(), where late_ns was
    // read, so late_ns + latency_ns runs from the due time to completion.
    latency_ms[completed] = static_cast<double>(p.late_ns + r.latency_ns) * 1e-6;
    last_done_ns = std::max(last_done_ns, p.due_ns + p.late_ns + r.latency_ns);
    ++completed;
    const cdl::ClassificationResult& want = ref[p.model][p.image];
    if (!check_identical(r.result, want).empty()) ++mismatches;
    const std::size_t m = p.model;
    ++served[m];
    ++exits[m].at(r.result.exit_stage);
    ops_sum[m] += static_cast<double>(r.result.ops.total_compute());
    ops_seen[m] += r.result.ops.total_compute();
    ops_expected[m] += exit_ops[m].at(r.result.exit_stage);
    pj_sum[m] += r.energy_pj;
    if (r.result.exit_stage < deltas[m].size() &&
        !(r.result.confidence >= deltas[m][r.result.exit_stage]) && conf_error[m].empty()) {
      conf_error[m] = "served early exit below its stage delta";
    }
    compute_ms[o.trace && ((p.due_ns - start_ns) / kTraceBlockNs) % 2 == 1 ? 1 : 0].push_back(
        static_cast<double>(r.compute_ns) * 1e-6);
  };

  for (std::size_t k = 0; k < n; ++k) {
    const std::uint64_t due = start_ns + offset_ns[k];
    if (o.trace) prof.set_enabled((offset_ns[k] / kTraceBlockNs) % 2 == 1);
    std::uint64_t now = engine.clock().now_ns();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      now = engine.clock().now_ns();
    }
    late_max_ms = std::max(late_max_ms, static_cast<double>(now - due) * 1e-6);
    const auto c0 = Clock::now();
    sv::Submitted sub = engine.submit(k % nv, cdl::Tensor(s.inputs.image(image[k])));
    submit_us[k] = ns_between(c0, Clock::now()) * 1e-3;
    if (sub.status != sv::SubmitStatus::kAccepted) ++failed;
    pending.push_back({std::move(sub.response), due, now - due,
                       static_cast<std::uint32_t>(k % nv), image[k]});
    while (!pending.empty() &&
           pending.front().response.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      settle(pending.front());
      pending.pop_front();
    }
  }
  prof.set_enabled(false);
  engine.shutdown();  // drains everything accepted
  for (Served& p : pending) settle(p);
  pending.clear();
  stop.store(true);
  scraper.join();

  out.attempted = n;
  out.failed = failed;
  if (mismatches != 0) {
    out.failures.push_back(std::to_string(mismatches) +
                           " served responses differ from offline inference");
  }
  check_threads(max_threads, 4, out);
  if (scrape_errors.load() != 0) out.failures.push_back("a scrape returned incomplete state");
  const double window_s = static_cast<double>(last_done_ns - start_ns) * 1e-9;
  latency_ms.resize(completed);
  out.metrics.push_back({"images_per_s", static_cast<double>(completed) / window_s, "images/s"});
  out.metrics.push_back({"latency_p50_ms", percentile(latency_ms, 0.50), "ms"});

  // Exact counts and the served-result checks, per model.
  std::vector<Analysis> an(nv);
  for (std::size_t m = 0; m < nv; ++m) {
    an[m].exits = exits[m];
    const auto cnt = static_cast<double>(std::max<std::uint64_t>(1, served[m]));
    an[m].mean_ops = ops_sum[m] / cnt;
    an[m].mean_pj = pj_sum[m] / cnt;
    if (ops_seen[m] != ops_expected[m]) {
      out.failures.push_back(tags[m] + " served ops " + std::to_string(ops_seen[m]) +
                             " != shape-derived " + std::to_string(ops_expected[m]));
    }
    fail_if(out, tags[m] + " exit confidence", conf_error[m]);
    fail_if(out, tags[m] + " energy", check_energy(an[m].mean_pj, exit_pj[m]));
  }
  // Offline checks on the oracle results (accuracy, batched vs classify()).
  for (std::size_t m = 0; m < nv; ++m) {
    (void)analyze(tags[m], engine.models().net(m), exit_pj[m], exit_ops[m], ref[m],
                  s.inputs, sz, out);
  }
  finish_counts(s, an, o.workload, out, layer);

  const std::vector<sv::SloSummary> slo = engine.slo().summaries();
  double q = 0.0, b = 0.0, c = 0.0, mb = 0.0;
  for (const sv::SloSummary& x : slo) {
    q += x.queue_p50_ms;
    b += x.batch_p50_ms;
    c += x.compute_p50_ms;
    mb += x.mean_batch;
  }
  const auto ns = static_cast<double>(slo.size());
  // The engine runs all four models on the same workers, so profiler rows
  // cannot be told apart by model: the nn.* rows come from the other workloads.
  step_metrics(tags, num_stages, {}, layer);
  zero_metrics(layer, kPoolLayer);
  zero_metrics(layer, {{"cdl.classify.us_per_image", "us"}});
  std::vector<Metric> serve_layer = {
      {"serve.latency_ms.p99", percentile(latency_ms, 0.99), "ms"},
      {"serve.submit_us.p99", percentile(submit_us, 0.99), "us"},
      {"serve.scrape_ms.p50", percentile(scrape_ms, 0.50), "ms"},
      {"serve.scrape_ms.max", percentile(scrape_ms, 1.0), "ms"},
      {"serve.generator_late_ms.max", late_max_ms, "ms"},
      {"serve.queue_ms.p50", q / ns, "ms"},
      {"serve.batch_wait_ms.p50", b / ns, "ms"},
      {"serve.compute_ms.p50", c / ns, "ms"},
      {"serve.mean_batch", mb / ns, "requests"}};
  layer.insert(layer.end(), serve_layer.begin(), serve_layer.end());
  const double traced = median(compute_ms[1]);
  const double plain = median(compute_ms[0]);
  layer.push_back({"host.ref_loop_ms", median(probe_ms), "ms"});
  layer.push_back({"obs.trace_overhead_pct",
                   traced > 0.0 && plain > 0.0 ? 100.0 * (traced / plain - 1.0) : 0.0, "%"});
  out.notes.push_back("served " + std::to_string(completed) + " of " + std::to_string(n) +
                      ", scrapes " + std::to_string(scrape_ms.size()) + ", window " +
                      std::to_string(window_s) + " s");
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"batch-paper", "batch-hard",
                                                 "stream-single", "serve-scraped"};
  return names;
}

Outcome run_workload(const Options& o, Clock::time_point process_start) {
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), o.workload) == names.end()) {
    throw std::invalid_argument("unknown workload '" + o.workload + "'");
  }
  const Sizes sz = sizes_for(o.smoke);
  Outcome out;
  Setup s = build_setup(o, sz, process_start);
  std::vector<Metric> layer = s.layer;
  out.notes.push_back("inputs: " + std::to_string(s.inputs.size()) + " images, digest " +
                      std::to_string(digest(s.inputs.images())));
  if (o.workload == "batch-paper" || o.workload == "batch-hard") {
    run_batch(o, sz, s, out, layer);
  } else if (o.workload == "stream-single") {
    run_stream(o, sz, s, out, layer);
  } else {
    run_serve(o, sz, s, out, layer);
  }
  for (const Metric& m : layer) {
    if (m.name == "host.ref_loop_ms") out.notes.push_back(m.name + " " + std::to_string(m.value));
  }
  out.metrics.push_back({"peak_rss_mb", peak_rss_mib(), "MiB"});
  if (o.trace) out.metrics = layer;
  return out;
}

}  // namespace cdlbench
