#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "core/baselines.hpp"
#include "core/ordered.hpp"
#include "obs/exporter.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace tsce::bench {

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* scenario_name(workload::Scenario s) {
  switch (s) {
    case workload::Scenario::kHighlyLoaded: return "highly_loaded";
    case workload::Scenario::kQosLimited: return "qos_limited";
    case workload::Scenario::kLightlyLoaded: return "lightly_loaded";
  }
  return "unknown";
}

}  // namespace

void ScenarioBenchConfig::register_flags(util::Flags& flags) {
  flags.add("machines", &machines, "machine count M");
  flags.add("strings", &strings, "string count Q");
  flags.add("runs", &runs, "Monte-Carlo simulation runs");
  flags.add("seed", &seed, "base RNG seed");
  flags.add("ub", &with_upper_bound, "compute the LP upper bound per run");
  flags.add("csv", &csv, "emit CSV instead of an aligned table");
  flags.add("psg-population", &psg_population, "PSG population size");
  flags.add("psg-iterations", &psg_iterations, "PSG iteration budget");
  flags.add("psg-stagnation", &psg_stagnation, "PSG stagnation limit");
  flags.add("psg-trials", &psg_trials, "PSG independent trials per run");
  flags.add("threads", &threads, "worker threads for Monte-Carlo runs (0 = all cores)");
  flags.add("trace", &trace_path, "write span/event JSONL trace to this path");
  flags.add("metrics", &metrics_path, "write a metrics snapshot JSON to this path");
  flags.add("json", &json_path, "write the result series JSON to this path");
  flags.add("metrics-series", &metrics_series_path,
            "sample the metrics registry into a JSONL time series at this path");
  flags.add("metrics-period-ms", &metrics_period_ms,
            "sampling period for --metrics-series");
  flags.add("fr-decode-watermark-ns", &fr_decode_watermark_ns,
            "decode latency (ns) above which the recorder rings are written "
            "into the --trace file (0 = off)");
}

void ScenarioBenchConfig::apply_full_scale(workload::Scenario s) {
  scenario = s;
  machines = 12;
  strings = s == workload::Scenario::kLightlyLoaded ? 25 : 150;
  runs = 100;
  psg_population = 250;
  psg_iterations = 5000;
  psg_stagnation = 300;
  psg_trials = 4;
}

obs::RunInfo ScenarioBenchConfig::run_info() const {
  obs::RunInfo info = obs::RunInfo::current();
  info.seed = static_cast<std::uint64_t>(seed);
  info.threads = threads <= 0 ? std::thread::hardware_concurrency()
                              : static_cast<std::size_t>(threads);
  info.set_param("scenario", scenario_name(scenario));
  info.set_param("machines", machines);
  info.set_param("strings", strings);
  info.set_param("runs", runs);
  info.set_param("psg_population", psg_population);
  info.set_param("psg_iterations", psg_iterations);
  info.set_param("psg_stagnation", psg_stagnation);
  info.set_param("psg_trials", psg_trials);
  return info;
}

core::PsgOptions ScenarioBenchConfig::psg_options() const {
  core::PsgOptions options;
  options.ga.population_size = static_cast<std::size_t>(psg_population);
  options.ga.max_iterations = static_cast<std::size_t>(psg_iterations);
  options.ga.stagnation_limit = static_cast<std::size_t>(psg_stagnation);
  options.ga.bias = 1.6;
  options.trials = static_cast<std::size_t>(psg_trials);
  return options;
}

std::vector<core::AllocatorPtr> paper_allocators(const core::PsgOptions& psg) {
  std::vector<core::AllocatorPtr> allocators;
  allocators.push_back(std::make_unique<core::Psg>(psg));
  allocators.push_back(std::make_unique<core::MostWorthFirst>());
  allocators.push_back(std::make_unique<core::TightestFirst>());
  allocators.push_back(std::make_unique<core::SeededPsg>(psg));
  return allocators;
}

ScenarioBenchResult run_scenario_bench(const ScenarioBenchConfig& config,
                                       bool slackness_metric) {
  bool tracing = false;
  if (!config.trace_path.empty()) {
    tracing = obs::trace_open(config.trace_path, config.run_info());
    if (tracing) {
      obs::trace_install_signal_trigger();
    } else {
      std::fprintf(stderr, "warning: could not open trace '%s'\n",
                   config.trace_path.c_str());
    }
  }
  if (!config.metrics_path.empty()) util::ThreadPool::set_timing(true);
  if (config.fr_decode_watermark_ns > 0) {
    obs::fr_set_decode_watermark_ns(
        static_cast<std::uint64_t>(config.fr_decode_watermark_ns));
  }

  std::unique_ptr<obs::MetricsExporter> exporter;
  if (!config.metrics_series_path.empty()) {
    obs::MetricsExporterConfig ex;
    ex.path = config.metrics_series_path;
    ex.period_ms = static_cast<std::uint32_t>(
        std::max<std::int64_t>(1, config.metrics_period_ms));
    exporter = std::make_unique<obs::MetricsExporter>(ex);
    if (!exporter->start()) {
      std::fprintf(stderr, "warning: could not open metrics series '%s'\n",
                   config.metrics_series_path.c_str());
      exporter.reset();
    }
  }

  auto gen_config = workload::GeneratorConfig::for_scenario(config.scenario);
  gen_config.num_machines = static_cast<std::size_t>(config.machines);
  gen_config.num_strings = static_cast<std::size_t>(config.strings);

  const auto allocators = paper_allocators(config.psg_options());
  ScenarioBenchResult result;
  result.heuristics.resize(allocators.size());
  for (std::size_t h = 0; h < allocators.size(); ++h) {
    result.heuristics[h].name = allocators[h]->name();
  }
  result.upper_bound.name = "UB";

  // Every run's rng streams are spawned up front, in the exact order the
  // serial loop used to draw them, so the metric results are independent of
  // the thread count (and identical to the historical serial output).
  const auto runs = static_cast<std::size_t>(config.runs);
  util::Rng master(static_cast<std::uint64_t>(config.seed));
  struct RunPlan {
    util::Rng instance_rng;
    std::vector<util::Rng> search_rngs;
  };
  std::vector<RunPlan> plans(runs);
  for (RunPlan& plan : plans) {
    plan.instance_rng = master.spawn();
    plan.search_rngs.reserve(allocators.size());
    for (std::size_t h = 0; h < allocators.size(); ++h) {
      plan.search_rngs.push_back(master.spawn());
    }
  }

  struct RunOutcome {
    std::vector<double> metric;
    std::vector<double> seconds;
    double ub_value = 0.0;
    double ub_seconds = 0.0;
    lp::SolveStatus ub_status = lp::SolveStatus::kOptimal;
  };
  std::vector<RunOutcome> outcomes(runs);

  auto execute_run = [&](std::size_t run) {
    RunOutcome& out = outcomes[run];
    const model::SystemModel m =
        workload::generate(gen_config, plans[run].instance_rng);
    out.metric.resize(allocators.size());
    out.seconds.resize(allocators.size());
    for (std::size_t h = 0; h < allocators.size(); ++h) {
      obs::Span span(obs::names::kBenchAlloc, {{"phase", allocators[h]->name()},
                                     {"run", std::uint64_t{run}}});
      const double t0 = now_seconds();
      const auto alloc_result =
          allocators[h]->allocate(m, plans[run].search_rngs[h]);
      out.seconds[h] = now_seconds() - t0;
      out.metric[h] =
          slackness_metric ? alloc_result.fitness.slackness
                           : static_cast<double>(alloc_result.fitness.total_worth);
      span.add("metric", out.metric[h]);
      span.add("evaluations", static_cast<double>(alloc_result.evaluations));
    }
    if (config.with_upper_bound) {
      obs::Span span(obs::names::kBenchUb, {{"phase", "UB"}, {"run", std::uint64_t{run}}});
      // Monte-Carlo runs share one scenario shape, so one solver per worker
      // thread reuses the assembled LpProblem's buffers instead of rebuilding
      // the LP from scratch each run.  Warm starts stay OFF: chaining bases
      // across runs would make each solve's pivot path depend on which runs
      // a thread happened to execute, breaking the documented thread-count
      // independence of the harness metrics.
      thread_local lp::UpperBoundSolver ub_solver;
      const double t0 = now_seconds();
      const auto ub =
          slackness_metric ? ub_solver.slackness(m) : ub_solver.worth(m);
      out.ub_seconds = now_seconds() - t0;
      out.ub_status = ub.status;
      out.ub_value = ub.value;
      span.add("metric", out.ub_value);
    }
  };

  if (config.threads == 1 || runs <= 1) {
    for (std::size_t run = 0; run < runs; ++run) execute_run(run);
  } else {
    util::ThreadPool pool(config.threads <= 0
                              ? 0
                              : static_cast<std::size_t>(config.threads));
    pool.parallel_for(runs, execute_run);
  }

  // Fold per-run metrics serially, in run order, for thread-count-independent
  // statistics.
  for (std::size_t run = 0; run < runs; ++run) {
    const RunOutcome& out = outcomes[run];
    for (std::size_t h = 0; h < allocators.size(); ++h) {
      result.heuristics[h].seconds.add(out.seconds[h]);
      result.heuristics[h].metric.add(out.metric[h]);
    }
    if (config.with_upper_bound) {
      result.upper_bound.seconds.add(out.ub_seconds);
      if (out.ub_status == lp::SolveStatus::kOptimal) {
        result.upper_bound.metric.add(out.ub_value);
      } else {
        ++result.ub_failures;
        std::fprintf(stderr, "warning: run %lld UB LP: %s\n",
                     static_cast<long long>(run), lp::to_string(out.ub_status));
      }
    }
  }

  // Worker threads (if any) were joined when the pool left scope above, so
  // every thread buffer is quiescent here.
  if (tracing) obs::trace_close();
  if (exporter != nullptr) exporter->stop();
  if (!config.metrics_path.empty()) {
    util::Json doc = util::Json::object();
    doc.set("run_info", config.run_info().to_json());
    doc.set("metrics", obs::MetricsRegistry::instance().snapshot());
    util::write_json_file(config.metrics_path, doc);
  }
  return result;
}

util::Json scenario_bench_json(const ScenarioBenchConfig& config,
                               const ScenarioBenchResult& result,
                               const std::string& metric_name) {
  auto series_json = [](const HeuristicSeries& series) {
    util::Json j = util::Json::object();
    j.set("name", series.name);
    j.set("mean", series.metric.mean());
    j.set("ci95", series.metric.ci95_half_width());
    j.set("min", series.metric.min());
    j.set("max", series.metric.max());
    j.set("runs", series.metric.count());
    j.set("seconds_mean", series.seconds.mean());
    return j;
  };
  util::Json doc = util::Json::object();
  doc.set("run_info", config.run_info().to_json());
  doc.set("metric", metric_name);
  util::Json heuristics = util::Json::array();
  for (const HeuristicSeries& h : result.heuristics) {
    heuristics.push_back(series_json(h));
  }
  doc.set("heuristics", std::move(heuristics));
  if (config.with_upper_bound) {
    doc.set("upper_bound", series_json(result.upper_bound));
    doc.set("ub_failures", result.ub_failures);
  }
  return doc;
}

void print_scenario_table(const ScenarioBenchConfig& config,
                          const ScenarioBenchResult& result,
                          const std::string& metric_name, int decimals) {
  util::Table table({"heuristic", metric_name + " (mean \xC2\xB1 95% CI)",
                     "time/run [s]"});
  auto add = [&](const HeuristicSeries& series) {
    if (series.metric.count() == 0) return;
    table.add_row({series.name, util::format_mean_ci(series.metric, decimals),
                   util::Table::num(series.seconds.mean(), 3)});
  };
  for (const auto& h : result.heuristics) add(h);
  if (config.with_upper_bound) add(result.upper_bound);
  if (config.csv) {
    table.print_csv();
  } else {
    table.print();
  }
  if (result.ub_failures > 0) {
    std::printf("(UB failed on %zu run(s))\n", result.ub_failures);
  }
  if (!config.json_path.empty()) {
    util::write_json_file(config.json_path,
                          scenario_bench_json(config, result, metric_name));
  }
}

}  // namespace tsce::bench
