/// \file determinism_audit_test.cpp
/// Determinism auditor: the permutation searches must produce byte-identical
/// results at 1, 2, and 8 worker threads, and at 0 (hardware concurrency),
/// on every workload scenario.
///
/// This is the test the TSan tier runs — a data race that perturbs a fitness
/// value or an ordering shows up here as a trace mismatch even when it does
/// not crash.  Every comparison is on serialized strings: fitness doubles are
/// rendered as their exact bit patterns (std::bit_cast), so "close enough"
/// floating-point drift cannot hide schedule dependence.
///
/// Models are deliberately small (3 machines / 12 strings, reduced GA and
/// enumeration budgets): under ThreadSanitizer each decode is ~10x slower,
/// and the audit sweeps 3 scenarios x 4 thread counts x 4 search strategies
/// (GENITOR trace, PSG, tempering, exact branch split).  Tempering runs on
/// 24 strings: on 12, different random streams often reach the same best
/// order, so replicas drawing from one shared Rng passed the audit in about
/// half the runs; on 24 they failed it in 30 of 30 runs on a 4-core box.  Hill climb and the class-based
/// search have no thread option; they run on one thread.

#include <gtest/gtest.h>

#include <bit>
#include <csignal>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

#include "analysis/metrics.hpp"
#include "obs/exporter.hpp"
#include "obs/trace.hpp"
#include "core/exact.hpp"
#include "core/local_search.hpp"
#include "core/psg.hpp"
#include "genitor/genitor.hpp"
#include "workload/generator.hpp"

namespace tsce {
namespace {

using core::AllocatorResult;
using model::SystemModel;
using workload::Scenario;

constexpr Scenario kScenarios[] = {Scenario::kHighlyLoaded, Scenario::kQosLimited,
                                   Scenario::kLightlyLoaded};
constexpr std::size_t kThreadCounts[] = {1, 2, 8, 0};

/// Bit-exact rendering: worth plus the slackness double's raw bit pattern.
std::string fitness_key(const analysis::Fitness& f) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%d:%016llx", f.total_worth,
                static_cast<unsigned long long>(
                    std::bit_cast<std::uint64_t>(f.slackness)));
  return buf;
}

/// Full-result rendering: fitness, the winning order, and the evaluation
/// count (the latter catches budget-accounting schedule dependence).
std::string result_key(const AllocatorResult& result) {
  std::string key = fitness_key(result.fitness);
  key += " evals=" + std::to_string(result.evaluations) + " order=";
  for (const model::StringId id : result.order) {
    key += std::to_string(id);
    key += ',';
  }
  return key;
}

SystemModel audit_model(Scenario scenario, std::size_t strings = 12) {
  util::Rng rng(41u + static_cast<std::uint64_t>(scenario));
  auto config = workload::GeneratorConfig::for_scenario(scenario);
  config.num_machines = 3;
  config.num_strings = strings;
  return generate(config, rng);
}

/// GENITOR elite-fitness trace with batch evaluation at \p threads workers.
/// The observer fires at iteration 0 and on every elite improvement, so the
/// trace captures the whole convergence path, not just the final answer.
std::string ga_trace(const SystemModel& model, std::size_t threads) {
  const core::PermutationProblem problem(model, threads);
  genitor::Config config;
  config.population_size = 32;
  config.max_iterations = 200;
  config.stagnation_limit = 60;
  genitor::Genitor<core::PermutationProblem> ga(problem, config);
  util::Rng rng(99);
  std::string trace;
  const auto result =
      ga.run(rng, {}, [&](std::size_t iteration, const analysis::Fitness& elite) {
        trace += std::to_string(iteration) + '=' + fitness_key(elite) + '\n';
      });
  trace += "best=" + fitness_key(result.best_fitness) +
           " evals=" + std::to_string(result.evaluations);
  return trace;
}

std::string psg_result(const SystemModel& model, std::size_t threads) {
  core::PsgOptions options;
  options.ga.population_size = 24;
  options.ga.max_iterations = 120;
  options.ga.stagnation_limit = 40;
  options.trials = 2;
  options.eval_threads = threads;
  util::Rng rng(7);
  return result_key(core::SeededPsg(options).allocate(model, rng));
}

std::string annealing_result(const SystemModel& model, std::size_t threads) {
  core::AnnealingOptions options;
  options.iterations = 300;
  options.replicas = 4;
  options.threads = threads;
  util::Rng rng(23);
  return result_key(core::SimulatedAnnealing(options).allocate(model, rng));
}

std::string exact_result(const SystemModel& model, std::size_t threads) {
  core::ExactSearchOptions options;
  options.max_evaluations = 2500;  // budget-truncated: keeps TSan runs fast
  options.threads = threads;
  util::Rng rng(29);
  return result_key(core::ExactPermutationSearch(options).allocate(model, rng));
}

TEST(DeterminismAudit, GenitorEliteTraceIdenticalAcrossThreadCounts) {
  for (const Scenario scenario : kScenarios) {
    const SystemModel model = audit_model(scenario);
    const std::string baseline = ga_trace(model, kThreadCounts[0]);
    EXPECT_FALSE(baseline.empty());
    for (std::size_t i = 1; i < std::size(kThreadCounts); ++i) {
      EXPECT_EQ(baseline, ga_trace(model, kThreadCounts[i]))
          << "scenario " << static_cast<int>(scenario) << " at "
          << kThreadCounts[i] << " threads";
    }
  }
}

TEST(DeterminismAudit, PsgResultIdenticalAcrossThreadCounts) {
  for (const Scenario scenario : kScenarios) {
    const SystemModel model = audit_model(scenario);
    const std::string baseline = psg_result(model, kThreadCounts[0]);
    for (std::size_t i = 1; i < std::size(kThreadCounts); ++i) {
      EXPECT_EQ(baseline, psg_result(model, kThreadCounts[i]))
          << "scenario " << static_cast<int>(scenario) << " at "
          << kThreadCounts[i] << " threads";
    }
  }
}

TEST(DeterminismAudit, TemperingResultIdenticalAcrossThreadCounts) {
  for (const Scenario scenario : kScenarios) {
    const SystemModel model = audit_model(scenario, 24);
    const std::string baseline = annealing_result(model, kThreadCounts[0]);
    for (std::size_t i = 1; i < std::size(kThreadCounts); ++i) {
      EXPECT_EQ(baseline, annealing_result(model, kThreadCounts[i]))
          << "scenario " << static_cast<int>(scenario) << " at "
          << kThreadCounts[i] << " threads";
    }
  }
}

TEST(DeterminismAudit, ExactBranchSplitIdenticalAcrossThreadCounts) {
  for (const Scenario scenario : kScenarios) {
    const SystemModel model = audit_model(scenario);
    const std::string baseline = exact_result(model, kThreadCounts[0]);
    for (std::size_t i = 1; i < std::size(kThreadCounts); ++i) {
      EXPECT_EQ(baseline, exact_result(model, kThreadCounts[i]))
          << "scenario " << static_cast<int>(scenario) << " at "
          << kThreadCounts[i] << " threads";
    }
  }
}

TEST(DeterminismAudit, ResultsIdenticalWithObservabilityEnabled) {
  // The observability layer must be a pure observer: with a trace open, the
  // slow-decode watermark armed and the metrics exporter sampling on a tight
  // cadence in the background, search results stay byte-identical across
  // thread counts — latency histograms, rings and spans record wall-clock
  // values but nothing ever branches on them.
  const std::string trace_path = testing::TempDir() + "determinism_trace.jsonl";
  ASSERT_TRUE(obs::trace_open(trace_path, obs::RunInfo::current()));
  obs::trace_install_signal_trigger();
  obs::fr_set_decode_watermark_ns(1);  // every decode "slow": worst case

  obs::MetricsExporterConfig exporter_config;
  exporter_config.path = testing::TempDir() + "determinism_series.jsonl";
  exporter_config.period_ms = 5;
  obs::MetricsExporter exporter(exporter_config);
  ASSERT_TRUE(exporter.start());

  const SystemModel model = audit_model(Scenario::kHighlyLoaded);
  const std::string baseline = psg_result(model, kThreadCounts[0]);
  for (std::size_t i = 1; i < std::size(kThreadCounts); ++i) {
    // The exporter's next tick writes every ring while the workers record.
    std::raise(SIGUSR1);
    EXPECT_EQ(baseline, psg_result(model, kThreadCounts[i]))
        << "observability perturbed the search at " << kThreadCounts[i]
        << " threads";
  }

  exporter.stop();
  obs::trace_close();
  obs::fr_set_decode_watermark_ns(0);
  EXPECT_GE(exporter.samples(), 1u);
  std::remove(exporter_config.path.c_str());
  std::remove(trace_path.c_str());
}

}  // namespace
}  // namespace tsce
