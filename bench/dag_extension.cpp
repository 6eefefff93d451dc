/// \file dag_extension.cpp
/// Extension bench (E16): the paper's footnote 2 anticipates DAG-structured
/// strings in the final ARMS program.  This bench exercises the DAG module:
///
///   * equivalence check — chain workloads allocated by the DAG module match
///     the linear pipeline's MWF worth; any mismatch ("NO" row) makes the
///     program exit 1;
///   * DAG workloads — allocation statistics on random fork/join graphs, and
///     how much latency headroom the critical-path analysis recovers versus
///     the (pessimistic) chain-sum bound a linear analysis would impose.

#include <algorithm>
#include <cstdio>

#include "analysis/estimates.hpp"
#include "core/ordered.hpp"
#include "dag/allocator.hpp"
#include "dag/generator.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/generator.hpp"

int main(int argc, char** argv) {
  using namespace tsce;
  std::int64_t machines = 6;
  std::int64_t strings = 12;
  std::int64_t runs = 5;
  std::int64_t seed = 61;
  bool csv = false;
  util::Flags flags(
      "dag_extension — DAG-structured strings: chain equivalence plus "
      "fork/join allocation statistics");
  flags.add("machines", &machines, "machine count M");
  flags.add("strings", &strings, "string count Q");
  flags.add("runs", &runs, "instances");
  flags.add("seed", &seed, "base RNG seed");
  flags.add("csv", &csv, "emit CSV");
  if (!flags.parse(argc, argv)) return 0;

  // Part 1: chains through both analyses.
  std::printf("== Part 1: chain workloads, linear vs DAG module ==\n\n");
  util::Table equiv({"run", "linear MWF worth", "DAG MWF worth", "match"});
  util::Rng master(static_cast<std::uint64_t>(seed));
  int mismatches = 0;
  for (std::int64_t run = 0; run < runs; ++run) {
    util::Rng rng = master.spawn();
    auto config =
        workload::GeneratorConfig::for_scenario(workload::Scenario::kHighlyLoaded);
    config.num_machines = static_cast<std::size_t>(machines);
    config.num_strings = static_cast<std::size_t>(strings);
    const model::SystemModel linear = workload::generate(config, rng);
    util::Rng r(1);
    const auto lin = core::MostWorthFirst{}.allocate(linear, r);
    const auto dag_result = dag::allocate_most_worth_first(dag::lift(linear));
    const bool match = lin.fitness.total_worth == dag_result.fitness.total_worth;
    if (!match) ++mismatches;
    equiv.add_row({std::to_string(run), std::to_string(lin.fitness.total_worth),
                   std::to_string(dag_result.fitness.total_worth),
                   match ? "yes" : "NO"});
  }
  if (csv) {
    equiv.print_csv();
  } else {
    equiv.print();
  }

  // Part 2: genuine DAG workloads.
  std::printf("\n== Part 2: fork/join DAG workloads ==\n\n");
  util::Table dag_table({"run", "worth deployed", "strings deployed", "slackness",
                         "critical-path / chain-sum latency"});
  util::RunningStats ratio_stats;
  for (std::int64_t run = 0; run < runs; ++run) {
    util::Rng rng = master.spawn();
    dag::DagGeneratorConfig config;
    config.num_machines = static_cast<std::size_t>(machines);
    config.num_strings = static_cast<std::size_t>(strings);
    const dag::DagSystemModel m = dag::generate_dag_system(config, rng);
    const auto result = dag::allocate_most_worth_first(m);

    // Critical-path vs chain-sum latency over deployed strings.
    const auto est = analysis::estimate_all(m, result.allocation);
    util::RunningStats ratio;
    for (std::size_t k = 0; k < m.num_strings(); ++k) {
      if (!result.allocation.deployed(static_cast<model::StringId>(k))) continue;
      double chain_sum = 0.0;
      for (const double c : est.comp[k]) chain_sum += c;
      for (const double t : est.tran[k]) chain_sum += t;
      const double critical = est.latency(static_cast<model::StringId>(k));
      if (chain_sum > 0.0) ratio.add(critical / chain_sum);
    }
    ratio_stats.merge(ratio);
    dag_table.add_row(
        {std::to_string(run), std::to_string(result.fitness.total_worth),
         std::to_string(result.strings_deployed) + "/" + std::to_string(strings),
         util::Table::num(result.fitness.slackness, 3),
         util::format_mean_ci(ratio, 2)});
  }
  if (csv) {
    dag_table.print_csv();
  } else {
    dag_table.print();
  }
  std::printf("\nMean critical-path/chain-sum ratio %.2f: the DAG analysis "
              "recovers the latency headroom a chain-sum bound would waste on "
              "parallel branches.\n",
              ratio_stats.mean());
  if (mismatches > 0) {
    std::fprintf(stderr,
                 "error: %d chain run(s) differ in worth between the linear and "
                 "DAG pipelines\n",
                 mismatches);
    return 1;
  }
  return 0;
}
