/// \file micro_hotpaths.cpp
/// google-benchmark microbenchmarks of the library's hot paths: session
/// commits and rejections, IMR mapping, full permutation decode (the PSG inner loop),
/// eq. (5)-(6) estimation, the simplex, and the discrete-event simulator.

#include <benchmark/benchmark.h>

#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/estimates.hpp"
#include "dag/allocator.hpp"
#include "dag/generator.hpp"
#include "model/serialization.hpp"
#include "analysis/session.hpp"
#include "core/decode.hpp"
#include "core/evaluator.hpp"
#include "core/exact.hpp"
#include "core/imr.hpp"
#include "core/local_search.hpp"
#include "core/psg.hpp"
#include "lp/upper_bound.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "workload/generator.hpp"

namespace {

using namespace tsce;

model::SystemModel make_instance(std::size_t machines, std::size_t strings,
                                 std::uint64_t seed = 99) {
  util::Rng rng(seed);
  auto config =
      workload::GeneratorConfig::for_scenario(workload::Scenario::kHighlyLoaded);
  config.num_machines = machines;
  config.num_strings = strings;
  return workload::generate(config, rng);
}

void BM_ImrMapString(benchmark::State& state) {
  const auto m = make_instance(static_cast<std::size_t>(state.range(0)), 20);
  const analysis::UtilizationState util(m);
  std::size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::imr_map_string(m, util, static_cast<model::StringId>(k)));
    k = (k + 1) % m.num_strings();
  }
}
BENCHMARK(BM_ImrMapString)->Arg(4)->Arg(12);

void BM_DecodeOrder(benchmark::State& state) {
  const auto m =
      make_instance(6, static_cast<std::size_t>(state.range(0)));
  const auto order = core::identity_order(m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::decode_order(m, order));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m.num_strings()));
}
BENCHMARK(BM_DecodeOrder)->Arg(12)->Arg(24)->Arg(48);

/// Swap-neighborhood candidate stream (the hill-climb / PSG-mutation access
/// pattern): each candidate is one transposition away from the incumbent and
/// is rejected afterwards.  Decoded incrementally through one DecodeContext,
/// so only the divergent suffix is re-committed per candidate.
void BM_DecodePrefixReuse(benchmark::State& state) {
  const auto m = make_instance(6, static_cast<std::size_t>(state.range(0)));
  const std::size_t q = m.num_strings();
  auto order = core::identity_order(m);
  util::Rng shuffle_rng(5);
  shuffle_rng.shuffle(order);
  core::DecodeContext ctx(m);
  util::Rng rng(17);
  for (auto _ : state) {
    const std::size_t i = rng.bounded(q);
    std::size_t j = rng.bounded(q);
    while (j == i) j = rng.bounded(q);
    std::swap(order[i], order[j]);
    benchmark::DoNotOptimize(core::decode_order_into(ctx, order));
    std::swap(order[i], order[j]);  // reject the neighbor
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["reused/decode"] =
      static_cast<double>(ctx.strings_reused()) /
      static_cast<double>(ctx.decodes());
  state.counters["commits/decode"] =
      static_cast<double>(ctx.commits_attempted()) /
      static_cast<double>(ctx.decodes());
}
BENCHMARK(BM_DecodePrefixReuse)->Arg(32)->Arg(64)->Arg(128);

/// The same candidate stream decoded from scratch each time (the pre-engine
/// behavior): baseline for BM_DecodePrefixReuse.
void BM_DecodeFromScratch(benchmark::State& state) {
  const auto m = make_instance(6, static_cast<std::size_t>(state.range(0)));
  const std::size_t q = m.num_strings();
  auto order = core::identity_order(m);
  util::Rng shuffle_rng(5);
  shuffle_rng.shuffle(order);
  util::Rng rng(17);
  for (auto _ : state) {
    const std::size_t i = rng.bounded(q);
    std::size_t j = rng.bounded(q);
    while (j == i) j = rng.bounded(q);
    std::swap(order[i], order[j]);
    benchmark::DoNotOptimize(core::decode_order(m, order));
    std::swap(order[i], order[j]);  // reject the neighbor
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DecodeFromScratch)->Arg(32)->Arg(64)->Arg(128);

/// Cost of fanning a decoded prototype out to a replica via
/// clone_state_from (the tempering / BatchEvaluator stamping primitive):
/// memcpys of the session's snapshot image (the bytes counter) plus its undo
/// trail, commit stack and marks, allocation-free once the replica's buffers
/// are sized.  Arg = number of strings in the order decoded into the
/// prototype.
void BM_SnapshotClone(benchmark::State& state) {
  const auto m = make_instance(6, static_cast<std::size_t>(state.range(0)));
  auto order = core::identity_order(m);
  util::Rng shuffle_rng(5);
  shuffle_rng.shuffle(order);
  core::DecodeContext prototype(m);
  benchmark::DoNotOptimize(core::decode_order_into(prototype, order));
  core::DecodeContext replica(m);
  replica.clone_state_from(prototype);  // warm: size the replica's buffers
  for (auto _ : state) {
    replica.clone_state_from(prototype);
    benchmark::DoNotOptimize(replica.depth());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(prototype.state_bytes()));
  state.counters["depth"] = static_cast<double>(prototype.depth());
}
BENCHMARK(BM_SnapshotClone)->Arg(32)->Arg(64)->Arg(128);

/// Population-sized batch evaluation through BatchEvaluator (the GENITOR
/// initial-population path); Arg = worker threads.
void BM_BatchEvaluate(benchmark::State& state) {
  const auto m = make_instance(6, 48);
  std::vector<std::vector<model::StringId>> orders(
      32, core::identity_order(m));
  util::Rng rng(23);
  for (auto& o : orders) rng.shuffle(o);
  core::BatchEvaluator evaluator(m, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.evaluate_fitness(orders));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(orders.size()));
}
BENCHMARK(BM_BatchEvaluate)->Arg(1)->Arg(2);

/// Full parallel-tempering run (4 replicas) at a fixed decode budget;
/// Arg = AnnealingOptions::threads.  Same total Metropolis steps in every
/// variant, so the wall clock differences isolate pool overhead (at 1 core)
/// or speedup (at N).
void BM_AnnealTempering(benchmark::State& state) {
  const auto m = make_instance(6, 48);
  core::AnnealingOptions options;
  options.iterations = 4000;
  options.replicas = 4;
  options.threads = static_cast<std::size_t>(state.range(0));
  const core::SimulatedAnnealing search(options);
  std::size_t evaluations = 0;
  int worth = 0;
  for (auto _ : state) {
    util::Rng rng(31);
    const auto result = search.allocate(m, rng);
    evaluations += result.evaluations;
    worth = result.fitness.total_worth;
    benchmark::DoNotOptimize(result.fitness);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(evaluations));
  state.counters["worth"] = static_cast<double>(worth);
}
BENCHMARK(BM_AnnealTempering)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

/// One exact search (branch-and-bound over orderings, one thread, budget
/// that does not bind) on a scenario-1 instance; Args = (machines, strings,
/// generator seed).  edges counts the tree edges (string commits) of one
/// search; the per-Q table in ROADMAP item 5 comes from this benchmark.
void BM_ExactSearch(benchmark::State& state) {
  const auto m = make_instance(static_cast<std::size_t>(state.range(0)),
                               static_cast<std::size_t>(state.range(1)),
                               static_cast<std::uint64_t>(state.range(2)));
  const core::ExactPermutationSearch exact;
  std::size_t edges = 0;
  int worth = 0;
  for (auto _ : state) {
    util::Rng rng(1);
    const auto result = exact.allocate(m, rng);
    edges = result.evaluations;
    worth = result.fitness.total_worth;
    benchmark::DoNotOptimize(result.fitness);
  }
  state.counters["edges"] = static_cast<double>(edges);
  state.counters["worth"] = static_cast<double>(worth);
}
BENCHMARK(BM_ExactSearch)
    ->Apply([](benchmark::internal::Benchmark* b) {
      for (std::int64_t seed = 1; seed <= 3; ++seed) {
        b->Args({8, 8, seed});
        for (std::int64_t q = 7; q <= 10; ++q) b->Args({4, q, seed});
      }
    })
    ->Unit(benchmark::kMillisecond);

/// Registry counter total (0 before the first fold of that counter).
double registry_count(std::string_view name) {
  const util::Json snapshot = obs::MetricsRegistry::instance().snapshot();
  const util::Json& counters = snapshot.at("counters");
  return counters.contains(name) ? counters.at(name).as_number() : 0.0;
}

/// One fixed-budget PSG trial on an s1_loaded-shaped instance (M=6, Q=75,
/// scenario 1; GENITOR 250 / bias 1.6 / 1000 iterations, stagnation limit =
/// budget).  memo_hit_frac is the share of evaluations the decisive-prefix
/// memo answered without decoding (decode.memo_hits over hits + decodes).
void BM_GenitorFixedBudget(benchmark::State& state) {
  const auto m = make_instance(6, 75);
  core::PsgOptions options;
  options.ga.population_size = 250;
  options.ga.bias = 1.6;
  options.ga.max_iterations = 1000;
  options.ga.stagnation_limit = 1000;
  options.trials = 1;
  const core::Psg psg(options);
  const double hits0 = registry_count(obs::names::kDecodeMemoHits);
  const double calls0 = registry_count(obs::names::kDecodeCalls);
  std::size_t evaluations = 0;
  int worth = 0;
  for (auto _ : state) {
    util::Rng rng(2005);
    const auto result = psg.allocate(m, rng);
    evaluations += result.evaluations;
    worth = result.fitness.total_worth;
    benchmark::DoNotOptimize(result.fitness);
  }
  const double hits = registry_count(obs::names::kDecodeMemoHits) - hits0;
  const double calls = registry_count(obs::names::kDecodeCalls) - calls0;
  state.SetItemsProcessed(static_cast<std::int64_t>(evaluations));
  state.counters["worth"] = static_cast<double>(worth);
  state.counters["memo_hit_frac"] = hits + calls > 0 ? hits / (hits + calls) : 0.0;
}
BENCHMARK(BM_GenitorFixedBudget)->Unit(benchmark::kMillisecond);

/// Thread churn with no metrics activity: the baseline spawn/join cost that
/// BM_ThreadChurnShardRetirement is compared against.
void BM_ThreadChurnBaseline(benchmark::State& state) {
  for (auto _ : state) {
    std::thread worker([] {});
    worker.join();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ThreadChurnBaseline);

/// Thread churn where each short-lived thread touches one registry counter,
/// so its shard is folded-and-removed under the registry mutex on thread
/// exit.  The delta over BM_ThreadChurnBaseline is the full shard-retirement
/// cost (ROADMAP: decide whether the mutex needs replacing with a lock-free
/// list — see DESIGN.md for the recorded verdict).
void BM_ThreadChurnShardRetirement(benchmark::State& state) {
  for (auto _ : state) {
    std::thread worker([] {
      obs::MetricsRegistry::instance()
          .counter(obs::names::kBenchMicroCounter)
          .add(1);
    });
    worker.join();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ThreadChurnShardRetirement);

void BM_EstimateAll(benchmark::State& state) {
  const auto m = make_instance(6, static_cast<std::size_t>(state.range(0)));
  const auto decoded = core::decode_order(m, core::identity_order(m));
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::estimate_all(m, decoded.allocation));
  }
}
BENCHMARK(BM_EstimateAll)->Arg(12)->Arg(24);

/// Paper-shaped upper-bound LP (multi-app strings, full flow/route blocks);
/// Arg = strings.  Rows match the sparse column of BENCH_lp.json.
void BM_SimplexUpperBound(benchmark::State& state) {
  const auto m = make_instance(4, static_cast<std::size_t>(state.range(0)));
  lp::UpperBoundResult last;
  for (auto _ : state) {
    last = lp::upper_bound_worth(m);
    benchmark::DoNotOptimize(last);
  }
  state.SetLabel(lp::to_string(last.status));
  state.counters["rows"] = static_cast<double>(last.lp_rows);
  state.counters["cols"] = static_cast<double>(last.lp_cols);
  state.counters["iters"] = static_cast<double>(last.iterations);
  state.counters["refactors"] = static_cast<double>(last.refactorisations);
}
BENCHMARK(BM_SimplexUpperBound)->Arg(8)->Arg(16)->Arg(24)->Arg(32)
    ->Unit(benchmark::kMillisecond);

/// The simplex alone on one mid-size paper-shaped LP, reusing the assembled
/// problem (the UpperBoundSolver service path) so the measurement
/// isolates the solve itself.
void BM_SimplexSparse(benchmark::State& state) {
  const auto m = make_instance(6, static_cast<std::size_t>(state.range(0)));
  const lp::LpProblem problem = lp::build_upper_bound_lp(
      m, /*complete=*/false, lp::UbObjective::kTotalWorth);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lp::solve(problem));
  }
  state.counters["rows"] = static_cast<double>(problem.num_rows());
  state.counters["nnz"] = static_cast<double>(problem.num_nonzeros());
}
BENCHMARK(BM_SimplexSparse)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

/// UpperBoundSolver on the end-to-end benchmark's LPs: the first instance of
/// seed 2005 (bench/e2e/workloads.cpp), s1 the M=6, Q=75 worth bound of
/// s1_loaded and s3 the M=12, Q=25 slackness bound of s3_slack.
void BM_UpperBoundBenchShape(benchmark::State& state, workload::Scenario scenario,
                             std::size_t machines, std::size_t strings) {
  util::Rng master(2005);
  util::Rng rng = master.spawn();
  auto config = workload::GeneratorConfig::for_scenario(scenario);
  config.num_machines = machines;
  config.num_strings = strings;
  const auto m = workload::generate(config, rng);
  const bool complete = scenario == workload::Scenario::kLightlyLoaded;
  lp::UpperBoundSolver solver;
  lp::UpperBoundResult last;
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    last = complete ? solver.slackness(m) : solver.worth(m);
    benchmark::DoNotOptimize(last);
  }
  const std::chrono::duration<double, std::micro> elapsed =
      std::chrono::steady_clock::now() - t0;
  state.SetLabel(lp::to_string(last.status));
  state.counters["iters"] = static_cast<double>(last.iterations);
  state.counters["refactors"] = static_cast<double>(last.refactorisations);
  state.counters["us_per_iter"] =
      elapsed.count() / static_cast<double>(state.iterations() * last.iterations);
}
BENCHMARK_CAPTURE(BM_UpperBoundBenchShape, s1, workload::Scenario::kHighlyLoaded, 6, 75)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_UpperBoundBenchShape, s3, workload::Scenario::kLightlyLoaded, 12, 25)
    ->Unit(benchmark::kMillisecond);

/// Fleet-scale workload: hundreds of machines, thousands of single-app
/// strings (the TDM-client shape — no inter-app edges, so the route-capacity
/// block vanishes and the LP is Q deployment rows + M capacity rows).
model::SystemModel fleet_instance(std::size_t machines, std::size_t strings) {
  util::Rng rng(99);
  auto config =
      workload::GeneratorConfig::for_scenario(workload::Scenario::kHighlyLoaded);
  config.num_machines = machines;
  config.num_strings = strings;
  config.min_apps_per_string = 1;
  config.max_apps_per_string = 1;
  return workload::generate(config, rng);
}

void BM_UpperBoundFleet(benchmark::State& state) {
  const auto m = fleet_instance(static_cast<std::size_t>(state.range(0)),
                                static_cast<std::size_t>(state.range(1)));
  lp::UpperBoundSolver solver;  // reuse the assembled problem across runs
  lp::UpperBoundResult last;
  for (auto _ : state) {
    last = solver.worth(m);
    benchmark::DoNotOptimize(last);
  }
  state.SetLabel(lp::to_string(last.status));
  state.counters["rows"] = static_cast<double>(last.lp_rows);
  state.counters["cols"] = static_cast<double>(last.lp_cols);
  state.counters["iters"] = static_cast<double>(last.iterations);
  state.counters["refactors"] = static_cast<double>(last.refactorisations);
}
BENCHMARK(BM_UpperBoundFleet)
    ->Args({200, 2000})
    ->Args({400, 4000})
    ->Unit(benchmark::kMillisecond);

void BM_Simulate(benchmark::State& state) {
  const auto m = make_instance(6, 8, 123);
  const auto decoded = core::decode_order(m, core::identity_order(m));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::simulate(m, decoded.allocation, {.horizon_s = 200.0}));
  }
  state.SetLabel("200 simulated seconds");
}
BENCHMARK(BM_Simulate)->Unit(benchmark::kMillisecond);

void BM_DagMapString(benchmark::State& state) {
  util::Rng rng(7);
  dag::DagGeneratorConfig config;
  config.num_machines = static_cast<std::size_t>(state.range(0));
  config.num_strings = 12;
  const auto m = dag::generate_dag_system(config, rng);
  const analysis::Loads loads(m.num_machines());
  std::size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dag::dag_map_string(m, loads, static_cast<model::StringId>(k)));
    k = (k + 1) % m.num_strings();
  }
}
BENCHMARK(BM_DagMapString)->Arg(4)->Arg(12);

void BM_JsonModelRoundTrip(benchmark::State& state) {
  const auto m = make_instance(6, static_cast<std::size_t>(state.range(0)));
  const std::string text = model::to_json(m).dump();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model::system_model_from_json(util::Json::parse(text)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_JsonModelRoundTrip)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

/// Cost of one registry counter increment (the obs hot-path primitive): a
/// thread-local relaxed load+store, no lock, no RMW.
void BM_MetricsCounterAdd(benchmark::State& state) {
  auto& counter = obs::MetricsRegistry::instance().counter(obs::names::kBenchMicroCounter);
  for (auto _ : state) {
    counter.add(1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MetricsCounterAdd);

/// Cost of a span + event when no trace is open: one relaxed atomic load
/// each, which is the whole price of leaving the tracer in every build.
void BM_TracingDisabledSpan(benchmark::State& state) {
  for (auto _ : state) {
    obs::Span span(obs::names::kBenchMicroSpan, {{"k", 1}});
    obs::trace_event(obs::names::kBenchMicroEvent, {{"k", 2}});
    benchmark::DoNotOptimize(obs::tracing_active());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TracingDisabledSpan);

void BM_SessionCommitRestore(benchmark::State& state) {
  const auto m = make_instance(6, 16);
  analysis::AllocationSession session(m);
  // Pre-commit half the strings as steady background load.
  for (model::StringId k = 0; k < 8; ++k) {
    const auto assignment = core::imr_map_string(m, session.util(), k);
    (void)session.try_commit(k, assignment);
  }
  const auto assignment = core::imr_map_string(m, session.util(), 8);
  // Commit, then restore the snapshot taken before it (the rewind clones
  // and a decode's empty-prefix rewind use).
  analysis::SessionSnapshot checkpoint;
  session.snapshot_into(checkpoint);
  std::int64_t accepted = 0;
  for (auto _ : state) {
    if (session.try_commit(8, assignment)) {
      session.restore_from(checkpoint);
      ++accepted;
    }
  }
  state.counters["accept_frac"] =
      static_cast<double>(accepted) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_SessionCommitRestore);

/// The undo twin of BM_SessionCommitRestore: commit, then undo to the mark
/// taken before it, the path a decode's rewinds and pops take.
void BM_SessionCommitUndo(benchmark::State& state) {
  const auto m = make_instance(6, 16);
  analysis::AllocationSession session(m);
  for (model::StringId k = 0; k < 8; ++k) {
    const auto assignment = core::imr_map_string(m, session.util(), k);
    (void)session.try_commit(k, assignment);
  }
  const auto assignment = core::imr_map_string(m, session.util(), 8);
  const analysis::AllocationSession::Mark before = session.mark();
  std::int64_t accepted = 0;
  for (auto _ : state) {
    if (session.try_commit(8, assignment)) {
      session.undo_to(before);
      ++accepted;
    }
  }
  state.counters["accept_frac"] =
      static_cast<double>(accepted) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_SessionCommitUndo);

/// Rewinding a whole decode, as GENITOR's rewinds to the empty prefix do:
/// each iteration commits strings in id order up to the first rejection (an
/// id-order decode), then times only the rewind to the empty session.
/// Arg 2 picks the rewind: 0 undoes the trail to the empty session's mark
/// (what DecodeContext::rewind_to(0) runs), 1 restores an image of the empty
/// session.  Args 0 and 1 are machines and strings.
void BM_SessionFullRewind(benchmark::State& state) {
  const auto m = make_instance(static_cast<std::size_t>(state.range(0)),
                               static_cast<std::size_t>(state.range(1)));
  const bool image = state.range(2) != 0;
  analysis::AllocationSession session(m);
  analysis::SessionSnapshot empty;
  session.snapshot_into(empty);
  const auto q = static_cast<model::StringId>(m.num_strings());
  std::size_t deployed = 0;
  for (auto _ : state) {
    const analysis::AllocationSession::Mark start = session.mark();
    deployed = 0;
    for (model::StringId k = 0; k < q; ++k) {
      if (!session.try_commit(k, core::imr_map_string(m, session.util(), k))) break;
      ++deployed;
    }
    const auto t0 = std::chrono::steady_clock::now();
    if (image) {
      session.restore_from(empty);
    } else {
      session.undo_to(start);
    }
    const auto t1 = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
  }
  state.counters["deployed"] = static_cast<double>(deployed);
}
BENCHMARK(BM_SessionFullRewind)
    ->Args({6, 75, 0})
    ->Args({6, 75, 1})
    ->Args({12, 150, 0})
    ->Args({12, 150, 1})
    ->UseManualTime();

/// Stage one alone (eqs. (2)-(3) what-if sums and capacity test) on a loaded
/// 6-machine state: every string has Arg apps and is IMR-mapped against the
/// state once; the loop stages them round robin.  Staging writes only the
/// what-if accumulator, so every iteration sees the same state.
void BM_StageOne(benchmark::State& state) {
  const auto apps = static_cast<std::size_t>(state.range(0));
  util::Rng rng(99);
  auto config =
      workload::GeneratorConfig::for_scenario(workload::Scenario::kHighlyLoaded);
  config.num_machines = 6;
  config.num_strings = 40;
  config.min_apps_per_string = apps;
  config.max_apps_per_string = apps;
  const auto m = workload::generate(config, rng);
  analysis::AllocationSession session(m);
  const auto q = static_cast<model::StringId>(m.num_strings());
  for (model::StringId k = 0; k < q; ++k) {
    (void)session.try_commit(k, core::imr_map_string(m, session.util(), k));
  }
  std::vector<std::vector<model::MachineId>> candidates;
  for (model::StringId k = 0; k < q; ++k) {
    candidates.push_back(core::imr_map_string(m, session.util(), k));
  }
  analysis::UtilizationState util = session.util();
  std::size_t k = 0;
  std::int64_t fits = 0;
  for (auto _ : state) {
    fits += util.stage(static_cast<model::StringId>(k), candidates[k]) ? 1 : 0;
    k = k + 1 == candidates.size() ? 0 : k + 1;
  }
  state.counters["fit_frac"] =
      static_cast<double>(fits) / static_cast<double>(state.iterations());
  state.counters["util_max"] = util.max_machine_util();
}
BENCHMARK(BM_StageOne)->Arg(2)->Arg(5)->Arg(10);

/// Time per rejected try_commit on a loaded session: the strings a pass in
/// id order could not deploy, IMR-mapped against the loaded
/// state and retried round robin.  A rejection writes nothing the next
/// attempt sees, so every iteration repeats the same analysis.
void BM_SessionCommitReject(benchmark::State& state) {
  const auto m = make_instance(6, 40);
  analysis::AllocationSession session(m);
  for (model::StringId k = 0; k < static_cast<model::StringId>(m.num_strings()); ++k) {
    (void)session.try_commit(k, core::imr_map_string(m, session.util(), k));
  }
  std::vector<std::pair<model::StringId, std::vector<model::MachineId>>> rejected;
  for (model::StringId k = 0; k < static_cast<model::StringId>(m.num_strings()); ++k) {
    if (session.allocation().deployed(k)) continue;
    auto assignment = core::imr_map_string(m, session.util(), k);
    if (!session.try_commit(k, assignment)) rejected.emplace_back(k, std::move(assignment));
  }
  if (rejected.empty()) {
    state.SkipWithError("no rejected string");
    return;
  }
  std::size_t next = 0;
  std::int64_t rejects = 0;
  for (auto _ : state) {
    const auto& [k, assignment] = rejected[next];
    rejects += session.try_commit(k, assignment) ? 0 : 1;
    next = next + 1 == rejected.size() ? 0 : next + 1;
  }
  state.counters["candidates"] = static_cast<double>(rejected.size());
  state.counters["reject_frac"] =
      static_cast<double>(rejects) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_SessionCommitReject);

}  // namespace

BENCHMARK_MAIN();
