#include "workloads.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>

#include "analysis/feasibility.hpp"
#include "analysis/metrics.hpp"
#include "core/decode.hpp"
#include "core/exact.hpp"
#include "core/ordered.hpp"
#include "lp/upper_bound.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "traced_psg.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace tsce::bench::e2e {

namespace {

using Clock = std::chrono::steady_clock;

/// Set-up is repeated this many times per run and its median reported.
constexpr std::size_t kSetups = 12;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return ratio(sum, static_cast<double>(v.size()));
}

/// GENITOR with the paper's population and bias and a fixed iteration
/// budget: the stagnation limit equals the budget, so every trial does the
/// same amount of work whenever its elite happens to stop improving.
core::PsgOptions fixed_budget_psg(std::size_t iterations, std::size_t trials) {
  core::PsgOptions options;
  options.ga.population_size = 250;
  options.ga.bias = 1.6;
  options.ga.max_iterations = iterations;
  options.ga.stagnation_limit = iterations;
  options.trials = trials;
  return options;
}

WorkloadSpec scenario_workload(std::string_view name, workload::Scenario scenario,
                               std::size_t machines, std::size_t strings,
                               std::size_t pool, std::size_t objective_instances,
                               core::PsgOptions psg) {
  WorkloadSpec spec{};
  spec.name = name;
  spec.scenario = scenario;
  spec.machines = machines;
  spec.strings = strings;
  spec.pool = pool;
  spec.objective_instances = objective_instances;
  spec.parallel = false;
  spec.psg = psg;
  spec.threads = 1;
  return spec;
}

WorkloadSpec parallel_workload() {
  WorkloadSpec spec{};
  spec.name = "par_search";
  spec.scenario = workload::Scenario::kHighlyLoaded;
  spec.machines = 12;
  spec.strings = 150;
  spec.pool = 48;
  spec.objective_instances = 12;
  spec.parallel = true;
  spec.anneal.iterations = 10000;
  spec.anneal.replicas = 4;
  spec.exact_machines = 8;
  spec.exact_strings = 8;
  spec.exact_per_instance = 3;
  // Two threads, not four: where cores are shared with other virtual
  // machines, a process keeping every core busy loses CPU time to them; on a
  // 4-vCPU VM that made 4-thread timings swing by 50% between runs.
  spec.threads = 2;
  return spec;
}

bool complete_mapping(const WorkloadSpec& spec) {
  return spec.scenario == workload::Scenario::kLightlyLoaded;
}

/// Allocator rng streams of one instance (util::Rng::stream indices).
enum Stream : std::uint64_t { kMwf, kTf, kPsg, kSeeded, kTemper, kExact };

struct Instance {
  model::SystemModel model;
  /// par_search: the small instances the exact search runs on.
  std::vector<model::SystemModel> exact;
  std::uint64_t seed = 0;

  [[nodiscard]] util::Rng rng(std::uint64_t stream) const {
    return util::Rng::stream(seed, stream);
  }
};

struct SetUp {
  std::vector<Instance> pool;
  double seconds = 0.0;
  double generate_seconds = 0.0;  ///< workload::generate calls alone
  std::size_t invalid = 0;        ///< models failing SystemModel::validate
};

void prepare(const model::SystemModel& model, SetUp& out) {
  if (!model.validate().empty()) ++out.invalid;
  // One warm-up decode per model: first-use costs (page faults on the model,
  // lazily resolved telemetry handles) land here, not in the first timed call.
  static_cast<void>(core::decode_order(model, core::identity_order(model)));
}

SetUp set_up(const WorkloadSpec& spec, std::uint64_t seed) {
  const Clock::time_point t0 = Clock::now();
  SetUp out;
  util::Rng master(seed);
  auto config = workload::GeneratorConfig::for_scenario(spec.scenario);
  config.num_machines = spec.machines;
  config.num_strings = spec.strings;
  auto exact_config = config;
  exact_config.num_machines = spec.exact_machines;
  exact_config.num_strings = spec.exact_strings;
  out.pool.resize(spec.pool);
  for (Instance& inst : out.pool) {
    util::Rng rng = master.spawn();
    inst.seed = master();
    const Clock::time_point g0 = Clock::now();
    inst.model = workload::generate(config, rng);
    for (std::size_t e = 0; e < spec.exact_per_instance; ++e) {
      inst.exact.push_back(workload::generate(exact_config, rng));
    }
    out.generate_seconds += seconds_since(g0);
    prepare(inst.model, out);
    for (const model::SystemModel& small : inst.exact) prepare(small, out);
  }
  out.seconds = seconds_since(t0);
  return out;
}

/// The library entry points one run calls, built once per run.
struct Engines {
  Engines(const WorkloadSpec& spec, std::size_t threads)
      : psg(spec.psg), seeded(spec.psg), temper(anneal(spec, threads)),
        exact(core::ExactSearchOptions{.threads = threads}) {}

  static core::AnnealingOptions anneal(const WorkloadSpec& spec, std::size_t threads) {
    core::AnnealingOptions options = spec.anneal;
    options.threads = threads;
    return options;
  }

  core::MostWorthFirst mwf;
  core::TightestFirst tf;
  core::Psg psg;
  core::SeededPsg seeded;
  core::SimulatedAnnealing temper;
  core::ExactPermutationSearch exact;
  lp::UpperBoundSolver ub;
};

/// Results and timings of one instance.  Paper-pipeline workloads fill the
/// first block, par_search the second.
struct Outcome {
  core::AllocatorResult mwf, tf, psg, seeded;
  lp::UpperBoundResult ub;

  core::AllocatorResult temper;
  std::vector<core::AllocatorResult> small_mwf, small_tf, exact;
  std::vector<lp::UpperBoundResult> small_ub;

  double pipeline = 0.0;  ///< all allocators plus the bound
  double search = 0.0;    ///< PSG + Seeded PSG, or tempering
  double bound = 0.0;     ///< LP bound, or exact search
  std::size_t evaluations = 0;
};

void run_pipeline(const WorkloadSpec& spec, Engines& e, const Instance& inst,
                  Outcome& out) {
  const model::SystemModel& m = inst.model;
  if (!spec.parallel) {
    util::Rng r_mwf = inst.rng(kMwf), r_tf = inst.rng(kTf);
    util::Rng r_psg = inst.rng(kPsg), r_seeded = inst.rng(kSeeded);
    const Clock::time_point t0 = Clock::now();
    out.mwf = e.mwf.allocate(m, r_mwf);
    out.tf = e.tf.allocate(m, r_tf);
    const Clock::time_point t1 = Clock::now();
    out.psg = e.psg.allocate(m, r_psg);
    out.seeded = e.seeded.allocate(m, r_seeded);
    const Clock::time_point t2 = Clock::now();
    out.ub = complete_mapping(spec) ? e.ub.slackness(m) : e.ub.worth(m);
    const Clock::time_point t3 = Clock::now();
    out.pipeline = std::chrono::duration<double>(t3 - t0).count();
    out.search = std::chrono::duration<double>(t2 - t1).count();
    out.bound = std::chrono::duration<double>(t3 - t2).count();
    out.evaluations = out.psg.evaluations + out.seeded.evaluations;
    return;
  }
  const std::size_t n = inst.exact.size();
  out.small_mwf.resize(n);
  out.small_tf.resize(n);
  out.exact.resize(n);
  out.small_ub.resize(n);
  util::Rng r_temper = inst.rng(kTemper);
  const Clock::time_point t0 = Clock::now();
  out.temper = e.temper.allocate(m, r_temper);
  out.search = seconds_since(t0);
  out.bound = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const model::SystemModel& small = inst.exact[j];
    util::Rng r_mwf = inst.rng(kMwf), r_tf = inst.rng(kTf);
    util::Rng r_exact = inst.rng(kExact + j);
    out.small_mwf[j] = e.mwf.allocate(small, r_mwf);
    out.small_tf[j] = e.tf.allocate(small, r_tf);
    const Clock::time_point e0 = Clock::now();
    out.exact[j] = e.exact.allocate(small, r_exact);
    out.bound += seconds_since(e0);
    out.small_ub[j] = e.ub.worth(small);
  }
  out.pipeline = seconds_since(t0);
  out.evaluations = out.temper.evaluations;
}

/// Search quality of one instance: the best result as a fraction of
/// the best upper bound the workload computes (the LP bound, or for
/// par_search, whose LP runs only on the small instances, the total worth
/// on offer).
double objective(const WorkloadSpec& spec, const Instance& inst, const Outcome& out) {
  if (spec.parallel) {
    return ratio(out.temper.fitness.total_worth, inst.model.total_worth_available());
  }
  analysis::Fitness best = out.mwf.fitness;
  for (const core::AllocatorResult* r : {&out.tf, &out.psg, &out.seeded}) {
    if (best < r->fitness) best = r->fitness;
  }
  const double metric = complete_mapping(spec) ? best.slackness : best.total_worth;
  return ratio(metric, out.ub.value);
}

class Checker {
 public:
  void expect(bool ok, std::size_t instance, const char* what) {
    ++attempted_;
    if (ok) return;
    if (failed_++ < kMaxReported) {
      std::fprintf(stderr, "check failed: instance %zu: %s\n", instance, what);
    }
  }
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

 private:
  static constexpr std::uint64_t kMaxReported = 20;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// The allocation passes the two-stage analysis from scratch, and its
/// reported fitness is the paper metric of that allocation.
void check_allocation(Checker& c, std::size_t i, const model::SystemModel& m,
                      const core::AllocatorResult& r, const char* what) {
  c.expect(analysis::check_feasibility(m, r.allocation).feasible(), i, what);
  const analysis::Fitness f = analysis::evaluate(m, r.allocation);
  c.expect(f.total_worth == r.fitness.total_worth &&
               std::abs(f.slackness - r.fitness.slackness) <= 1e-9,
           i, what);
}

/// Invariant: the LP bound is at least every heuristic's metric.
void check_bound(Checker& c, std::size_t i, const WorkloadSpec& spec,
                 const model::SystemModel& m, const lp::UpperBoundResult& ub,
                 const core::AllocatorResult& r) {
  constexpr double kTol = 1e-6;
  if (complete_mapping(spec)) {
    // The slackness bound holds for complete mappings only.
    if (r.fitness.total_worth == m.total_worth_available()) {
      c.expect(ub.value + kTol >= r.fitness.slackness, i, "LP bound >= slackness");
    }
    return;
  }
  c.expect(ub.value + kTol >= r.fitness.total_worth, i, "LP bound >= worth");
}

void check_outcome(Checker& c, std::size_t i, const WorkloadSpec& spec,
                   const Instance& inst, const Outcome& out) {
  const model::SystemModel& m = inst.model;
  if (!spec.parallel) {
    c.expect(out.ub.status == lp::SolveStatus::kOptimal, i, "LP optimal");
    for (const core::AllocatorResult* r : {&out.mwf, &out.tf, &out.psg, &out.seeded}) {
      check_allocation(c, i, m, *r, "heuristic allocation feasible, scored");
      check_bound(c, i, spec, m, out.ub, *r);
    }
    // GENITOR is elitist and the seeded population holds the MWF and TF
    // orders, so Seeded PSG can never end below them.
    c.expect(!(out.seeded.fitness < out.mwf.fitness) &&
                 !(out.seeded.fitness < out.tf.fitness),
             i, "Seeded PSG >= max(MWF, TF)");
    return;
  }
  check_allocation(c, i, m, out.temper, "tempering allocation feasible, scored");
  for (std::size_t j = 0; j < inst.exact.size(); ++j) {
    const model::SystemModel& small = inst.exact[j];
    check_allocation(c, i, small, out.small_mwf[j], "MWF allocation feasible, scored");
    check_allocation(c, i, small, out.small_tf[j], "TF allocation feasible, scored");
    check_allocation(c, i, small, out.exact[j], "exact allocation feasible, scored");
    c.expect(!(out.exact[j].fitness < out.small_mwf[j].fitness), i, "exact >= MWF");
    c.expect(out.small_ub[j].status == lp::SolveStatus::kOptimal, i, "LP optimal");
    check_bound(c, i, spec, small, out.small_ub[j], out.exact[j]);
  }
}

bool same_result(const core::AllocatorResult& a, const core::AllocatorResult& b) {
  // Fitness equality is bit-exact on the slackness double.
  return a.order == b.order && a.fitness == b.fitness;
}

/// The loop runs until the measuring time is up and at least \p minimum
/// instances are done, or until the instance limit.
bool more_instances(std::size_t done, std::size_t minimum, const RunOptions& opt,
                    Clock::time_point start) {
  if (opt.instance_limit > 0 && done >= opt.instance_limit) return false;
  return done < minimum || seconds_since(start) < opt.seconds;
}

/// Moves the calling thread round the CPUs the process may use, one step per
/// instance; threads it starts afterwards (the engines' pools) inherit the
/// placement.  On a virtual machine whose host slows each virtual CPU by up
/// to 60% in episodes of seconds to minutes, independently of the others,
/// a thread left on one CPU carries that CPU's episode into the whole run;
/// rotating spreads every run over all of them.  Placement is best effort:
/// where the CPU set cannot be read or changed the thread stays put.  The
/// destructor restores the original CPU set.
class CpuRotation {
 public:
  /// \p width CPUs at a time, one per thread the workload uses.
  explicit CpuRotation(std::size_t width) : width_(width) {
    if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof original_, &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Moves to the next window of \p width CPUs, one CPU on from the last.
  void step() {
    if (cpus_.size() < 2) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (std::size_t k = 0; k < std::min(width_, cpus_.size()); ++k) {
      CPU_SET(cpus_[(next_ + k) % cpus_.size()], &set);
    }
    next_ = (next_ + 1) % cpus_.size();
    sched_setaffinity(0, sizeof set, &set);
  }

 private:
  cpu_set_t original_{};
  std::vector<int> cpus_;
  std::size_t width_;
  std::size_t next_ = 0;
};

/// CPU time of the process so far, in seconds.
double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string format(const char* fmt, auto... args) {
  char buf[256];
  std::snprintf(buf, sizeof buf, fmt, args...);
  return buf;
}

std::string describe(const WorkloadSpec& spec, const RunOptions& opt) {
  return format("workload %.*s: scenario %d, M=%zu, Q=%zu, seed %llu, %.0f s, %s",
                static_cast<int>(spec.name.size()), spec.name.data(),
                static_cast<int>(spec.scenario), spec.machines, spec.strings,
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? "traced" : "untraced");
}

/// One report row: p25 / p50 / p75 and the mean of \p v.
std::string timing_row(const char* what, std::vector<double> v) {
  if (v.empty()) return what;
  std::sort(v.begin(), v.end());
  auto at = [&](double q) {
    return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1))];
  };
  return format("  %-12s %.4f / %.4f / %.4f  %.4f", what, at(0.25), at(0.5), at(0.75),
                mean(v));
}

RunResult run_untraced(const WorkloadSpec& spec, const RunOptions& opt) {
  Checker checker;
  const SetUp setup = set_up(spec, opt.seed);
  std::vector<double> setup_times = {setup.seconds};
  checker.expect(setup.invalid == 0, 0, "generated models validate");
  // The set-up is repeated (and its result dropped) at even steps of the
  // measuring time, so that its median samples the same stretch of the run
  // as the pipeline timings rather than only its first moments.
  auto repeat_set_up = [&] { setup_times.push_back(set_up(spec, opt.seed).seconds); };
  const double setup_step = opt.seconds / static_cast<double>(kSetups);

  Engines engines(spec, spec.threads);
  std::vector<double> pipeline, search, bound;
  double search_total = 0.0;
  double evaluations = 0.0;
  double objective_sum = 0.0;
  double objective_count = 0.0;
  Outcome out;
  // Warm-up: the engines' first call pays for their lazily grown buffers.
  run_pipeline(spec, engines, setup.pool.front(), out);
  CpuRotation rotation(spec.threads);
  const double cpu_start = cpu_seconds();
  const Clock::time_point start = Clock::now();
  std::size_t i = 0;
  for (; more_instances(i, spec.objective_instances, opt, start); ++i) {
    rotation.step();
    if (setup_times.size() < kSetups &&
        seconds_since(start) >= setup_step * static_cast<double>(setup_times.size())) {
      repeat_set_up();
    }
    const Instance& inst = setup.pool[i % setup.pool.size()];
    run_pipeline(spec, engines, inst, out);
    pipeline.push_back(out.pipeline);
    search.push_back(out.search);
    bound.push_back(out.bound);
    search_total += out.search;
    evaluations += static_cast<double>(out.evaluations);
    if (i < spec.objective_instances) {
      objective_sum += objective(spec, inst, out);
      objective_count += 1.0;
    }
    check_outcome(checker, i, spec, inst, out);
  }
  const double measured = seconds_since(start);
  const double cpu = cpu_seconds() - cpu_start;
  while (setup_times.size() < kSetups) repeat_set_up();

  RunResult result;
  result.attempted = checker.attempted();
  result.failed = checker.failed();
  // Timings are means, not medians: a shared host's slowdowns come in
  // levels (about 0, 20, 40, 60%), so a median over a run jumps from one
  // level to the next where the mean moves smoothly (README.md, Baseline).
  result.metrics = {
      {"setup_s", median(setup_times), "s"},
      {"pipeline_s", mean(pipeline), "s"},
      {"search_s", mean(search), "s"},
      {"bound_s", mean(bound), "s"},
      {"evals_per_s", ratio(evaluations, search_total), "1/s"},
      {"objective", ratio(objective_sum, objective_count), "ratio"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  result.report.push_back(describe(spec, opt));
  result.report.push_back(
      format("%zu instances in %.2f s (%zu distinct), %.2f s CPU, %zu set-ups", i,
             measured, std::min(i, setup.pool.size()), cpu, kSetups));
  result.report.push_back(
      format("  %-12s p25 / p50 / p75 seconds        mean", "timing"));
  result.report.push_back(timing_row("setup", setup_times));
  result.report.push_back(timing_row("pipeline", pipeline));
  result.report.push_back(timing_row("search", search));
  result.report.push_back(timing_row("bound", bound));
  return result;
}

/// Registry totals over the untraced pipelines of a traced run: the
/// library's own decode and commit instrumentation, the same source for
/// every workload whichever engine drives the decodes.
struct RegistryTotals {
  std::uint64_t decode_calls = 0;
  std::uint64_t commits_attempted = 0;
  std::uint64_t strings_reused = 0;
  std::uint64_t reject_utilization = 0;
  std::uint64_t reject_throughput = 0;
  std::uint64_t reject_latency = 0;
  obs::HdrSnapshot decode_latency;
  obs::HdrSnapshot commit_latency;

  /// Adds what the registry recorded between two of its snapshots.
  void add(const util::Json& before, const util::Json& after) {
    auto delta = [&](std::string_view name) {
      return count_of(after, name) - count_of(before, name);
    };
    decode_calls += delta(obs::names::kDecodeCalls);
    commits_attempted += delta(obs::names::kDecodeCommitsAttempted);
    strings_reused += delta(obs::names::kDecodeStringsReused);
    reject_utilization += delta(obs::names::kSessionRejectUtilization);
    reject_throughput += delta(obs::names::kSessionRejectThroughput);
    reject_latency += delta(obs::names::kSessionRejectLatency);
    // Counts only grow, so the unsigned sums below end exact.
    merge(decode_latency, after, obs::names::kDecodeLatencyNs, 1);
    merge(decode_latency, before, obs::names::kDecodeLatencyNs, -1);
    merge(commit_latency, after, obs::names::kSessionCommitLatencyNs, 1);
    merge(commit_latency, before, obs::names::kSessionCommitLatencyNs, -1);
  }

  static std::uint64_t count_of(const util::Json& snapshot, std::string_view name) {
    const util::Json& counters = snapshot.at("counters");
    return counters.contains(name)
               ? static_cast<std::uint64_t>(counters.at(name).as_number())
               : 0;
  }

  /// Adds (\p sign 1) or subtracts (-1) a snapshot's histogram buckets.
  static void merge(obs::HdrSnapshot& into, const util::Json& snapshot,
                    std::string_view name, int sign) {
    const util::Json& hists = snapshot.at("histograms");
    if (!hists.contains(name)) return;
    const util::Json& h = hists.at(name);
    // quantile() clamps to max; the lifetime max bounds every delta sample.
    into.max = std::max(into.max, static_cast<std::uint64_t>(h.at("max").as_number()));
    for (const util::Json& bucket : h.at("buckets").as_array()) {
      const auto le = static_cast<std::uint64_t>(bucket.at("le").as_number());
      auto n = static_cast<std::uint64_t>(bucket.at("n").as_number());
      if (sign < 0) n = ~n + 1;
      into.counts[into.layout.index_of(le)] += n;
      into.count += n;
    }
  }
};

struct PoolTotals {
  std::uint64_t tasks = 0;
  std::uint64_t wait_ns = 0;
  std::uint64_t run_ns = 0;

  static PoolTotals now() {
    const util::ThreadPool::Stats& s = util::ThreadPool::global_stats();
    return {s.tasks.load(std::memory_order_relaxed),
            s.wait_ns_total.load(std::memory_order_relaxed),
            s.run_ns_total.load(std::memory_order_relaxed)};
  }
  void add_since(const PoolTotals& before) {
    const PoolTotals after = now();
    tasks += after.tasks - before.tasks;
    wait_ns += after.wait_ns - before.wait_ns;
    run_ns += after.run_ns - before.run_ns;
  }
};

/// UpperBoundSolver's build + solve, as two spans.  Fills the fields of
/// \p out the untraced solver's result is compared on.
void traced_bound(SpanLog& log, std::uint32_t root, std::uint32_t id,
                  const model::SystemModel& m, bool complete, lp::LpProblem& problem,
                  lp::UpperBoundResult& out) {
  {
    const ScopedSpan span(log, Layer::kLpBuild, root, id);
    lp::build_upper_bound_lp_into(problem, m, complete, lp::UbObjective::kTotalWorth);
  }
  const ScopedSpan span(log, Layer::kLpSolve, root, id);
  const lp::LpSolution solution = lp::solve(problem);
  out.status = solution.status;
  out.iterations = solution.iterations;
}

void run_traced_pipeline(const WorkloadSpec& spec, Engines& e, const Instance& inst,
                         std::uint32_t id, SpanLog& log, SearchStats& stats,
                         lp::LpProblem& problem, Outcome& out) {
  const model::SystemModel& m = inst.model;
  const std::uint32_t root = log.open(Layer::kInstance, SpanLog::kNoSpan, id);
  if (!spec.parallel) {
    util::Rng r_mwf = inst.rng(kMwf), r_tf = inst.rng(kTf);
    util::Rng r_psg = inst.rng(kPsg), r_seeded = inst.rng(kSeeded);
    {
      const ScopedSpan span(log, Layer::kOrdered, root, id);
      out.mwf = e.mwf.allocate(m, r_mwf);
      out.tf = e.tf.allocate(m, r_tf);
    }
    out.psg = traced_psg(m, spec.psg, false, r_psg, log, root, id, stats);
    out.seeded = traced_psg(m, spec.psg, true, r_seeded, log, root, id, stats);
    traced_bound(log, root, id, m, complete_mapping(spec), problem, out.ub);
  } else {
    const std::size_t n = inst.exact.size();
    out.small_mwf.resize(n);
    out.small_tf.resize(n);
    out.exact.resize(n);
    out.small_ub.resize(n);
    util::Rng r_temper = inst.rng(kTemper);
    {
      const ScopedSpan span(log, Layer::kTemper, root, id);
      out.temper = e.temper.allocate(m, r_temper);
    }
    for (std::size_t j = 0; j < n; ++j) {
      const model::SystemModel& small = inst.exact[j];
      util::Rng r_mwf = inst.rng(kMwf), r_tf = inst.rng(kTf);
      util::Rng r_exact = inst.rng(kExact + j);
      {
        const ScopedSpan span(log, Layer::kOrdered, root, id);
        out.small_mwf[j] = e.mwf.allocate(small, r_mwf);
        out.small_tf[j] = e.tf.allocate(small, r_tf);
      }
      {
        const ScopedSpan span(log, Layer::kExact, root, id);
        out.exact[j] = e.exact.allocate(small, r_exact);
      }
      traced_bound(log, root, id, small, false, problem, out.small_ub[j]);
    }
  }
  log.close(root);
  out.pipeline = log.seconds(root);
}

/// The traced pipeline reproduces the untraced one exactly.
void check_traced(Checker& c, std::size_t i, const WorkloadSpec& spec,
                  const Instance& inst, const Outcome& plain, const Outcome& traced,
                  SearchStats& stats) {
  auto same_lp = [](const lp::UpperBoundResult& a, const lp::UpperBoundResult& b) {
    return a.status == b.status && a.iterations == b.iterations;
  };
  if (!spec.parallel) {
    c.expect(same_result(plain.psg, traced.psg), i, "traced PSG == Psg::allocate");
    c.expect(same_result(plain.seeded, traced.seeded), i,
             "traced Seeded PSG == SeededPsg::allocate");
    c.expect(same_lp(plain.ub, traced.ub), i, "traced LP == UpperBoundSolver");
  } else {
    c.expect(same_result(plain.temper, traced.temper), i, "tempering repeats");
    for (std::size_t j = 0; j < inst.exact.size(); ++j) {
      c.expect(same_result(plain.exact[j], traced.exact[j]), i, "exact search repeats");
      c.expect(same_lp(plain.small_ub[j], traced.small_ub[j]), i,
               "traced LP == UpperBoundSolver");
    }
  }
  for (const DecodeCheck& check : stats.pending) {
    c.expect(core::decode_order(inst.model, check.order).fitness == check.fitness, i,
             "traced decode == core::decode_order");
  }
  stats.pending.clear();
}

/// What a traced run accumulates besides its span log.
struct TraceTotals {
  SearchStats search;
  RegistryTotals registry;
  PoolTotals pool;
  double plain_s = 0.0;   ///< untraced pipeline time
  double traced_s = 0.0;  ///< traced pipeline time
  double temper_t1 = 0.0, temper_tn = 0.0;
  double exact_t1 = 0.0, exact_tn = 0.0;
  double lp_iterations = 0.0, lp_refactorisations = 0.0;
  double lp_rows = 0.0, lp_cols = 0.0;

  void add_lp(const lp::UpperBoundResult& ub) {
    lp_iterations += static_cast<double>(ub.iterations);
    lp_refactorisations += static_cast<double>(ub.refactorisations);
    lp_rows += static_cast<double>(ub.lp_rows);
    lp_cols += static_cast<double>(ub.lp_cols);
  }
};

/// par_search: the engines again on one thread, for scaling and for the
/// bit-identity of results across thread counts.
void run_single_threaded(Checker& c, std::size_t i, Engines& serial,
                         const Instance& inst, const Outcome& plain, TraceTotals& t) {
  util::Rng r_temper = inst.rng(kTemper);
  const Clock::time_point t0 = Clock::now();
  const core::AllocatorResult temper = serial.temper.allocate(inst.model, r_temper);
  t.temper_t1 += seconds_since(t0);
  t.temper_tn += plain.search;
  c.expect(same_result(plain.temper, temper), i,
           "tempering identical at 1 and N threads");
  for (std::size_t j = 0; j < inst.exact.size(); ++j) {
    util::Rng r_exact = inst.rng(kExact + j);
    const Clock::time_point e0 = Clock::now();
    const core::AllocatorResult exact = serial.exact.allocate(inst.exact[j], r_exact);
    t.exact_t1 += seconds_since(e0);
    c.expect(same_result(plain.exact[j], exact), i,
             "exact search identical at 1 and N threads");
  }
  t.exact_tn += plain.bound;
}

double num(std::uint64_t v) { return static_cast<double>(v); }

std::vector<Metric> layer_metrics(const WorkloadSpec& spec, const SpanLog& log,
                                  const TraceTotals& t, double generate_s,
                                  std::size_t instances) {
  const std::array<double, kLayerCount> self = log.self_ns();
  const double root = log.root_ns();
  const std::array<std::uint64_t, kFoldedLayers> folded = log.folded_calls();
  const double n = num(instances);
  auto share = [&](Layer l) { return ratio(self[static_cast<std::size_t>(l)], root); };
  auto per_instance = [&](double v) { return ratio(v, n); };
  auto calls = [&](Layer l) {
    return per_instance(num(folded[static_cast<std::size_t>(l)]));
  };
  const RegistryTotals& reg = t.registry;
  auto decode_ns = [&](double q) { return num(reg.decode_latency.quantile(q)); };
  auto commit_ns = [&](double q) { return num(reg.commit_latency.quantile(q)); };
  const double commits = num(reg.commit_latency.count);
  const double rejects =
      num(reg.reject_utilization + reg.reject_throughput + reg.reject_latency);
  const double threads = num(spec.threads);
  const double solve_us = self[static_cast<std::size_t>(Layer::kLpSolve)] / 1e3;
  return {
      {"workload.generate_s", generate_s, "s"},
      {"unattributed_frac", share(Layer::kInstance), "ratio"},
      {"trace.overhead_frac", ratio(t.traced_s, t.plain_s) - 1.0, "ratio"},
      {"ordered.self_frac", share(Layer::kOrdered), "ratio"},
      {"psg.self_frac", share(Layer::kPsg), "ratio"},
      {"genitor.self_frac", share(Layer::kGenitor), "ratio"},
      {"genitor.ops_frac", share(Layer::kGenitorOps), "ratio"},
      {"genitor.evaluations", per_instance(num(t.search.evaluations)), "count"},
      {"genitor.useful_frac",
       ratio(num(t.search.useful_evaluations), num(t.search.evaluations)), "ratio"},
      {"decode.self_frac", share(Layer::kDecode), "ratio"},
      {"decode.calls", per_instance(num(reg.decode_calls)), "count"},
      {"decode.latency_ns.p50", decode_ns(0.5), "ns"},
      {"decode.latency_ns.p99", decode_ns(0.99), "ns"},
      {"decode.latency_ns.p999", decode_ns(0.999), "ns"},
      {"decode.prefix_reuse_frac",
       ratio(num(reg.strings_reused), num(reg.strings_reused + reg.commits_attempted)),
       "ratio"},
      {"decode.depth_mean",
       ratio(num(t.search.deployed_strings), num(t.search.decodes)), "count"},
      {"imr.self_frac", share(Layer::kImr), "ratio"},
      {"imr.calls", calls(Layer::kImr), "count"},
      {"session.commit.self_frac", share(Layer::kCommit), "ratio"},
      {"session.commit.calls", per_instance(commits), "count"},
      {"session.commit.latency_ns.p50", commit_ns(0.5), "ns"},
      {"session.commit.latency_ns.p99", commit_ns(0.99), "ns"},
      {"session.accept_frac", commits > 0.0 ? 1.0 - rejects / commits : 0.0, "ratio"},
      {"session.reject.utilization", per_instance(num(reg.reject_utilization)),
       "count"},
      {"session.reject.throughput", per_instance(num(reg.reject_throughput)),
       "count"},
      {"session.reject.latency", per_instance(num(reg.reject_latency)), "count"},
      {"session.snapshot.self_frac", share(Layer::kSnapshot), "ratio"},
      {"session.snapshot.calls", calls(Layer::kSnapshot), "count"},
      {"session.restore.self_frac", share(Layer::kRestore), "ratio"},
      {"session.restore.calls", calls(Layer::kRestore), "count"},
      {"lp.build_frac", share(Layer::kLpBuild), "ratio"},
      {"lp.solve_frac", share(Layer::kLpSolve), "ratio"},
      {"lp.iterations", per_instance(t.lp_iterations), "count"},
      {"lp.refactorisations", per_instance(t.lp_refactorisations), "count"},
      {"lp.rows", per_instance(t.lp_rows), "count"},
      {"lp.cols", per_instance(t.lp_cols), "count"},
      {"lp.us_per_iteration", ratio(solve_us, t.lp_iterations), "us"},
      {"temper.self_frac", share(Layer::kTemper), "ratio"},
      {"temper.scaling_eff", ratio(t.temper_t1, threads * t.temper_tn), "ratio"},
      {"exact.self_frac", share(Layer::kExact), "ratio"},
      {"exact.scaling_eff", ratio(t.exact_t1, threads * t.exact_tn), "ratio"},
      {"pool.tasks", per_instance(num(t.pool.tasks)), "count"},
      {"pool.wait_frac",
       ratio(num(t.pool.wait_ns), num(t.pool.wait_ns + t.pool.run_ns)), "ratio"},
  };
}

/// The per-layer self-time table, the benchmark-side latencies (which
/// split commits into accepted and rejected) and the thread scaling.
void report_layers(std::vector<std::string>& report, const WorkloadSpec& spec,
                   const SpanLog& log, const TraceTotals& t, std::size_t instances) {
  const double n = num(instances);
  report.push_back(format(
      "%zu instances; pipeline %.3f s traced, %.3f s untraced per instance; %zu spans",
      instances, ratio(t.traced_s, n), ratio(t.plain_s, n), log.size()));
  report.push_back(
      format("  %-18s %12s %8s", "layer (self time)", "s/instance", "share"));
  const std::array<double, kLayerCount> self = log.self_ns();
  const double root = log.root_ns();
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    const std::string_view name = layer_name(static_cast<Layer>(l));
    report.push_back(format("  %-18.*s %12.6f %8.4f", static_cast<int>(name.size()),
                            name.data(), ratio(self[l] / 1e9, n),
                            ratio(self[l], root)));
  }
  report.push_back(format("  %-22s %10s %10s", "traced latency (ns)", "p50", "p99"));
  auto latency = [&](const char* what, const obs::HdrHistogram& h) {
    const obs::HdrSnapshot snap = h.snapshot();
    report.push_back(format("  %-22s %10.0f %10.0f", what, ticks_ns(snap.quantile(0.5)),
                            ticks_ns(snap.quantile(0.99))));
  };
  latency("decode", t.search.decode_ticks);
  latency("imr", t.search.imr_ticks);
  latency("commit (accepted)", t.search.accept_ticks);
  latency("commit (rejected)", t.search.reject_ticks);
  if (spec.parallel) {
    report.push_back(format("  tempering %.3f s at 1 thread, %.3f s at %zu; "
                            "exact search %.3f s, %.3f s",
                            t.temper_t1, t.temper_tn, spec.threads, t.exact_t1,
                            t.exact_tn));
  }
}

RunResult run_traced(const WorkloadSpec& spec, const RunOptions& opt) {
  Checker checker;
  SetUp setup;
  std::vector<double> generate_times;
  for (std::size_t r = 0; r < kSetups; ++r) {
    setup = set_up(spec, opt.seed);
    generate_times.push_back(setup.generate_seconds);
  }
  checker.expect(setup.invalid == 0, 0, "generated models validate");

  Engines engines(spec, spec.threads);
  const std::unique_ptr<Engines> serial =
      spec.parallel ? std::make_unique<Engines>(spec, 1) : nullptr;
  SpanLog log;
  TraceTotals totals;
  lp::LpProblem problem;
  Outcome plain, traced;
  const Clock::time_point start = Clock::now();
  std::size_t i = 0;
  for (; more_instances(i, 1, opt, start); ++i) {
    const Instance& inst = setup.pool[i % setup.pool.size()];
    auto run_plain = [&] {
      const util::Json before = obs::MetricsRegistry::instance().snapshot();
      run_pipeline(spec, engines, inst, plain);
      totals.registry.add(before, obs::MetricsRegistry::instance().snapshot());
    };
    auto run_spanned = [&] {
      const PoolTotals before = PoolTotals::now();
      util::ThreadPool::set_timing(true);
      run_traced_pipeline(spec, engines, inst, static_cast<std::uint32_t>(i), log,
                          totals.search, problem, traced);
      util::ThreadPool::set_timing(false);
      totals.pool.add_since(before);
    };
    // Alternate which copy runs first, so warm caches favour neither.
    if (i % 2 == 0) {
      run_plain();
      run_spanned();
    } else {
      run_spanned();
      run_plain();
    }
    totals.plain_s += plain.pipeline;
    totals.traced_s += traced.pipeline;
    check_outcome(checker, i, spec, inst, plain);
    check_traced(checker, i, spec, inst, plain, traced, totals.search);
    if (spec.parallel) {
      for (const lp::UpperBoundResult& ub : plain.small_ub) totals.add_lp(ub);
      run_single_threaded(checker, i, *serial, inst, plain, totals);
    } else {
      totals.add_lp(plain.ub);
    }
  }
  if (!opt.trace_out.empty() && !log.write_chrome_trace(opt.trace_out)) {
    std::fprintf(stderr, "warning: could not write trace '%s'\n",
                 opt.trace_out.c_str());
  }

  RunResult result;
  result.attempted = checker.attempted();
  result.failed = checker.failed();
  result.metrics = layer_metrics(spec, log, totals, median(generate_times), i);
  result.report.push_back(describe(spec, opt));
  report_layers(result.report, spec, log, totals, i);
  return result;
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = {
      scenario_workload("s1_loaded", workload::Scenario::kHighlyLoaded, 6, 75, 96, 24,
                        fixed_budget_psg(1000, 1)),
      scenario_workload("s2_qos", workload::Scenario::kQosLimited, 6, 75, 192, 48,
                        fixed_budget_psg(1000, 1)),
      scenario_workload("s3_slack", workload::Scenario::kLightlyLoaded, 12, 25, 64, 16,
                        fixed_budget_psg(300, 4)),
      parallel_workload(),
  };
  return specs;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

RunResult run_workload(const WorkloadSpec& spec, const RunOptions& options) {
  return options.trace ? run_traced(spec, options) : run_untraced(spec, options);
}

}  // namespace tsce::bench::e2e
