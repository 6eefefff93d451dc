#include "core/local_search.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/decode.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace tsce::core {

using analysis::Fitness;
using model::StringId;
using model::SystemModel;

namespace {

/// Neighbor evaluations per climb step before giving up on an improvement.
constexpr std::size_t kMaxNeighborsPerStep = 64;
/// Random restarts of every hill climb; the best local optimum wins.
constexpr std::size_t kHillClimbRestarts = 4;
/// Initial temperature of the coldest annealing replica, as a fraction of
/// the instance's available worth.
constexpr double kAnnealInitialTemperatureFrac = 0.1;
/// Metropolis steps per replica between tempering exchange barriers.
constexpr std::size_t kAnnealExchangeInterval = 64;
/// Geometric cooling rate per Metropolis step of every annealing replica.
constexpr double kAnnealCooling = 0.998;
/// Temperature ratio between adjacent replicas of the tempering ladder.
constexpr double kAnnealLadderRatio = 1.7;

/// One first-improvement climb from \p current (mutated in place to the local
/// optimum).  \p evaluations is the restart's decode counter; \p budget is
/// an absolute cap on it (0 = unlimited).  Returns the optimum's outcome.
DecodeOutcome climb(DecodeContext& ctx, std::vector<StringId>& current,
                    util::Rng& rng, std::size_t& evaluations,
                    std::size_t budget) {
  const std::size_t q = current.size();
  DecodeOutcome current_decoded = decode_order_into(ctx, current);
  ++evaluations;

  bool improved = true;
  while (improved && (budget == 0 || evaluations < budget)) {
    improved = false;
    for (std::size_t attempt = 0;
         attempt < kMaxNeighborsPerStep && q >= 2; ++attempt) {
      const std::size_t i = rng.bounded(q);
      std::size_t j = rng.bounded(q);
      while (j == i) j = rng.bounded(q);
      std::swap(current[i], current[j]);
      const DecodeOutcome neighbor = decode_order_into(ctx, current);
      ++evaluations;
      if (current_decoded.fitness < neighbor.fitness) {
        current_decoded = neighbor;
        improved = true;
        break;  // first improvement: restart the neighborhood scan
      }
      std::swap(current[i], current[j]);  // undo
      if (budget != 0 && evaluations >= budget) break;
    }
  }
  return current_decoded;
}

}  // namespace

AllocatorResult HillClimb::allocate(const SystemModel& model, util::Rng& rng) const {
  // Restarts run one after another on one decode context, each from an
  // index-derived rng stream with an equal slice of the budget.  Every
  // restart decodes at least once, so a budget caps the restart count.  Ties
  // go to the lowest restart index.
  std::size_t restarts = kHillClimbRestarts;
  if (options_.max_evaluations != 0) {
    restarts = std::min(restarts, options_.max_evaluations);
  }
  const std::size_t slice =
      options_.max_evaluations == 0 ? 0 : options_.max_evaluations / restarts;
  const std::uint64_t base_seed = rng();
  DecodeContext ctx(model);
  Fitness best_fitness{};
  std::vector<StringId> best_order;
  bool have_best = false;
  std::size_t evaluations = 0;
  for (std::size_t r = 0; r < restarts; ++r) {
    obs::Span span(obs::names::kSearchRestart,
                   {{"phase", "HillClimb"}, {"restart", std::uint64_t{r}}});
    util::Rng restart_rng = util::Rng::stream(base_seed, r);
    std::vector<StringId> current = identity_order(model);
    restart_rng.shuffle(current);
    std::size_t restart_evaluations = 0;
    const DecodeOutcome optimum =
        climb(ctx, current, restart_rng, restart_evaluations, slice);
    span.add("evaluations", static_cast<double>(restart_evaluations));
    span.add("worth", static_cast<double>(optimum.fitness.total_worth));
    evaluations += restart_evaluations;
    if (!have_best || best_fitness < optimum.fitness) {
      best_fitness = optimum.fitness;
      best_order = std::move(current);
      have_best = true;
      obs::trace_event(obs::names::kSearchImprove,
                       {{"phase", "HillClimb"},
                        {"trial", std::uint64_t{r}},
                        {"worth", best_fitness.total_worth},
                        {"slackness", best_fitness.slackness}});
    }
  }

  AllocatorResult best;
  best.fitness = best_fitness;
  best.allocation = ctx.materialize(decode_order_into(ctx, best_order)).allocation;
  best.order = std::move(best_order);
  best.evaluations = evaluations;
  return best;
}

namespace {
/// Flattens the lexicographic metric into one scalar for annealing: worth
/// dominates because slackness lies in [0, 1].
double energy(const Fitness& f) noexcept {
  return static_cast<double>(f.total_worth) + f.slackness;
}

/// One chain of the tempering ladder: its own order, rng stream, decode
/// context (prefix reuse and the decisive-prefix memo), temperature, and
/// per-replica incumbent.  Everything a sweep task touches lives here, so
/// replicas never share mutable state.
struct TemperReplica {
  std::vector<StringId> order;
  Fitness fitness{};  ///< fitness of the current order
  Fitness best_fitness{};
  std::vector<StringId> best_order;
  double temperature = 0.0;
  util::Rng rng{0};
  std::unique_ptr<DecodeContext> ctx;
  std::size_t remaining = 0;  ///< Metropolis steps left in this replica's slice
  std::size_t evaluations = 0;
};

/// Runs up to \p steps Metropolis steps on one replica at the replica's own
/// (cooling) temperature, driven entirely by the replica's private rng
/// stream.
void temper_steps(TemperReplica& rep, std::size_t steps) {
  const std::size_t q = rep.order.size();
  if (q < 2) {
    rep.remaining = 0;
    return;
  }
  for (std::size_t s = 0; s < steps && rep.remaining > 0; ++s, --rep.remaining) {
    const std::size_t i = rep.rng.bounded(q);
    std::size_t j = rep.rng.bounded(q);
    while (j == i) j = rep.rng.bounded(q);
    std::swap(rep.order[i], rep.order[j]);
    const Fitness neighbor = decode_fitness_into(*rep.ctx, rep.order);
    ++rep.evaluations;
    const double delta = energy(neighbor) - energy(rep.fitness);
    const bool accept =
        delta >= 0.0 ||
        rep.rng.uniform() < std::exp(delta / std::max(rep.temperature, 1e-9));
    if (accept) {
      rep.fitness = neighbor;
      if (rep.best_fitness < rep.fitness) {
        rep.best_fitness = rep.fitness;
        rep.best_order = rep.order;
      }
    } else {
      std::swap(rep.order[i], rep.order[j]);  // undo
    }
    rep.temperature *= kAnnealCooling;
  }
}

}  // namespace

/// Deterministic parallel tempering: N replicas on a geometric temperature
/// ladder step in fixed-size sweeps; at each sweep barrier adjacent pairs
/// (alternating parity per sweep) may exchange their states with the
/// Metropolis-Hastings swap rule, the swap draw coming from a dedicated
/// exchange stream.  Each worker steps the same replicas for the whole run.
/// All per-replica randomness is index-derived and the barrier's exchange
/// pass and fold walk replicas in index order on one thread, so the result
/// is byte-identical at any worker count.
AllocatorResult SimulatedAnnealing::allocate(const SystemModel& model,
                                             util::Rng& rng) const {
  const std::size_t replicas = std::max<std::size_t>(1, options_.replicas);
  const double t0 = kAnnealInitialTemperatureFrac *
                    std::max(1, model.total_worth_available());
  const std::uint64_t base_seed = rng();
  // Streams 0..replicas-1 drive the replicas; stream `replicas` is reserved
  // for the exchange decisions so it can never collide with a replica's.
  util::Rng exchange_rng = util::Rng::stream(base_seed, replicas);

  obs::Span span(obs::names::kSearchAnneal,
                 {{"phase", "Annealing"},
                  {"replicas", std::uint64_t{replicas}},
                  {"threads", std::uint64_t{options_.threads}}});
  auto& registry = obs::MetricsRegistry::instance();
  obs::Counter& sweeps_total = registry.counter(obs::names::kTemperSweeps);
  obs::Counter& exchanges_total = registry.counter(obs::names::kTemperExchanges);
  obs::Counter& swaps_total = registry.counter(obs::names::kTemperSwaps);

  std::vector<TemperReplica> reps(replicas);
  for (std::size_t r = 0; r < replicas; ++r) {
    TemperReplica& rep = reps[r];
    rep.rng = util::Rng::stream(base_seed, r);
    rep.ctx = std::make_unique<DecodeContext>(model);
    // Replicas fan out from one byte-identical state image (a memcpy-cheap
    // clone of replica 0) before shuffling their own start orders.
    if (r > 0) rep.ctx->clone_state_from(*reps[0].ctx);
    rep.order = identity_order(model);
    rep.rng.shuffle(rep.order);
    rep.temperature =
        t0 * std::pow(kAnnealLadderRatio, static_cast<double>(r));
    rep.remaining = options_.iterations / replicas +
                    (r < options_.iterations % replicas ? 1 : 0);
  }

  const std::size_t workers =
      std::min(util::resolve_thread_count(options_.threads), replicas);
  std::unique_ptr<util::ThreadPool> pool;
  if (workers > 1) pool = std::make_unique<util::ThreadPool>(workers);

  Fitness best_fitness{};
  std::vector<StringId> best_order;
  bool have_best = false;
  std::size_t sweep = 0;
  // Fold the per-replica incumbents at a barrier; replica index breaks ties,
  // so post-hoc ordering matches any parallel execution.
  auto fold = [&] {
    for (std::size_t r = 0; r < replicas; ++r) {
      if (reps[r].best_order.empty()) continue;
      if (!have_best || best_fitness < reps[r].best_fitness) {
        best_fitness = reps[r].best_fitness;
        best_order = reps[r].best_order;
        have_best = true;
        obs::trace_event(obs::names::kSearchImprove,
                         {{"phase", "Annealing"},
                          {"trial", std::uint64_t{r}},
                          {"iteration", std::uint64_t{sweep}},
                          {"temperature", reps[r].temperature},
                          {"worth", best_fitness.total_worth},
                          {"slackness", best_fitness.slackness}});
      }
    }
  };

  // Initial decode of every replica's shuffled start order (one evaluation
  // each), in parallel.
  util::for_each_index(pool.get(), replicas, [&](std::size_t, std::size_t r) {
    TemperReplica& rep = reps[r];
    rep.fitness = decode_fitness_into(*rep.ctx, rep.order);
    ++rep.evaluations;
    rep.best_fitness = rep.fitness;
    rep.best_order = rep.order;
  });
  fold();

  auto pending = [&] {
    for (const TemperReplica& rep : reps) {
      if (rep.remaining > 0) return true;
    }
    return false;
  };
  // Worker w steps replicas w, w + W, w + 2W, ... for the whole run, so a
  // replica's decode context stays on one thread.  One sweep is one round:
  // every worker's replicas step, then the round's end runs on one thread
  // with the exchange pass and the incumbent fold.
  auto step_replicas = [&](std::size_t w) {
    for (std::size_t r = w; r < replicas; r += workers) {
      TemperReplica& rep = reps[r];
      if (rep.remaining == 0) continue;
      obs::Span rep_span(obs::names::kSearchTemperReplica,
                         {{"phase", "Annealing"},
                          {"replica", std::uint64_t{r}},
                          {"sweep", std::uint64_t{sweep}}});
      temper_steps(rep, std::min(kAnnealExchangeInterval, rep.remaining));
      rep_span.add("temperature", rep.temperature);
      rep_span.add("worth", static_cast<double>(rep.fitness.total_worth));
    }
  };
  auto end_sweep = [&] {
    sweeps_total.add(1);
    // Adjacent-pair exchange with alternating parity: pairs (0,1),(2,3),..
    // on even sweeps, (1,2),(3,4),.. on odd ones.  The swap draw is always
    // consumed so the exchange stream's position never depends on the
    // energies.
    for (std::size_t i = sweep % 2; i + 1 < replicas; i += 2) {
      TemperReplica& cold = reps[i];
      TemperReplica& hot = reps[i + 1];
      const double u = exchange_rng.uniform();
      const double beta_cold = 1.0 / std::max(cold.temperature, 1e-9);
      const double beta_hot = 1.0 / std::max(hot.temperature, 1e-9);
      // Maximization form of the tempering swap rule: always swap when the
      // hotter replica holds the better state, otherwise with probability
      // exp((beta_cold - beta_hot) * (E_hot - E_cold)) < 1.
      const double delta =
          (beta_cold - beta_hot) * (energy(hot.fitness) - energy(cold.fitness));
      const bool swapped = delta >= 0.0 || u < std::exp(delta);
      exchanges_total.add(1);
      if (swapped) {
        std::swap(cold.order, hot.order);
        std::swap(cold.fitness, hot.fitness);
        swaps_total.add(1);
      }
      obs::trace_event(obs::names::kSearchTemperExchange,
                       {{"phase", "Annealing"},
                        {"sweep", std::uint64_t{sweep}},
                        {"pair", std::uint64_t{i}},
                        {"accepted", swapped ? 1 : 0}});
    }
    fold();
    ++sweep;
    return pending();
  };
  if (pending()) {
    util::run_in_lockstep(pool.get(), workers, step_replicas, end_sweep);
  }

  std::size_t evaluations = 0;
  for (const TemperReplica& rep : reps) evaluations += rep.evaluations;
  span.add("sweeps", static_cast<double>(sweep));
  span.add("evaluations", static_cast<double>(evaluations));
  span.add("worth", static_cast<double>(best_fitness.total_worth));

  AllocatorResult best;
  best.fitness = best_fitness;
  DecodeContext replay_ctx(model);
  best.allocation =
      replay_ctx.materialize(decode_order_into(replay_ctx, best_order)).allocation;
  best.order = std::move(best_order);
  best.evaluations = evaluations;
  return best;
}

}  // namespace tsce::core
