#include "traced_psg.hpp"

#include <algorithm>
#include <utility>

#include "core/decode.hpp"
#include "core/ordered.hpp"
#include "genitor/genitor.hpp"

namespace tsce::bench::e2e {

using model::StringId;

TracedDecoder::TracedDecoder(const model::SystemModel& model) : session_(model) {
  committed_.reserve(model.num_strings());
  checkpoints_.resize(model.num_strings() + 1);
  session_.snapshot_into(checkpoints_[0]);
}

analysis::Fitness TracedDecoder::decode(std::span<const StringId> order, Fold& fold,
                                        SearchStats& stats) {
  std::size_t lcp = 0;
  const std::size_t max_lcp = std::min(committed_.size(), order.size());
  while (lcp < max_lcp && committed_[lcp] == order[lcp]) ++lcp;
  if (lcp < committed_.size()) {
    const std::uint64_t t0 = obs::clock_ticks();
    session_.restore_from(checkpoints_[lcp]);
    committed_.resize(lcp);
    fold.add(Layer::kRestore, obs::clock_ticks() - t0);
  }
  for (std::size_t p = lcp; p < order.size(); ++p) {
    const StringId k = order[p];
    const std::uint64_t t0 = obs::clock_ticks();
    core::imr_map_string_into(session_.system(), session_.util(), k, imr_scratch_,
                              assignment_);
    const std::uint64_t t1 = obs::clock_ticks();
    const bool accepted = session_.try_commit(k, assignment_);
    const std::uint64_t t2 = obs::clock_ticks();
    fold.add(Layer::kImr, t1 - t0);
    fold.add(Layer::kCommit, t2 - t1);
    stats.imr_ticks.record(t1 - t0);
    if (!accepted) {
      stats.reject_ticks.record(t2 - t1);
      break;
    }
    stats.accept_ticks.record(t2 - t1);
    committed_.push_back(k);
    session_.snapshot_into(checkpoints_[committed_.size()]);
    fold.add(Layer::kSnapshot, obs::clock_ticks() - t2);
  }
  stats.deployed_strings += committed_.size();
  ++stats.decodes;
  return session_.fitness();
}

namespace {

/// GENITOR problem for the traced run: operators pass through to
/// core::PermutationProblem (timed into the trial's fold), evaluations decode
/// under their own span.  Genitor only holds a const reference, so the
/// mutable state sits behind pointers.
class TracedProblem {
 public:
  using Chromosome = core::PermutationProblem::Chromosome;
  using Fitness = analysis::Fitness;

  TracedProblem(const core::PermutationProblem& ops, TracedDecoder& decoder,
                SpanLog& log, std::uint32_t trial, std::uint32_t instance,
                Fold& trial_fold, SearchStats& stats)
      : ops_(&ops), decoder_(&decoder), log_(&log), trial_(trial),
        instance_(instance), trial_fold_(&trial_fold), stats_(&stats) {}

  [[nodiscard]] Fitness evaluate(const Chromosome& order) const {
    const std::uint32_t span = log_->open(Layer::kDecode, trial_, instance_);
    const std::uint64_t t0 = obs::clock_ticks();
    Fold fold;
    const Fitness fitness = decoder_->decode(order, fold, *stats_);
    stats_->decode_ticks.record(obs::clock_ticks() - t0);
    log_->close(span, &fold);
    if (stats_->decodes % 64 == 1) stats_->pending.push_back({order, fitness});
    return fitness;
  }

  [[nodiscard]] std::pair<Chromosome, Chromosome> crossover(const Chromosome& a,
                                                            const Chromosome& b,
                                                            util::Rng& rng) const {
    const std::uint64_t t0 = obs::clock_ticks();
    auto children = ops_->crossover(a, b, rng);
    trial_fold_->add(Layer::kGenitorOps, obs::clock_ticks() - t0);
    return children;
  }

  [[nodiscard]] Chromosome mutate(const Chromosome& c, util::Rng& rng) const {
    const std::uint64_t t0 = obs::clock_ticks();
    Chromosome child = ops_->mutate(c, rng);
    trial_fold_->add(Layer::kGenitorOps, obs::clock_ticks() - t0);
    return child;
  }

  [[nodiscard]] Chromosome random_chromosome(util::Rng& rng) const {
    const std::uint64_t t0 = obs::clock_ticks();
    Chromosome c = ops_->random_chromosome(rng);
    trial_fold_->add(Layer::kGenitorOps, obs::clock_ticks() - t0);
    return c;
  }

 private:
  const core::PermutationProblem* ops_;
  TracedDecoder* decoder_;
  SpanLog* log_;
  std::uint32_t trial_;
  std::uint32_t instance_;
  Fold* trial_fold_;
  SearchStats* stats_;
};

}  // namespace

core::AllocatorResult traced_psg(const model::SystemModel& model,
                                 const core::PsgOptions& options, bool seeded,
                                 util::Rng& rng, SpanLog& log, std::uint32_t parent,
                                 std::uint32_t instance, SearchStats& stats) {
  const ScopedSpan alloc(log, Layer::kPsg, parent, instance);
  const core::PermutationProblem ops(model, options.eval_threads);
  std::vector<std::vector<StringId>> seeds;
  if (seeded) {
    const ScopedSpan span(log, Layer::kOrdered, alloc.id(), instance);
    seeds = {core::mwf_order(model), core::tf_order(model)};
  }
  TracedDecoder decoder(model);

  core::AllocatorResult best;
  bool have_best = false;
  std::size_t total_evaluations = 0;
  for (std::size_t trial = 0; trial < std::max<std::size_t>(1, options.trials);
       ++trial) {
    const std::uint32_t trial_span = log.open(Layer::kGenitor, alloc.id(), instance);
    Fold trial_fold;
    util::Rng trial_rng = rng.spawn();
    const TracedProblem problem(ops, decoder, log, trial_span, instance, trial_fold,
                                stats);
    genitor::Genitor<TracedProblem> ga(problem, options.ga);
    std::size_t last_improvement = 0;
    auto result = ga.run(trial_rng, seeds,
                         [&](std::size_t iteration, const analysis::Fitness&) {
                           last_improvement = iteration;
                         });
    log.close(trial_span, &trial_fold);
    // Each iteration evaluates three offspring after the initial population.
    stats.useful_evaluations +=
        std::min(result.evaluations,
                 options.ga.population_size + 3 * last_improvement);
    stats.evaluations += result.evaluations;
    total_evaluations += result.evaluations;
    if (!have_best || best.fitness < result.best_fitness) {
      const ScopedSpan span(log, Layer::kDecode, alloc.id(), instance);
      core::DecodeResult decoded = core::decode_order(model, result.best);
      best.allocation = std::move(decoded.allocation);
      best.fitness = decoded.fitness;
      best.order = std::move(result.best);
      have_best = true;
    }
  }
  best.evaluations = total_evaluations;
  return best;
}

}  // namespace tsce::bench::e2e
