#include "core/exact.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "analysis/utilization.hpp"
#include "core/decode.hpp"
#include "core/evaluator.hpp"
#include "obs/names.hpp"
#include "obs/trace.hpp"

namespace tsce::core {

using analysis::Fitness;
using model::StringId;
using model::SystemModel;

namespace {

/// Slack added to the level bound: the session sums utilizations in its own
/// order, so a final maximum may round a few ulps below the bound's level.
constexpr double kLevelGuard = 1e-9;

/// Least machine utilization each string adds wherever it is mapped: the sum
/// over its apps of the smallest t*u/P over machines (eq. 2).
std::vector<double> least_utilization(const analysis::CoefficientTables& c) {
  std::vector<double> least(c.period.size(), 0.0);
  for (std::size_t k = 0; k < least.size(); ++k) {
    for (std::size_t row = c.app_off[k] * c.machines; row < c.app_off[k + 1] * c.machines;
         row += c.machines) {
      least[k] += *std::min_element(c.machine_delta.begin() + row,
                                    c.machine_delta.begin() + row + c.machines);
    }
  }
  return least;
}

/// Depth-first enumeration state on top of the incremental decode engine:
/// DecodeContext supplies push/pop string commits, so each tree edge costs
/// one IMR mapping plus the suffix-local feasibility re-analysis.  The
/// context is borrowed (not owned) so one enumerator per top-level branch
/// runs on a worker's long-lived context.
class Enumerator {
 public:
  /// \p floor, when set, is a fitness an earlier branch reached: the fold
  /// keeps that branch on a tie, so this one matters only where it does
  /// strictly better, and subtrees that cannot are pruned.
  Enumerator(const SystemModel& model, DecodeContext& ctx,
             std::span<const double> least_util, std::size_t max_evaluations,
             std::optional<Fitness> floor)
      : model_(model), ctx_(ctx), least_util_(least_util),
        max_evaluations_(max_evaluations), used_(model.num_strings(), false),
        levels_(model.num_machines(), 0.0), bar_(floor) {
    remaining_worth_ = model.total_worth_available();
  }

  /// Enumerates only the orderings that start with string \p k — one
  /// top-level branch of the tree, self-contained so branches can run as
  /// independent tasks.  The root commit is charged like any other tree
  /// edge; a failing root commit reduces the branch to the empty prefix
  /// (every completion of it decodes to the empty allocation).
  void run_branch(StringId k) {
    ++evaluations_;
    const int worth_k = model_.strings[static_cast<std::size_t>(k)].worth_factor();
    if (ctx_.try_push(k)) {
      used_[static_cast<std::size_t>(k)] = true;
      remaining_worth_ -= worth_k;
      descend();
      remaining_worth_ += worth_k;
      used_[static_cast<std::size_t>(k)] = false;
      ctx_.pop();
    } else {
      consider(ctx_.fitness());
    }
  }

  [[nodiscard]] const model::Allocation& best_allocation() const noexcept {
    return best_allocation_;
  }
  [[nodiscard]] Fitness best_fitness() const noexcept { return best_fitness_; }
  [[nodiscard]] const std::vector<StringId>& best_order() const noexcept {
    return best_order_;
  }
  [[nodiscard]] bool have_best() const noexcept { return have_best_; }
  [[nodiscard]] std::size_t evaluations() const noexcept { return evaluations_; }

 private:
  void consider(const Fitness& fitness) {
    if (!have_best_ || best_fitness_ < fitness) {
      best_fitness_ = fitness;
      best_allocation_ = ctx_.allocation();
      best_order_.assign(ctx_.committed().begin(), ctx_.committed().end());
      have_best_ = true;
      if (!bar_ || *bar_ < fitness) bar_ = fitness;
      obs::trace_event(obs::names::kSearchImprove,
                       {{"phase", "Exact"},
                        {"iteration", std::uint64_t{evaluations_}},
                        {"worth", best_fitness_.total_worth},
                        {"slackness", best_fitness_.slackness}});
    }
  }

  /// The best fitness any completion of the current prefix can decode to.
  /// Worth: the prefix's plus every remaining string's.  Slackness: never
  /// above the prefix's, since committing a string only adds utilization.
  /// When skipping any one remaining string already loses to the bar's
  /// worth, only completions that deploy all of them can tie it, and those
  /// leave the most loaded machine at completion_level() or higher.
  Fitness bound(const Fitness& current) {
    Fitness cap{current.total_worth + remaining_worth_, current.slackness};
    int least_worth = std::numeric_limits<int>::max();
    double fill = 0.0;
    for (std::size_t k = 0; k < used_.size(); ++k) {
      if (used_[k]) continue;
      least_worth = std::min(least_worth, model_.strings[k].worth_factor());
      fill += least_util_[k];
    }
    if (least_worth != std::numeric_limits<int>::max() &&
        cap.total_worth - least_worth < bar_->total_worth) {
      cap.slackness =
          std::min(cap.slackness, 1.0 - completion_level(fill) + kLevelGuard);
    }
    return cap;
  }

  /// A utilization the most loaded machine reaches once every remaining
  /// string is deployed, from the current machine utilizations U_j:
  /// - water-filling: the remaining strings add at least \p fill in total,
  ///   so some machine ends at or above the level L with
  ///   sum_j max(0, L - U_j) = fill;
  /// - largest app: each remaining app leaves the machine it lands on at
  ///   U_j plus its utilization there, so at least the minimum over j.
  double completion_level(double fill) {
    const analysis::UtilizationState& util = ctx_.util();
    const analysis::CoefficientTables& c = util.coefficients();
    for (std::size_t j = 0; j < levels_.size(); ++j) {
      levels_[j] = util.machine_util(static_cast<model::MachineId>(j));
    }
    double app_level = 0.0;
    for (std::size_t k = 0; k < used_.size(); ++k) {
      if (used_[k]) continue;
      for (std::size_t row = c.app_off[k] * c.machines;
           row < c.app_off[k + 1] * c.machines; row += c.machines) {
        double lowest = std::numeric_limits<double>::infinity();
        for (std::size_t j = 0; j < levels_.size(); ++j) {
          lowest = std::min(lowest, levels_[j] + c.machine_delta[row + j]);
        }
        app_level = std::max(app_level, lowest);
      }
    }
    std::sort(levels_.begin(), levels_.end());
    double poured = fill;
    std::size_t j = 0;
    for (; j + 1 < levels_.size(); ++j) {
      poured += levels_[j];
      if (poured / static_cast<double>(j + 1) <= levels_[j + 1]) break;
    }
    if (j + 1 == levels_.size()) poured += levels_[j];
    return std::max(app_level, poured / static_cast<double>(j + 1));
  }

  void descend() {
    if (evaluations_ >= max_evaluations_) return;
    // Bound: no completion can beat the bar, and a tie keeps the incumbent
    // (consider replaces only on a strict improvement) or the earlier
    // branch (so does the fold).
    const Fitness current = ctx_.fitness();
    if (bar_ && bound(current) <= *bar_) return;
    bool leaf = true;
    const auto q = static_cast<StringId>(model_.num_strings());
    for (StringId k = 0; k < q; ++k) {
      if (used_[static_cast<std::size_t>(k)]) continue;
      leaf = false;
      ++evaluations_;
      const int worth_k = model_.strings[static_cast<std::size_t>(k)].worth_factor();
      if (ctx_.try_push(k)) {
        used_[static_cast<std::size_t>(k)] = true;
        remaining_worth_ -= worth_k;
        descend();
        remaining_worth_ += worth_k;
        used_[static_cast<std::size_t>(k)] = false;
        ctx_.pop();
      } else {
        // The sequential decode stops at the first infeasible string: every
        // completion of this prefix ending in k has the current value.
        consider(current);
      }
      if (evaluations_ >= max_evaluations_) return;
    }
    if (leaf) consider(current);
  }

  const SystemModel& model_;
  DecodeContext& ctx_;
  std::span<const double> least_util_;
  std::size_t max_evaluations_;
  std::size_t evaluations_ = 0;
  std::vector<bool> used_;
  int remaining_worth_ = 0;
  /// Machine utilizations of the current prefix (completion_level scratch).
  std::vector<double> levels_;
  /// What a subtree must beat to be searched: the larger of the incumbent
  /// and the floor.
  std::optional<Fitness> bar_;

  bool have_best_ = false;
  Fitness best_fitness_{};
  model::Allocation best_allocation_;
  std::vector<StringId> best_order_;
};

}  // namespace

AllocatorResult ExactPermutationSearch::allocate(const SystemModel& model,
                                                 util::Rng& /*rng*/) const {
  obs::Span span(obs::names::kSearchExact,
                 {{"phase", "Exact"},
                  {"threads", std::uint64_t{options_.threads}}});

  // The top level of the tree is split into one task per first string, each
  // enumerated with its own incumbent and an equal slice of the evaluation
  // budget.  Branch 0 runs first and its optimum is the floor of every other
  // branch; nothing a task prunes depends on another task's timing.  The
  // fold walks branches in index order (strictly-better wins), which makes
  // the result byte-identical at any worker count.
  const std::size_t q = model.num_strings();
  struct Branch {
    Fitness fitness{};
    model::Allocation allocation;
    std::vector<StringId> order;
    std::size_t evaluations = 0;
    bool have = false;
  };
  std::vector<Branch> branches(q);
  const std::size_t slice = std::max<std::size_t>(
      1, options_.max_evaluations / std::max<std::size_t>(1, q));
  const std::vector<double> least_util =
      least_utilization(analysis::CoefficientTables(model));
  auto search_branch = [&](std::size_t k, DecodeContext& ctx,
                           std::optional<Fitness> floor) {
    obs::Span branch_span(obs::names::kSearchExactBranch,
                          {{"phase", "Exact"}, {"branch", std::uint64_t{k}}});
    ctx.rewind_to(0);
    Enumerator enumerator(model, ctx, least_util, slice, floor);
    enumerator.run_branch(static_cast<StringId>(k));
    branches[k].fitness = enumerator.best_fitness();
    branches[k].allocation = enumerator.best_allocation();
    branches[k].order = enumerator.best_order();
    branches[k].evaluations = enumerator.evaluations();
    branches[k].have = enumerator.have_best();
    branch_span.add("evaluations", static_cast<double>(enumerator.evaluations()));
    branch_span.add("worth",
                    static_cast<double>(enumerator.best_fitness().total_worth));
  };
  BatchEvaluator evaluator(model, options_.threads);
  if (q > 0) {
    evaluator.for_each(1, [&](std::size_t, DecodeContext& ctx) {
      search_branch(0, ctx, std::nullopt);
    });
    const std::optional<Fitness> floor =
        branches[0].have ? std::optional<Fitness>(branches[0].fitness) : std::nullopt;
    evaluator.for_each(q - 1, [&](std::size_t i, DecodeContext& ctx) {
      search_branch(i + 1, ctx, floor);
    });
  }

  // Seed the reduction with the empty prefix, then fold branches in index
  // order.
  AllocatorResult result;
  DecodeResult root = decode_order(model, {});
  result.allocation = std::move(root.allocation);
  result.fitness = root.fitness;
  std::size_t evaluations = 0;
  for (std::size_t k = 0; k < q; ++k) {
    evaluations += branches[k].evaluations;
    if (branches[k].have && result.fitness < branches[k].fitness) {
      result.fitness = branches[k].fitness;
      result.allocation = std::move(branches[k].allocation);
      result.order = std::move(branches[k].order);
    }
  }
  result.evaluations = evaluations;
  span.add("evaluations", static_cast<double>(evaluations));
  span.add("worth", static_cast<double>(result.fitness.total_worth));
  return result;
}

}  // namespace tsce::core
