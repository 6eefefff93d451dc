#include "core/class_based.hpp"

#include <algorithm>
#include <array>

#include "core/decode.hpp"
#include "genitor/genitor.hpp"
#include "obs/names.hpp"
#include "obs/trace.hpp"

namespace tsce::core {

using model::StringId;
using model::SystemModel;
using model::Worth;

namespace {

/// GENITOR problem over orderings of one worth class, evaluated by decoding
/// the frozen base order followed by the class ordering.  Every candidate
/// shares the frozen base as a prefix, so the context-based decode reuses it
/// across the whole search instead of re-deploying it per evaluation.
class ClassOrderProblem {
 public:
  using Chromosome = std::vector<StringId>;
  using Fitness = analysis::Fitness;

  ClassOrderProblem(const SystemModel& model, const std::vector<StringId>& base,
                    std::vector<StringId> members)
      : base_(&base), members_(std::move(members)), ctx_(model) {}

  [[nodiscard]] Fitness evaluate(const Chromosome& order) const {
    full_.assign(base_->begin(), base_->end());
    full_.insert(full_.end(), order.begin(), order.end());
    return decode_fitness_into(ctx_, full_);
  }

  [[nodiscard]] static std::pair<Chromosome, Chromosome> crossover(
      const Chromosome& a, const Chromosome& b, util::Rng& rng) {
    return PermutationProblem::crossover(a, b, rng);
  }

  [[nodiscard]] static Chromosome mutate(const Chromosome& c, util::Rng& rng) {
    return PermutationProblem::mutate(c, rng);
  }

  [[nodiscard]] Chromosome random_chromosome(util::Rng& rng) const {
    Chromosome c = members_;
    rng.shuffle(c);
    return c;
  }

 private:
  const std::vector<StringId>* base_;
  std::vector<StringId> members_;
  mutable DecodeContext ctx_;
  mutable std::vector<StringId> full_;
};

}  // namespace

AllocatorResult ClassBasedAllocator::allocate(const SystemModel& model,
                                              util::Rng& rng) const {
  static constexpr std::array<Worth, 3> kClassOrder = {Worth::kHigh, Worth::kMedium,
                                                       Worth::kLow};
  std::vector<StringId> committed;  // deployed strings of frozen classes
  std::size_t evaluations = 0;

  std::size_t class_index = 0;
  for (const Worth worth_class : kClassOrder) {
    std::vector<StringId> members;
    for (std::size_t k = 0; k < model.num_strings(); ++k) {
      if (model.strings[k].worth == worth_class) {
        members.push_back(static_cast<StringId>(k));
      }
    }
    if (members.empty()) continue;
    obs::Span span(obs::names::kSearchClass,
                   {{"phase", "ClassBased"},
                    {"class", std::uint64_t{class_index++}},
                    {"members", std::uint64_t{members.size()}}});

    std::vector<StringId> best_class_order;
    if (members.size() == 1) {
      best_class_order = members;
      ++evaluations;
    } else {
      const ClassOrderProblem problem(model, committed, members);
      genitor::Config config = options_.ga;
      config.population_size = std::min<std::size_t>(
          config.population_size, std::max<std::size_t>(4, members.size() * 4));
      genitor::Genitor<ClassOrderProblem> ga(problem, config);
      const std::size_t trace_class = class_index - 1;
      util::Rng class_rng = rng.spawn();
      auto ga_result = ga.run(
          class_rng, {},
          [&](std::size_t iteration, const analysis::Fitness& elite) {
            obs::trace_event(obs::names::kSearchImprove,
                             {{"phase", "ClassBased"},
                              {"trial", std::uint64_t{trace_class}},
                              {"iteration", std::uint64_t{iteration}},
                              {"worth", elite.total_worth},
                              {"slackness", elite.slackness}});
          });
      evaluations += ga_result.evaluations;
      best_class_order = std::move(ga_result.best);
    }

    // Freeze the deployed prefix of the class: strings the decode rejected
    // are dropped (the class scheme never revisits them).
    std::vector<StringId> full = committed;
    full.insert(full.end(), best_class_order.begin(), best_class_order.end());
    const DecodeResult decoded = decode_order(model, full);
    for (const StringId k : best_class_order) {
      if (decoded.allocation.deployed(k)) committed.push_back(k);
    }
  }

  DecodeResult final_decode = decode_order(model, committed);
  AllocatorResult result;
  result.allocation = std::move(final_decode.allocation);
  result.fitness = final_decode.fitness;
  result.order = std::move(committed);
  result.evaluations = evaluations + 1;
  return result;
}

}  // namespace tsce::core
