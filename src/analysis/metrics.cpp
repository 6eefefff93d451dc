#include "analysis/metrics.hpp"

#include "analysis/estimates.hpp"

namespace tsce::analysis {

using model::Allocation;
using model::StringId;
using model::SystemModel;

int total_worth(const SystemModel& model, const Allocation& alloc) noexcept {
  int worth = 0;
  for (std::size_t k = 0; k < model.num_strings(); ++k) {
    if (alloc.deployed(static_cast<StringId>(k))) {
      worth += model.strings[k].worth_factor();
    }
  }
  return worth;
}

Fitness evaluate(const dag::DagSystemModel& model, const Allocation& alloc) {
  int worth = 0;
  for (std::size_t k = 0; k < model.num_strings(); ++k) {
    if (alloc.deployed(static_cast<StringId>(k))) {
      worth += model.strings[k].worth_factor();
    }
  }
  return {worth, loads_of(model, alloc).slackness()};
}

}  // namespace tsce::analysis
