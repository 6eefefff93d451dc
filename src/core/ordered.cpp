#include "core/ordered.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "analysis/tightness.hpp"
#include "core/decode.hpp"
#include "lp/upper_bound.hpp"

namespace tsce::core {

using model::StringId;
using model::SystemModel;

std::vector<StringId> mwf_order(const SystemModel& model) {
  std::vector<StringId> order = identity_order(model);
  std::stable_sort(order.begin(), order.end(), [&](StringId a, StringId b) {
    return model.strings[static_cast<std::size_t>(a)].worth_factor() >
           model.strings[static_cast<std::size_t>(b)].worth_factor();
  });
  return order;
}

std::vector<StringId> tf_order(const SystemModel& model) {
  std::vector<StringId> order = identity_order(model);
  std::vector<double> tightness(model.num_strings());
  for (std::size_t k = 0; k < model.num_strings(); ++k) {
    tightness[k] = analysis::approx_tightness(model, static_cast<StringId>(k));
  }
  std::stable_sort(order.begin(), order.end(), [&](StringId a, StringId b) {
    return tightness[static_cast<std::size_t>(a)] >
           tightness[static_cast<std::size_t>(b)];
  });
  return order;
}

std::vector<StringId> fraction_order(const SystemModel& model,
                                     const std::vector<double>& fractions) {
  // Fractions are compared on a 1e-9 grid: LP rounding noise (an f_k summed
  // from M^2 arcs can come out as 1 - 1e-16) must not decide the order, and
  // unlike a pairwise tolerance compare the grid keys are a strict weak
  // ordering, as std::stable_sort requires.
  constexpr double kFractionTieTol = 1e-9;
  if (fractions.size() != model.num_strings()) {
    throw std::invalid_argument("fraction_order: one fraction per string expected");
  }
  std::vector<std::int64_t> key(fractions.size());
  for (std::size_t k = 0; k < fractions.size(); ++k) {
    key[k] = std::llround(fractions[k] / kFractionTieTol);
  }
  std::vector<StringId> order = identity_order(model);
  std::stable_sort(order.begin(), order.end(), [&](StringId a, StringId b) {
    const std::int64_t ka = key[static_cast<std::size_t>(a)];
    const std::int64_t kb = key[static_cast<std::size_t>(b)];
    if (ka != kb) return ka > kb;
    return model.strings[static_cast<std::size_t>(a)].worth_factor() >
           model.strings[static_cast<std::size_t>(b)].worth_factor();
  });
  return order;
}

std::vector<StringId> lp_guided_order(const SystemModel& model) {
  const lp::UpperBoundResult ub = lp::upper_bound_worth(model);
  if (ub.status != lp::SolveStatus::kOptimal ||
      ub.string_fractions.size() != model.num_strings()) {
    return mwf_order(model);
  }
  return fraction_order(model, ub.string_fractions);
}

namespace {
AllocatorResult decode_with(const SystemModel& model, std::vector<StringId> order) {
  DecodeResult decoded = decode_order(model, order);
  AllocatorResult result;
  result.allocation = std::move(decoded.allocation);
  result.fitness = decoded.fitness;
  result.order = std::move(order);
  result.evaluations = 1;
  return result;
}
}  // namespace

AllocatorResult MostWorthFirst::allocate(const SystemModel& model,
                                         util::Rng& /*rng*/) const {
  return decode_with(model, mwf_order(model));
}

AllocatorResult TightestFirst::allocate(const SystemModel& model,
                                        util::Rng& /*rng*/) const {
  return decode_with(model, tf_order(model));
}

}  // namespace tsce::core
