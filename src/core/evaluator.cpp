#include "core/evaluator.hpp"

namespace tsce::core {

BatchEvaluator::BatchEvaluator(const model::SystemModel& model, std::size_t threads) {
  threads = util::resolve_thread_count(threads);
  contexts_.reserve(threads);
  for (std::size_t w = 0; w < threads; ++w) {
    contexts_.push_back(std::make_unique<DecodeContext>(model));
    // Stamp every worker with a byte-identical image of worker 0's state
    // (O(state bytes) memcpys): all contexts start from the same snapshot, so
    // result i never depends on which worker picked it up.
    if (w > 0) contexts_[w]->clone_state_from(*contexts_[0]);
  }
  if (threads > 1) pool_ = std::make_unique<util::ThreadPool>(threads);
}

std::vector<analysis::Fitness> BatchEvaluator::evaluate_fitness(
    std::span<const std::vector<model::StringId>> orders) {
  std::vector<analysis::Fitness> fitness(orders.size());
  for_each(orders.size(), [&](std::size_t i, DecodeContext& ctx) {
    fitness[i] = decode_fitness_into(ctx, orders[i]);
  });
  return fitness;
}

}  // namespace tsce::core
