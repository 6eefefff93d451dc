/// The decisive-prefix memo behind decode_fitness_into (decode.hpp): searches
/// that go through it must return exactly what a memo-free search returns,
/// and every single call must equal a from-scratch decode_order — across
/// hits, misses, complete orders and memo clears.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/class_based.hpp"
#include "core/decode.hpp"
#include "core/psg.hpp"
#include "genitor/genitor.hpp"
#include "model/system_model.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace tsce::core {
namespace {

using model::StringId;
using model::SystemModel;
using model::Worth;
using workload::Scenario;

SystemModel make_model(Scenario scenario, std::size_t machines,
                       std::size_t strings, std::uint64_t seed) {
  auto config = workload::GeneratorConfig::for_scenario(scenario);
  config.num_machines = machines;
  config.num_strings = strings;
  util::Rng rng(seed);
  return workload::generate(config, rng);
}

void expect_same_fitness(const analysis::Fitness& a, const analysis::Fitness& b) {
  EXPECT_EQ(a.total_worth, b.total_worth);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.slackness),
            std::bit_cast<std::uint64_t>(b.slackness));
}

/// PermutationProblem without the engine: every chromosome is decoded from
/// scratch by decode_order.  Same operators, so the same rng draws.
class ReferencePermutationProblem {
 public:
  using Chromosome = std::vector<StringId>;
  using Fitness = analysis::Fitness;

  explicit ReferencePermutationProblem(const SystemModel& model) : model_(&model) {}

  [[nodiscard]] Fitness evaluate(const Chromosome& order) const {
    return decode_order(*model_, order).fitness;
  }
  [[nodiscard]] static std::pair<Chromosome, Chromosome> crossover(
      const Chromosome& a, const Chromosome& b, util::Rng& rng) {
    return PermutationProblem::crossover(a, b, rng);
  }
  [[nodiscard]] static Chromosome mutate(const Chromosome& c, util::Rng& rng) {
    return PermutationProblem::mutate(c, rng);
  }
  [[nodiscard]] Chromosome random_chromosome(util::Rng& rng) const {
    Chromosome c = identity_order(*model_);
    rng.shuffle(c);
    return c;
  }

 private:
  const SystemModel* model_;
};

constexpr std::array<Scenario, 3> kScenarios = {
    Scenario::kHighlyLoaded, Scenario::kQosLimited, Scenario::kLightlyLoaded};

TEST(DecodeMemo, GenitorOverPermutationProblemMatchesMemoFreeReference) {
  const genitor::Config config{.population_size = 40,
                               .bias = 1.6,
                               .max_iterations = 400,
                               .stagnation_limit = 400};
  std::uint64_t seed = 11;
  for (const Scenario scenario : kScenarios) {
    const SystemModel m = make_model(scenario, 4, 30, seed++);
    SCOPED_TRACE(static_cast<int>(scenario));
    const PermutationProblem problem(m);
    const ReferencePermutationProblem reference(m);
    util::Rng rng_a(seed);
    util::Rng rng_b(seed);
    auto a = genitor::Genitor<PermutationProblem>(problem, config).run(rng_a);
    auto b = genitor::Genitor<ReferencePermutationProblem>(reference, config)
                 .run(rng_b);
    EXPECT_EQ(a.best, b.best);
    expect_same_fitness(a.best_fitness, b.best_fitness);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.evaluations, b.evaluations);
    EXPECT_EQ(a.stop_reason, b.stop_reason);
  }
}

/// ClassBasedAllocator::allocate rebuilt around a memo-free problem that
/// decodes base + class order from scratch for every chromosome.
AllocatorResult reference_class_based(const SystemModel& model,
                                      const ClassBasedOptions& options,
                                      util::Rng& rng) {
  struct ClassProblem {
    using Chromosome = std::vector<StringId>;
    using Fitness = analysis::Fitness;
    const SystemModel* model;
    const std::vector<StringId>* base;
    std::vector<StringId> members;

    [[nodiscard]] Fitness evaluate(const Chromosome& order) const {
      std::vector<StringId> full = *base;
      full.insert(full.end(), order.begin(), order.end());
      return decode_order(*model, full).fitness;
    }
    [[nodiscard]] static std::pair<Chromosome, Chromosome> crossover(
        const Chromosome& a, const Chromosome& b, util::Rng& r) {
      return PermutationProblem::crossover(a, b, r);
    }
    [[nodiscard]] static Chromosome mutate(const Chromosome& c, util::Rng& r) {
      return PermutationProblem::mutate(c, r);
    }
    [[nodiscard]] Chromosome random_chromosome(util::Rng& r) const {
      Chromosome c = members;
      r.shuffle(c);
      return c;
    }
  };

  std::vector<StringId> committed;
  std::size_t evaluations = 0;
  for (const Worth worth_class : {Worth::kHigh, Worth::kMedium, Worth::kLow}) {
    std::vector<StringId> members;
    for (std::size_t k = 0; k < model.num_strings(); ++k) {
      if (model.strings[k].worth == worth_class) {
        members.push_back(static_cast<StringId>(k));
      }
    }
    if (members.empty()) continue;
    std::vector<StringId> best_class_order;
    if (members.size() == 1) {
      best_class_order = members;
      ++evaluations;
    } else {
      const ClassProblem problem{&model, &committed, members};
      genitor::Config config = options.ga;
      config.population_size = std::min<std::size_t>(
          config.population_size, std::max<std::size_t>(4, members.size() * 4));
      genitor::Genitor<ClassProblem> ga(problem, config);
      util::Rng class_rng = rng.spawn();
      auto result = ga.run(class_rng);
      evaluations += result.evaluations;
      best_class_order = std::move(result.best);
    }
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

TEST(DecodeMemo, ClassBasedMatchesMemoFreeReference) {
  ClassBasedOptions options;
  options.ga.population_size = 24;
  options.ga.max_iterations = 150;
  options.ga.stagnation_limit = 150;
  std::uint64_t seed = 31;
  for (const Scenario scenario : kScenarios) {
    const SystemModel m = make_model(scenario, 4, 30, seed++);
    SCOPED_TRACE(static_cast<int>(scenario));
    util::Rng rng_a(seed);
    util::Rng rng_b(seed);
    const AllocatorResult a = ClassBasedAllocator(options).allocate(m, rng_a);
    const AllocatorResult b = reference_class_based(m, options, rng_b);
    EXPECT_EQ(a.order, b.order);
    expect_same_fitness(a.fitness, b.fitness);
    EXPECT_EQ(a.evaluations, b.evaluations);
    EXPECT_EQ(a.allocation, b.allocation);
  }
}

TEST(DecodeMemo, CompleteOrderDoesNotMatchLongerOrder) {
  // Lightly loaded: every string deploys, so each prefix is a complete
  // decode whose fitness differs from any longer order's.
  const SystemModel m = make_model(Scenario::kLightlyLoaded, 6, 10, 3);
  const auto order = identity_order(m);
  ASSERT_EQ(decode_order(m, order).strings_deployed, order.size());
  DecodeContext ctx(m);
  for (std::size_t len = 1; len <= order.size(); ++len) {
    const std::span<const StringId> prefix(order.data(), len);
    expect_same_fitness(decode_fitness_into(ctx, prefix),
                        decode_order(m, prefix).fitness);
  }
  EXPECT_EQ(ctx.memo_hits(), 0u);
  // Shorter orders after the whole one: a complete entry covers only its
  // own length in either direction.
  for (std::size_t len = order.size() - 1; len >= 1; --len) {
    const std::span<const StringId> prefix(order.data(), len);
    expect_same_fitness(decode_fitness_into(ctx, prefix),
                        decode_order(m, prefix).fitness);
  }
  EXPECT_EQ(ctx.memo_hits(), order.size() - 1);
}

TEST(DecodeMemo, FailureEntryAnswersEveryOrderItPrefixes) {
  const SystemModel m = make_model(Scenario::kHighlyLoaded, 3, 40, 5);
  auto order = identity_order(m);
  const DecodeResult full = decode_order(m, order);
  ASSERT_NE(full.first_failed, model::kInvalidId);
  const std::size_t decisive = full.strings_deployed + 1;
  ASSERT_LT(decisive + 1, order.size());
  ASSERT_GT(full.strings_deployed, 0u);

  DecodeContext ctx(m);
  // The deployed strings alone form a complete order: its entry must neither
  // answer the longer orders below nor stop their lookup.
  const std::span<const StringId> deployed(order.data(), decisive - 1);
  expect_same_fitness(decode_fitness_into(ctx, deployed),
                      decode_order(m, deployed).fitness);
  expect_same_fitness(decode_fitness_into(ctx, order), full.fitness);
  EXPECT_EQ(ctx.decodes(), 2u);
  // Reorder the tail past the failed string: same decisive prefix.
  std::reverse(order.begin() + static_cast<std::ptrdiff_t>(decisive), order.end());
  expect_same_fitness(decode_fitness_into(ctx, order), full.fitness);
  // Cut the order right after the failed string: still the same prefix.
  expect_same_fitness(
      decode_fitness_into(ctx, std::span<const StringId>(order.data(), decisive)),
      full.fitness);
  EXPECT_EQ(ctx.memo_hits(), 2u);
  EXPECT_EQ(ctx.decodes(), 2u);
}

struct StreamStats {
  std::size_t misses = 0;      ///< real decodes, each storing one entry
  std::size_t stored_ids = 0;  ///< string ids those entries hold
};

/// Decodes \p count random orders through one context, then replays the
/// latest and the first.  Every call must equal decode_order; the latest
/// orders must hit, and the first must have been cleared out.
StreamStats check_stream_through_clears(const SystemModel& m, std::size_t count) {
  DecodeContext ctx(m);
  util::Rng rng(77);
  std::vector<std::vector<StringId>> orders(count, identity_order(m));
  StreamStats stats;
  for (auto& order : orders) {
    rng.shuffle(order);
    const DecodeResult expected = decode_order(m, order);
    const std::size_t decodes = ctx.decodes();
    expect_same_fitness(decode_fitness_into(ctx, order), expected.fitness);
    if (ctx.decodes() != decodes) {
      ++stats.misses;
      stats.stored_ids += expected.first_failed == model::kInvalidId
                              ? expected.strings_deployed
                              : expected.strings_deployed + 1;
    }
  }
  EXPECT_EQ(ctx.memo_hits() + ctx.decodes(), count);

  const std::size_t hits = ctx.memo_hits();
  for (std::size_t i = count - 8; i < count; ++i) {
    expect_same_fitness(decode_fitness_into(ctx, orders[i]),
                        decode_order(m, orders[i]).fitness);
  }
  EXPECT_EQ(ctx.memo_hits(), hits + 8);
  const std::size_t decodes = ctx.decodes();
  expect_same_fitness(decode_fitness_into(ctx, orders.front()),
                      decode_order(m, orders.front()).fitness);
  EXPECT_EQ(ctx.decodes(), decodes + 1) << "the first order should be evicted";
  return stats;
}

TEST(DecodeMemo, StreamPastTableCapacityMatchesDecodeOrder) {
  // Loaded: short decisive prefixes, so the table fills before the arena.
  const StreamStats stats = check_stream_through_clears(
      make_model(Scenario::kHighlyLoaded, 4, 60, 9), 2600);
  EXPECT_GT(stats.misses, DecodeContext::kMemoSlots / 2);
  EXPECT_LE(stats.stored_ids, DecodeContext::kMemoIds);
}

TEST(DecodeMemo, StreamPastIdCapacityMatchesDecodeOrder) {
  // Lightly loaded: long decisive prefixes fill the id arena first.
  const StreamStats stats = check_stream_through_clears(
      make_model(Scenario::kLightlyLoaded, 16, 60, 13), 1200);
  EXPECT_GT(stats.stored_ids, DecodeContext::kMemoIds);
  EXPECT_LE(stats.misses, DecodeContext::kMemoSlots / 2);
}

}  // namespace
}  // namespace tsce::core
