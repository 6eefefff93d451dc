/// Deterministic mutation fuzz of the JSON loaders.  Generated models and
/// allocations are serialized, then mutated with a fixed seed: byte flips,
/// deletions, duplicated spans, random bytes and deep nesting.  Every input
/// must either load (a model then passes SystemModel::validate(), an
/// allocation round-trips) or throw a std::exception with a non-empty
/// message.  A crash, a hang or a foreign exception fails the suite; the
/// ASan/UBSan build runs it too.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "core/ordered.hpp"
#include "model/serialization.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace tsce::model {
namespace {

constexpr std::uint64_t kSeed = 2005;
constexpr int kMutationsPerDocument = 2500;
/// Deep enough to overflow the stack of a parser without a nesting cap.
constexpr std::size_t kStackBreakingDepth = 200'000;

/// Applies one to three random edits to \p text.
std::string mutate(std::string text, util::Rng& rng) {
  const auto pos = [&](std::size_t size) { return rng.bounded(size + 1); };
  const std::size_t edits = 1 + rng.bounded(3);
  for (std::size_t e = 0; e < edits; ++e) {
    switch (rng.bounded(5)) {
      case 0: {  // byte flip
        if (text.empty()) break;
        text[rng.bounded(text.size())] = static_cast<char>(rng.bounded(256));
        break;
      }
      case 1: {  // deletion
        const std::size_t at = pos(text.size());
        text.erase(at, 1 + rng.bounded(16));
        break;
      }
      case 2: {  // duplicated span
        if (text.empty()) break;
        const std::size_t from = rng.bounded(text.size());
        const std::string span = text.substr(from, 1 + rng.bounded(64));
        text.insert(pos(text.size()), span);
        break;
      }
      case 3: {  // random bytes
        std::string bytes(1 + rng.bounded(8), '\0');
        for (char& c : bytes) c = static_cast<char>(rng.bounded(256));
        text.insert(pos(text.size()), bytes);
        break;
      }
      default: {  // deep nesting: around the parser's cap, or far past it
        const std::size_t depth = rng.bounded(16) == 0
                                      ? kStackBreakingDepth
                                      : 1 + rng.bounded(4 * util::Json::kMaxDepth);
        const char* open = rng.bernoulli(0.5) ? "[" : "{\"a\":";
        std::string nest;
        for (std::size_t d = 0; d < depth; ++d) nest += open;
        text.insert(pos(text.size()), nest);
        break;
      }
    }
  }
  return text;
}

struct Tally {
  std::size_t loaded = 0;
  std::size_t rejected = 0;
};

/// Loads \p text as a model; a loaded model must be valid.
void load_model(const std::string& text, Tally& tally) {
  try {
    const SystemModel m = system_model_from_json(util::Json::parse(text));
    const auto problems = m.validate();
    EXPECT_TRUE(problems.empty()) << problems.front() << "\ninput: " << text;
    ++tally.loaded;
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()), "") << "input: " << text;
    ++tally.rejected;
  }
}

/// Loads \p text as an allocation of \p m; a loaded allocation must survive
/// its own round trip.
void load_allocation(const std::string& text, const SystemModel& m, Tally& tally) {
  try {
    const Allocation a = allocation_from_json(util::Json::parse(text), m);
    EXPECT_EQ(allocation_from_json(to_json(a), m), a) << "input: " << text;
    ++tally.loaded;
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()), "") << "input: " << text;
    ++tally.rejected;
  }
}

std::vector<SystemModel> generated_models() {
  std::vector<SystemModel> models;
  util::Rng rng(kSeed);
  for (const auto scenario :
       {workload::Scenario::kHighlyLoaded, workload::Scenario::kQosLimited,
        workload::Scenario::kLightlyLoaded}) {
    auto config = workload::GeneratorConfig::for_scenario(scenario);
    config.num_machines = 3;
    config.num_strings = 4;
    models.push_back(workload::generate(config, rng));
  }
  return models;
}

TEST(LoaderFuzz, MutatedModelsLoadValidOrThrowWithAMessage) {
  util::Rng rng(kSeed);
  Tally tally;
  for (const SystemModel& m : generated_models()) {
    const std::string text = to_json(m).dump(rng.bernoulli(0.5) ? 2 : -1);
    load_model(text, tally);
    for (int i = 0; i < kMutationsPerDocument; ++i) {
      load_model(mutate(text, rng), tally);
    }
  }
  // Both outcomes occur, so the mutations neither always break the document
  // nor always miss it.
  EXPECT_GT(tally.loaded, 0u);
  EXPECT_GT(tally.rejected, 0u);
}

TEST(LoaderFuzz, MutatedAllocationsLoadOrThrowWithAMessage) {
  util::Rng rng(kSeed);
  Tally tally;
  for (const SystemModel& m : generated_models()) {
    const auto result = core::MostWorthFirst{}.allocate(m, rng);
    const std::string text = to_json(result.allocation).dump();
    load_allocation(text, m, tally);
    for (int i = 0; i < kMutationsPerDocument; ++i) {
      load_allocation(mutate(text, rng), m, tally);
    }
  }
  EXPECT_GT(tally.loaded, 0u);
  EXPECT_GT(tally.rejected, 0u);
}

}  // namespace
}  // namespace tsce::model
