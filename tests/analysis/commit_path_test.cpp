// Pins the session commit path on bench-shaped instances.
//
// AllocationSession::try_commit is deterministic: a fixed model and a fixed
// sequence of IMR-mapped commits, checkpoint restores and decodes must
// reproduce the same accept/reject decisions, the same rejection kinds, the
// same fitness bits and the same bits of every cached eq. (5)-(6) estimate
// on every build.
// A change to the commit path that is meant to be a pure speed-up (fused
// resident scans, flat coefficient tables, cheaper dedupe) must keep every
// value below; a change that alters the analysis must re-capture them and
// say why.  Decisions, estimates and fitness values are folded into FNV-1a
// hashes of their bit patterns.

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/session.hpp"
#include "core/decode.hpp"
#include "core/imr.hpp"
#include "model/system_model.hpp"
#include "testing/reject_counts.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace tsce::analysis {
namespace {

using model::MachineId;
using model::StringId;
using model::SystemModel;

struct CommitPathCase {
  const char* name;
  workload::Scenario scenario;
  std::size_t machines;
  std::size_t strings;
  std::uint64_t seed;
  // Expected values, captured from the reference build.
  std::uint64_t decisions_hash;
  std::uint64_t estimates_hash;
  std::uint64_t fitness_hash;
  std::uint64_t reject_utilization;
  std::uint64_t reject_throughput;
  std::uint64_t reject_latency;
};

void PrintTo(const CommitPathCase& c, std::ostream* os) { *os << c.name; }

class Fnv {
 public:
  void add(std::uint64_t bits) {
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= bits & 0xffU;
      h_ *= 1099511628211ULL;
      bits >>= 8;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

/// Folds the bits of every deployed string's cached estimates into \p h.
void hash_estimates(const AllocationSession& session, Fnv& h) {
  const SystemModel& m = session.system();
  for (std::size_t k = 0; k < m.num_strings(); ++k) {
    const auto id = static_cast<StringId>(k);
    if (!session.allocation().deployed(id)) continue;
    h.add(static_cast<std::uint64_t>(k));
    for (const double c : session.comp_estimates(id)) h.add(c);
    for (const double t : session.tran_estimates(id)) h.add(t);
  }
}

class CommitPath : public ::testing::TestWithParam<CommitPathCase> {};

TEST_P(CommitPath, MatchesReference) {
  const CommitPathCase& c = GetParam();
  auto config = workload::GeneratorConfig::for_scenario(c.scenario);
  config.num_machines = c.machines;
  config.num_strings = c.strings;
  util::Rng rng(c.seed);
  const SystemModel m = workload::generate(config, rng);
  const std::size_t q = m.num_strings();
  const testing::RejectCounts before = testing::RejectCounts::read();

  Fnv decisions;
  Fnv estimates;
  Fnv fitness;

  // Part 1: IMR-mapped commits in random order, with random rewinds to a
  // checkpoint taken earlier in the round (snapshot_into / restore_from), so
  // commits on restored state are pinned too.
  {
    AllocationSession session(m);
    SessionSnapshot checkpoint;
    core::ImrScratch scratch;
    std::vector<MachineId> assignment;
    for (int round = 0; round < 6; ++round) {
      std::vector<StringId> order = core::identity_order(m);
      rng.shuffle(order);
      session.snapshot_into(checkpoint);
      for (const StringId k : order) {
        if (session.allocation().deployed(k)) continue;
        core::imr_map_string_into(m, session.util(), k, scratch, assignment);
        const bool ok = session.try_commit(k, assignment);
        decisions.add(static_cast<std::uint64_t>(k) * 2 + (ok ? 1 : 0));
        hash_estimates(session, estimates);
        const auto r = rng.bounded(8);
        if (r == 0) {
          session.restore_from(checkpoint);
          hash_estimates(session, estimates);
        } else if (r == 1) {
          session.snapshot_into(checkpoint);
        }
      }
      fitness.add(static_cast<std::uint64_t>(session.fitness().total_worth));
      fitness.add(session.fitness().slackness);
    }
  }

  // Part 2: prefix-reusing decodes over random orders and neighbor swaps.
  {
    core::DecodeContext ctx(m);
    std::vector<StringId> order = core::identity_order(m);
    rng.shuffle(order);
    for (int d = 0; d < 200; ++d) {
      if (d % 10 == 0) {
        rng.shuffle(order);
      } else {
        const std::size_t a = rng.bounded(q);
        const std::size_t b = rng.bounded(q);
        std::swap(order[a], order[b]);
      }
      const core::DecodeOutcome out = core::decode_order_into(ctx, order);
      fitness.add(static_cast<std::uint64_t>(out.fitness.total_worth));
      fitness.add(out.fitness.slackness);
      fitness.add(static_cast<std::uint64_t>(out.strings_deployed));
      fitness.add(static_cast<std::uint64_t>(out.first_failed));
    }
  }

  const testing::RejectCounts after = testing::RejectCounts::read();
  EXPECT_EQ(decisions.value(), c.decisions_hash);
  EXPECT_EQ(estimates.value(), c.estimates_hash);
  EXPECT_EQ(fitness.value(), c.fitness_hash);
  EXPECT_EQ(after.utilization - before.utilization, c.reject_utilization);
  EXPECT_EQ(after.throughput - before.throughput, c.reject_throughput);
  EXPECT_EQ(after.latency - before.latency, c.reject_latency);
}

INSTANTIATE_TEST_SUITE_P(
    BenchShapes, CommitPath,
    ::testing::Values(
        CommitPathCase{"s1_loaded_6x40", workload::Scenario::kHighlyLoaded, 6, 40, 2005,
                       0x668bdff18d5cd003ULL, 0x1fcba3f688c35c84ULL,
                       0xdf6c3899bc6e70bdULL, 20, 280, 0},
        CommitPathCase{"s2_qos_6x40", workload::Scenario::kQosLimited, 6, 40, 4242,
                       0x77f5ce4063fbfd50ULL, 0x0f03ebaea90e8a14ULL,
                       0xaec46a130a07d8feULL, 13, 287, 59},
        CommitPathCase{"s3_slack_12x20", workload::Scenario::kLightlyLoaded, 12, 20, 7,
                       0xe07acf1f823a1a06ULL, 0x44fee21387d0246eULL,
                       0xae68c434899010d1ULL, 0, 0, 0},
        CommitPathCase{"paper_12x150", workload::Scenario::kHighlyLoaded, 12, 150, 2005,
                       0xc80ceb6f213b85d8ULL, 0x37bc5f3d157c9219ULL,
                       0x5a39b9b8de21fc2dULL, 7, 631, 0}),
    [](const ::testing::TestParamInfo<CommitPathCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace tsce::analysis
