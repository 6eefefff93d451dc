// Pins the simplex pivot path on upper-bound LPs of the three bench shapes.
// The BenchShapes LPs are the paper-literal (a)–(g) form built by the test
// oracle (paper_lp.hpp), so they stay fixed when the library's builder
// changes and the pins track the simplex engine alone.  The E2eShapes LPs
// are the ones the end-to-end benchmark solves, built by the library.
//
// The solver is deterministic, so a fixed LP must reproduce the same
// iteration and refactorisation counts and the same optimum bits on every
// build.  A kernel change that is meant to be a pure speed-up (sparser
// FTRAN/BTRAN, cached pricing scores, reused factor storage) must keep every
// value below; a change that alters the pivot path must re-capture them and
// say why.  x and row_duals are compared through an FNV-1a hash of their bit
// patterns, objective through its exact bits.

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "lp/paper_lp.hpp"
#include "lp/problem.hpp"
#include "lp/simplex.hpp"
#include "lp/upper_bound.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace tsce::lp {
namespace {

enum class Shape {
  kWorth,      ///< scenario-1/2 worth bound (partial mapping)
  kSlackness,  ///< scenario-3 slackness bound (complete mapping)
  kBoxed,      ///< random boxed LP whose pivots are mostly bound flips
  /// bench/e2e instance: the seed's first spawned generator stream, and the
  /// library's arc-flow builder (worth / slackness by the scenario)
  kE2e,
};

struct PivotPathCase {
  const char* name;
  Shape shape;
  workload::Scenario scenario;
  std::size_t machines;  ///< rows for kBoxed
  std::size_t strings;   ///< columns for kBoxed
  std::uint64_t seed;
  std::size_t degeneracy_limit; ///< small values force the Bland's-rule path
  // Expected values, captured from the reference build.
  std::size_t iterations;
  std::size_t refactorisations;
  std::uint64_t objective_bits;
  std::uint64_t x_hash;
  std::uint64_t duals_hash;
};

void PrintTo(const PivotPathCase& c, std::ostream* os) { *os << c.name; }

std::uint64_t fnv1a_bits(const std::vector<double>& values) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const double v : values) {
    auto bits = std::bit_cast<std::uint64_t>(v);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= bits & 0xffU;
      h *= 1099511628211ULL;
      bits >>= 8;
    }
  }
  return h;
}

/// max c^T x over x in [0, u] with <= rows whose right-hand sides admit
/// most variables at their upper bounds: entering columns often reach their
/// own bound first, so many iterations are bound flips.
LpProblem boxed_lp(std::size_t rows, std::size_t cols, util::Rng& rng) {
  LpProblem p(Sense::kMaximize);
  for (std::size_t j = 0; j < cols; ++j) {
    p.add_variable(0.0, rng.uniform(0.5, 2.0), rng.uniform(1.0, 10.0));
  }
  for (std::size_t r = 0; r < rows; ++r) {
    const auto row = p.add_row(Relation::kLessEqual,
                               rng.uniform(0.3, 0.6) * static_cast<double>(cols));
    for (std::size_t j = 0; j < cols; ++j) {
      if (rng.uniform() < 0.3) {
        p.add_coefficient(row, static_cast<std::int32_t>(j), rng.uniform(0.1, 2.0));
      }
    }
  }
  return p;
}

LpProblem build_case(const PivotPathCase& c) {
  util::Rng rng(c.seed);
  if (c.shape == Shape::kBoxed) return boxed_lp(c.machines, c.strings, rng);
  auto config = workload::GeneratorConfig::for_scenario(c.scenario);
  config.num_machines = c.machines;
  config.num_strings = c.strings;
  if (c.shape == Shape::kE2e) {
    util::Rng stream = rng.spawn();
    const model::SystemModel model = workload::generate(config, stream);
    return build_upper_bound_lp(model, c.scenario == workload::Scenario::kLightlyLoaded,
                                UbObjective::kTotalWorth);
  }
  const model::SystemModel model = workload::generate(config, rng);
  return build_paper_upper_bound_lp(model, c.shape == Shape::kSlackness,
                                    UbObjective::kTotalWorth);
}

class PivotPath : public ::testing::TestWithParam<PivotPathCase> {};

TEST_P(PivotPath, MatchesPinnedSolve) {
  const PivotPathCase& c = GetParam();
  const LpProblem problem = build_case(c);
  SimplexOptions options;
  options.degeneracy_limit = c.degeneracy_limit;
  const LpSolution sol = solve(problem, options);

  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  const auto objective_bits = std::bit_cast<std::uint64_t>(sol.objective);
  const std::uint64_t x_hash = fnv1a_bits(sol.x);
  const std::uint64_t duals_hash = fnv1a_bits(sol.row_duals);
  // On a mismatch, print the whole row so a deliberate re-capture is a paste.
  SCOPED_TRACE(::testing::Message()
               << "actual: " << sol.iterations << ", " << sol.refactorisations
               << ", 0x" << std::hex << objective_bits << "ULL, 0x" << x_hash
               << "ULL, 0x" << duals_hash << "ULL  (objective " << std::dec
               << sol.objective << ", " << problem.num_rows() << " rows)");
  EXPECT_EQ(sol.iterations, c.iterations);
  EXPECT_EQ(sol.refactorisations, c.refactorisations);
  EXPECT_EQ(objective_bits, c.objective_bits);
  EXPECT_EQ(x_hash, c.x_hash);
  EXPECT_EQ(duals_hash, c.duals_hash);
}

using workload::Scenario;

// s1/s2: worth LPs of the half-scale bench shape (M=6) with fewer strings;
// s3: slackness LPs with the bench's M=12 and fewer strings.  The *_bland
// rows re-solve the *_a instances with a low degeneracy limit, so the run
// switches to Bland's rule (and takes a different path).  The boxed rows
// cover bound flips, which the upper-bound LPs rarely take.
INSTANTIATE_TEST_SUITE_P(
    BenchShapes, PivotPath,
    ::testing::Values(
        PivotPathCase{"s1_a", Shape::kWorth, Scenario::kHighlyLoaded,
                      6, 20, 2005, 200,
                      1865, 31, 0x407e800000000000ULL,
                      0xd35bcc9536c7b544ULL, 0x47f79374ed65be65ULL},
        PivotPathCase{"s1_b", Shape::kWorth, Scenario::kHighlyLoaded,
                      6, 30, 4242, 200,
                      2769, 45, 0x40944c0000000000ULL,
                      0xda2f7bddf876a04ULL, 0x1bd55d24faef0a8cULL},
        PivotPathCase{"s1_bland", Shape::kWorth, Scenario::kHighlyLoaded,
                      6, 20, 2005, 5,
                      2706, 44, 0x407e800000000000ULL,
                      0xa7284c08ba1a7e8fULL, 0x47f79374ed65be65ULL},
        PivotPathCase{"s2_a", Shape::kWorth, Scenario::kQosLimited,
                      6, 20, 2005, 200,
                      2189, 36, 0x407e3da77890b9e1ULL,
                      0x15a3b8cdfbd00ffdULL, 0x892e965193889c83ULL},
        PivotPathCase{"s2_b", Shape::kWorth, Scenario::kQosLimited,
                      6, 30, 4242, 200,
                      1939, 32, 0x40940a68b2a007a3ULL,
                      0xd5ab1a206a4ef978ULL, 0xa05dea957f496bbbULL},
        PivotPathCase{"s3_a", Shape::kSlackness, Scenario::kLightlyLoaded,
                      12, 8, 2005, 200,
                      2115, 36, 0x3fed5bdbf94d4b36ULL,
                      0xc6762d1476aa2830ULL, 0xa26585f35e156aa8ULL},
        PivotPathCase{"s3_b", Shape::kSlackness, Scenario::kLightlyLoaded,
                      12, 10, 4242, 200,
                      2855, 48, 0x3fec5c5aac0f2c41ULL,
                      0x315c702002fb6d53ULL, 0x4f8cec0907d3e08dULL},
        PivotPathCase{"s3_bland", Shape::kSlackness, Scenario::kLightlyLoaded,
                      12, 8, 2005, 5,
                      2973, 50, 0x3fed5bdbf94d4b35ULL,
                      0x148dd74147936fc9ULL, 0x4f35c4d98d74d915ULL},
        PivotPathCase{"boxed_a", Shape::kBoxed, Scenario::kHighlyLoaded,
                      40, 120, 2005, 200,
                      113, 2, 0x4089a3a2c7cdd19cULL,
                      0xa0fca7a97cf6e0e0ULL, 0x10fc8e4b789e89a5ULL},
        PivotPathCase{"boxed_b", Shape::kBoxed, Scenario::kHighlyLoaded,
                      80, 200, 4242, 200,
                      184, 2, 0x4094739782686f74ULL,
                      0xa33c637405b804aULL, 0xcc34c4376405c251ULL}),
    [](const ::testing::TestParamInfo<PivotPathCase>& info) {
      return std::string(info.param.name);
    });

// The first instance of seed 2005 of the bench/e2e workloads s1_loaded
// (M=6, Q=75, worth) and s3_slack (M=12, Q=25, slackness), as
// bench/e2e/workloads.cpp generates and bounds it.  Column generation for
// the arc-flow LP (ROADMAP item 1) changes these paths and will re-capture
// them.
INSTANTIATE_TEST_SUITE_P(
    E2eShapes, PivotPath,
    ::testing::Values(
        PivotPathCase{"s1_loaded", Shape::kE2e, Scenario::kHighlyLoaded,
                      6, 75, 2005, 200,
                      1234, 21, 0x40a642a0adb3a2d2ULL,
                      0x23d341700fd8f7ddULL, 0x71e9125123160e72ULL},
        PivotPathCase{"s3_slack", Shape::kE2e, Scenario::kLightlyLoaded,
                      12, 25, 2005, 200,
                      3148, 52, 0x3fe6613eb923479bULL,
                      0xb67d19759cc5b673ULL, 0x48b88f9fae39f67fULL}),
    [](const ::testing::TestParamInfo<PivotPathCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace tsce::lp
