/// Heap-counting gate for the TSCE_HOT frames (DESIGN.md §12): once warmed,
/// the hot loops must perform zero heap allocations — every buffer (arena,
/// snapshot stack, scratch vectors, journals, LU solve scratch, histogram
/// shards) is sized by the first pass and reused byte-for-byte afterwards.
/// Four kinds of warmed loop are counted:
///   - the decode and memo candidate streams: decode_order_into,
///     decode_fitness_into, memo_find, try_push, rewind_to,
///     imr_map_string_into, AllocationSession::try_commit and its stage-two
///     scans, UtilizationState::stage / store_staged / slackness,
///     Histogram::record;
///   - the exact enumerator's push/pop walk: try_push and pop;
///   - the LP re-solve kernels BasisLu::ftran / btran at the optimal basis of
///     the paper's upper-bound LP, with an eta file;
///   - Histogram::record and HdrHistogram::record / index_of on a warmed
///     shard.
/// A `new` in any of these frames, or in anything they call, fails a case.
///
/// This test owns its binary: it replaces global operator new/delete with
/// counting shims, which must not leak into the other test executables.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/decode.hpp"
#include "lp/problem.hpp"
#include "lp/simplex.hpp"
#include "lp/sparse_lu.hpp"
#include "lp/upper_bound.hpp"
#include "model/system_model.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                               (size + static_cast<std::size_t>(align) - 1) &
                                   ~(static_cast<std::size_t>(align) - 1));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace tsce::core {
namespace {

using model::StringId;
using model::SystemModel;

/// The scenario-1 model, at 0.4 of its strings, that every decode stream
/// runs on.
SystemModel stream_model() {
  const auto cfg = workload::GeneratorConfig::for_scenario(
      workload::Scenario::kHighlyLoaded, 0.4);
  util::Rng model_rng(99);
  return workload::generate(cfg, model_rng);
}

/// The shuffled incumbent the swap candidates are drawn around.
std::vector<StringId> start_order(const SystemModel& m) {
  auto order = identity_order(m);
  util::Rng shuffle_rng(5);
  shuffle_rng.shuffle(order);
  return order;
}

/// Replays the swap-neighborhood candidate stream BM_DecodePrefixReuse uses:
/// each candidate is one transposition away from the incumbent, is handed to
/// \p visit, and is rejected afterwards.  Identical seeds make the warm and
/// measured passes touch the same depths, so every buffer is already sized.
template <typename Visit>
void for_each_swap_candidate(std::vector<StringId>& order, int candidates,
                             Visit visit) {
  const std::size_t q = order.size();
  util::Rng rng(17);
  for (int c = 0; c < candidates; ++c) {
    const std::size_t i = rng.bounded(q);
    std::size_t j = rng.bounded(q);
    while (j == i) j = rng.bounded(q);
    std::swap(order[i], order[j]);
    visit();
    std::swap(order[i], order[j]);
  }
}

void run_candidate_stream(DecodeContext& ctx, std::vector<StringId>& order,
                          int candidates) {
  for_each_swap_candidate(order, candidates,
                          [&] { (void)decode_order_into(ctx, order); });
}

TEST(NoAllocDecode, SteadyStateCandidateStreamIsAllocationFree) {
  const SystemModel m = stream_model();
  auto order = start_order(m);

  DecodeContext ctx(m);
  run_candidate_stream(ctx, order, 200);  // warm: size every buffer

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  run_candidate_stream(ctx, order, 200);  // identical stream, warm buffers
  const std::size_t during =
      g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(during, 0u)
      << during << " heap allocations on the steady-state decode path";
}

/// The swap candidate stream, each candidate evaluated
/// twice through decode_fitness_into: a miss that decodes and records the
/// decisive prefix, then a hit (a candidate whose decisive prefix an earlier
/// one already recorded hits both times).
void run_fitness_stream(DecodeContext& ctx, std::vector<StringId>& order,
                        int candidates) {
  for_each_swap_candidate(order, candidates, [&] {
    (void)decode_fitness_into(ctx, order);
    (void)decode_fitness_into(ctx, order);
  });
}

TEST(NoAllocDecode, SteadyStateMemoStreamIsAllocationFree) {
  const SystemModel m = stream_model();
  auto order = start_order(m);

  DecodeContext ctx(m);
  // Warm: size the memo with one call, and every decode buffer with the
  // stream itself, without recording the stream in the memo.
  (void)decode_fitness_into(ctx, order);
  run_candidate_stream(ctx, order, 200);

  const std::size_t decodes = ctx.decodes();
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  run_fitness_stream(ctx, order, 200);
  const std::size_t during =
      g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(during, 0u)
      << during << " heap allocations on the steady-state memo path";
  const std::size_t misses = ctx.decodes() - decodes;
  EXPECT_GT(misses, 100u);
  EXPECT_GE(ctx.memo_hits(), 200u);
  EXPECT_EQ(misses + ctx.memo_hits(), 400u);
}

/// The exact enumerator's depth-first primitives: each swap candidate is
/// pushed string by string onto the empty prefix, then popped back to it.
void run_push_pop_walk(DecodeContext& ctx, std::vector<StringId>& order,
                       int candidates) {
  for_each_swap_candidate(order, candidates, [&] {
    std::size_t depth = 0;
    for (const StringId k : order) {
      if (ctx.try_push(k)) ++depth;
    }
    for (; depth > 0; --depth) ctx.pop();
  });
}

TEST(NoAllocDecode, SteadyStatePushPopWalkIsAllocationFree) {
  const SystemModel m = stream_model();
  auto order = start_order(m);

  DecodeContext ctx(m);
  run_push_pop_walk(ctx, order, 50);  // warm

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  run_push_pop_walk(ctx, order, 50);
  const std::size_t during =
      g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(during, 0u) << during << " heap allocations on the push/pop walk";
}

/// The kernels every iteration of a warm LP re-solve runs, on the factor of
/// the upper-bound LP's optimal basis: FTRAN of candidate entering columns
/// (the ratio test's spike) and BTRAN of unit vectors (the pricing row).  A
/// few columns are pivoted in first, as the re-solve's iterations would, so
/// both solves also apply the eta file.
TEST(NoAllocDecode, WarmLpResolveKernelsAreAllocationFree) {
  auto cfg = workload::GeneratorConfig::for_scenario(workload::Scenario::kHighlyLoaded);
  cfg.num_machines = 4;
  cfg.num_strings = 16;
  util::Rng model_rng(99);
  const SystemModel m = workload::generate(cfg, model_rng);
  const lp::LpProblem problem =
      lp::build_upper_bound_lp(m, false, lp::UbObjective::kTotalWorth);
  const lp::LpSolution solution = lp::solve(problem);
  ASSERT_EQ(solution.status, lp::SolveStatus::kOptimal);
  ASSERT_FALSE(solution.basis.empty());

  // A = [structural | I], the solver's computational form.
  const std::size_t rows = problem.num_rows();
  const std::size_t cols = problem.num_variables() + rows;
  std::vector<lp::Triplet> triplets = problem.triplets();
  for (std::size_t r = 0; r < rows; ++r) {
    triplets.push_back({static_cast<std::int32_t>(r),
                        static_cast<std::int32_t>(problem.num_variables() + r), 1.0});
  }
  const lp::CscMatrix a = lp::CscMatrix::from_triplets(rows, cols, triplets);
  std::vector<std::int32_t> basis;
  std::vector<std::int32_t> nonbasic;
  for (std::size_t j = 0; j < cols; ++j) {
    (solution.basis.status[j] == lp::VarState::kBasic ? basis : nonbasic)
        .push_back(static_cast<std::int32_t>(j));
  }
  ASSERT_EQ(basis.size(), rows);
  lp::BasisLu lu;
  ASSERT_TRUE(lu.factorize(a, basis, lp::kPivotTol));

  lp::IndexedVector v;
  v.resize(rows);
  const auto load_column = [&](std::int32_t j) {
    v.clear();
    const auto c = static_cast<std::size_t>(j);
    for (auto e = a.col_start[c]; e < a.col_start[c + 1]; ++e) {
      const auto u = static_cast<std::size_t>(e);
      v.add(a.row_index[u], a.value[u]);
    }
  };
  for (std::size_t p = 0; p < 4 && p < nonbasic.size(); ++p) {
    load_column(nonbasic[p]);
    lu.ftran(v);
    std::size_t leave = 0;
    for (std::size_t i = 1; i < rows; ++i) {
      if (std::abs(v.values[i]) > std::abs(v.values[leave])) leave = i;
    }
    (void)lu.push_eta(v, leave, lp::kPivotTol);
  }
  ASSERT_GT(lu.eta_count(), 0u);

  const auto kernels = [&] {
    for (const std::int32_t j : nonbasic) {
      load_column(j);
      lu.ftran(v);
    }
    for (std::size_t p = 0; p < rows; ++p) {
      v.clear();
      v.add(static_cast<std::int32_t>(p), 1.0);
      lu.btran(v);
    }
  };
  kernels();  // warm: size the solve scratch

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  kernels();
  const std::size_t during =
      g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(during, 0u) << during << " heap allocations in warm FTRAN/BTRAN";
}

TEST(NoAllocDecode, WarmHistogramRecordIsAllocationFree) {
  obs::Histogram& shared =
      obs::MetricsRegistry::instance().histogram("test.no_alloc.histogram");
  obs::HdrHistogram local;
  shared.record(1);  // warm: allocates this thread's shard for the slot
  local.record(1);

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (std::uint64_t v = 1; v < (std::uint64_t{1} << 50); v = v * 3 + 1) {
    shared.record(v);
    local.record(v);
  }
  const std::size_t during =
      g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(during, 0u) << during << " heap allocations in warm Histogram::record";
}

}  // namespace
}  // namespace tsce::core
