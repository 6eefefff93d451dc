/// Heap-counting gate for the steady-state decode path (DESIGN.md §12): once
/// a DecodeContext has been warmed on a candidate stream, re-decoding the
/// identical stream must perform zero heap allocations — every buffer
/// (arena, snapshot stack, scratch vectors, journals) is sized by the first
/// pass and reused byte-for-byte afterwards.  Complements the static
/// transitive-hot-alloc analyze rule with a dynamic check.
///
/// This test owns its binary: it replaces global operator new/delete with
/// counting shims, which must not leak into the other test executables.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/decode.hpp"
#include "model/system_model.hpp"
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

/// Replays the swap-neighborhood candidate stream BM_DecodePrefixReuse uses:
/// each candidate is one transposition away from the incumbent and is
/// rejected afterwards.  Identical seeds make the warm and measured passes
/// touch the same depths, so every buffer is already sized.
void run_candidate_stream(DecodeContext& ctx, std::vector<StringId>& order,
                          int candidates) {
  const std::size_t q = order.size();
  util::Rng rng(17);
  for (int c = 0; c < candidates; ++c) {
    const std::size_t i = rng.bounded(q);
    std::size_t j = rng.bounded(q);
    while (j == i) j = rng.bounded(q);
    std::swap(order[i], order[j]);
    (void)decode_order_into(ctx, order);
    std::swap(order[i], order[j]);
  }
}

TEST(NoAllocDecode, SteadyStateCandidateStreamIsAllocationFree) {
  const auto cfg = workload::GeneratorConfig::for_scenario(
      workload::Scenario::kHighlyLoaded, 0.4);
  util::Rng model_rng(99);
  const SystemModel m = workload::generate(cfg, model_rng);
  auto order = identity_order(m);
  util::Rng shuffle_rng(5);
  shuffle_rng.shuffle(order);

  DecodeContext ctx(m);
  run_candidate_stream(ctx, order, 200);  // warm: size every buffer

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  run_candidate_stream(ctx, order, 200);  // identical stream, warm buffers
  const std::size_t during =
      g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(during, 0u)
      << during << " heap allocations on the steady-state decode path";
}

/// The candidate stream of run_candidate_stream, each candidate evaluated
/// twice through decode_fitness_into: a miss that decodes and records the
/// decisive prefix, then a hit (a candidate whose decisive prefix an earlier
/// one already recorded hits both times).
void run_fitness_stream(DecodeContext& ctx, std::vector<StringId>& order,
                        int candidates) {
  const std::size_t q = order.size();
  util::Rng rng(17);
  for (int c = 0; c < candidates; ++c) {
    const std::size_t i = rng.bounded(q);
    std::size_t j = rng.bounded(q);
    while (j == i) j = rng.bounded(q);
    std::swap(order[i], order[j]);
    (void)decode_fitness_into(ctx, order);
    (void)decode_fitness_into(ctx, order);
    std::swap(order[i], order[j]);
  }
}

TEST(NoAllocDecode, SteadyStateMemoStreamIsAllocationFree) {
  const auto cfg = workload::GeneratorConfig::for_scenario(
      workload::Scenario::kHighlyLoaded, 0.4);
  util::Rng model_rng(99);
  const SystemModel m = workload::generate(cfg, model_rng);
  auto order = identity_order(m);
  util::Rng shuffle_rng(5);
  shuffle_rng.shuffle(order);

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

}  // namespace
}  // namespace tsce::core
