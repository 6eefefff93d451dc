// Fixture: the submission site derives a per-item stream (util::Rng::stream)
// and hands the derived engine down, so downstream Rng& parameters are fed
// schedule-independent randomness.
#include <cstddef>
#include <cstdint>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {
double consume(tsce::util::Rng& rng) { return rng.uniform(); }
}  // namespace

struct Engine {
  std::uint64_t seed_ = 42;
  double sum_ = 0.0;

  void run(tsce::util::ThreadPool& pool) {
    tsce::util::for_each_index(&pool, 8, [this](std::size_t, std::size_t i) {
      tsce::util::Rng rng = tsce::util::Rng::stream(seed_, i);
      sum_ += consume(rng);
    });
  }
};
