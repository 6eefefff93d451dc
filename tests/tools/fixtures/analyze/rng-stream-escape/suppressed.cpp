// Fixture: the same escape, suppressed at the flagged definition (consume's
// signature line) with a justification.
#include <cstddef>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {
// Single-threaded pool in this configuration; order is deterministic.
// tsce-lint: allow(rng-stream-escape)
double consume(tsce::util::Rng& rng) { return rng.uniform(); }
}  // namespace

struct Engine {
  tsce::util::Rng rng_;
  double sum_ = 0.0;

  void step(std::size_t i) {
    sum_ += consume(rng_) + static_cast<double>(i);
  }

  void run(tsce::util::ThreadPool& pool) {
    tsce::util::for_each_index(&pool, 8, [this](std::size_t, std::size_t i) { step(i); });
  }
};
