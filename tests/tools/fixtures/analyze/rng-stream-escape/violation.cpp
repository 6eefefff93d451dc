// Fixture: a shared Rng reaches thread-pool work through a call chain.  The
// per-file rng-shared-capture rule sees only the lambda's captures ([this]
// here, so nothing); the taint escapes through step() into consume(Rng&).
#include <cstddef>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {
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
