// Fixture: a shared Rng captured by reference into pool work items — every
// draw races, and the interleaving (hence the result) depends on the thread
// schedule.
#include <cstddef>
#include <cstdint>
#include <vector>

namespace util {
struct Rng {
  std::uint64_t operator()();
  static Rng stream(std::uint64_t seed, std::uint64_t index);
};
}  // namespace util

struct ThreadPool {};
template <typename F>
void for_each_index(ThreadPool* pool, std::size_t count, F&& fn);

void shuffle_all(ThreadPool& pool, util::Rng& rng, std::vector<int>& xs) {
  for_each_index(&pool, xs.size(), [&rng, &xs](std::size_t, std::size_t i) {
    xs[i] = static_cast<int>(rng());
  });
}
