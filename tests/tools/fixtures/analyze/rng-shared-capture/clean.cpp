// Fixture: the BatchEvaluator seeding contract — each work item derives its
// own stream from (seed, index), so any index-to-worker schedule replays
// byte-identically.
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

void shuffle_all(ThreadPool& pool, std::uint64_t seed, std::vector<int>& xs) {
  for_each_index(&pool, xs.size(), [seed, &xs](std::size_t, std::size_t i) {
    util::Rng item_rng = util::Rng::stream(seed, i);
    xs[i] = static_cast<int>(item_rng());
  });
}
