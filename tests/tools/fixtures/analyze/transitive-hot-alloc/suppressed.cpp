// Fixture: the same hot-path allocations, each carrying a justified
// suppression (e.g. a documented cold first-touch path).  Every allow() must
// absorb a finding, so this file also pins each site of violation.cpp: a site
// the rule stopped seeing would leave a stale suppression behind.
#include <memory>
#include <vector>

#include "util/hot.hpp"

namespace {
void widen(std::vector<int>& out, int x) {
  // tsce-lint: allow(transitive-hot-alloc)
  out.push_back(x);
  int* raw = new int[2];  // tsce-lint: allow(transitive-hot-alloc)
  raw[0] = x;
  // tsce-lint: allow(transitive-hot-alloc)
  out.push_back(raw[0] + raw[1]);
  delete[] raw;
}
}  // namespace

TSCE_HOT int evaluate_candidate(std::vector<int>& scratch, int x) {
  widen(scratch, x);
  return static_cast<int>(scratch.size());
}

TSCE_HOT int evaluate_direct(const std::vector<int>& xs) {
  std::vector<int> copied;
  // tsce-lint: allow(transitive-hot-alloc)
  for (int x : xs) copied.push_back(x);
  auto scratch = std::make_unique<std::vector<int>>(copied);  // tsce-lint: allow(transitive-hot-alloc)
  int* raw = new int[4];  // tsce-lint: allow(transitive-hot-alloc)
  auto boxed = [&](int x) { return new int(x); };  // tsce-lint: allow(transitive-hot-alloc)
  int* one = boxed(1);
  const int total = static_cast<int>(scratch->size()) + raw[0] + *one;
  delete one;
  delete[] raw;
  return total;
}
