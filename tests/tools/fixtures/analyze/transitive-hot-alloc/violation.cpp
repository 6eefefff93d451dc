// Fixture: allocations in a TSCE_HOT frame itself — including a lambda
// defined in its body — and in a helper that is NOT annotated TSCE_HOT but is
// reachable from a hot frame through the call graph.
#include <memory>
#include <vector>

#include "util/hot.hpp"

namespace {
void widen(std::vector<int>& out, int x) {
  out.push_back(x);  // no reserve anywhere in this file
  int* raw = new int[2];
  raw[0] = x;
  out.push_back(raw[0] + raw[1]);
  delete[] raw;
}
}  // namespace

TSCE_HOT int evaluate_candidate(std::vector<int>& scratch, int x) {
  widen(scratch, x);
  return static_cast<int>(scratch.size());
}

// Per-candidate heap allocation directly inside the annotated frame (the
// steady-state decode path must be allocation-free — DESIGN.md §12).
TSCE_HOT int evaluate_direct(const std::vector<int>& xs) {
  std::vector<int> copied;
  for (int x : xs) copied.push_back(x);
  auto scratch = std::make_unique<std::vector<int>>(copied);
  int* raw = new int[4];
  auto boxed = [&](int x) { return new int(x); };
  int* one = boxed(1);
  const int total = static_cast<int>(scratch->size()) + raw[0] + *one;
  delete one;
  delete[] raw;
  return total;
}
