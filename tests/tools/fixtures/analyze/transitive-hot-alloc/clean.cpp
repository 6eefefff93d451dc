// Fixture: the hot frame and the helper it reaches append only into a buffer
// reserved in this file (the scratch-in-ctor pattern), and allocation in
// functions NOT reachable from any hot frame stays legal.
#include <memory>
#include <vector>

#include "util/hot.hpp"

struct Evaluator {
  std::vector<int> scratch;
  Evaluator() { scratch.reserve(64); }

  // Helper without a TSCE_HOT annotation, reached from the hot frame below.
  void widen(int x) { scratch.push_back(x); }

  TSCE_HOT int evaluate_candidate(const std::vector<int>& xs) {
    scratch.clear();
    for (int x : xs) scratch.push_back(x);
    widen(0);
    return static_cast<int>(scratch.size());
  }
};

// Cold setup paths, unreachable from any TSCE_HOT frame.
std::vector<int>* make_buffer() { return new std::vector<int>(); }

std::unique_ptr<Evaluator> make_evaluator() {
  auto e = std::make_unique<Evaluator>();
  e->scratch.push_back(1);
  return e;
}
