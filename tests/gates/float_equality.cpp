/// Compile-fail fixture for the float-equality gate: the shape of the
/// e39a08b bug, a Fitness equality that compares slackness with a raw ==.
/// Built with tsce_float_equal_gate it must fail on -Wfloat-equal.

namespace {

struct Fitness {
  int total_worth = 0;
  double slackness = 0.0;

  friend constexpr bool operator==(const Fitness& a, const Fitness& b) noexcept {
    return a.total_worth == b.total_worth && a.slackness == b.slackness;
  }
};

}  // namespace

bool same_result(const Fitness& a, const Fitness& b) { return a == b; }
