/// Property test for the arena-backed UtilizationState (DESIGN.md §12):
/// random interleaved add_string / snapshot / restore sequences must stay
/// bit-identical to a from-scratch from_allocation rebuild that replays the
/// surviving deployment order — the guarantee every restore relies on.
/// Every utilization is maintained as a left fold over its resident slab, so
/// the live state, the replayed rebuild, and a restored snapshot can never
/// drift apart — not even in the last ulp.  The id-ordered from_allocation
/// overload agrees up to float re-association only (different fold order),
/// which is also pinned down here so the contract stays documented by a
/// failing test if it drifts.  Each add is first staged: every staged sum
/// must equal, bit for bit, both a plain per-resource fold of the string's
/// terms in app order and the value add_string then stores, and the stage's
/// verdict must judge those stored sums.

#include "analysis/utilization.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "analysis/feasibility.hpp"
#include "model/allocation.hpp"
#include "model/system_model.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace tsce::analysis {
namespace {

using model::Allocation;
using model::AppIndex;
using model::MachineId;
using model::StringId;
using model::SystemModel;

bool bit_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Everything needed to resume (and cross-check) a saved state: the arena
/// snapshot plus the shadow allocation / deployment order that produced it,
/// and the raw utilization values observed at capture time.
struct SavedState {
  util::ArenaSnapshot snap;
  Allocation alloc;
  std::vector<StringId> deploy_order;
  std::vector<double> machine_util;
  std::vector<double> route_util;
  double slackness = 0.0;
};

class Driver {
 public:
  Driver(const SystemModel& m, std::uint64_t seed)
      : m_(m), alloc_(m), util_(m), rng_(seed) {}

  /// Adds whose stage passed, so their staged sums were compared.
  [[nodiscard]] int staged_passes() const { return staged_passes_; }

  void run(int ops) {
    for (int op = 0; op < ops; ++op) {
      const auto r = rng_.bounded(10);
      if (r < 6) {
        add_random_string();
      } else if (r < 9 || saved_.empty()) {
        save_snapshot();
      } else {
        restore_random_snapshot();
      }
      verify();
    }
  }

 private:
  void add_random_string() {
    std::vector<StringId> undeployed;
    for (std::size_t k = 0; k < m_.num_strings(); ++k) {
      if (!alloc_.deployed(static_cast<StringId>(k))) {
        undeployed.push_back(static_cast<StringId>(k));
      }
    }
    if (undeployed.empty()) return;
    const StringId k = undeployed[rng_.bounded(undeployed.size())];
    const auto& s = m_.strings[static_cast<std::size_t>(k)];
    std::vector<MachineId> assignment(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
      assignment[i] = static_cast<MachineId>(rng_.bounded(m_.num_machines()));
      alloc_.assign(k, static_cast<AppIndex>(i), assignment[i]);
    }
    alloc_.set_deployed(k, true);
    const std::size_t n = s.size();
    // Oracle: each touched resource's current sum plus every one of k's
    // terms on it, in app order, rescanning the assignment per resource.
    std::vector<double> machine_sum(n);
    std::vector<double> route_sum(n);
    for (std::size_t i = 0; i < n; ++i) {
      const MachineId j = assignment[i];
      machine_sum[i] = util_.machine_util(j);
      for (std::size_t x = 0; x < n; ++x) {
        if (assignment[x] == j) {
          machine_sum[i] += util_.machine_delta(k, static_cast<AppIndex>(x), j);
        }
      }
      if (i + 1 == n) continue;
      const MachineId j2 = assignment[i + 1];
      route_sum[i] = util_.route_util(j, j2);
      for (std::size_t x = 0; x + 1 < n; ++x) {
        if (assignment[x] == j && assignment[x + 1] == j2) {
          route_sum[i] += util_.route_delta(k, static_cast<AppIndex>(x), j, j2);
        }
      }
    }
    // A stage that fails stops at the first term over capacity, so its sums
    // are complete only when it passes.
    const bool fits = util_.stage(k, assignment);
    if (fits) ++staged_passes_;
    std::vector<double> staged_machine(n);
    std::vector<double> staged_route(n);
    for (std::size_t i = 0; fits && i < n; ++i) {
      staged_machine[i] = util_.staged_machine_util(assignment[i]);
      ASSERT_TRUE(bit_equal(staged_machine[i], machine_sum[i])) << "string " << k << " app " << i;
      if (i + 1 < n && assignment[i] != assignment[i + 1]) {
        staged_route[i] = util_.staged_route_util(assignment[i], assignment[i + 1]);
        ASSERT_TRUE(bit_equal(staged_route[i], route_sum[i])) << "string " << k << " transfer " << i;
      }
    }
    util_.add_string(alloc_, k);
    deploy_order_.push_back(k);
    bool stored_fits = true;
    for (std::size_t i = 0; i < n; ++i) {
      const MachineId j = alloc_.machine_of(k, static_cast<AppIndex>(i));
      ASSERT_TRUE(bit_equal(util_.machine_util(j), machine_sum[i])) << "string " << k;
      if (fits) {
        ASSERT_TRUE(bit_equal(util_.machine_util(j), staged_machine[i])) << "string " << k;
      }
      stored_fits = stored_fits && within(util_.machine_util(j), 1.0);
      if (i + 1 < n) {
        const MachineId j2 = alloc_.machine_of(k, static_cast<AppIndex>(i + 1));
        if (j != j2) {
          ASSERT_TRUE(bit_equal(util_.route_util(j, j2), route_sum[i])) << "string " << k;
          if (fits) {
            ASSERT_TRUE(bit_equal(util_.route_util(j, j2), staged_route[i])) << "string " << k;
          }
        }
        stored_fits = stored_fits && within(util_.route_util(j, j2), 1.0);
      }
    }
    ASSERT_EQ(fits, stored_fits) << "string " << k;
  }

  void save_snapshot() {
    if (saved_.size() >= 8) return;  // bound memory, keep restores meaningful
    SavedState s{.snap = {},
                 .alloc = alloc_,
                 .deploy_order = deploy_order_,
                 .machine_util = {},
                 .route_util = {},
                 .slackness = util_.slackness()};
    util_.snapshot_into(s.snap);
    capture_utils(s.machine_util, s.route_util);
    saved_.push_back(std::move(s));
  }

  void restore_random_snapshot() {
    const SavedState& s = saved_[rng_.bounded(saved_.size())];
    util_.restore_from(s.snap);
    alloc_ = s.alloc;
    deploy_order_ = s.deploy_order;
    // The restored state must reproduce the captured observables exactly —
    // the snapshot protocol is a byte image, not a recomputation.
    std::vector<double> machine_util;
    std::vector<double> route_util;
    capture_utils(machine_util, route_util);
    for (std::size_t j = 0; j < machine_util.size(); ++j) {
      ASSERT_TRUE(bit_equal(machine_util[j], s.machine_util[j])) << "machine " << j;
    }
    for (std::size_t r = 0; r < route_util.size(); ++r) {
      ASSERT_TRUE(bit_equal(route_util[r], s.route_util[r])) << "route " << r;
    }
    ASSERT_TRUE(bit_equal(util_.slackness(), s.slackness));
  }

  void capture_utils(std::vector<double>& machine_util,
                     std::vector<double>& route_util) const {
    const auto machines = static_cast<MachineId>(m_.num_machines());
    for (MachineId j = 0; j < machines; ++j) {
      machine_util.push_back(util_.machine_util(j));
    }
    for (MachineId j1 = 0; j1 < machines; ++j1) {
      for (MachineId j2 = 0; j2 < machines; ++j2) {
        route_util.push_back(util_.route_util(j1, j2));
      }
    }
  }

  void verify() const {
    // Bit-identical against the from-scratch rebuild replaying the surviving
    // deployment order (the fold-order invariant the decode engine relies on).
    const UtilizationState replay =
        UtilizationState::from_allocation(m_, alloc_, deploy_order_);
    // Id-ordered rebuild: same resident sets, possibly different fold order —
    // equal up to re-association.
    const UtilizationState id_order = UtilizationState::from_allocation(m_, alloc_);
    const auto machines = static_cast<MachineId>(m_.num_machines());
    for (MachineId j = 0; j < machines; ++j) {
      ASSERT_TRUE(bit_equal(util_.machine_util(j), replay.machine_util(j)))
          << "machine " << j;
      ASSERT_NEAR(util_.machine_util(j), id_order.machine_util(j), 1e-9);
      const auto live = util_.apps_on(j);
      const auto rebuilt = replay.apps_on(j);
      ASSERT_EQ(live.size(), rebuilt.size()) << "machine " << j;
      for (std::size_t i = 0; i < live.size(); ++i) {
        ASSERT_TRUE(live[i] == rebuilt[i]) << "machine " << j << " slot " << i;
      }
      for (MachineId j2 = 0; j2 < machines; ++j2) {
        ASSERT_TRUE(bit_equal(util_.route_util(j, j2), replay.route_util(j, j2)))
            << "route " << j << "->" << j2;
        ASSERT_NEAR(util_.route_util(j, j2), id_order.route_util(j, j2), 1e-9);
        const auto live_t = util_.transfers_on(j, j2);
        const auto rebuilt_t = replay.transfers_on(j, j2);
        ASSERT_EQ(live_t.size(), rebuilt_t.size());
        for (std::size_t i = 0; i < live_t.size(); ++i) {
          ASSERT_TRUE(live_t[i] == rebuilt_t[i]);
        }
      }
    }
    ASSERT_TRUE(bit_equal(util_.slackness(), replay.slackness()));
    ASSERT_TRUE(bit_equal(util_.max_machine_util(), replay.max_machine_util()));
  }

  const SystemModel& m_;
  Allocation alloc_;
  UtilizationState util_;
  util::Rng rng_;
  std::vector<StringId> deploy_order_;
  std::vector<SavedState> saved_;
  int staged_passes_ = 0;
};

class UtilizationProperty : public ::testing::TestWithParam<workload::Scenario> {};

TEST_P(UtilizationProperty, InterleavedOpsMatchFromAllocationRebuild) {
  // Scale string counts down so the per-op full rebuild stays cheap; the
  // machine count and workload shape are the paper's.
  const auto cfg = workload::GeneratorConfig::for_scenario(GetParam(), 0.4);
  util::Rng model_rng(42);
  const SystemModel m = workload::generate(cfg, model_rng);
  for (std::uint64_t seed : {7u, 1234u}) {
    Driver driver(m, seed);
    driver.run(120);
    if (::testing::Test::HasFatalFailure()) return;
    EXPECT_GT(driver.staged_passes(), 0) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, UtilizationProperty,
                         ::testing::Values(workload::Scenario::kHighlyLoaded,
                                           workload::Scenario::kQosLimited,
                                           workload::Scenario::kLightlyLoaded),
                         [](const auto& info) {
                           switch (info.param) {
                             case workload::Scenario::kHighlyLoaded: return "HighlyLoaded";
                             case workload::Scenario::kQosLimited: return "QosLimited";
                             case workload::Scenario::kLightlyLoaded: return "LightlyLoaded";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace tsce::analysis
