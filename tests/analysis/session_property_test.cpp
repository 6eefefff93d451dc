/// Property test for AllocationSession's incremental stage two: random
/// histories of accepted and rejected try_commit, snapshot/restore and
/// mark/undo_to (undos span several commits, rejected ones among them) on
/// random small instances.  After every step the live session must be
/// bitwise equal to a fresh session that commits the surviving strings, with
/// the same assignments, in their surviving deploy order (utilization,
/// resident lists, state bytes, the whole snapshot image and every cached
/// eq. (5)-(6) estimate),
/// and its estimates must agree with the from-scratch estimate_all reference
/// to 1e-12 relative (which folds residents in string-id order, so it may
/// differ by float re-association only).

#include "analysis/session.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "analysis/estimates.hpp"
#include "analysis/feasibility.hpp"
#include "core/imr.hpp"
#include "model/system_model.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace tsce::analysis {
namespace {

using model::AppIndex;
using model::MachineId;
using model::StringId;
using model::SystemModel;

bool bit_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool bytes_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool close(double a, double b) {
  return std::abs(a - b) <= 1e-12 * std::max(std::abs(a), std::abs(b));
}

std::vector<MachineId> assignment_of(const model::Allocation& alloc, StringId k,
                                     std::size_t n) {
  std::vector<MachineId> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = alloc.machine_of(k, static_cast<AppIndex>(i));
  }
  return out;
}

struct Saved {
  SessionSnapshot snap;
  std::vector<StringId> deploy_order;
};

struct Marked {
  AllocationSession::Mark mark;
  std::vector<StringId> deploy_order;
};

class History {
 public:
  History(const SystemModel& m, PriorityRule rule, std::uint64_t seed)
      : m_(m), rule_(rule), session_(m, rule), rng_(seed) {}

  void run(int steps) {
    for (int step = 0; step < steps; ++step) {
      const auto r = rng_.bounded(10);
      if (r < 5) {
        commit_random_string();
      } else if (r == 5 || (r == 6 && saved_.empty())) {
        save();
      } else if (r == 6) {
        restore();
      } else if (r < 9 || marks_.empty()) {
        take_mark();
      } else {
        undo();
      }
      verify();
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  [[nodiscard]] int accepted() const { return accepted_; }
  [[nodiscard]] int rejected() const { return rejected_; }
  [[nodiscard]] int undos() const { return undos_; }

 private:
  void commit_random_string() {
    std::vector<StringId> undeployed;
    for (std::size_t k = 0; k < m_.num_strings(); ++k) {
      if (!session_.allocation().deployed(static_cast<StringId>(k))) {
        undeployed.push_back(static_cast<StringId>(k));
      }
    }
    if (undeployed.empty()) return;
    const StringId k = undeployed[rng_.bounded(undeployed.size())];
    const std::size_t n = m_.strings[static_cast<std::size_t>(k)].size();
    if (rng_.bounded(2) == 0) {
      core::imr_map_string_into(m_, session_.util(), k, scratch_, assignment_);
    } else {
      // Random placements reach the rejection paths on lightly loaded
      // instances too.
      assignment_.resize(n);
      for (MachineId& j : assignment_) {
        j = static_cast<MachineId>(rng_.bounded(m_.num_machines()));
      }
    }
    if (session_.try_commit(k, assignment_)) {
      deploy_order_.push_back(k);
      ++accepted_;
    } else {
      ++rejected_;
    }
  }

  void save() {
    if (saved_.size() >= 6) saved_.erase(saved_.begin());
    Saved s;
    session_.snapshot_into(s.snap);
    s.deploy_order = deploy_order_;
    saved_.push_back(std::move(s));
  }

  void restore() {
    const Saved& s = saved_[rng_.bounded(saved_.size())];
    session_.restore_from(s.snap);
    deploy_order_ = s.deploy_order;
    marks_.clear();  // a restore voids every mark
  }

  void take_mark() {
    marks_.push_back({session_.mark(), deploy_order_});
  }

  /// Undoes to a random live mark; the marks after it are void, the mark
  /// itself stays live.
  void undo() {
    const std::size_t i = rng_.bounded(marks_.size());
    session_.undo_to(marks_[i].mark);
    deploy_order_ = marks_[i].deploy_order;
    marks_.resize(i + 1);
    ++undos_;
  }

  void verify() const {
    const model::Allocation& alloc = session_.allocation();
    AllocationSession replay(m_, rule_);
    for (const StringId k : deploy_order_) {
      const std::size_t n = m_.strings[static_cast<std::size_t>(k)].size();
      ASSERT_TRUE(replay.try_commit(k, assignment_of(alloc, k, n)))
          << "survivor " << k << " rejected on replay";
    }
    const UtilizationState& live = session_.util();
    const UtilizationState& fresh = replay.util();
    const auto machines = static_cast<MachineId>(m_.num_machines());
    for (MachineId j = 0; j < machines; ++j) {
      ASSERT_TRUE(bit_equal(live.machine_util(j), fresh.machine_util(j)))
          << "machine " << j;
      ASSERT_TRUE(std::ranges::equal(live.apps_on(j), fresh.apps_on(j)))
          << "machine " << j;
      for (MachineId j2 = 0; j2 < machines; ++j2) {
        ASSERT_TRUE(bit_equal(live.route_util(j, j2), fresh.route_util(j, j2)))
            << "route " << j << "->" << j2;
        ASSERT_TRUE(std::ranges::equal(live.transfers_on(j, j2),
                                       fresh.transfers_on(j, j2)));
      }
    }
    ASSERT_EQ(session_.state_bytes(), replay.state_bytes());
    // The whole snapshot image, arena bytes and NaN slots included.
    SessionSnapshot live_image;
    SessionSnapshot fresh_image;
    session_.snapshot_into(live_image);
    replay.snapshot_into(fresh_image);
    ASSERT_TRUE(live_image.alloc == fresh_image.alloc);
    ASSERT_TRUE(live_image.util.bytes == fresh_image.util.bytes);
    ASSERT_TRUE(bytes_equal(live_image.t_of, fresh_image.t_of));
    ASSERT_TRUE(bytes_equal(live_image.comp, fresh_image.comp));
    ASSERT_TRUE(bytes_equal(live_image.tran, fresh_image.tran));
    ASSERT_TRUE(bit_equal(session_.fitness().slackness, replay.fitness().slackness));
    ASSERT_EQ(session_.fitness().total_worth, replay.fitness().total_worth);

    const TimeEstimates reference = estimate_all(m_, alloc, rule_);
    for (std::size_t k = 0; k < m_.num_strings(); ++k) {
      const auto id = static_cast<StringId>(k);
      ASSERT_EQ(alloc.deployed(id), replay.allocation().deployed(id)) << "k=" << k;
      if (!alloc.deployed(id)) continue;
      ASSERT_EQ(session_.constraint_violation(id), ConstraintViolation::kNone)
          << "k=" << k;
      const auto comp = session_.comp_estimates(id);
      const auto tran = session_.tran_estimates(id);
      ASSERT_EQ(comp.size(), reference.comp[k].size());
      ASSERT_EQ(tran.size(), reference.tran[k].size());
      for (std::size_t i = 0; i < comp.size(); ++i) {
        ASSERT_TRUE(bit_equal(comp[i], replay.comp_estimates(id)[i]))
            << "comp k=" << k << " i=" << i;
        ASSERT_TRUE(close(comp[i], reference.comp[k][i]))
            << "comp k=" << k << " i=" << i << ": " << comp[i] << " vs "
            << reference.comp[k][i];
      }
      for (std::size_t i = 0; i < tran.size(); ++i) {
        ASSERT_TRUE(bit_equal(tran[i], replay.tran_estimates(id)[i]))
            << "tran k=" << k << " i=" << i;
        ASSERT_TRUE(close(tran[i], reference.tran[k][i]))
            << "tran k=" << k << " i=" << i << ": " << tran[i] << " vs "
            << reference.tran[k][i];
      }
    }
    // The independent from-scratch checker agrees the mapping is feasible.
    ASSERT_TRUE(check_feasibility(m_, alloc, rule_).feasible());
  }

  const SystemModel& m_;
  PriorityRule rule_;
  AllocationSession session_;
  util::Rng rng_;
  core::ImrScratch scratch_;
  std::vector<MachineId> assignment_;
  std::vector<StringId> deploy_order_;
  std::vector<Saved> saved_;
  std::vector<Marked> marks_;
  int accepted_ = 0;
  int rejected_ = 0;
  int undos_ = 0;
};

TEST(SessionProperty, IncrementalMatchesFromScratch) {
  constexpr workload::Scenario kScenarios[] = {workload::Scenario::kHighlyLoaded,
                                               workload::Scenario::kQosLimited,
                                               workload::Scenario::kLightlyLoaded};
  constexpr PriorityRule kRules[] = {PriorityRule::kRelativeTightness,
                                     PriorityRule::kRateMonotonic,
                                     PriorityRule::kWorth};
  int accepted = 0;
  int rejected = 0;
  int undos = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    util::Rng rng(seed);
    auto config = workload::GeneratorConfig::for_scenario(kScenarios[seed % 3]);
    config.num_machines = 2 + rng.bounded(4);
    config.num_strings = 6 + rng.bounded(10);
    config.max_apps_per_string = 1 + rng.bounded(6);
    const SystemModel m = workload::generate(config, rng);
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    History history(m, kRules[(seed / 3) % 3], seed);
    history.run(80);
    if (HasFatalFailure()) return;
    accepted += history.accepted();
    rejected += history.rejected();
    undos += history.undos();
  }
  // Both commit outcomes were exercised (rejections roll back the journals),
  // and so were undos.
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 100);
  EXPECT_GT(undos, 100);
}

}  // namespace
}  // namespace tsce::analysis
