#include "workload/generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "util/rng.hpp"

namespace tsce::workload {
namespace {

using model::SystemModel;

TEST(GeneratorConfig, ScenarioDefaultsMatchPaper) {
  const auto s1 = GeneratorConfig::for_scenario(Scenario::kHighlyLoaded);
  EXPECT_EQ(s1.num_strings, 150u);
  EXPECT_DOUBLE_EQ(s1.mu_latency_min, 4.0);
  EXPECT_DOUBLE_EQ(s1.mu_latency_max, 6.0);
  EXPECT_DOUBLE_EQ(s1.mu_period_min, 3.0);
  EXPECT_DOUBLE_EQ(s1.mu_period_max, 4.5);

  const auto s2 = GeneratorConfig::for_scenario(Scenario::kQosLimited);
  EXPECT_EQ(s2.num_strings, 150u);
  EXPECT_DOUBLE_EQ(s2.mu_latency_min, 1.25);
  EXPECT_DOUBLE_EQ(s2.mu_latency_max, 2.75);
  EXPECT_DOUBLE_EQ(s2.mu_period_min, 1.5);
  EXPECT_DOUBLE_EQ(s2.mu_period_max, 2.5);

  const auto s3 = GeneratorConfig::for_scenario(Scenario::kLightlyLoaded);
  EXPECT_EQ(s3.num_strings, 25u);
  EXPECT_DOUBLE_EQ(s3.mu_latency_min, 4.0);
  EXPECT_DOUBLE_EQ(s3.mu_period_min, 3.0);
}

TEST(GeneratorConfig, StringScaleRescalesCount) {
  const auto half = GeneratorConfig::for_scenario(Scenario::kHighlyLoaded, 0.5);
  EXPECT_EQ(half.num_strings, 75u);
  const auto tiny = GeneratorConfig::for_scenario(Scenario::kHighlyLoaded, 0.001);
  EXPECT_EQ(tiny.num_strings, 1u);  // never zero
}

TEST(Generator, ProducesValidModel) {
  util::Rng rng(1);
  const auto config = GeneratorConfig::for_scenario(Scenario::kLightlyLoaded);
  const SystemModel m = generate(config, rng);
  EXPECT_EQ(m.num_machines(), 12u);
  EXPECT_EQ(m.num_strings(), 25u);
  EXPECT_TRUE(m.validate().empty());
}

TEST(Generator, RejectsDegenerateShapes) {
  util::Rng rng(3);
  auto no_machines = GeneratorConfig::for_scenario(Scenario::kHighlyLoaded, 0.1);
  no_machines.num_machines = 0;
  EXPECT_THROW((void)generate(no_machines, rng), std::invalid_argument);
  auto empty_strings = GeneratorConfig::for_scenario(Scenario::kHighlyLoaded, 0.1);
  empty_strings.min_apps_per_string = 0;
  EXPECT_THROW((void)generate(empty_strings, rng), std::invalid_argument);
  auto inverted = GeneratorConfig::for_scenario(Scenario::kHighlyLoaded, 0.1);
  inverted.min_apps_per_string = 4;
  inverted.max_apps_per_string = 3;
  EXPECT_THROW((void)generate(inverted, rng), std::invalid_argument);
}

TEST(Generator, ParameterRangesRespected) {
  util::Rng rng(2);
  auto config = GeneratorConfig::for_scenario(Scenario::kHighlyLoaded, 0.2);
  const SystemModel m = generate(config, rng);
  for (const auto& s : m.strings) {
    EXPECT_GE(s.size(), 1u);
    EXPECT_LE(s.size(), 10u);
    const int w = s.worth_factor();
    EXPECT_TRUE(w == 1 || w == 10 || w == 100);
    for (std::size_t i = 0; i < s.size(); ++i) {
      for (std::size_t j = 0; j < m.num_machines(); ++j) {
        EXPECT_GE(s.apps[i].nominal_time_s[j], 1.0);
        EXPECT_LE(s.apps[i].nominal_time_s[j], 10.0);
        EXPECT_GE(s.apps[i].nominal_util[j], 0.1);
        EXPECT_LE(s.apps[i].nominal_util[j], 1.0);
      }
      if (i + 1 < s.size()) {
        EXPECT_GE(s.apps[i].output_kbytes, 10.0);
        EXPECT_LE(s.apps[i].output_kbytes, 100.0);
      } else {
        EXPECT_DOUBLE_EQ(s.apps[i].output_kbytes, 0.0);
      }
    }
  }
  for (model::MachineId j1 = 0; j1 < 12; ++j1) {
    for (model::MachineId j2 = 0; j2 < 12; ++j2) {
      const double w = m.network.bandwidth_mbps(j1, j2);
      if (j1 == j2) {
        EXPECT_EQ(w, model::kInfiniteBandwidth);
      } else {
        EXPECT_GE(w, 1.0);
        EXPECT_LE(w, 10.0);
      }
    }
  }
}

TEST(Generator, LatencyBoundFollowsFormula) {
  util::Rng rng(3);
  auto config = GeneratorConfig::for_scenario(Scenario::kHighlyLoaded, 0.1);
  const SystemModel m = generate(config, rng);
  for (const auto& s : m.strings) {
    // Lmax = mu * nominal average end-to-end time, mu in [4,6].
    const double nominal = latency_bound(m, s, 1.0);
    ASSERT_GT(nominal, 0.0);
    const double mu = s.max_latency_s / nominal;
    EXPECT_GE(mu, 4.0 - 1e-9);
    EXPECT_LE(mu, 6.0 + 1e-9);
  }
}

TEST(Generator, PeriodBoundFollowsFormula) {
  util::Rng rng(4);
  auto config = GeneratorConfig::for_scenario(Scenario::kQosLimited, 0.1);
  const SystemModel m = generate(config, rng);
  for (const auto& s : m.strings) {
    const double longest = period_bound(m, s, 1.0);
    ASSERT_GT(longest, 0.0);
    const double mu = s.period_s / longest;
    EXPECT_GE(mu, 1.5 - 1e-9);
    EXPECT_LE(mu, 2.5 + 1e-9);
  }
}

TEST(Generator, DeterministicForSameSeed) {
  const auto config = GeneratorConfig::for_scenario(Scenario::kLightlyLoaded);
  util::Rng rng1(42);
  util::Rng rng2(42);
  const SystemModel a = generate(config, rng1);
  const SystemModel b = generate(config, rng2);
  ASSERT_EQ(a.num_strings(), b.num_strings());
  for (std::size_t k = 0; k < a.num_strings(); ++k) {
    EXPECT_DOUBLE_EQ(a.strings[k].period_s, b.strings[k].period_s);
    EXPECT_DOUBLE_EQ(a.strings[k].max_latency_s, b.strings[k].max_latency_s);
    EXPECT_EQ(a.strings[k].size(), b.strings[k].size());
  }
}

TEST(Generator, DifferentSeedsDiffer) {
  const auto config = GeneratorConfig::for_scenario(Scenario::kLightlyLoaded);
  util::Rng rng1(1);
  util::Rng rng2(2);
  const SystemModel a = generate(config, rng1);
  const SystemModel b = generate(config, rng2);
  bool any_difference = false;
  for (std::size_t k = 0; k < std::min(a.num_strings(), b.num_strings()); ++k) {
    if (a.strings[k].period_s != b.strings[k].period_s) any_difference = true;
  }
  EXPECT_TRUE(any_difference);
}

TEST(Generator, PeriodNeverBelowLongestStage) {
  // mu >= 1.5 in every scenario: throughput is satisfiable on an *average*
  // machine even before sharing.
  util::Rng rng(5);
  for (const auto scenario :
       {Scenario::kHighlyLoaded, Scenario::kQosLimited, Scenario::kLightlyLoaded}) {
    auto config = GeneratorConfig::for_scenario(scenario, 0.2);
    const SystemModel m = generate(config, rng);
    for (const auto& s : m.strings) {
      EXPECT_GE(s.period_s, period_bound(m, s, 1.0));
    }
  }
}

TEST(Generator, MachinePoolsReplicateWithinPool) {
  util::Rng rng(11);
  auto config = GeneratorConfig::for_scenario(Scenario::kLightlyLoaded, 0.2);
  config.num_machines = 6;
  config.machines_per_pool = 3;  // pools {0,1,2} and {3,4,5}
  const SystemModel m = generate(config, rng);
  for (const auto& s : m.strings) {
    for (const auto& a : s.apps) {
      EXPECT_DOUBLE_EQ(a.nominal_time_s[0], a.nominal_time_s[1]);
      EXPECT_DOUBLE_EQ(a.nominal_time_s[1], a.nominal_time_s[2]);
      EXPECT_DOUBLE_EQ(a.nominal_time_s[3], a.nominal_time_s[4]);
      EXPECT_DOUBLE_EQ(a.nominal_util[0], a.nominal_util[2]);
      EXPECT_DOUBLE_EQ(a.nominal_util[3], a.nominal_util[5]);
    }
  }
}

TEST(Generator, PoolBoundariesStayHeterogeneous) {
  util::Rng rng(12);
  auto config = GeneratorConfig::for_scenario(Scenario::kLightlyLoaded, 0.2);
  config.num_machines = 4;
  config.machines_per_pool = 2;
  const SystemModel m = generate(config, rng);
  bool any_difference = false;
  for (const auto& s : m.strings) {
    for (const auto& a : s.apps) {
      if (a.nominal_time_s[0] != a.nominal_time_s[2]) any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference) << "distinct pools must draw independent values";
}

TEST(Generator, PoolOfOneIsFullyHeterogeneous) {
  util::Rng rng(13);
  auto config = GeneratorConfig::for_scenario(Scenario::kLightlyLoaded, 0.2);
  config.num_machines = 3;
  config.machines_per_pool = 1;
  const SystemModel m = generate(config, rng);
  bool any_difference = false;
  for (const auto& s : m.strings) {
    for (const auto& a : s.apps) {
      if (a.nominal_time_s[0] != a.nominal_time_s[1]) any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(Generator, ConsistentHeterogeneityPreservesMachineOrdering) {
  util::Rng rng(14);
  auto config = GeneratorConfig::for_scenario(Scenario::kLightlyLoaded, 0.3);
  config.num_machines = 5;
  config.heterogeneity = Heterogeneity::kConsistent;
  const SystemModel m = generate(config, rng);
  // If machine A beats machine B for one application it beats it for all:
  // the per-machine time ratio is constant across applications.
  const auto& first = m.strings[0].apps[0].nominal_time_s;
  for (const auto& s : m.strings) {
    for (const auto& a : s.apps) {
      for (std::size_t j = 1; j < 5; ++j) {
        EXPECT_NEAR(a.nominal_time_s[j] / a.nominal_time_s[0],
                    first[j] / first[0], 1e-9);
      }
    }
  }
  EXPECT_TRUE(m.validate().empty());
}

TEST(Generator, ConsistentModeRespectsSpeedFactorRange) {
  util::Rng rng(15);
  auto config = GeneratorConfig::for_scenario(Scenario::kLightlyLoaded, 0.2);
  config.num_machines = 4;
  config.heterogeneity = Heterogeneity::kConsistent;
  config.speed_factor_min = 1.0;
  config.speed_factor_max = 1.0;  // all machines identical
  const SystemModel m = generate(config, rng);
  for (const auto& s : m.strings) {
    for (const auto& a : s.apps) {
      for (std::size_t j = 1; j < 4; ++j) {
        EXPECT_DOUBLE_EQ(a.nominal_time_s[j], a.nominal_time_s[0]);
      }
    }
  }
}

TEST(Generator, WorthDistributionCoversAllLevels) {
  util::Rng rng(6);
  auto config = GeneratorConfig::for_scenario(Scenario::kHighlyLoaded);
  const SystemModel m = generate(config, rng);
  int low = 0, mid = 0, high = 0;
  for (const auto& s : m.strings) {
    switch (s.worth_factor()) {
      case 1: ++low; break;
      case 10: ++mid; break;
      case 100: ++high; break;
      default: FAIL();
    }
  }
  EXPECT_GT(low, 0);
  EXPECT_GT(mid, 0);
  EXPECT_GT(high, 0);
}

}  // namespace
}  // namespace tsce::workload
