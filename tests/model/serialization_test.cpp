#include "model/serialization.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>

#include "core/ordered.hpp"
#include "testing/builders.hpp"
#include "workload/generator.hpp"

namespace tsce::model {
namespace {

void expect_models_equal(const SystemModel& a, const SystemModel& b) {
  ASSERT_EQ(a.num_machines(), b.num_machines());
  ASSERT_EQ(a.num_strings(), b.num_strings());
  EXPECT_EQ(a.machine_names, b.machine_names);
  const auto m = static_cast<MachineId>(a.num_machines());
  for (MachineId j1 = 0; j1 < m; ++j1) {
    for (MachineId j2 = 0; j2 < m; ++j2) {
      EXPECT_EQ(a.network.bandwidth_mbps(j1, j2), b.network.bandwidth_mbps(j1, j2));
    }
  }
  for (std::size_t k = 0; k < a.num_strings(); ++k) {
    const auto& sa = a.strings[k];
    const auto& sb = b.strings[k];
    EXPECT_EQ(sa.name, sb.name);
    EXPECT_DOUBLE_EQ(sa.period_s, sb.period_s);
    EXPECT_DOUBLE_EQ(sa.max_latency_s, sb.max_latency_s);
    EXPECT_EQ(sa.worth, sb.worth);
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t i = 0; i < sa.size(); ++i) {
      EXPECT_EQ(sa.apps[i].name, sb.apps[i].name);
      EXPECT_EQ(sa.apps[i].nominal_time_s, sb.apps[i].nominal_time_s);
      EXPECT_EQ(sa.apps[i].nominal_util, sb.apps[i].nominal_util);
      EXPECT_DOUBLE_EQ(sa.apps[i].output_kbytes, sb.apps[i].output_kbytes);
    }
  }
}

TEST(Serialization, ModelRoundTripInMemory) {
  const SystemModel original = testing::two_machine_system();
  const SystemModel loaded = system_model_from_json(to_json(original));
  expect_models_equal(original, loaded);
}

TEST(Serialization, GeneratedModelRoundTrip) {
  util::Rng rng(5);
  auto config =
      workload::GeneratorConfig::for_scenario(workload::Scenario::kQosLimited);
  config.num_machines = 4;
  config.num_strings = 10;
  const SystemModel original = workload::generate(config, rng);
  // Through text, not just the Json value: exercises number round-tripping.
  const auto json_text = to_json(original).dump(2);
  const SystemModel loaded = system_model_from_json(util::Json::parse(json_text));
  expect_models_equal(original, loaded);
}

TEST(Serialization, InfiniteBandwidthBecomesNull) {
  const SystemModel m = testing::two_machine_system();
  const auto json = to_json(m);
  EXPECT_TRUE(json.at("bandwidth_mbps").as_array()[0].as_array()[0].is_null());
  EXPECT_DOUBLE_EQ(
      json.at("bandwidth_mbps").as_array()[0].as_array()[1].as_number(), 8.0);
}

TEST(Serialization, MachineNamesSurvive) {
  SystemModel m = testing::two_machine_system();
  m.machine_names = {"alpha", "bravo"};
  const SystemModel loaded = system_model_from_json(to_json(m));
  ASSERT_EQ(loaded.machine_names.size(), 2u);
  EXPECT_EQ(loaded.machine_names[0], "alpha");
}

TEST(Serialization, RejectsWrongFormat) {
  EXPECT_THROW((void)system_model_from_json(util::Json::parse("{}")),
               std::runtime_error);
  EXPECT_THROW((void)system_model_from_json(
                   util::Json::parse(R"({"format": "something-else"})")),
               std::runtime_error);
}

TEST(Serialization, RejectsInvalidLoadedModel) {
  auto json = to_json(testing::two_machine_system());
  // Corrupt a utilization beyond (0, 1].
  auto& strings = json.as_object();
  for (auto& [key, value] : strings) {
    if (key != "strings") continue;
    ASSERT_TRUE(value.as_array()[0].contains("apps"));  // ensure shape
    for (auto& [skey, svalue] : value.as_array()[0].as_object()) {
      if (skey != "apps") continue;
      for (auto& [akey, avalue] : svalue.as_array()[0].as_object()) {
        if (akey == "util") avalue.as_array()[0] = util::Json(5.0);
      }
    }
  }
  EXPECT_THROW((void)system_model_from_json(json), std::runtime_error);
}

TEST(Serialization, AllocationRoundTrip) {
  const SystemModel m = testing::two_machine_system();
  util::Rng rng(1);
  const auto result = core::MostWorthFirst{}.allocate(m, rng);
  const Allocation loaded = allocation_from_json(to_json(result.allocation), m);
  EXPECT_EQ(loaded, result.allocation);
}

TEST(Serialization, PartialAllocationRoundTrip) {
  const SystemModel m = testing::two_machine_system();
  Allocation a(m);
  a.assign(0, 0, 1);  // string 0 half-mapped, not deployed
  const Allocation loaded = allocation_from_json(to_json(a), m);
  EXPECT_EQ(loaded, a);
  EXPECT_EQ(loaded.machine_of(0, 0), 1);
  EXPECT_EQ(loaded.machine_of(0, 1), kUnassigned);
}

TEST(Serialization, AllocationShapeMismatchThrows) {
  const SystemModel m = testing::two_machine_system();
  const SystemModel other = testing::minimal_system();
  Allocation a(m);
  EXPECT_THROW((void)allocation_from_json(to_json(a), other), std::runtime_error);
}

TEST(Serialization, DeployedButUnmappedThrows) {
  const SystemModel m = testing::two_machine_system();
  auto json = to_json(Allocation(m));
  for (auto& [key, value] : json.as_object()) {
    if (key == "deployed") value.as_array()[0] = util::Json(true);
  }
  EXPECT_THROW((void)allocation_from_json(json, m), std::runtime_error);
}

/// A one-string, two-machine model as JSON text, with the fields the loader
/// must check spliced in verbatim.
struct ModelText {
  std::string machines = "2";
  std::string bandwidth = "8";
  std::string period = "10";
  std::string latency = "30";
  std::string worth = "100";
  std::string time = "2";
  std::string output = "100";

  [[nodiscard]] std::string str() const {
    return R"({"format": "tsce-model-v1", "machines": )" + machines +
           R"(, "bandwidth_mbps": [[null, )" + bandwidth + R"(], [8, null]],)" +
           R"( "strings": [{"period_s": )" + period + R"(, "max_latency_s": )" +
           latency + R"(, "worth": )" + worth + R"(, "apps": [{"time_s": [)" +
           time + R"(, 3], "util": [0.5, 0.5], "output_kbytes": )" + output +
           "}]}]}";
  }
};

/// Loading \p text must throw with a message that names \p what.
void expect_model_rejected(const std::string& text, const std::string& what) {
  try {
    (void)system_model_from_json(util::Json::parse(text));
    ADD_FAILURE() << "accepted: " << text;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << "message '" << e.what() << "' does not name " << what;
  }
}

TEST(Serialization, LoadsTheBaseModelText) {
  const SystemModel m = system_model_from_json(util::Json::parse(ModelText{}.str()));
  EXPECT_EQ(m.num_machines(), 2u);
  EXPECT_EQ(m.strings[0].worth, Worth::kHigh);
  // null is +inf on purpose, and so is an overflowing literal: bandwidth may
  // be unlimited.
  ModelText inf_bandwidth;
  inf_bandwidth.bandwidth = "1e999";
  EXPECT_EQ(system_model_from_json(util::Json::parse(inf_bandwidth.str()))
                .network.bandwidth_mbps(0, 1),
            kInfiniteBandwidth);
}

TEST(Serialization, RejectsNonFiniteModelNumbers) {
  for (const char* bad : {"1e999", "-1e999"}) {
    SCOPED_TRACE(bad);
    ModelText t;
    t.period = bad;
    expect_model_rejected(t.str(), "period");
    t = {};
    t.latency = bad;
    expect_model_rejected(t.str(), "max latency");
    t = {};
    t.time = bad;
    expect_model_rejected(t.str(), "time on machine 0");
    t = {};
    t.output = bad;
    expect_model_rejected(t.str(), "output");
  }
}

TEST(Serialization, RejectsWorthThatIsNotAnIntegerInRange) {
  for (const char* bad : {"1e999", "-1e999", "1e10", "-3e9", "10.5", "2.7", "0", "7"}) {
    SCOPED_TRACE(bad);
    ModelText t;
    t.worth = bad;
    expect_model_rejected(t.str(), "worth");
  }
}

TEST(Serialization, RejectsMachineCountThatIsNotAnIntegerInRange) {
  for (const char* bad : {"1e999", "-1e999", "-1", "2.5", "1e30"}) {
    SCOPED_TRACE(bad);
    ModelText t;
    t.machines = bad;
    expect_model_rejected(t.str(), "machines");
  }
  // A whole count that disagrees with the matrix is a shape error, caught
  // before the network is sized.
  ModelText t;
  t.machines = "2000000000";
  expect_model_rejected(t.str(), "bandwidth_mbps");
}

TEST(Serialization, RejectsMappingEntriesThatAreNotMachineIds) {
  const SystemModel m = testing::two_machine_system();
  for (const char* bad : {"1e999", "-1e999", "-0.5", "2.7", "2", "-2", "4e9", "\"1\""}) {
    SCOPED_TRACE(bad);
    const std::string text =
        R"({"format": "tsce-allocation-v1", "mapping": [[0, )" + std::string(bad) +
        R"(], [1, 1]], "deployed": [false, true]})";
    try {
      (void)allocation_from_json(util::Json::parse(text), m);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("mapping entry 0.1"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Serialization, FileRoundTrip) {
  const std::string model_path = ::testing::TempDir() + "/tsce_model.json";
  const std::string alloc_path = ::testing::TempDir() + "/tsce_alloc.json";
  const SystemModel m = testing::two_machine_system();
  util::Rng rng(2);
  const auto result = core::MostWorthFirst{}.allocate(m, rng);

  save_system_model(model_path, m);
  save_allocation(alloc_path, result.allocation);
  const SystemModel loaded_model = load_system_model(model_path);
  expect_models_equal(m, loaded_model);
  const Allocation loaded_alloc = load_allocation(alloc_path, loaded_model);
  EXPECT_EQ(loaded_alloc, result.allocation);
  std::remove(model_path.c_str());
  std::remove(alloc_path.c_str());
}

}  // namespace
}  // namespace tsce::model
