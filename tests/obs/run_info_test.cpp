#include "obs/run_info.hpp"

#include <gtest/gtest.h>

#include <string>

#include "util/json.hpp"

namespace tsce::obs {
namespace {

TEST(RunInfo, CurrentFillsBuildIdentity) {
  const RunInfo info = RunInfo::current();
  EXPECT_FALSE(info.git_sha.empty());
  EXPECT_FALSE(info.build_type.empty());
  EXPECT_FALSE(info.compiler.empty());
  // Run identity stays at defaults until the caller fills it.
  EXPECT_EQ(info.seed, 0u);
  EXPECT_EQ(info.threads, 1u);
  EXPECT_TRUE(info.params.empty());
}

TEST(RunInfo, ToJsonCarriesAllFields) {
  RunInfo info = RunInfo::current();
  info.seed = 2005;
  info.threads = 4;
  info.set_param("scenario", "highly_loaded");
  info.set_param("machines", std::int64_t{6});

  const util::Json j = info.to_json();
  EXPECT_EQ(j.at("git_sha").as_string(), info.git_sha);
  EXPECT_EQ(j.at("build_type").as_string(), info.build_type);
  EXPECT_EQ(j.at("compiler").as_string(), info.compiler);
  EXPECT_TRUE(j.contains("sanitize"));
  EXPECT_EQ(j.at("seed").as_number(), 2005.0);
  EXPECT_EQ(j.at("threads").as_number(), 4.0);
  EXPECT_EQ(j.at("params").at("scenario").as_string(), "highly_loaded");
  EXPECT_EQ(j.at("params").at("machines").as_string(), "6");
}

TEST(RunInfo, ParamsSerializeInInsertionOrder) {
  RunInfo info;
  info.set_param("zeta", "1");
  info.set_param("alpha", "2");
  info.set_param("mid", std::int64_t{3});
  const util::Json j = info.to_json();
  const auto& params = j.at("params").as_object();
  ASSERT_EQ(params.size(), 3u);
  EXPECT_EQ(params[0].first, "zeta");
  EXPECT_EQ(params[1].first, "alpha");
  EXPECT_EQ(params[2].first, "mid");
  EXPECT_EQ(params[2].second.as_string(), "3");
}

TEST(RunInfo, ToJsonRoundTripsThroughText) {
  RunInfo info = RunInfo::current();
  info.seed = 7;
  info.set_param("strings", std::int64_t{32});
  const util::Json parsed = util::Json::parse(info.to_json().dump());
  EXPECT_EQ(parsed.at("seed").as_number(), 7.0);
  EXPECT_EQ(parsed.at("git_sha").as_string(), info.git_sha);
  EXPECT_EQ(parsed.at("params").at("strings").as_string(), "32");
}

}  // namespace
}  // namespace tsce::obs
