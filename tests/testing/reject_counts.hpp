/// \file reject_counts.hpp
/// Reads the session's rejection tallies (obs::MetricsRegistry counters
/// "session.reject.*"), so a test can tell which kind of rejection a
/// try_commit call produced by diffing two reads.

#pragma once

#include <cstdint>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "util/json.hpp"

namespace tsce::testing {

struct RejectCounts {
  std::uint64_t utilization = 0;
  std::uint64_t throughput = 0;
  std::uint64_t latency = 0;

  static RejectCounts read() {
    auto& reg = obs::MetricsRegistry::instance();
    // Registering the names first keeps the lookups valid on a fresh registry.
    (void)reg.counter(obs::names::kSessionRejectUtilization);
    (void)reg.counter(obs::names::kSessionRejectThroughput);
    (void)reg.counter(obs::names::kSessionRejectLatency);
    const util::Json snap = reg.snapshot();
    const auto counter = [&](std::string_view name) {
      return static_cast<std::uint64_t>(snap.at("counters").at(name).as_number());
    };
    return {counter(obs::names::kSessionRejectUtilization),
            counter(obs::names::kSessionRejectThroughput),
            counter(obs::names::kSessionRejectLatency)};
  }
};

}  // namespace tsce::testing
