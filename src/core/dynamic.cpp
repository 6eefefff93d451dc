#include "core/dynamic.hpp"

#include <algorithm>

#include "analysis/session.hpp"
#include "core/imr.hpp"
#include "obs/clock.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"

namespace tsce::core {

using analysis::AllocationSession;
using model::AppIndex;
using model::MachineId;
using model::StringId;
using model::SystemModel;

namespace {

std::vector<MachineId> assignment_of(const model::Allocation& alloc, StringId k) {
  std::vector<MachineId> assignment(alloc.string_size(k));
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    assignment[i] = alloc.machine_of(k, static_cast<AppIndex>(i));
  }
  return assignment;
}

std::size_t count_migrations(const std::vector<MachineId>& before,
                             const std::vector<MachineId>& after) {
  std::size_t moved = 0;
  for (std::size_t i = 0; i < before.size(); ++i) {
    if (before[i] != after[i]) ++moved;
  }
  return moved;
}

/// Re-map telemetry: reallocate() runs on the live-service control path, so
/// its latency and churn (migrations per event) feed the same HDR spine as
/// the decode hot path.
struct RemapMetrics {
  obs::Counter& calls;
  obs::Counter& remapped;
  obs::Counter& dropped;
  obs::Histogram& latency_ns;
  obs::Histogram& migrations;

  static RemapMetrics& get() {
    auto& reg = obs::MetricsRegistry::instance();
    static RemapMetrics m{reg.counter(obs::names::kDynamicRemapCalls),
                          reg.counter(obs::names::kDynamicRemapRemapped),
                          reg.counter(obs::names::kDynamicRemapDropped),
                          reg.histogram(obs::names::kDynamicRemapLatencyNs),
                          reg.histogram(obs::names::kDynamicRemapMigrations)};
    return m;
  }
};

}  // namespace

ReallocationResult reallocate(const SystemModel& updated_model,
                              const model::Allocation& current) {
  const std::uint64_t t0 = obs::clock_ticks();
  AllocationSession session(updated_model);
  ReallocationResult result;

  // Strings ordered most-worth-first (tie: tighter period first, then id):
  // when capacity is scarce the valuable strings get it.
  std::vector<StringId> order;
  for (std::size_t k = 0; k < updated_model.num_strings(); ++k) {
    if (current.deployed(static_cast<StringId>(k))) {
      order.push_back(static_cast<StringId>(k));
    }
  }
  std::stable_sort(order.begin(), order.end(), [&](StringId a, StringId b) {
    const auto& sa = updated_model.strings[static_cast<std::size_t>(a)];
    const auto& sb = updated_model.strings[static_cast<std::size_t>(b)];
    if (sa.worth_factor() != sb.worth_factor()) {
      return sa.worth_factor() > sb.worth_factor();
    }
    return sa.period_s < sb.period_s;
  });

  // Pass 1: keep still-feasible mappings untouched.
  std::vector<StringId> pending;
  for (const StringId k : order) {
    const auto old_assignment = assignment_of(current, k);
    if (!session.try_commit(k, old_assignment)) {
      pending.push_back(k);
    }
  }

  // Pass 2: re-map violating strings via the IMR against the live state;
  // strings that still do not fit anywhere are dropped (see dynamic.hpp for
  // why they are never retried).
  for (const StringId k : pending) {
    const auto remapped = imr_map_string(updated_model, session.util(), k);
    if (session.try_commit(k, remapped)) {
      result.remapped.push_back(k);
      result.migrations += count_migrations(assignment_of(current, k), remapped);
    } else {
      result.dropped.push_back(k);
    }
  }

  std::sort(result.remapped.begin(), result.remapped.end());
  std::sort(result.dropped.begin(), result.dropped.end());
  result.allocation = session.allocation();
  result.fitness = session.fitness();

  RemapMetrics& m = RemapMetrics::get();
  m.calls.add(1);
  m.remapped.add(result.remapped.size());
  m.dropped.add(result.dropped.size());
  m.migrations.record(result.migrations);
  const std::uint64_t ns = obs::ticks_to_ns(obs::clock_ticks() - t0);
  m.latency_ns.record(ns);
  obs::flight_recorder_record(obs::FrKind::kRemap, ns, result.migrations,
                              result.dropped.size());
  return result;
}

}  // namespace tsce::core
