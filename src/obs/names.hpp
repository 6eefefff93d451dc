/// \file names.hpp
/// Single registry of every metric and trace-span/event name, and the
/// MetricName type that enforces it.
///
/// MetricsRegistry::counter/gauge/histogram, obs::Span and obs::trace_event
/// take an obs::MetricName, whose only constructor is consteval and accepts
/// only an entry of names::kAll (or a `test.`-prefixed name, reserved for
/// tests).  So the full telemetry vocabulary is greppable in one place, and
/// a typo ("decode.cals") or a name built at run time fails the build instead
/// of silently creating a second time series.  tests/gates/CMakeLists.txt
/// holds the compile-fail cases that keep this true.
///
/// Naming convention: `<module>.<noun>[.<qualifier>]`, lower-case, dots as
/// separators.  Span/event names double as trace_report group keys.

#pragma once

#include <array>
#include <string_view>

namespace tsce::obs::names {

// --- decode engine counters (folded by DecodeContext on destruction) -------
inline constexpr std::string_view kDecodeCalls = "decode.calls";
inline constexpr std::string_view kDecodeCommitsAttempted = "decode.commits_attempted";
inline constexpr std::string_view kDecodeStringsReused = "decode.strings_reused";
inline constexpr std::string_view kDecodePrefixReuseLen = "decode.prefix_reuse_len";
/// decode_fitness_into calls answered by the decisive-prefix memo (no decode;
/// decode.calls counts real decodes only).
inline constexpr std::string_view kDecodeMemoHits = "decode.memo_hits";

// --- hot-path latency histograms (HDR, nanoseconds) -------------------------
// Wall-clock distributions; excluded from cross-thread-count byte-identity
// checks (see DESIGN.md §13).  Everything else in this file is
// deterministic-valued.
inline constexpr std::string_view kDecodeLatencyNs = "decode.latency_ns";
inline constexpr std::string_view kSessionCommitLatencyNs = "session.commit.latency_ns";
inline constexpr std::string_view kDynamicRemapLatencyNs = "dynamic.remap.latency_ns";
inline constexpr std::string_view kLpSolveLatencyNs = "lp.solve.latency_ns";

// --- LP solver (src/lp simplex; counters are deterministic per input) -------
inline constexpr std::string_view kLpIterations = "lp.iterations";
inline constexpr std::string_view kLpRefactorisations = "lp.refactorisations";

// --- dynamic re-map (core/dynamic.cpp reallocate) ----------------------------
inline constexpr std::string_view kDynamicRemapCalls = "dynamic.remap.calls";
inline constexpr std::string_view kDynamicRemapRemapped = "dynamic.remap.remapped";
inline constexpr std::string_view kDynamicRemapDropped = "dynamic.remap.dropped";
inline constexpr std::string_view kDynamicRemapMigrations = "dynamic.remap.migrations";

// --- allocation-session constraint classification (eq. (1)) ----------------
inline constexpr std::string_view kSessionRejectUtilization = "session.reject.utilization";
inline constexpr std::string_view kSessionRejectThroughput = "session.reject.throughput";
inline constexpr std::string_view kSessionRejectLatency = "session.reject.latency";

// --- search spans and convergence events -----------------------------------
inline constexpr std::string_view kSearchTrial = "search.trial";
inline constexpr std::string_view kSearchRestart = "search.restart";
inline constexpr std::string_view kSearchAnneal = "search.anneal";
inline constexpr std::string_view kSearchExact = "search.exact";
inline constexpr std::string_view kSearchExactBranch = "search.exact.branch";
inline constexpr std::string_view kSearchClass = "search.class";
inline constexpr std::string_view kSearchImprove = "search.improve";

// --- parallel tempering (the annealing engine) -----------------------------
// Spans: one per replica per sweep, on the worker that owns the replica.
// Events: one per exchange attempt, from the sweep barrier's completion
// step.  Counters tally sweeps, exchange attempts, and accepted swaps
// process-wide.
inline constexpr std::string_view kSearchTemperReplica = "search.temper.replica";
inline constexpr std::string_view kSearchTemperExchange = "search.temper.exchange";
inline constexpr std::string_view kTemperSweeps = "search.temper.sweeps";
inline constexpr std::string_view kTemperExchanges = "search.temper.exchanges";
inline constexpr std::string_view kTemperSwaps = "search.temper.swaps";

// --- recorder ring event names (one per FrKind; see trace.hpp) ------------
inline constexpr std::string_view kFrDecode = "fr.decode";
inline constexpr std::string_view kFrCommitReject = "fr.commit.reject";
inline constexpr std::string_view kFrRemap = "fr.remap";
inline constexpr std::string_view kFrAnomaly = "fr.anomaly";
inline constexpr std::string_view kFrMark = "fr.mark";

// --- bench harness spans ----------------------------------------------------
inline constexpr std::string_view kBenchAlloc = "bench.alloc";
inline constexpr std::string_view kBenchUb = "bench.ub";
inline constexpr std::string_view kBenchMicroCounter = "bench.micro.counter";
inline constexpr std::string_view kBenchMicroSpan = "bench.micro.span";
inline constexpr std::string_view kBenchMicroEvent = "bench.micro.event";
inline constexpr std::string_view kBenchMicroHdr = "bench.micro.hdr";
inline constexpr std::string_view kBenchMicroFr = "bench.micro.fr";

/// Every name above, in declaration order: the set MetricName accepts.  A
/// constant missing from this list cannot be used as a metric or trace name.
inline constexpr std::array kAll = {
    kDecodeCalls,
    kDecodeCommitsAttempted,
    kDecodeStringsReused,
    kDecodePrefixReuseLen,
    kDecodeMemoHits,
    kDecodeLatencyNs,
    kSessionCommitLatencyNs,
    kDynamicRemapLatencyNs,
    kLpSolveLatencyNs,
    kLpIterations,
    kLpRefactorisations,
    kDynamicRemapCalls,
    kDynamicRemapRemapped,
    kDynamicRemapDropped,
    kDynamicRemapMigrations,
    kSessionRejectUtilization,
    kSessionRejectThroughput,
    kSessionRejectLatency,
    kSearchTrial,
    kSearchRestart,
    kSearchAnneal,
    kSearchExact,
    kSearchExactBranch,
    kSearchClass,
    kSearchImprove,
    kSearchTemperReplica,
    kSearchTemperExchange,
    kTemperSweeps,
    kTemperExchanges,
    kTemperSwaps,
    kFrDecode,
    kFrCommitReject,
    kFrRemap,
    kFrAnomaly,
    kFrMark,
    kBenchAlloc,
    kBenchUb,
    kBenchMicroCounter,
    kBenchMicroSpan,
    kBenchMicroEvent,
    kBenchMicroHdr,
    kBenchMicroFr,
};

}  // namespace tsce::obs::names

namespace tsce::obs {

namespace detail {
/// Declared, never defined, and not constexpr: a MetricName built from an
/// unregistered name calls it during constant evaluation, so the build fails
/// with an error that names it.
void metric_name_not_registered_in_names_hpp();
}  // namespace detail

/// A metric or trace name known at compile time to be registered.
class MetricName {
 public:
  // Implicit on purpose: call sites pass names::k* constants and test.*
  // literals directly.  consteval rejects any name not known at compile time.
  consteval MetricName(std::string_view name) : name_(name) {
    if (!registered(name)) detail::metric_name_not_registered_in_names_hpp();
  }
  consteval MetricName(const char* name) : MetricName(std::string_view(name)) {}

  [[nodiscard]] constexpr std::string_view view() const noexcept { return name_; }

 private:
  static consteval bool registered(std::string_view name) {
    if (name.size() > kTestPrefix.size() && name.starts_with(kTestPrefix)) {
      return true;
    }
    for (const std::string_view entry : names::kAll) {
      if (entry == name) return true;
    }
    return false;
  }

  static constexpr std::string_view kTestPrefix = "test.";
  std::string_view name_;
};

}  // namespace tsce::obs
