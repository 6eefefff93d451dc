/// \file trace.hpp
/// Structured JSONL tracing for the search allocators and bench harnesses.
///
/// Records are newline-delimited JSON objects:
///   {"t":"header","version":1,"run_info":{...}}          — once, at open
///   {"t":"span","name":..,"tid":..,"ts":..,"dur":..,"f":{..}}
///   {"t":"event","name":..,"tid":..,"ts":..,"f":{..}}
/// Timestamps are steady-clock seconds relative to trace_open.  Spans carry a
/// "phase" field by convention so tools/trace_report can group the same span
/// kind ("search.trial") per strategy.
///
/// Nothing is recorded until trace_open() installs an output file (the
/// harnesses' `--trace <path>`); the inactive cost of a span or event is one
/// relaxed atomic load.
///
/// Threading: each thread serializes records into its own buffer (no lock);
/// the buffer is flushed to the shared file (under the file lock) when the
/// thread closes its outermost span, when it grows past a threshold, or when
/// the thread exits.  trace_close() flushes every registered buffer and must
/// be called after worker pools have been joined (the bench harnesses satisfy
/// this by construction: BatchEvaluator/ThreadPool are destroyed before the
/// harness returns).

#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>

#include "obs/run_info.hpp"

namespace tsce::obs {

/// One record field: a key plus a numeric or string value.  No allocation —
/// keys and string values must outlive the call (they are serialized
/// immediately), which string literals and local std::strings do.
struct Field {
  std::string_view key;
  double num = 0.0;
  std::string_view str{};
  bool is_str = false;

  constexpr Field(std::string_view k, double v) noexcept : key(k), num(v) {}
  constexpr Field(std::string_view k, std::int64_t v) noexcept
      : key(k), num(static_cast<double>(v)) {}
  constexpr Field(std::string_view k, std::uint64_t v) noexcept
      : key(k), num(static_cast<double>(v)) {}
  constexpr Field(std::string_view k, int v) noexcept
      : key(k), num(static_cast<double>(v)) {}
  constexpr Field(std::string_view k, unsigned v) noexcept
      : key(k), num(static_cast<double>(v)) {}
  constexpr Field(std::string_view k, std::string_view v) noexcept
      : key(k), str(v), is_str(true) {}
  constexpr Field(std::string_view k, const char* v) noexcept
      : key(k), str(v), is_str(true) {}
};

/// True between a successful trace_open() and trace_close().
[[nodiscard]] bool tracing_active() noexcept;

/// Opens \p path for writing and emits the header record.  Returns false on
/// I/O failure or when a trace is already open.
bool trace_open(const std::string& path, const RunInfo& info);

/// Flushes every thread buffer and closes the file.  Call after worker
/// threads have been joined; records appended concurrently may be dropped.
void trace_close();

/// Emits an instantaneous event record.
void trace_event(std::string_view name, std::initializer_list<Field> fields);

/// RAII span: records name, start timestamp, and duration on destruction.
/// Fields can be attached at construction or accumulated via add() before the
/// span closes.  Spans are intended for phase granularity (a GA trial, a
/// restart, one bench run) — never the per-candidate decode path.
class Span {
 public:
  explicit Span(std::string_view name);
  Span(std::string_view name, std::initializer_list<Field> fields);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void add(std::string_view key, double v);
  void add(std::string_view key, std::string_view v);

 private:
  bool active_ = false;
  double start_ = 0.0;
  std::string name_;
  std::string fields_;  ///< pre-serialized ,"k":v fragments
};

}  // namespace tsce::obs
