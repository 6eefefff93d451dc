/// \file trace.hpp
/// The event recorder: JSONL spans and events for the search phases, plus an
/// always-on per-thread ring of binary `fr.*` events for the hot path, both
/// written to one trace file.
///
/// Records are newline-delimited JSON objects:
///   {"t":"header","version":1,"run_info":{...}}          — once, at open
///   {"t":"span","name":..,"tid":..,"ts":..,"dur":..,"f":{..}}
///   {"t":"event","name":..,"tid":..,"ts":..,"f":{..}}
/// Every record shares one clock and one thread id: ts is seconds since
/// trace_open on obs::clock_ticks, and tid numbers the recording thread, so a
/// ring event recorded inside a span carries the span's tid and a ts inside
/// [ts, ts + dur].  Spans carry a "phase" field by convention so
/// tools/trace_report can group the same span kind ("search.trial") per
/// strategy.
///
/// Spans and events are recorded only while a trace is open (the harnesses'
/// `--trace <path>`); the inactive cost of a span or event is one relaxed
/// atomic load.  Each thread serializes them into its own buffer (no lock),
/// flushed to the file under the file lock when the thread closes its
/// outermost span, when the buffer passes 64 KiB, or when the thread exits.
///
/// The ring records whether or not a trace is open: one event is a
/// cycle-counter read plus five stores, no lock and no branch on a gate, and
/// each thread keeps its newest kRingCapacity events.  Nothing is written
/// while no trace is open.  While one is, a ring's events since trace_open
/// are written to it as event records, each at most once, when
///   * a decode exceeds the slow-decode watermark (the first time per trace),
///   * trace_poll() runs after a SIGUSR1 (the metrics exporter polls each
///     tick),
///   * the owning thread exits,
///   * trace_close() runs.
///
/// trace_close() flushes every thread's span buffer and must be called after
/// worker pools have been joined (the bench harnesses satisfy this by
/// construction: BatchEvaluator/ThreadPool are destroyed before the harness
/// returns).  Rings may be read while their owners record.

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
/// I/O failure or when a trace is already open.  Ring events recorded before
/// this call are never written; the slow-decode write is re-armed.
bool trace_open(const std::string& path, const RunInfo& info);

/// Writes every thread's pending records and ring events, then closes the
/// file.  Call after worker threads have been joined; span records appended
/// concurrently may be dropped.
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
  std::uint64_t start_ = 0;  ///< obs::clock_ticks at construction
  std::string name_;
  std::string fields_;  ///< pre-serialized ,"k":v fragments
};

/// Ring event vocabulary.  Every kind has a dotted name in names.hpp (kFr*)
/// and field labels for its payload words.
enum class FrKind : std::uint16_t {
  kDecode = 0,        ///< ns = latency, reused = prefix reused, deployed
  kCommitReject = 1,  ///< string = string id, violation = class (1 util,
                      ///< 2 throughput, 3 latency)
  kUncommit = 2,      ///< ns = latency, strings = strings uncommitted
  kRemap = 3,         ///< ns = latency, migrations, dropped
  kAnomaly = 4,       ///< code = kFrSlowDecode, value = ns, watermark
  kMark = 5,          ///< a0, a1, a2: user-defined (tests, bench marks)
};

/// Events each thread's ring keeps.
inline constexpr std::size_t kRingCapacity = 4096;

/// kAnomaly code of a decode slower than the watermark.
inline constexpr std::uint64_t kFrSlowDecode = 1;

/// Records one event into the calling thread's ring.  Wait-free after the
/// thread's first record, which allocates and registers its state.
void fr_record(FrKind kind, std::uint64_t a0, std::uint64_t a1 = 0,
               std::uint64_t a2 = 0) noexcept;

/// Records a decode event; when \p ns exceeds the watermark, also records a
/// slow-decode anomaly and, the first time per open trace, writes every ring
/// to it.
void fr_note_decode(std::uint64_t ns, std::uint64_t prefix_reused,
                    std::uint64_t deployed) noexcept;

/// Sets the slow-decode watermark (ns; 0 disables, the default).
void fr_set_decode_watermark_ns(std::uint64_t ns);

/// Dotted event name for \p kind (registered in names.hpp).
[[nodiscard]] std::string_view fr_kind_name(FrKind kind) noexcept;

/// Installs a SIGUSR1 handler that requests a ring write; the write runs at
/// the next trace_poll() (signal handlers cannot do file I/O safely).
void trace_install_signal_trigger();

/// Writes every ring to the open trace if SIGUSR1 arrived since the last
/// call.  Cheap when nothing is pending.
void trace_poll();

}  // namespace tsce::obs
