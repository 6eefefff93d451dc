#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/clock.hpp"
#include "obs/names.hpp"
#include "util/json.hpp"

namespace tsce::obs {

namespace {

constexpr std::size_t kFlushThreshold = 64 * 1024;
constexpr std::size_t kFrKindCount = static_cast<std::size_t>(FrKind::kMark) + 1;

/// One ring slot.  Only the owning thread writes it, with release stores, so
/// a reader that sees any word of a newer event also sees the head that
/// overwrote the slot and can skip it (see write_ring_locked).
struct Slot {
  std::atomic<std::uint64_t> ts{0};
  std::atomic<std::uint64_t> kind{0};
  std::atomic<std::uint64_t> a0{0};
  std::atomic<std::uint64_t> a1{0};
  std::atomic<std::uint64_t> a2{0};
};

struct ThreadState;
thread_local ThreadState* t_self = nullptr;  ///< the calling thread's state

/// Global recorder state, leaked on purpose so thread-exit writes from
/// detached/late threads never race static destruction.
struct State {
  std::mutex mu;  ///< guards everything below
  std::FILE* file = nullptr;
  std::vector<ThreadState*> threads;
  std::uint32_t next_tid = 0;
  std::string lines;  ///< ring events staged for one fwrite
};

State& state() {
  static State* s = new State;
  return *s;
}

std::atomic<bool> g_active{false};
std::atomic<std::uint64_t> g_t0{0};  ///< clock_ticks at trace_open
std::atomic<std::uint64_t> g_decode_watermark_ns{0};
std::atomic<bool> g_anomaly_written{false};
/// Set by the SIGUSR1 handler, read by whichever thread polls: a lock-free
/// atomic is safe in a handler and across threads (volatile is neither).
std::atomic<bool> g_signal_pending{false};
static_assert(std::atomic<bool>::is_always_lock_free);

void write_locked(State& s, std::string& buf) {
  if (s.file != nullptr && !buf.empty()) {
    std::fwrite(buf.data(), 1, buf.size(), s.file);
  }
  buf.clear();
}

void write_ring_locked(State& s, ThreadState& t);

struct ThreadState {
  std::uint32_t tid;
  int span_depth = 0;
  std::string buf;  ///< serialized spans and events not yet written
  std::unique_ptr<Slot[]> ring = std::make_unique<Slot[]>(kRingCapacity);
  std::atomic<std::uint64_t> head{0};  ///< events ever recorded
  std::uint64_t written = 0;  ///< ring index below which events are written
                              ///< or predate trace_open (guarded by mu)

  ThreadState() {
    State& s = state();
    std::lock_guard lock(s.mu);
    tid = s.next_tid++;
    s.threads.push_back(this);
    t_self = this;
  }
  ~ThreadState() {
    State& s = state();
    std::lock_guard lock(s.mu);
    write_locked(s, buf);
    write_ring_locked(s, *this);
    std::erase(s.threads, this);
  }
};

ThreadState& local_state() {
  static thread_local ThreadState t;
  return t;
}

std::uint64_t since_open_ns(std::uint64_t ticks) {
  const std::uint64_t t0 = g_t0.load(std::memory_order_relaxed);
  return ticks > t0 ? ticks_to_ns(ticks - t0) : 0;
}

/// Seconds with nanosecond resolution, printed from integer nanoseconds so a
/// span's ts + dur brackets its events exactly.
void append_seconds(std::string& out, std::uint64_t ns) {
  char num[32];
  std::snprintf(num, sizeof num, "%llu.%09llu",
                static_cast<unsigned long long>(ns / 1'000'000'000),
                static_cast<unsigned long long>(ns % 1'000'000'000));
  out += num;
}

void append_field(std::string& out, const Field& f) {
  util::write_escaped(out, f.key);
  out += ':';
  if (f.is_str) {
    util::write_escaped(out, f.str);
  } else {
    util::write_number(out, f.num);
  }
}

/// The one line writer: {"t":..,"name":..,"tid":..,"ts":..[,"dur":..],"f":{
/// leaving the caller to append the fields and close with "}}\n".
void open_line(std::string& out, std::string_view type, std::string_view name,
               std::uint32_t tid, std::uint64_t ts_ns) {
  out += "{\"t\":\"";
  out += type;
  out += "\",\"name\":";
  util::write_escaped(out, name);
  out += ",\"tid\":";
  util::write_number(out, tid);
  out += ",\"ts\":";
  append_seconds(out, ts_ns);
}

void append_event(std::string& out, std::string_view name, std::uint32_t tid,
                  std::uint64_t ts_ns, const Field* fields, std::size_t n) {
  open_line(out, "event", name, tid, ts_ns);
  out += ",\"f\":{";
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) out += ',';
    append_field(out, fields[i]);
  }
  out += "}}\n";
}

struct KindDesc {
  std::string_view name;
  std::string_view f0, f1, f2;  // empty f2: two payload words
};

constexpr KindDesc kKinds[kFrKindCount] = {
    {names::kFrDecode, "ns", "reused", "deployed"},
    {names::kFrCommitReject, "string", "violation", {}},
    {names::kFrRemap, "ns", "migrations", "dropped"},
    {names::kFrAnomaly, "code", "value", "watermark"},
    {names::kFrMark, "a0", "a1", "a2"},
};

/// Writes \p t's ring events not yet written.  Another thread's ring may be
/// recording concurrently, so a slot its owner may have started to overwrite
/// (head has reached the slot's next lap) is skipped: the event it held is
/// gone or going, and the new one lies past the head read here.
void write_ring_locked(State& s, ThreadState& t) {
  const bool owner_live = &t != t_self;
  const std::uint64_t head = t.head.load(std::memory_order_acquire);
  if (s.file == nullptr || head == t.written) return;
  std::uint64_t i =
      std::max(t.written, head > kRingCapacity ? head - kRingCapacity : 0);
  t.written = head;
  for (; i < head; ++i) {
    const Slot& slot = t.ring[i & (kRingCapacity - 1)];
    const std::uint64_t ts = slot.ts.load(std::memory_order_acquire);
    const std::uint64_t kind = slot.kind.load(std::memory_order_acquire);
    const std::uint64_t a0 = slot.a0.load(std::memory_order_acquire);
    const std::uint64_t a1 = slot.a1.load(std::memory_order_acquire);
    const std::uint64_t a2 = slot.a2.load(std::memory_order_acquire);
    if (owner_live &&
        t.head.load(std::memory_order_acquire) >= i + kRingCapacity) {
      continue;
    }
    const KindDesc& d = kKinds[std::min<std::uint64_t>(kind, kFrKindCount - 1)];
    const Field fields[] = {{d.f0, a0}, {d.f1, a1}, {d.f2, a2}};
    append_event(s.lines, d.name, t.tid, since_open_ns(ts), fields,
                 d.f2.empty() ? 2 : 3);
  }
  write_locked(s, s.lines);
}

/// Writes every live ring to the open trace and flushes it to disk, so the
/// window survives a later crash.
[[gnu::cold, gnu::noinline]] void write_all_rings() {
  State& s = state();
  std::lock_guard lock(s.mu);
  if (s.file == nullptr) return;
  for (ThreadState* t : s.threads) write_ring_locked(s, *t);
  std::fflush(s.file);
}

void maybe_flush(ThreadState& t) {
  if (t.buf.size() < kFlushThreshold && t.span_depth > 0) return;
  State& s = state();
  std::lock_guard lock(s.mu);
  write_locked(s, t.buf);
}

}  // namespace

bool tracing_active() noexcept {
  return g_active.load(std::memory_order_acquire);
}

bool trace_open(const std::string& path, const RunInfo& info) {
  (void)ticks_per_ns();  // calibrate before the first timestamp
  State& s = state();
  std::lock_guard lock(s.mu);
  if (s.file != nullptr) return false;
  s.file = std::fopen(path.c_str(), "w");
  if (s.file == nullptr) return false;
  g_t0.store(clock_ticks(), std::memory_order_relaxed);
  for (ThreadState* t : s.threads) {
    t->written = t->head.load(std::memory_order_acquire);
  }
  g_anomaly_written.store(false, std::memory_order_relaxed);
  const std::string header = "{\"t\":\"header\",\"version\":1,\"run_info\":" +
                             info.to_json().dump() + "}\n";
  std::fwrite(header.data(), 1, header.size(), s.file);
  g_active.store(true, std::memory_order_release);
  return true;
}

void trace_close() {
  g_active.store(false, std::memory_order_release);
  State& s = state();
  std::lock_guard lock(s.mu);
  if (s.file == nullptr) return;
  for (ThreadState* t : s.threads) {
    write_locked(s, t->buf);
    write_ring_locked(s, *t);
  }
  std::fclose(s.file);
  s.file = nullptr;
}

void trace_event(MetricName name, std::initializer_list<Field> fields) {
  if (!tracing_active()) return;
  ThreadState& t = local_state();
  append_event(t.buf, name.view(), t.tid, since_open_ns(clock_ticks()),
               fields.begin(), fields.size());
  maybe_flush(t);
}

Span::Span(MetricName name) : Span(name, {}) {}

Span::Span(MetricName name, std::initializer_list<Field> fields) {
  if (!tracing_active()) return;
  active_ = true;
  start_ = clock_ticks();
  name_ = name.view();
  for (const Field& f : fields) {
    fields_ += ',';
    append_field(fields_, f);
  }
  ++local_state().span_depth;
}

void Span::add(std::string_view key, double v) {
  if (!active_) return;
  fields_ += ',';
  append_field(fields_, Field(key, v));
}

void Span::add(std::string_view key, std::string_view v) {
  if (!active_) return;
  fields_ += ',';
  append_field(fields_, Field(key, v));
}

Span::~Span() {
  if (!active_) return;
  ThreadState& t = local_state();
  const std::uint64_t start_ns = since_open_ns(start_);
  const std::uint64_t end_ns = std::max(start_ns, since_open_ns(clock_ticks()));
  open_line(t.buf, "span", name_, t.tid, start_ns);
  t.buf += ",\"dur\":";
  append_seconds(t.buf, end_ns - start_ns);
  t.buf += ",\"f\":{";
  // fields_ holds ",\"k\":v" fragments; skip the leading comma.
  if (!fields_.empty()) t.buf.append(fields_, 1, std::string::npos);
  t.buf += "}}\n";
  --t.span_depth;
  maybe_flush(t);
}

void fr_record(FrKind kind, std::uint64_t a0, std::uint64_t a1,
               std::uint64_t a2) noexcept {
  ThreadState& t = local_state();
  const std::uint64_t h = t.head.load(std::memory_order_relaxed);
  Slot& slot = t.ring[h & (kRingCapacity - 1)];
  slot.ts.store(clock_ticks(), std::memory_order_release);
  slot.kind.store(static_cast<std::uint64_t>(kind), std::memory_order_release);
  slot.a0.store(a0, std::memory_order_release);
  slot.a1.store(a1, std::memory_order_release);
  slot.a2.store(a2, std::memory_order_release);
  t.head.store(h + 1, std::memory_order_release);
}

void fr_note_decode(std::uint64_t ns, std::uint64_t prefix_reused,
                    std::uint64_t deployed) noexcept {
  fr_record(FrKind::kDecode, ns, prefix_reused, deployed);
  const std::uint64_t wm =
      g_decode_watermark_ns.load(std::memory_order_relaxed);
  if (wm == 0 || ns <= wm) return;
  fr_record(FrKind::kAnomaly, kFrSlowDecode, ns, wm);
  // One write per trace, so an anomaly storm cannot make the file the
  // bottleneck.
  if (tracing_active() &&
      !g_anomaly_written.exchange(true, std::memory_order_relaxed)) {
    write_all_rings();
  }
}

void fr_set_decode_watermark_ns(std::uint64_t ns) {
  (void)ticks_per_ns();  // keep the calibration spin off the decode path
  g_decode_watermark_ns.store(ns, std::memory_order_relaxed);
}

std::string_view fr_kind_name(FrKind kind) noexcept {
  return kKinds[std::min(static_cast<std::size_t>(kind), kFrKindCount - 1)]
      .name;
}

void trace_install_signal_trigger() {
#ifdef SIGUSR1
  std::signal(SIGUSR1, [](int) {
    g_signal_pending.store(true, std::memory_order_relaxed);
  });
#endif
}

void trace_poll() {
  if (g_signal_pending.exchange(false, std::memory_order_relaxed)) {
    write_all_rings();
  }
}

}  // namespace tsce::obs
