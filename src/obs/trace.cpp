#include "obs/trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <vector>

namespace tsce::obs {

namespace {

constexpr std::size_t kFlushThreshold = 64 * 1024;

struct ThreadBuf;

/// Global tracer state, leaked on purpose so thread-exit flushes from
/// detached/late threads never race static destruction.
struct TraceState {
  std::mutex mu;  ///< guards file and the buffer registry
  std::FILE* file = nullptr;
  std::chrono::steady_clock::time_point t0{};
  std::vector<ThreadBuf*> bufs;
};

std::atomic<bool> g_active{false};
std::atomic<std::uint32_t> g_next_tid{0};

TraceState& state() {
  static TraceState* s = new TraceState;
  return *s;
}

/// Flushes \p buf to the trace file; drops it when the trace has been closed
/// (records appended after trace_close are lost by contract).
void flush_locked(TraceState& s, std::string& buf) {
  if (s.file != nullptr && !buf.empty()) {
    std::fwrite(buf.data(), 1, buf.size(), s.file);
  }
  buf.clear();
}

struct ThreadBuf {
  std::string buf;
  std::uint32_t tid;
  int span_depth = 0;

  ThreadBuf() : tid(g_next_tid.fetch_add(1, std::memory_order_relaxed)) {
    TraceState& s = state();
    std::lock_guard lock(s.mu);
    s.bufs.push_back(this);
  }
  ~ThreadBuf() {
    TraceState& s = state();
    std::lock_guard lock(s.mu);
    flush_locked(s, buf);
    std::erase(s.bufs, this);
  }
};

ThreadBuf& local_buf() {
  static thread_local ThreadBuf tb;
  return tb;
}

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       state().t0)
      .count();
}

void append_escaped(std::string& out, std::string_view v) {
  for (char c : v) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof esc, "\\u%04x", c);
          out += esc;
        } else {
          out += c;
        }
    }
  }
}

void append_num(std::string& out, double v) {
  char num[32];
  // Integral values (counts, generations) print without a fraction.
  if (v == static_cast<double>(static_cast<std::int64_t>(v)) && v > -1e15 &&
      v < 1e15) {
    std::snprintf(num, sizeof num, "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(num, sizeof num, "%.17g", v);
  }
  out += num;
}

void append_time(std::string& out, double seconds) {
  char num[32];
  std::snprintf(num, sizeof num, "%.9f", seconds);
  out += num;
}

void append_field(std::string& out, const Field& f) {
  out += '"';
  append_escaped(out, f.key);
  out += "\":";
  if (f.is_str) {
    out += '"';
    append_escaped(out, f.str);
    out += '"';
  } else {
    append_num(out, f.num);
  }
}

/// Shared prefix: {"t":"<type>","name":"<name>","tid":N,"ts":T
void append_prefix(std::string& out, const char* type, std::string_view name,
                   std::uint32_t tid, double ts) {
  out += "{\"t\":\"";
  out += type;
  out += "\",\"name\":\"";
  append_escaped(out, name);
  out += "\",\"tid\":";
  append_num(out, tid);
  out += ",\"ts\":";
  append_time(out, ts);
}

void maybe_flush(ThreadBuf& tb) {
  if (tb.buf.size() < kFlushThreshold && tb.span_depth > 0) return;
  TraceState& s = state();
  std::lock_guard lock(s.mu);
  flush_locked(s, tb.buf);
}

}  // namespace

bool tracing_active() noexcept {
  return g_active.load(std::memory_order_acquire);
}

bool trace_open(const std::string& path, const RunInfo& info) {
  TraceState& s = state();
  std::lock_guard lock(s.mu);
  if (s.file != nullptr) return false;
  s.file = std::fopen(path.c_str(), "w");
  if (s.file == nullptr) return false;
  s.t0 = std::chrono::steady_clock::now();
  const std::string header = "{\"t\":\"header\",\"version\":1,\"run_info\":" +
                             info.to_json().dump() + "}\n";
  std::fwrite(header.data(), 1, header.size(), s.file);
  g_active.store(true, std::memory_order_release);
  return true;
}

void trace_close() {
  g_active.store(false, std::memory_order_release);
  TraceState& s = state();
  std::lock_guard lock(s.mu);
  if (s.file == nullptr) return;
  for (ThreadBuf* tb : s.bufs) flush_locked(s, tb->buf);
  std::fclose(s.file);
  s.file = nullptr;
}

void trace_event(std::string_view name, std::initializer_list<Field> fields) {
  if (!tracing_active()) return;
  ThreadBuf& tb = local_buf();
  append_prefix(tb.buf, "event", name, tb.tid, now_s());
  tb.buf += ",\"f\":{";
  bool first = true;
  for (const Field& f : fields) {
    if (!first) tb.buf += ',';
    first = false;
    append_field(tb.buf, f);
  }
  tb.buf += "}}\n";
  maybe_flush(tb);
}

Span::Span(std::string_view name) : Span(name, {}) {}

Span::Span(std::string_view name, std::initializer_list<Field> fields) {
  if (!tracing_active()) return;
  active_ = true;
  start_ = now_s();
  name_ = name;
  for (const Field& f : fields) {
    fields_ += ',';
    append_field(fields_, f);
  }
  ++local_buf().span_depth;
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
  ThreadBuf& tb = local_buf();
  append_prefix(tb.buf, "span", name_, tb.tid, start_);
  tb.buf += ",\"dur\":";
  append_time(tb.buf, now_s() - start_);
  tb.buf += ",\"f\":{";
  // fields_ holds ",\"k\":v" fragments; skip the leading comma.
  if (!fields_.empty()) tb.buf.append(fields_, 1, std::string::npos);
  tb.buf += "}}\n";
  --tb.span_depth;
  maybe_flush(tb);
}

}  // namespace tsce::obs
