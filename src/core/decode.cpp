#include "core/decode.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "core/imr.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/trace.hpp"
#include "util/hot.hpp"

namespace tsce::core {

using model::StringId;
using model::SystemModel;

namespace {

/// Registry handles resolved once per process; contexts fold their local
/// tallies into these on destruction (the hot loop stays untouched).
struct DecodeMetrics {
  obs::Counter& calls;
  obs::Counter& commits_attempted;
  obs::Counter& strings_reused;
  obs::Counter& memo_hits;
  obs::Histogram& prefix_reuse_len;
  obs::Histogram& latency_ns;  ///< wall-clock per decode_order_into call

  static DecodeMetrics& get() {
    static DecodeMetrics m{
        obs::MetricsRegistry::instance().counter(obs::names::kDecodeCalls),
        obs::MetricsRegistry::instance().counter(obs::names::kDecodeCommitsAttempted),
        obs::MetricsRegistry::instance().counter(obs::names::kDecodeStringsReused),
        obs::MetricsRegistry::instance().counter(obs::names::kDecodeMemoHits),
        obs::MetricsRegistry::instance().histogram(obs::names::kDecodePrefixReuseLen),
        obs::MetricsRegistry::instance().histogram(obs::names::kDecodeLatencyNs)};
    return m;
  }
};

/// Prefix hash, extended one string at a time (FxHash step).
constexpr std::uint64_t extend_hash(std::uint64_t h, StringId k) noexcept {
  return ((h << 5 | h >> 59) ^ static_cast<std::uint32_t>(k)) *
         0x517cc1b727220a95ULL;
}

/// Table key of a prefix hash and its length; never 0 (the empty slot).
/// splitmix64 finaliser, so the low bits index the table well.
constexpr std::uint64_t memo_key(std::uint64_t h, std::size_t length) noexcept {
  std::uint64_t x = h ^ static_cast<std::uint64_t>(length);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x == 0 ? 1 : x;
}

}  // namespace

DecodeContext::DecodeContext(const SystemModel& model) : session_(model) {
  committed_.reserve(model.num_strings());
  checkpoints_.resize(model.num_strings() + 1);
  session_.snapshot_into(checkpoints_[0]);
}

DecodeContext::~DecodeContext() {
  if (decodes_ == 0 && commits_attempted_ == 0 && memo_hits_ == 0) return;
  DecodeMetrics& m = DecodeMetrics::get();
  m.calls.add(decodes_);
  m.commits_attempted.add(commits_attempted_);
  m.strings_reused.add(reused_);
  m.memo_hits.add(memo_hits_);
}

TSCE_HOT bool DecodeContext::try_push(StringId k) {
  ++commits_attempted_;
  imr_map_string_into(session_.system(), session_.util(), k, imr_scratch_,
                      assignment_scratch_);
  if (!session_.try_commit(k, assignment_scratch_)) return false;
  committed_.push_back(k);
  // Checkpoint the new depth so any later rewind past this point is a
  // restore.  Snapshot buffers are depth-slot-stable, so this is memcpys
  // only once the first full decode has sized them.
  session_.snapshot_into(checkpoints_[committed_.size()]);
  return true;
}

TSCE_HOT void DecodeContext::pop() {
  assert(!committed_.empty());
  session_.restore_from(checkpoints_[committed_.size() - 1]);
  committed_.pop_back();
}

TSCE_HOT void DecodeContext::rewind_to(std::size_t prefix_len) {
  assert(prefix_len <= committed_.size());
  if (prefix_len >= committed_.size()) return;
  // Checkpoint restore: O(state bytes) regardless of how long the dropped
  // suffix is.  Bit-identical to batched exact-rollback removal of the
  // suffix (the session property test pins this equivalence down).
  session_.restore_from(checkpoints_[prefix_len]);
  committed_.resize(prefix_len);
}

void DecodeContext::clone_state_from(const DecodeContext& other) {
  assert(&session_.system() == &other.session_.system());
  committed_ = other.committed_;
  // The live checkpoints [0, depth] are part of the decode state; deeper
  // slots are stale in both contexts and never read before being rewritten.
  for (std::size_t d = 0; d <= other.committed_.size(); ++d) {
    checkpoints_[d] = other.checkpoints_[d];
  }
  session_.restore_from(checkpoints_[committed_.size()]);
}

DecodeResult DecodeContext::materialize(const DecodeOutcome& outcome) const {
  DecodeResult result;
  result.allocation = session_.allocation();
  result.fitness = outcome.fitness;
  result.strings_deployed = outcome.strings_deployed;
  result.first_failed = outcome.first_failed;
  return result;
}

TSCE_HOT DecodeOutcome decode_order_into(DecodeContext& ctx,
                                         std::span<const StringId> order) {
  const std::uint64_t t0 = obs::clock_ticks();
  ++ctx.decodes_;
  // Longest common prefix of the new order and the committed stack.  Strings
  // at and beyond the previous decode's first failure were never committed,
  // so the stack is exactly the deployed prefix of the last order: everything
  // up to the divergence point can be kept as-is.
  std::size_t lcp = 0;
  const std::size_t max_lcp = std::min(ctx.committed_.size(), order.size());
  while (lcp < max_lcp && ctx.committed_[lcp] == order[lcp]) ++lcp;
  ctx.rewind_to(lcp);
  ctx.reused_ += lcp;
  DecodeMetrics::get().prefix_reuse_len.record(lcp);

  DecodeOutcome outcome;
  outcome.prefix_reused = lcp;
  outcome.strings_deployed = lcp;
  for (std::size_t p = lcp; p < order.size(); ++p) {
    if (!ctx.try_push(order[p])) {
      outcome.first_failed = order[p];
      break;
    }
    ++outcome.strings_deployed;
  }
  outcome.fitness = ctx.fitness();
  // Latency is recorded only — never branched on — so the decode itself stays
  // deterministic; the recorder's ring applies its slow-decode watermark to
  // the same reading.
  const std::uint64_t ns = obs::ticks_to_ns(obs::clock_ticks() - t0);
  DecodeMetrics::get().latency_ns.record(ns);
  obs::fr_note_decode(ns, lcp, outcome.strings_deployed);
  return outcome;
}

TSCE_HOT const DecodeContext::MemoEntry* DecodeContext::memo_find(
    std::span<const StringId> order) const noexcept {
  const std::size_t n = order.size();
  std::uint64_t h = 0;
  for (std::size_t len = 1; len <= n; ++len) {
    h = extend_hash(h, order[len - 1]);
    if (memo_lengths_[len] == 0) continue;
    const std::uint64_t key = memo_key(h, len);
    for (std::size_t slot = key & (kMemoSlots - 1); memo_keys_[slot] != 0;
         slot = (slot + 1) & (kMemoSlots - 1)) {
      if (memo_keys_[slot] != key) continue;
      // Keys can collide; the stored prefix decides.  Each prefix is stored
      // at most once, so a match ends the probe at this length.
      const MemoEntry& e = memo_entries_[slot];
      if (e.length == len &&
          std::equal(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(len),
                     memo_ids_.begin() + e.offset)) {
        // A failure entry decides every order it prefixes; a complete one
        // only the order it spans exactly.
        if (!e.complete || len == n) return &e;
        break;
      }
    }
  }
  return nullptr;
}

void DecodeContext::memo_clear() noexcept {
  std::fill(memo_keys_.begin(), memo_keys_.end(), 0);
  std::fill(memo_lengths_.begin(), memo_lengths_.end(), 0);
  memo_entries_used_ = 0;
  memo_ids_used_ = 0;
}

void DecodeContext::memo_insert(std::span<const StringId> prefix,
                                bool complete,
                                const analysis::Fitness& fitness) {
  if (prefix.size() > kMemoIds) return;
  // Clearing only drops entries; a miss re-decodes, so eviction can cost
  // time but never change a result.
  if (memo_entries_used_ + 1 > kMemoSlots / 2 ||
      memo_ids_used_ + prefix.size() > kMemoIds) {
    memo_clear();
  }
  std::uint64_t h = 0;
  for (const StringId k : prefix) h = extend_hash(h, k);
  const std::uint64_t key = memo_key(h, prefix.size());
  std::size_t slot = key & (kMemoSlots - 1);
  while (memo_keys_[slot] != 0) slot = (slot + 1) & (kMemoSlots - 1);
  memo_keys_[slot] = key;
  memo_entries_[slot] = {fitness.slackness, fitness.total_worth,
                         static_cast<std::uint32_t>(memo_ids_used_),
                         static_cast<std::uint32_t>(prefix.size()), complete};
  std::copy(prefix.begin(), prefix.end(),
            memo_ids_.begin() + static_cast<std::ptrdiff_t>(memo_ids_used_));
  memo_ids_used_ += prefix.size();
  ++memo_entries_used_;
  memo_lengths_[prefix.size()] = 1;
}

TSCE_HOT analysis::Fitness decode_fitness_into(DecodeContext& ctx,
                                               std::span<const StringId> order) {
  // An order no longer than the string set; anything else (never produced
  // by the searches) bypasses the memo.
  const std::size_t q = ctx.system().num_strings();
  if (order.empty() || order.size() > q) {
    return decode_order_into(ctx, order).fitness;
  }
  if (ctx.memo_keys_.empty()) {
    ctx.memo_keys_.resize(DecodeContext::kMemoSlots);
    ctx.memo_entries_.resize(DecodeContext::kMemoSlots);
    ctx.memo_ids_.resize(DecodeContext::kMemoIds);
    ctx.memo_lengths_.resize(q + 1);
  } else if (const DecodeContext::MemoEntry* hit = ctx.memo_find(order)) {
    ++ctx.memo_hits_;
    return {hit->worth, hit->slackness};
  }
  const DecodeOutcome outcome = decode_order_into(ctx, order);
  const bool complete = outcome.first_failed == model::kInvalidId;
  const std::size_t decisive =
      complete ? outcome.strings_deployed : outcome.strings_deployed + 1;
  ctx.memo_insert(order.first(decisive), complete, outcome.fitness);
  return outcome.fitness;
}

DecodeResult decode_order(const SystemModel& model,
                          std::span<const StringId> order) {
  DecodeContext ctx(model);
  return ctx.materialize(decode_order_into(ctx, order));
}

std::vector<StringId> identity_order(const SystemModel& model) {
  std::vector<StringId> order(model.num_strings());
  std::iota(order.begin(), order.end(), 0);
  return order;
}

}  // namespace tsce::core
