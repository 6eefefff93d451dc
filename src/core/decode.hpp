/// \file decode.hpp
/// Projection from the permutation space into the solution space (paper §5):
/// strings are handed to the IMR in a given order; after each string the
/// two-stage feasibility analysis runs on the intermediate mapping, and the
/// first failure terminates the process (partial allocation), leaving the
/// previous feasible mapping as the result.
///
/// The evaluation engine: search allocators decode millions of neighboring
/// permutations, so DecodeContext keeps one long-lived AllocationSession and
/// diffs each new order against the commit stack of the previous one.  Only
/// the divergent suffix is re-decoded; the longest common prefix is reused
/// verbatim.  Rewinding undoes the session's trail (DESIGN.md §12): the
/// context keeps one session mark per depth, so dropping a suffix costs in
/// proportion to the suffix, not to the session's size.  Observable state
/// after an undo is bit-identical to a from-scratch decode of the shared
/// prefix, so incremental results equal full re-decodes exactly.
///
/// Searches that need only the fitness go one step further: a decode stops at
/// the first string that fails, so its result depends only on the *decisive
/// prefix* (the order up to and including that string, or the whole order
/// when every string deploys).  decode_fitness_into remembers the fitness of
/// recently decoded decisive prefixes and answers a repeat without decoding.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "analysis/metrics.hpp"
#include "analysis/session.hpp"
#include "core/imr.hpp"
#include "model/allocation.hpp"
#include "model/system_model.hpp"
#include "model/types.hpp"

namespace tsce::core {

struct DecodeResult {
  model::Allocation allocation;
  analysis::Fitness fitness;
  /// Number of strings deployed before the process stopped.
  std::size_t strings_deployed = 0;
  /// The string whose commit failed, or kInvalidId when every string fit.
  model::StringId first_failed = model::kInvalidId;
};

/// Allocation-free view of one decode: everything DecodeResult carries except
/// the allocation itself (readable from the context that produced it).
struct DecodeOutcome {
  analysis::Fitness fitness;
  std::size_t strings_deployed = 0;
  model::StringId first_failed = model::kInvalidId;
  /// Strings reused from the committed prefix of the previous decode.
  std::size_t prefix_reused = 0;
};

/// Reusable decoding state: a long-lived AllocationSession, the stack of
/// committed strings, one session mark per depth (marks_[d] is the mark with
/// exactly the first d committed strings deployed).  A context is
/// single-threaded; parallel evaluation uses one context per worker (see
/// BatchEvaluator in evaluator.hpp).
class DecodeContext {
 public:
  explicit DecodeContext(const model::SystemModel& model);
  /// Folds the lifetime counters into the process-wide obs::MetricsRegistry
  /// ("decode.calls" etc.) so the hot loop never touches shared state.
  ~DecodeContext();

  [[nodiscard]] const model::SystemModel& system() const noexcept {
    return session_.system();
  }

  /// Incremental primitive: IMR-maps string k onto the current utilization
  /// state and attempts the commit.  On success k joins the commit stack
  /// with the session mark taken before it.  The exact enumerator drives its
  /// depth-first search with these.
  bool try_push(model::StringId k);
  /// Uncommits the most recently pushed string (undo to its mark).
  void pop();
  /// Rewinds until only \p prefix_len strings remain committed: undoes the
  /// session to the mark of that depth, at a cost proportional to the
  /// dropped suffix.
  void rewind_to(std::size_t prefix_len);

  /// Clones another context's decode state (session with its undo trail,
  /// commit stack and marks) into this one, reusing this context's buffers —
  /// memcpys of state_bytes() plus the trail, allocation-free in steady
  /// state.  Both contexts must be built from the same SystemModel.
  /// Replica-based engines (tempering, BatchEvaluator) use this to fan a
  /// decoded prototype out to workers instead of re-decoding per replica.
  void clone_state_from(const DecodeContext& other);
  /// Bytes of the session's snapshot image (see
  /// AllocationSession::state_bytes); a clone copies these and the trail.
  [[nodiscard]] std::size_t state_bytes() const noexcept {
    return session_.state_bytes();
  }

  /// Committed strings, in commit order.
  [[nodiscard]] std::span<const model::StringId> committed() const noexcept {
    return committed_;
  }
  [[nodiscard]] std::size_t depth() const noexcept { return committed_.size(); }

  [[nodiscard]] analysis::Fitness fitness() const noexcept {
    return session_.fitness();
  }
  [[nodiscard]] const model::Allocation& allocation() const noexcept {
    return session_.allocation();
  }
  [[nodiscard]] const analysis::UtilizationState& util() const noexcept {
    return session_.util();
  }

  /// Copies the current session state into a full DecodeResult using the
  /// outcome of the decode that produced it.
  [[nodiscard]] DecodeResult materialize(const DecodeOutcome& outcome) const;

  /// Lifetime counters (for benchmarks and engine introspection).  Thin
  /// shims over the context-local tallies that back the registry metrics;
  /// process-wide totals live in obs::MetricsRegistry.  decodes() counts
  /// real decodes only; memo_hits() counts decode_fitness_into calls the
  /// decisive-prefix memo answered.
  [[nodiscard]] std::size_t decodes() const noexcept { return decodes_; }
  [[nodiscard]] std::size_t commits_attempted() const noexcept {
    return commits_attempted_;
  }
  [[nodiscard]] std::size_t strings_reused() const noexcept { return reused_; }
  [[nodiscard]] std::size_t memo_hits() const noexcept { return memo_hits_; }

  /// Decisive-prefix memo capacity: table slots (a power of two; the memo is
  /// cleared when half of them are in use) and stored string ids.  Sized on
  /// the first decode_fitness_into call; about 384 KiB per context.
  static constexpr std::size_t kMemoSlots = 4096;
  static constexpr std::size_t kMemoIds = std::size_t{64} * 1024;

 private:
  friend DecodeOutcome decode_order_into(DecodeContext& ctx,
                                         std::span<const model::StringId> order);
  friend analysis::Fitness decode_fitness_into(
      DecodeContext& ctx, std::span<const model::StringId> order);

  /// One memoised decisive prefix: memo_ids_[offset, offset + length) and
  /// the fitness its decode produced.  A complete entry (every string
  /// deployed) stands only for an order of exactly its length.
  struct MemoEntry {
    double slackness;
    std::int32_t worth;
    std::uint32_t offset;
    std::uint32_t length;
    bool complete;
  };
  [[nodiscard]] const MemoEntry* memo_find(
      std::span<const model::StringId> order) const noexcept;
  void memo_insert(std::span<const model::StringId> prefix, bool complete,
                   const analysis::Fitness& fitness);
  void memo_clear() noexcept;

  analysis::AllocationSession session_;
  std::vector<model::StringId> committed_;
  /// marks_[d] = session mark at depth d, for d in [0, depth()); reserved to
  /// Q, so pushes never allocate.
  std::vector<analysis::AllocationSession::Mark> marks_;
  ImrScratch imr_scratch_;
  std::vector<model::MachineId> assignment_scratch_;
  std::size_t decodes_ = 0;
  std::size_t commits_attempted_ = 0;
  std::size_t reused_ = 0;
  std::size_t memo_hits_ = 0;

  /// Open-addressed table of prefix keys (0 = empty slot), with the entry
  /// for each key in the parallel memo_entries_ slot.
  std::vector<std::uint64_t> memo_keys_;
  std::vector<MemoEntry> memo_entries_;
  /// Flat arena holding every stored prefix's string ids.
  std::vector<model::StringId> memo_ids_;
  /// memo_lengths_[n] != 0 when an entry of length n is stored, so a lookup
  /// probes only lengths that can match.
  std::vector<std::uint8_t> memo_lengths_;
  std::size_t memo_entries_used_ = 0;
  std::size_t memo_ids_used_ = 0;
};

/// Decodes \p order into \p ctx, reusing the longest common prefix with the
/// context's committed stack: O(divergent suffix) instead of O(order length).
/// The result is bit-identical to decode_order on a fresh session.
DecodeOutcome decode_order_into(DecodeContext& ctx,
                                std::span<const model::StringId> order);

/// Fitness of decode_order_into(ctx, order), answered from the context's
/// decisive-prefix memo when an earlier call decoded the same decisive prefix.
/// A hit touches neither the session nor the commit stack; a miss decodes
/// and records the decisive prefix.  The memo is exact (stored prefixes are
/// compared element by element), so the result is bit-identical to
/// decode_order on a fresh session whatever the context decoded before.
/// For callers that read only the fitness; anything that reads the
/// allocation or the DecodeOutcome calls decode_order_into.
analysis::Fitness decode_fitness_into(DecodeContext& ctx,
                                      std::span<const model::StringId> order);

/// Decodes \p order (a permutation of string ids, possibly a prefix) on a
/// fresh session.  Thin wrapper over DecodeContext; search loops should hold
/// a context and call decode_order_into instead.
[[nodiscard]] DecodeResult decode_order(const model::SystemModel& model,
                                        std::span<const model::StringId> order);

/// Identity order 0..Q-1.
[[nodiscard]] std::vector<model::StringId> identity_order(
    const model::SystemModel& model);

}  // namespace tsce::core
