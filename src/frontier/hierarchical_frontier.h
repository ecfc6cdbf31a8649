// Two-level (hierarchical) vertex bit set: the paper's dense bitmask
// frontier (§5, "Frontier Tracking") augmented with a summary level of
// one bit per 64-bit data word. The summary makes three operations fast
// on sparse frontiers:
//
//   * any_in_word_range(lo, hi) — "does any vertex in data words
//     [lo, hi) belong to the frontier?" — the occupancy test the
//     frontier-gated pull engine uses to skip whole edge vectors (and
//     whole destinations) whose sources are all inactive;
//   * count()/empty() — early-exit over summary-clear regions instead
//     of scanning every data word;
//   * for_each() — tzcnt-scans the summary first, touching only data
//     words that can be nonzero.
//
// Invariant (maintained by every mutator): a nonzero data word always
// has its summary bit set, so summary bit clear implies data word zero,
// which is what makes the skip test sound. The converse need not hold:
// a set summary bit over a zero word (left by reset_atomic(), which
// never prunes) only makes probes conservative.
//
// Concurrency: data-word writes follow the same ownership rules as the
// flat bitmask — set()/reset() for word-exclusive writers,
// set_atomic()/test_and_set_atomic()/reset_atomic() for concurrent
// ones. Summary bits are shared at a 4096-vertex granularity — coarser
// than the Vertex phase's 64-vertex thread ranges — so every set
// publishes its summary bit with a check-then-atomic-or: one relaxed
// fetch_or the first time a data word becomes nonzero, a relaxed
// atomic load afterwards. Only the single-threaded reset() prunes
// summary bits: a concurrent prune could race a concurrent set's
// publish and leave a nonzero word behind a clear summary bit.
#pragma once

#include <cstdint>

#include "platform/aligned_buffer.h"
#include "platform/bits.h"
#include "platform/types.h"
#include "threading/atomics.h"

namespace grazelle {

/// Fixed-capacity vertex bit set with a one-bit-per-word summary level.
class HierarchicalFrontier {
 public:
  HierarchicalFrontier() = default;

  explicit HierarchicalFrontier(std::uint64_t num_vertices)
      : num_vertices_(num_vertices),
        words_(bits::ceil_div(num_vertices, std::uint64_t{64}), 0),
        summary_(bits::ceil_div(
                     bits::ceil_div(num_vertices, std::uint64_t{64}),
                     std::uint64_t{64}),
                 0) {}

  [[nodiscard]] std::uint64_t num_vertices() const noexcept {
    return num_vertices_;
  }

  [[nodiscard]] std::uint64_t num_words() const noexcept {
    return words_.size();
  }

  [[nodiscard]] std::uint64_t num_summary_words() const noexcept {
    return summary_.size();
  }

  [[nodiscard]] bool test(VertexId v) const noexcept {
    return (words_[v >> 6] >> (v & 63)) & 1;
  }

  /// Summary probe: false guarantees data word `w` is zero.
  [[nodiscard]] bool word_maybe_nonzero(std::uint64_t w) const noexcept {
    return (summary_[w >> 6] >> (w & 63)) & 1;
  }

  /// Non-atomic data-word set; safe when each vertex is written by one
  /// thread (e.g. the statically-partitioned Vertex phase). The summary
  /// bit is still published atomically because summary words span many
  /// threads' vertex ranges.
  void set(VertexId v) noexcept {
    words_[v >> 6] |= std::uint64_t{1} << (v & 63);
    publish_summary(v >> 6);
  }

  /// Atomic set for concurrent writers (push engine, async worklist).
  void set_atomic(VertexId v) noexcept {
    std::atomic_ref<std::uint64_t> ref(words_[v >> 6]);
    ref.fetch_or(std::uint64_t{1} << (v & 63), std::memory_order_relaxed);
    publish_summary(v >> 6);
  }

  /// Atomic test-and-set; true when this call flipped the bit 0 -> 1
  /// (the caller owns the transition). Used by the async worklist.
  /// Release pairs with reset_atomic()'s acquire: a clearer that
  /// observes this set also observes the writes made before it.
  bool test_and_set_atomic(VertexId v) noexcept {
    std::atomic_ref<std::uint64_t> ref(words_[v >> 6]);
    const std::uint64_t bit = std::uint64_t{1} << (v & 63);
    const bool owned =
        (ref.fetch_or(bit, std::memory_order_release) & bit) == 0;
    publish_summary(v >> 6);
    return owned;
  }

  /// Atomic clear of one bit for callers racing concurrent sets on the
  /// same word (the async worklist's dequeue). It leaves the summary
  /// bit set even when the word empties — see the class comment; the
  /// next clear_all() or Vertex-phase rebuild tightens it.
  void reset_atomic(VertexId v) noexcept {
    std::atomic_ref<std::uint64_t> ref(words_[v >> 6]);
    ref.fetch_and(~(std::uint64_t{1} << (v & 63)), std::memory_order_acquire);
  }

  /// Single-threaded clear of one bit; prunes the summary bit when the
  /// data word empties so empty()/any_in_word_range stay tight.
  void reset(VertexId v) noexcept {
    words_[v >> 6] &= ~(std::uint64_t{1} << (v & 63));
    if (words_[v >> 6] == 0) {
      summary_[v >> 12] &= ~(std::uint64_t{1} << ((v >> 6) & 63));
    }
  }

  void clear_all() noexcept {
    words_.fill(0);
    summary_.fill(0);
  }

  /// Sets every vertex bit (trailing bits of the last word, and
  /// trailing summary bits past the last data word, stay zero).
  void set_all() noexcept {
    words_.fill(~std::uint64_t{0});
    const unsigned tail = num_vertices_ & 63;
    if (tail != 0 && !words_.empty()) {
      words_[words_.size() - 1] = (std::uint64_t{1} << tail) - 1;
    }
    summary_.fill(~std::uint64_t{0});
    const unsigned stail = words_.size() & 63;
    if (stail != 0 && !summary_.empty()) {
      summary_[summary_.size() - 1] = (std::uint64_t{1} << stail) - 1;
    }
  }

  /// True when some data word in [word_lo, word_hi) may be nonzero —
  /// i.e. some vertex in [64*word_lo, 64*word_hi) may be active. False
  /// proves the whole range inactive. Cost: one or two masked summary
  /// words for narrow ranges; wide ranges exit at the first set bit.
  [[nodiscard]] bool any_in_word_range(std::uint64_t word_lo,
                                       std::uint64_t word_hi) const noexcept {
    if (word_lo >= word_hi) return false;
    const std::uint64_t s_lo = word_lo >> 6;
    const std::uint64_t s_hi = (word_hi - 1) >> 6;  // inclusive
    const std::uint64_t lo_mask = ~std::uint64_t{0} << (word_lo & 63);
    const std::uint64_t hi_mask =
        ~std::uint64_t{0} >> (63 - ((word_hi - 1) & 63));
    if (s_lo == s_hi) return (summary_[s_lo] & lo_mask & hi_mask) != 0;
    if ((summary_[s_lo] & lo_mask) != 0) return true;
    for (std::uint64_t s = s_lo + 1; s < s_hi; ++s) {
      if (summary_[s] != 0) return true;
    }
    return (summary_[s_hi] & hi_mask) != 0;
  }

  /// Constant-time conservative form of any_in_word_range for the
  /// per-edge-vector gate: spans within one or two summary words (up to
  /// ~8K vertices) are answered exactly with masked loads; wider spans
  /// return true ("maybe") so the caller falls through to a per-lane
  /// test. This keeps the gate O(1) per vector — an exact scan would
  /// walk the whole masked span precisely when the frontier is sparse
  /// and nearly every summary word is zero (no early exit).
  [[nodiscard]] bool span_maybe_active(std::uint64_t word_lo,
                                       std::uint64_t word_hi) const noexcept {
    if (word_lo >= word_hi) return false;
    const std::uint64_t s_lo = word_lo >> 6;
    const std::uint64_t s_hi = (word_hi - 1) >> 6;  // inclusive
    const std::uint64_t lo_mask = ~std::uint64_t{0} << (word_lo & 63);
    const std::uint64_t hi_mask =
        ~std::uint64_t{0} >> (63 - ((word_hi - 1) & 63));
    if (s_lo == s_hi) return (summary_[s_lo] & lo_mask & hi_mask) != 0;
    if (s_hi == s_lo + 1) {
      return ((summary_[s_lo] & lo_mask) | (summary_[s_hi] & hi_mask)) != 0;
    }
    return true;
  }

  /// Population count, skipping summary-clear regions.
  [[nodiscard]] std::uint64_t count() const noexcept {
    std::uint64_t total = 0;
    for (std::uint64_t si = 0; si < summary_.size(); ++si) {
      bits::for_each_set_bit(summary_[si], si * 64, [&](std::uint64_t w) {
        total += bits::popcount(words_[w]);
      });
    }
    return total;
  }

  [[nodiscard]] bool empty() const noexcept {
    for (std::uint64_t si = 0; si < summary_.size(); ++si) {
      bool found = false;
      bits::for_each_set_bit(summary_[si], si * 64, [&](std::uint64_t w) {
        found |= words_[w] != 0;
      });
      if (found) return false;
    }
    return true;
  }

  /// Summary-driven tzcnt scan: `fn(v)` for every member, ascending.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::uint64_t si = 0; si < summary_.size(); ++si) {
      bits::for_each_set_bit(summary_[si], si * 64, [&](std::uint64_t w) {
        bits::for_each_set_bit(words_[w], w * 64, fn);
      });
    }
  }

  /// Raw word access for vectorized membership gathers (read) and for
  /// bulk writers. A writer that zeroes words through this pointer must
  /// pair it with clear_summary() (see VertexPhase); a writer that sets
  /// bits must go through set()/set_atomic() instead.
  [[nodiscard]] const std::uint64_t* words() const noexcept {
    return words_.data();
  }
  [[nodiscard]] std::uint64_t* words() noexcept { return words_.data(); }

  /// Raw summary access for vectorized occupancy pre-tests.
  [[nodiscard]] const std::uint64_t* summary_words() const noexcept {
    return summary_.data();
  }

  /// Zeroes the summary level only. Bulk rebuilders (the Vertex phase)
  /// call this single-threaded, then zero their data-word ranges through
  /// words() and re-publish via set().
  void clear_summary() noexcept { summary_.fill(0); }

  void swap(HierarchicalFrontier& other) noexcept {
    std::swap(num_vertices_, other.num_vertices_);
    std::swap(words_, other.words_);
    std::swap(summary_, other.summary_);
  }

 private:
  /// Publishes data word `w`'s summary bit. Relaxed load first (the
  /// same plain mov on x86-64, but not a data race against concurrent
  /// publishers): after the first publisher wins the fetch_or, every
  /// later set() in the same word is branch-only.
  void publish_summary(std::uint64_t w) noexcept {
    const std::uint64_t bit = std::uint64_t{1} << (w & 63);
    std::atomic_ref<std::uint64_t> ref(summary_[w >> 6]);
    if ((ref.load(std::memory_order_relaxed) & bit) == 0) {
      ref.fetch_or(bit, std::memory_order_relaxed);
    }
  }

  std::uint64_t num_vertices_ = 0;
  AlignedBuffer<std::uint64_t> words_;
  AlignedBuffer<std::uint64_t> summary_;
};

}  // namespace grazelle
