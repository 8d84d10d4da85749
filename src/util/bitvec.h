#ifndef CALCDB_UTIL_BITVEC_H_
#define CALCDB_UTIL_BITVEC_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace calcdb {

/// A fixed-capacity bit vector with atomic per-bit operations.
///
/// This is the workhorse structure behind pCALC's dirty-key tracking, the
/// fuzzy checkpointer's dirty-record table, and Zigzag's MR/MW vectors
/// (paper §2.3: "in practice we found that the bit vector approach usually
/// outperformed the other two approaches").
class AtomicBitVector {
 public:
  explicit AtomicBitVector(size_t num_bits)
      : num_bits_(num_bits), words_((num_bits + 63) / 64) {
    for (auto& w : words_) w.store(0, std::memory_order_relaxed);
  }

  AtomicBitVector(const AtomicBitVector&) = delete;
  AtomicBitVector& operator=(const AtomicBitVector&) = delete;
  /// Movable so owners can hold vectors inline; never move one that
  /// another thread may be touching.
  AtomicBitVector(AtomicBitVector&&) = default;

  size_t size() const { return num_bits_; }

  bool Get(size_t i) const {
    return (words_[i >> 6].load(std::memory_order_acquire) >> (i & 63)) & 1u;
  }

  void Set(size_t i) {
    words_[i >> 6].fetch_or(uint64_t{1} << (i & 63),
                            std::memory_order_acq_rel);
  }

  void Clear(size_t i) {
    words_[i >> 6].fetch_and(~(uint64_t{1} << (i & 63)),
                             std::memory_order_acq_rel);
  }

  /// Sets bit i and returns its previous value.
  bool TestAndSet(size_t i) {
    uint64_t mask = uint64_t{1} << (i & 63);
    uint64_t prev =
        words_[i >> 6].fetch_or(mask, std::memory_order_acq_rel);
    return (prev & mask) != 0;
  }

  /// Clears every bit. Not atomic with respect to concurrent setters; the
  /// caller must guarantee quiescence (or use the double-buffered DirtySet).
  ///
  /// Per-word release stores (rather than relaxed stores plus a trailing
  /// release fence): the per-word form pairs with the acquire loads in
  /// Get()/Word() so a reader that observes a cleared word also observes
  /// everything the clearing thread did before ClearAll — and, unlike a
  /// standalone fence, it is modeled precisely by TSan and satisfies the
  /// explicit-ordering rule in tools/lint_concurrency.py.
  void ClearAll() {
    for (auto& w : words_) w.store(0, std::memory_order_release);
  }

  /// Word-level access used by bulk scans (64 bits at a time).
  uint64_t Word(size_t word_index) const {
    return words_[word_index].load(std::memory_order_acquire);
  }
  /// Word-level store used by bulk operations (Zigzag's per-checkpoint
  /// MW := ¬MR flip runs word-wise during its physical point of
  /// consistency, when no mutator is active).
  void SetWord(size_t word_index, uint64_t value) {
    words_[word_index].store(value, std::memory_order_release);
  }
  size_t num_words() const { return words_.size(); }

  /// Invokes `fn` for every set index < `limit`, in ascending order,
  /// 64 bits at a time. The vector must be quiescent (no concurrent
  /// Set/Clear). A template so capture scans inline `fn`.
  template <typename Fn>
  void ForEach(size_t limit, Fn&& fn) const {
    size_t words = (limit + 63) / 64;
    if (words > words_.size()) words = words_.size();
    for (size_t w = 0; w < words; ++w) {
      uint64_t bits = Word(w);
      while (bits != 0) {
        size_t idx = w * 64 + static_cast<size_t>(__builtin_ctzll(bits));
        bits &= bits - 1;
        if (idx < limit) fn(static_cast<uint32_t>(idx));
      }
    }
  }

  /// Number of set bits (linear scan; used by stats and tests).
  size_t Count() const {
    size_t n = 0;
    for (const auto& w : words_)
      n += static_cast<size_t>(
          __builtin_popcountll(w.load(std::memory_order_acquire)));
    return n;
  }

 private:
  size_t num_bits_;
  std::vector<std::atomic<uint64_t>> words_;
};

}  // namespace calcdb

#endif  // CALCDB_UTIL_BITVEC_H_
