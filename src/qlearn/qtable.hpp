// Sparse Q-table over (PM-state, VM-action) pairs.
//
// The key space is tiny and fixed (81 states × 81 actions = 6561 pairs),
// but a table holds only part of it (a few percent after learning, about
// a third after aggregation), so the table stores the present entries
// only: a presence bitmap, a per-word rank prefix, and the present values
// packed in ascending key order (~1 KiB plus 8 B per entry). Sparsity is
// semantically meaningful — the gossip aggregation phase unions sparse
// tables, so "no entry" means "this PM never observed that pair", not
// "value zero". A present key's value sits at its rank (the number of
// present keys below it: one prefix read and one popcount), a state's
// actions are one contiguous slice of the packed values, and Algorithm
// 2's merge plus the Fig. 5 cosine metric are single passes over the
// union of two bitmaps with no hashing anywhere.
//
// A table is a handle to one reference-counted block holding all three.
// Copying a table shares its block; set and update clone a shared block
// before they write, and merge_average writes a fresh one. So the two
// parties of a push-pull exchange, which end up with the same averaged
// table, hold it once (DESIGN.md §9).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <iterator>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "qlearn/levels.hpp"

namespace glap::qlearn {

struct QLearningParams {
  double alpha = 0.5;  ///< learning rate
  double gamma = 0.8;  ///< discount factor
};

/// Dot product and squared norms over two tables' shared key space (one
/// pass; absent entries contribute nothing). Building block for the
/// Fig. 5 convergence metric here and in core::QTablePair.
struct CosineTerms {
  double dot = 0.0;
  double norm_a = 0.0;
  double norm_b = 0.0;
};

class QTable {
  struct Block;

 public:
  using Key = std::uint32_t;

  /// Total (state, action) pairs: 81 × 81.
  static constexpr std::size_t kEntryCount =
      kLevelPairCount * kLevelPairCount;

  [[nodiscard]] static constexpr Key key_of(State s, Action a) noexcept {
    return static_cast<Key>(s.index()) * kLevelPairCount + a.index();
  }
  [[nodiscard]] static State state_of(Key k) noexcept {
    return State::from_index(static_cast<std::uint16_t>(k / kLevelPairCount));
  }
  [[nodiscard]] static Action action_of(Key k) noexcept {
    return Action::from_index(static_cast<std::uint16_t>(k % kLevelPairCount));
  }

  /// Q(s, a); 0 when the pair has never been visited.
  [[nodiscard]] double value(State s, Action a) const noexcept {
    if (!block_) return 0.0;
    const Key k = key_of(s, a);
    return block_->has(k) ? block_->values[block_->rank_of(k)] : 0.0;
  }

  /// Whether the pair has an entry.
  [[nodiscard]] bool contains(State s, Action a) const noexcept {
    return block_ && block_->has(key_of(s, a));
  }

  /// Sets Q(s, a), inserting the pair when it is absent.
  void set(State s, Action a, double q);

  /// Bellman update (paper formula (1)):
  ///   Q(s,a) ← (1−α)·Q(s,a) + α·(R + γ·max_{a'} Q(s',a')).
  /// The max ranges over actions already known for s' (0 when none); a
  /// pair this call inserts does not count in its own max.
  void update(State s, Action a, double reward, State next,
              const QLearningParams& params);

  /// max_a Q(s, a) over known actions (0 when s has no entries).
  [[nodiscard]] double max_value(State s) const noexcept;

  /// Greedy action restricted to `available` (π_out): the available action
  /// with the greatest Q(s, ·). Unknown pairs count as Q = 0. Returns
  /// nullopt when `available` is empty. Ties break toward the first
  /// occurrence in `available`.
  [[nodiscard]] std::optional<Action> best_action(
      State s, const std::vector<Action>& available) const;

  /// Algorithm 2's UPDATE: average values present in both tables, adopt
  /// entries present in exactly one. `other` may be this table. The union
  /// goes into a fresh block; an empty table adopts `other`'s block.
  void merge_average(const QTable& other);

  [[nodiscard]] std::size_t size() const noexcept {
    return block_ ? block_->values.size() : 0;
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  void clear() noexcept { block_.reset(); }

  /// Whether both tables hold one and the same block: true after a copy
  /// or a merge into an empty table, until either one writes.
  [[nodiscard]] bool shares_storage_with(const QTable& other) const noexcept {
    return block_ != nullptr && block_ == other.block_;
  }

  /// Iteration support for serialization/analysis: a forward range of
  /// (key, value) pairs over the *present* entries, in ascending key
  /// order (stable output without sorting).
  class EntryIterator {
   public:
    using value_type = std::pair<Key, double>;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;

    EntryIterator(const QTable* table, std::size_t key,
                  std::size_t index) noexcept
        : block_(table->block_.get()), key_(key), index_(index) {
      skip_absent();
    }
    [[nodiscard]] value_type operator*() const noexcept {
      return {static_cast<Key>(key_), block_->values[index_]};
    }
    EntryIterator& operator++() noexcept {
      ++key_;
      ++index_;
      skip_absent();
      return *this;
    }
    EntryIterator operator++(int) noexcept {
      EntryIterator copy = *this;
      ++*this;
      return copy;
    }
    [[nodiscard]] friend bool operator==(const EntryIterator& a,
                                         const EntryIterator& b) noexcept {
      return a.key_ == b.key_;
    }

   private:
    void skip_absent() noexcept {
      while (key_ < kEntryCount && !block_->has(static_cast<Key>(key_)))
        ++key_;
    }
    const Block* block_;
    std::size_t key_;
    std::size_t index_;  ///< position of key_ in the packed values
  };

  class EntryRange {
   public:
    explicit EntryRange(const QTable* table) noexcept : table_(table) {}
    [[nodiscard]] EntryIterator begin() const noexcept {
      return {table_, table_->block_ ? 0 : kEntryCount, 0};
    }
    [[nodiscard]] EntryIterator end() const noexcept {
      return {table_, kEntryCount, table_->size()};
    }

   private:
    const QTable* table_;
  };

  [[nodiscard]] EntryRange entries() const noexcept {
    return EntryRange{this};
  }

  /// Dense 6561-dim snapshot (unvisited pairs are 0).
  [[nodiscard]] std::vector<double> dense() const {
    std::vector<double> out(kEntryCount, 0.0);
    for (const auto& [key, q] : entries()) out[key] = q;
    return out;
  }

  friend CosineTerms cosine_terms(const QTable& a, const QTable& b) noexcept;

 private:
  static constexpr std::size_t kWordCount = (kEntryCount + 63) / 64;

  /// One table's storage. Every copy of a table shares it until one of
  /// them writes.
  struct Block {
    std::array<std::uint64_t, kWordCount> present{};
    /// rank[w]: present keys in words [0, w).
    std::array<std::uint16_t, kWordCount> rank{};
    /// Present values in ascending key order.
    std::vector<double> values;

    [[nodiscard]] bool has(Key k) const noexcept {
      return (present[k >> 6] >> (k & 63)) & 1u;
    }
    /// Number of present keys below `k` (k may be kEntryCount): the index
    /// of k's value in `values` when k is present, its insertion point
    /// when it is not.
    [[nodiscard]] std::size_t rank_of(Key k) const noexcept {
      const std::uint64_t below = (std::uint64_t{1} << (k & 63)) - 1;
      return rank[k >> 6] +
             static_cast<std::size_t>(std::popcount(present[k >> 6] & below));
    }
    /// Inserts absent key `k` with value `q` at position `at` == rank_of(k).
    void insert(Key k, std::size_t at, double q);

    static_assert(std::is_same_v<decltype(values)::value_type, double>,
                  "Q-values are double end to end: a float round-trip "
                  "changes merge and update results");
  };

  /// The presence bitmap of a table that owns no block.
  static constexpr std::array<std::uint64_t, kWordCount> kNoKeys{};

  /// The block to write into: a new one when the table has none, a
  /// private clone when another table shares it.
  Block& writable();

  std::shared_ptr<Block> block_;
};

/// Dot product and squared norms of two tables, summed in the order of
/// the four-chain dense reduction (see qtable.cpp).
[[nodiscard]] CosineTerms cosine_terms(const QTable& a,
                                       const QTable& b) noexcept;

/// Cosine similarity between two sparse tables over the union key space.
/// Two empty tables are identical (1); one empty table scores 0.
[[nodiscard]] double cosine_similarity(const QTable& a, const QTable& b);

}  // namespace glap::qlearn
