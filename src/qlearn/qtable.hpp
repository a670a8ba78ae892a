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
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <iterator>
#include <optional>
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
    const Key k = key_of(s, a);
    return present(k) ? values_[rank(k)] : 0.0;
  }

  /// Whether the pair has an entry.
  [[nodiscard]] bool contains(State s, Action a) const noexcept {
    return present(key_of(s, a));
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
  /// entries present in exactly one. `other` may be this table.
  void merge_average(const QTable& other);

  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
  [[nodiscard]] bool empty() const noexcept { return values_.empty(); }
  void clear() noexcept {
    present_.fill(0);
    rank_.fill(0);
    values_.clear();
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
        : table_(table), key_(key), index_(index) {
      skip_absent();
    }
    [[nodiscard]] value_type operator*() const noexcept {
      return {static_cast<Key>(key_), table_->values_[index_]};
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
      while (key_ < kEntryCount && !table_->present(static_cast<Key>(key_)))
        ++key_;
    }
    const QTable* table_;
    std::size_t key_;
    std::size_t index_;  ///< position of key_ in the packed values
  };

  class EntryRange {
   public:
    explicit EntryRange(const QTable* table) noexcept : table_(table) {}
    [[nodiscard]] EntryIterator begin() const noexcept {
      return {table_, 0, 0};
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

  [[nodiscard]] bool present(Key k) const noexcept {
    return (present_[k >> 6] >> (k & 63)) & 1u;
  }
  /// Number of present keys below `k` (k may be kEntryCount): the index
  /// of k's value in values_ when k is present, its insertion point when
  /// it is not.
  [[nodiscard]] std::size_t rank(Key k) const noexcept {
    const std::uint64_t below = (std::uint64_t{1} << (k & 63)) - 1;
    return rank_[k >> 6] +
           static_cast<std::size_t>(std::popcount(present_[k >> 6] & below));
  }
  /// Inserts absent key `k` with value `q` at position `at` == rank(k).
  void insert(Key k, std::size_t at, double q);

  std::array<std::uint64_t, kWordCount> present_{};
  /// rank_[w]: present keys in words [0, w).
  std::array<std::uint16_t, kWordCount> rank_{};
  /// Present values in ascending key order.
  std::vector<double> values_;
};

/// Dot product and squared norms of two tables, summed in the order of
/// the four-chain dense reduction (see qtable.cpp).
[[nodiscard]] CosineTerms cosine_terms(const QTable& a,
                                       const QTable& b) noexcept;

/// Cosine similarity between two sparse tables over the union key space.
/// Two empty tables are identical (1); one empty table scores 0.
[[nodiscard]] double cosine_similarity(const QTable& a, const QTable& b);

}  // namespace glap::qlearn
