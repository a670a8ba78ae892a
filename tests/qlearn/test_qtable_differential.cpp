// Differential test for QTable's packed layout: drives it alongside a
// straightforward unordered_map reference (the seed implementation's
// storage) through tens of thousands of randomized operations and
// requires bit-identical results throughout. This pins down the packed
// table's two load-bearing claims: sparsity semantics are preserved
// ("no entry" is distinct from "value 0"), and every kernel — Bellman
// update, greedy lookups, Algorithm 2's merge, the Fig. 5 cosine —
// computes the exact same doubles as the map-based version.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "qlearn/qtable.hpp"

namespace glap::qlearn {
namespace {

/// Hash-map Q-table with the seed implementation's semantics, used as the
/// differential oracle. Mirrors the documented QTable contract exactly.
class ReferenceQTable {
 public:
  using Key = QTable::Key;

  [[nodiscard]] double value(State s, Action a) const {
    const auto it = map_.find(QTable::key_of(s, a));
    return it == map_.end() ? 0.0 : it->second;
  }

  [[nodiscard]] bool contains(State s, Action a) const {
    return map_.count(QTable::key_of(s, a)) != 0;
  }

  void set(State s, Action a, double q) { map_[QTable::key_of(s, a)] = q; }

  void update(State s, Action a, double reward, State next,
              const QLearningParams& params) {
    const double old_q = value(s, a);
    const double target = reward + params.gamma * max_value(next);
    map_[QTable::key_of(s, a)] =
        (1.0 - params.alpha) * old_q + params.alpha * target;
  }

  [[nodiscard]] double max_value(State s) const {
    double best = 0.0;
    bool found = false;
    for (std::uint16_t ai = 0; ai < kLevelPairCount; ++ai) {
      const auto it =
          map_.find(QTable::key_of(s, Action::from_index(ai)));
      if (it == map_.end()) continue;
      if (!found || it->second > best) best = it->second;
      found = true;
    }
    return found ? best : 0.0;
  }

  [[nodiscard]] std::optional<Action> best_action(
      State s, const std::vector<Action>& available) const {
    std::optional<Action> best;
    double best_q = 0.0;
    for (const Action& a : available) {
      const double q = value(s, a);
      if (!best || q > best_q) {
        best = a;
        best_q = q;
      }
    }
    return best;
  }

  void merge_average(const ReferenceQTable& other) {
    for (const auto& [key, theirs] : other.map_) {
      const auto it = map_.find(key);
      if (it == map_.end())
        map_[key] = theirs;
      else
        it->second = 0.5 * (it->second + theirs);
    }
  }

  [[nodiscard]] std::size_t size() const { return map_.size(); }

  /// Dense 6561-dim expansion (absent keys are 0.0).
  [[nodiscard]] std::array<double, QTable::kEntryCount> dense() const {
    std::array<double, QTable::kEntryCount> out{};
    for (const auto& [key, q] : map_) out[key] = q;
    return out;
  }

  /// Cosine similarity with the same edge-case ladder and the same
  /// summation order as the flat kernel (four accumulator chains over
  /// k ≡ j mod 4, combined as (s0+s1)+(s2+s3)), computed from the hash
  /// maps via dense expansion. The chain structure is part of the
  /// kernel's documented deterministic result.
  [[nodiscard]] static double cosine(const ReferenceQTable& a,
                                     const ReferenceQTable& b) {
    if (a.map_.empty() && b.map_.empty()) return 1.0;
    if (a.map_.empty() || b.map_.empty()) return 0.0;
    const auto da = a.dense();
    const auto db = b.dense();
    double dot[4] = {}, na[4] = {}, nb[4] = {};
    constexpr std::size_t kBlocked = QTable::kEntryCount & ~std::size_t{3};
    for (std::size_t k = 0; k < kBlocked; k += 4) {
      for (std::size_t j = 0; j < 4; ++j) {
        dot[j] += da[k + j] * db[k + j];
        na[j] += da[k + j] * da[k + j];
        nb[j] += db[k + j] * db[k + j];
      }
    }
    double dot_s = (dot[0] + dot[1]) + (dot[2] + dot[3]);
    double norm_a = (na[0] + na[1]) + (na[2] + na[3]);
    double norm_b = (nb[0] + nb[1]) + (nb[2] + nb[3]);
    for (std::size_t k = kBlocked; k < QTable::kEntryCount; ++k) {
      dot_s += da[k] * db[k];
      norm_a += da[k] * da[k];
      norm_b += db[k] * db[k];
    }
    if (norm_a == 0.0 && norm_b == 0.0) return 1.0;
    if (norm_a == 0.0 || norm_b == 0.0) return 0.0;
    return dot_s / (std::sqrt(norm_a) * std::sqrt(norm_b));
  }

 private:
  std::unordered_map<Key, double> map_;
};

LevelPair random_pair(Rng& rng) {
  return LevelPair::from_index(
      static_cast<std::uint16_t>(rng.bounded(kLevelPairCount)));
}

/// Full-state comparison: every one of the 6561 keys must agree on
/// presence and hold the bit-identical double.
void expect_identical(const QTable& flat, const ReferenceQTable& ref) {
  ASSERT_EQ(flat.size(), ref.size());
  for (std::uint16_t si = 0; si < kLevelPairCount; ++si) {
    const State s = State::from_index(si);
    for (std::uint16_t ai = 0; ai < kLevelPairCount; ++ai) {
      const Action a = Action::from_index(ai);
      ASSERT_EQ(flat.contains(s, a), ref.contains(s, a))
          << "presence mismatch at s=" << si << " a=" << ai;
      // EXPECT_EQ on doubles is exact (bit-identical up to -0.0 == 0.0),
      // which is the point: the flat kernels must not reorder arithmetic.
      ASSERT_EQ(flat.value(s, a), ref.value(s, a))
          << "value mismatch at s=" << si << " a=" << ai;
    }
  }
}

TEST(QTableDifferential, TenThousandRandomizedOpsMatchHashMapReference) {
  QTable flat_a, flat_b;
  ReferenceQTable ref_a, ref_b;
  const QLearningParams params;
  Rng rng(20260805);
  // Copies taken along the way. A copy shares the original's storage, so
  // every later write to the original must leave the copy as it was.
  struct Alias {
    QTable flat;
    ReferenceQTable ref;
  };
  std::vector<Alias> aliases;
  const auto expect_aliases_unchanged = [&aliases] {
    for (const Alias& alias : aliases) expect_identical(alias.flat, alias.ref);
  };

  constexpr int kOps = 12000;
  for (int op = 0; op < kOps; ++op) {
    if (op % 500 == 250) {
      // Alias op: copy-assign a table and its reference (a and b in
      // turn); no draw from `rng`, so the other ops' sequence is as it
      // was without aliases.
      const bool take_b = (op / 500) % 2 != 0;
      Alias& alias = aliases.emplace_back();
      alias.flat = take_b ? flat_b : flat_a;
      alias.ref = take_b ? ref_b : ref_a;
      ASSERT_TRUE(alias.flat.empty() ||
                  alias.flat.shares_storage_with(take_b ? flat_b : flat_a));
    }
    const auto roll = rng.bounded(100);
    QTable& flat = roll % 2 ? flat_b : flat_a;
    ReferenceQTable& ref = roll % 2 ? ref_b : ref_a;
    if (roll < 50) {
      // Bellman update with a random transition and reward.
      const State s = random_pair(rng);
      const Action a = random_pair(rng);
      const State next = random_pair(rng);
      const double reward = rng.uniform(-300.0, 20.0);
      flat.update(s, a, reward, next, params);
      ref.update(s, a, reward, next, params);
    } else if (roll < 70) {
      const State s = random_pair(rng);
      const Action a = random_pair(rng);
      const double q = rng.uniform(-10.0, 10.0);
      flat.set(s, a, q);
      ref.set(s, a, q);
    } else if (roll < 80) {
      const State s = random_pair(rng);
      ASSERT_EQ(flat.max_value(s), ref.max_value(s));
    } else if (roll < 92) {
      // Greedy policy with a random (possibly duplicated) action menu.
      const State s = random_pair(rng);
      std::vector<Action> available;
      const auto n = rng.bounded(8);
      for (std::uint64_t i = 0; i < n; ++i)
        available.push_back(random_pair(rng));
      const auto got = flat.best_action(s, available);
      const auto want = ref.best_action(s, available);
      ASSERT_EQ(got.has_value(), want.has_value());
      if (got) {
        ASSERT_EQ(*got, *want);
        ASSERT_EQ(flat.value(s, *got), ref.value(s, *want));
      }
    } else if (roll < 97) {
      ASSERT_EQ(cosine_similarity(flat_a, flat_b),
                ReferenceQTable::cosine(ref_a, ref_b));
    } else {
      // Algorithm 2's push-pull merge in a random direction, into the
      // other table, itself, a default-constructed table, or a
      // copy-assigned one (which shares the destination's storage).
      QTable& flat_dst = roll % 2 ? flat_a : flat_b;
      const QTable& flat_src = roll % 2 ? flat_b : flat_a;
      ReferenceQTable& ref_dst = roll % 2 ? ref_a : ref_b;
      const ReferenceQTable& ref_src = roll % 2 ? ref_b : ref_a;
      switch (rng.bounded(4)) {
        case 0:
          flat_dst.merge_average(flat_src);
          ref_dst.merge_average(ref_src);
          break;
        case 1:
          flat_dst.merge_average(flat_dst);
          ref_dst.merge_average(ref_dst);
          break;
        case 2: {
          QTable fresh;
          ReferenceQTable ref_fresh;
          fresh.merge_average(flat_src);
          ref_fresh.merge_average(ref_src);
          expect_identical(fresh, ref_fresh);
          break;
        }
        default: {
          QTable copy;
          ReferenceQTable ref_copy;
          copy = flat_dst;
          ref_copy = ref_dst;
          copy.merge_average(flat_src);
          ref_copy.merge_average(ref_src);
          flat_dst = copy;
          ref_dst = ref_copy;
          break;
        }
      }
    }
    if (op % 500 == 0) {
      expect_identical(flat_a, ref_a);
      expect_identical(flat_b, ref_b);
      expect_aliases_unchanged();
    }
  }
  expect_identical(flat_a, ref_a);
  expect_identical(flat_b, ref_b);
  ASSERT_EQ(aliases.size(), static_cast<std::size_t>(kOps / 500));
  expect_aliases_unchanged();
  ASSERT_EQ(cosine_similarity(flat_a, flat_b),
            ReferenceQTable::cosine(ref_a, ref_b));
}

TEST(QTableDifferential, BestActionTieBreaksTowardFirstAvailable) {
  QTable table;
  const State s{Level::kHigh, Level::kMedium};
  const Action a0{Level::kLow, Level::kLow};
  const Action a1{Level::kMedium, Level::kLow};
  const Action a2{Level::kHigh, Level::kHigh};

  // All unknown: everything ties at Q = 0, first in `available` wins.
  EXPECT_EQ(table.best_action(s, {a1, a0, a2}), a1);

  // Explicit equal values tie toward the first occurrence, regardless of
  // key order.
  table.set(s, a0, 1.5);
  table.set(s, a1, 1.5);
  table.set(s, a2, 1.5);
  EXPECT_EQ(table.best_action(s, {a2, a0, a1}), a2);
  EXPECT_EQ(table.best_action(s, {a0, a2, a1}), a0);

  // An unknown action counts as Q = 0 and beats known negative values.
  table.set(s, a0, -4.0);
  table.set(s, a1, -2.0);
  const Action unknown{Level::kOverload, Level::kOverload};
  EXPECT_EQ(table.best_action(s, {a0, a1, unknown}), unknown);

  // ... and ties at 0 against other unknowns, first occurrence first.
  const Action unknown2{Level::k4xHigh, Level::kLow};
  EXPECT_EQ(table.best_action(s, {a0, unknown2, unknown}), unknown2);

  EXPECT_EQ(table.best_action(s, {}), std::nullopt);
}

}  // namespace
}  // namespace glap::qlearn
