#include "qlearn/qtable.hpp"

#include <bit>
#include <cmath>

#include "common/assert.hpp"

namespace glap::qlearn {

void QTable::insert(Key k, std::size_t at, double q) {
  values_.insert(values_.begin() + static_cast<std::ptrdiff_t>(at), q);
  present_[k >> 6] |= std::uint64_t{1} << (k & 63);
  for (std::size_t w = (k >> 6) + 1; w < kWordCount; ++w) ++rank_[w];
}

void QTable::set(State s, Action a, double q) {
  const Key k = key_of(s, a);
  const std::size_t at = rank(k);
  if (present(k))
    values_[at] = q;
  else
    insert(k, at, q);
}

void QTable::update(State s, Action a, double reward, State next,
                    const QLearningParams& params) {
  GLAP_DEBUG_ASSERT(params.alpha >= 0.0 && params.alpha <= 1.0,
                    "alpha out of [0,1]");
  GLAP_DEBUG_ASSERT(params.gamma >= 0.0 && params.gamma <= 1.0,
                    "gamma out of [0,1]");
  const Key k = key_of(s, a);
  const std::size_t at = rank(k);
  const bool known = present(k);
  const double old_q = known ? values_[at] : 0.0;
  // The max reads the table before (s, a) is inserted, so a new pair
  // never counts in its own max.
  const double target = reward + params.gamma * max_value(next);
  const double q = (1.0 - params.alpha) * old_q + params.alpha * target;
  if (known)
    values_[at] = q;
  else
    insert(k, at, q);
}

double QTable::max_value(State s) const noexcept {
  // The state's known actions are one contiguous slice of values_, in
  // ascending action order.
  const Key base = static_cast<Key>(s.index()) * kLevelPairCount;
  const std::size_t begin = rank(base);
  const std::size_t end = rank(base + kLevelPairCount);
  if (begin == end) return 0.0;
  double best = values_[begin];
  for (std::size_t i = begin + 1; i < end; ++i)
    if (values_[i] > best) best = values_[i];
  return best;
}

std::optional<Action> QTable::best_action(
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

void QTable::merge_average(const QTable& other) {
  std::size_t merged = 0;
  for (std::size_t w = 0; w < kWordCount; ++w)
    merged += static_cast<std::size_t>(
        std::popcount(present_[w] | other.present_[w]));
  std::size_t mine = values_.size();
  std::size_t theirs = other.values_.size();
  // One exact reservation: resize alone would grow by doubling.
  values_.reserve(merged);
  values_.resize(merged);
  // Fill the union back to front, in place. A key's rank in the union is
  // never below its rank in this table, so every write lands on a slot
  // whose old value has already been read. With other == *this the union
  // is this table's key set and each slot is read before it is written.
  double* dst = values_.data();
  const double* src = other.values_.data();
  std::size_t out = merged;
  for (std::size_t w = kWordCount; w-- > 0;) {
    const std::uint64_t a = present_[w];
    const std::uint64_t b = other.present_[w];
    if (a == b) {
      // The same keys on both sides (every word of converged tables).
      const auto n = static_cast<std::size_t>(std::popcount(a));
      for (std::size_t i = 1; i <= n; ++i)
        dst[out - i] = 0.5 * (dst[mine - i] + src[theirs - i]);
      out -= n;
      mine -= n;
      theirs -= n;
      continue;
    }
    for (std::uint64_t pending = a | b; pending != 0;) {
      const std::uint64_t bit = std::uint64_t{1}
                                << (63 - std::countl_zero(pending));
      pending ^= bit;
      --out;
      if ((a & bit) && (b & bit))
        dst[out] = 0.5 * (dst[--mine] + src[--theirs]);
      else if (a & bit)
        dst[out] = dst[--mine];
      else
        dst[out] = src[--theirs];
    }
    present_[w] = a | b;
  }
  std::uint16_t below = 0;
  for (std::size_t w = 0; w < kWordCount; ++w) {
    rank_[w] = below;
    below = static_cast<std::uint16_t>(below + std::popcount(present_[w]));
  }
}

CosineTerms cosine_terms(const QTable& a, const QTable& b) noexcept {
  // One walk over the union of the two key sets, summed in the order of
  // the dense reduction this kernel replaced, which the differential
  // test's reference replicates: lane j accumulates the products of keys
  // k ≡ j (mod 4) below the last key, the lanes combine as
  // (s0+s1)+(s2+s3), and the last key's product is added after that. A
  // key absent from one table reads 0.0 there, so its products are ±0,
  // as the dense kernel had them for it and for every key outside the
  // union. Adding ±0 leaves a sum bit-identical for finite values: a sum
  // that starts at +0.0 never becomes −0.0, and x + ±0 == x for every
  // other x.
  constexpr std::size_t kTail = QTable::kEntryCount - 1;
  constexpr std::size_t kLanes = 5;  // four chains plus the last key
  double dot[kLanes] = {};
  double norm_a[kLanes] = {};
  double norm_b[kLanes] = {};
  const double* va = a.values_.data();
  const double* vb = b.values_.data();
  for (std::size_t w = 0; w < QTable::kWordCount; ++w) {
    const std::uint64_t pa = a.present_[w];
    const std::uint64_t pb = b.present_[w];
    for (std::uint64_t pending = pa | pb; pending != 0;
         pending &= pending - 1) {
      const auto bit = static_cast<unsigned>(std::countr_zero(pending));
      const std::size_t k = w * 64 + bit;
      const std::size_t lane = k == kTail ? kLanes - 1 : k & 3;
      const double x = (pa >> bit) & 1u ? *va++ : 0.0;
      const double y = (pb >> bit) & 1u ? *vb++ : 0.0;
      dot[lane] += x * y;
      norm_a[lane] += x * x;
      norm_b[lane] += y * y;
    }
  }
  const auto combine = [](const double* s) noexcept {
    return ((s[0] + s[1]) + (s[2] + s[3])) + s[4];
  };
  return {combine(dot), combine(norm_a), combine(norm_b)};
}

double cosine_similarity(const QTable& a, const QTable& b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  const CosineTerms t = cosine_terms(a, b);
  if (t.norm_a == 0.0 && t.norm_b == 0.0) return 1.0;
  if (t.norm_a == 0.0 || t.norm_b == 0.0) return 0.0;
  return t.dot / (std::sqrt(t.norm_a) * std::sqrt(t.norm_b));
}

}  // namespace glap::qlearn
