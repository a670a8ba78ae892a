#include "qlearn/qtable.hpp"

#include <bit>
#include <cmath>

#include "common/assert.hpp"

namespace glap::qlearn {

void QTable::Block::insert(Key k, std::size_t at, double q) {
  values.insert(values.begin() + static_cast<std::ptrdiff_t>(at), q);
  present[k >> 6] |= std::uint64_t{1} << (k & 63);
  for (std::size_t w = (k >> 6) + 1; w < kWordCount; ++w) ++rank[w];
}

QTable::Block& QTable::writable() {
  if (!block_)
    block_ = std::make_shared<Block>();
  else if (block_.use_count() > 1)
    block_ = std::make_shared<Block>(*block_);
  return *block_;
}

void QTable::set(State s, Action a, double q) {
  const Key k = key_of(s, a);
  Block& b = writable();
  const std::size_t at = b.rank_of(k);
  if (b.has(k))
    b.values[at] = q;
  else
    b.insert(k, at, q);
}

void QTable::update(State s, Action a, double reward, State next,
                    const QLearningParams& params) {
  GLAP_DEBUG_ASSERT(params.alpha >= 0.0 && params.alpha <= 1.0,
                    "alpha out of [0,1]");
  GLAP_DEBUG_ASSERT(params.gamma >= 0.0 && params.gamma <= 1.0,
                    "gamma out of [0,1]");
  const Key k = key_of(s, a);
  Block& b = writable();
  const std::size_t at = b.rank_of(k);
  const bool known = b.has(k);
  const double old_q = known ? b.values[at] : 0.0;
  // The max reads the table before (s, a) is inserted, so a new pair
  // never counts in its own max.
  const double target = reward + params.gamma * max_value(next);
  const double q = (1.0 - params.alpha) * old_q + params.alpha * target;
  if (known)
    b.values[at] = q;
  else
    b.insert(k, at, q);
}

double QTable::max_value(State s) const noexcept {
  if (!block_) return 0.0;
  // The state's known actions are one contiguous slice of the values, in
  // ascending action order.
  const Block& b = *block_;
  const Key base = static_cast<Key>(s.index()) * kLevelPairCount;
  const std::size_t begin = b.rank_of(base);
  const std::size_t end = b.rank_of(base + kLevelPairCount);
  if (begin == end) return 0.0;
  double best = b.values[begin];
  for (std::size_t i = begin + 1; i < end; ++i)
    if (b.values[i] > best) best = b.values[i];
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
  if (other.empty()) return;
  if (empty()) {
    block_ = other.block_;
    return;
  }
  const Block& a = *block_;
  const Block& b = *other.block_;
  auto merged = std::make_shared<Block>();
  std::size_t count = 0;
  for (std::size_t w = 0; w < kWordCount; ++w)
    count += static_cast<std::size_t>(
        std::popcount(a.present[w] | b.present[w]));
  merged->values.resize(count);
  // Fill the union front to back. `a` and `b` may be one block (a self
  // merge, or two tables sharing one); neither is written.
  double* dst = merged->values.data();
  const double* va = a.values.data();
  const double* vb = b.values.data();
  std::uint16_t below = 0;
  for (std::size_t w = 0; w < kWordCount; ++w) {
    const std::uint64_t pa = a.present[w];
    const std::uint64_t pb = b.present[w];
    merged->present[w] = pa | pb;
    merged->rank[w] = below;
    below = static_cast<std::uint16_t>(below + std::popcount(pa | pb));
    if (pa == pb) {
      // The same keys on both sides (every word of converged tables).
      const auto n = static_cast<std::size_t>(std::popcount(pa));
      for (std::size_t i = 0; i < n; ++i) dst[i] = 0.5 * (va[i] + vb[i]);
      dst += n;
      va += n;
      vb += n;
      continue;
    }
    for (std::uint64_t pending = pa | pb; pending != 0;
         pending &= pending - 1) {
      const std::uint64_t bit = pending & -pending;
      if ((pa & bit) && (pb & bit))
        *dst++ = 0.5 * (*va++ + *vb++);
      else if (pa & bit)
        *dst++ = *va++;
      else
        *dst++ = *vb++;
    }
  }
  block_ = std::move(merged);
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
  // A table without a block has no keys, so its values are never read.
  const auto& words_a = a.block_ ? a.block_->present : QTable::kNoKeys;
  const auto& words_b = b.block_ ? b.block_->present : QTable::kNoKeys;
  const double* va = a.block_ ? a.block_->values.data() : nullptr;
  const double* vb = b.block_ ? b.block_->values.data() : nullptr;
  for (std::size_t w = 0; w < QTable::kWordCount; ++w) {
    const std::uint64_t pa = words_a[w];
    const std::uint64_t pb = words_b[w];
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
