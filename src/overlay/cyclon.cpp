#include "overlay/cyclon.hpp"

#include <algorithm>

#include "common/metrics.hpp"
#include "common/tracing.hpp"
#include "net/network_model.hpp"

namespace glap::overlay {

namespace {
constexpr std::size_t kEntryBytes = 8;  // (id, age) on the wire
/// Retries when the chosen shuffle partner turns out to be dead; each
/// failure removes the dead entry (Cyclon's self-healing behaviour).
constexpr std::size_t kDeadPeerRetries = 3;
}  // namespace

CyclonProtocol::CyclonProtocol(sim::Slot<CyclonProtocol> self, Rng rng,
                               Telemetry telemetry)
    : self_(self), rng_(rng), telemetry_(telemetry) {
  cache_.reserve(kCacheSize);
}

sim::Slot<CyclonProtocol> CyclonProtocol::install(sim::Engine& engine,
                                                  std::uint64_t seed) {
  const std::size_t n = engine.node_count();
  Telemetry telemetry;
  if (metrics::MetricsRegistry* m = engine.metrics())
    telemetry = {m->counter("cyclon.shuffles"),
                 m->histogram("cyclon.shuffle_entries")};
  Rng master(hash_combine(seed, hash_tag("cyclon")));
  // Bootstrap each cache with random distinct peers (ring + random links
  // guarantees initial connectivity even for tiny caches).
  Rng boot(hash_combine(seed, hash_tag("cyclon-bootstrap")));
  std::vector<sim::NodeId> neighbors;
  return engine.add_protocol_pool<CyclonProtocol>(
      [&](sim::NodeId i, sim::Slot<CyclonProtocol> self) {
        CyclonProtocol proto(self, master.split(i), telemetry);
        neighbors.clear();
        if (n > 1) {
          neighbors.push_back(static_cast<sim::NodeId>((i + 1) % n));
          while (neighbors.size() < std::min(kCacheSize, n - 1)) {
            auto candidate = static_cast<sim::NodeId>(boot.bounded(n));
            if (candidate == i) continue;
            if (std::find(neighbors.begin(), neighbors.end(), candidate) !=
                neighbors.end())
              continue;
            neighbors.push_back(candidate);
          }
        }
        proto.bootstrap(i, neighbors);
        return proto;
      });
}

void CyclonProtocol::bootstrap(sim::NodeId self,
                               const std::vector<sim::NodeId>& neighbors) {
  for (sim::NodeId id : neighbors) {
    if (id == self) continue;
    if (cache_.size() >= kCacheSize) break;
    const bool dup = std::any_of(cache_.begin(), cache_.end(),
                                 [&](const Entry& e) { return e.id == id; });
    if (!dup) cache_.push_back({id, 0});
  }
}

std::optional<std::size_t> CyclonProtocol::oldest_entry_index() const {
  if (cache_.empty()) return std::nullopt;
  std::size_t best = 0;
  for (std::size_t i = 1; i < cache_.size(); ++i)
    if (cache_[i].age > cache_[best].age) best = i;
  return best;
}

void CyclonProtocol::remove_neighbor(sim::NodeId peer) {
  std::erase_if(cache_, [&](const Entry& e) { return e.id == peer; });
}

void CyclonProtocol::take_random_subset(std::size_t count,
                                        std::optional<std::size_t> forced,
                                        std::vector<Entry>& out) {
  // Selects up to `count` random entries (always including `forced` when
  // given) and removes them from the cache; merge() re-inserts survivors.
  out.clear();
  if (cache_.empty() || count == 0) return;
  scratch_indices_.resize(cache_.size());
  for (std::size_t i = 0; i < scratch_indices_.size(); ++i)
    scratch_indices_[i] = i;
  rng_.shuffle(scratch_indices_);
  if (forced) {
    auto it =
        std::find(scratch_indices_.begin(), scratch_indices_.end(), *forced);
    GLAP_DEBUG_ASSERT(it != scratch_indices_.end(), "forced index missing");
    std::iter_swap(scratch_indices_.begin(), it);
  }
  const std::size_t take = std::min(count, scratch_indices_.size());
  // Descending erase order so earlier removals don't shift later indices.
  std::sort(scratch_indices_.begin(),
            scratch_indices_.begin() + static_cast<std::ptrdiff_t>(take),
            std::greater<>());
  out.reserve(take);
  for (std::size_t k = 0; k < take; ++k) {
    const std::size_t idx = scratch_indices_[k];
    out.push_back(cache_[idx]);
    cache_.erase(cache_.begin() + static_cast<std::ptrdiff_t>(idx));
  }
}

void CyclonProtocol::merge(sim::NodeId self, const std::vector<Entry>& received,
                           const std::vector<Entry>& sent) {
  // Standard Cyclon merge: drop self-pointers and entries already present,
  // use empty cache slots first, then fall back to the slots freed by the
  // entries we shipped out (which take_random_subset already removed).
  for (const Entry& entry : received) {
    if (entry.id == self) continue;
    const bool dup =
        std::any_of(cache_.begin(), cache_.end(),
                    [&](const Entry& e) { return e.id == entry.id; });
    if (dup) continue;
    if (cache_.size() < kCacheSize) cache_.push_back(entry);
  }
  // Re-insert shipped entries that still fit (they were not replaced).
  for (const Entry& entry : sent) {
    if (entry.id == self) continue;
    if (cache_.size() >= kCacheSize) break;
    const bool dup =
        std::any_of(cache_.begin(), cache_.end(),
                    [&](const Entry& e) { return e.id == entry.id; });
    if (!dup) cache_.push_back(entry);
  }
}

const std::vector<CyclonProtocol::Entry>& CyclonProtocol::handle_shuffle(
    sim::NodeId self, sim::NodeId initiator,
    const std::vector<Entry>& received) {
  take_random_subset(kShuffleLength, std::nullopt, scratch_reply_);
  // The passive node may keep a fresh pointer back to the initiator.
  scratch_incoming_.assign(received.begin(), received.end());
  const bool has_initiator =
      std::any_of(scratch_incoming_.begin(), scratch_incoming_.end(),
                  [&](const Entry& e) { return e.id == initiator; });
  if (!has_initiator) scratch_incoming_.push_back({initiator, 0});
  merge(self, scratch_incoming_, scratch_reply_);
  return scratch_reply_;
}

void CyclonProtocol::execute(sim::Engine& engine, sim::NodeId self) {
  for (auto& entry : cache_) ++entry.age;

  for (std::size_t attempt = 0;
       attempt <= kDeadPeerRetries && !cache_.empty(); ++attempt) {
    const auto oldest = oldest_entry_index();
    if (!oldest) return;
    const sim::NodeId peer = cache_[*oldest].id;
    if (!engine.is_active(peer)) {
      // Self-healing: a dead oldest neighbor is simply discarded.
      cache_.erase(cache_.begin() + static_cast<std::ptrdiff_t>(*oldest));
      continue;
    }
    if (net::NetworkModel* net = engine.net_model()) {
      // A lost round-trip simply times out and the node retries next
      // round (membership self-heals), before any cache entry has been
      // moved.
      const std::size_t wire = kShuffleLength * kEntryBytes;
      if (!net->round_trip(self, peer, wire, wire, net::Channel::kShuffle)
               .ok())
        return;
    }
    take_random_subset(kShuffleLength - 1, std::nullopt,
                       scratch_sent_);
    scratch_outgoing_.assign(scratch_sent_.begin(), scratch_sent_.end());
    scratch_outgoing_.push_back({self, 0});
    engine.network().count_message(self, peer,
                                   scratch_outgoing_.size() * kEntryBytes);
    auto& remote = engine.protocol_at(self_, peer);
    const auto& reply = remote.handle_shuffle(peer, self, scratch_outgoing_);
    engine.network().count_message(peer, self, reply.size() * kEntryBytes);
    if (telemetry_.shuffles != nullptr) {
      telemetry_.shuffles->inc();
      telemetry_.shuffle_entries->observe(
          static_cast<double>(scratch_outgoing_.size() + reply.size()));
    }
    if (trace::TraceLog* t = engine.trace_log())
      t->emit(trace::Shuffle{
          self, peer, static_cast<std::int64_t>(scratch_outgoing_.size()),
          static_cast<std::int64_t>(reply.size())});
    merge(self, reply, scratch_sent_);
    return;
  }
}

std::optional<sim::NodeId> CyclonProtocol::sample_active_peer(
    sim::Engine& engine, sim::NodeId /*self*/) {
  // Try random entries, pruning dead ones as we go.
  while (!cache_.empty()) {
    const std::size_t idx = rng_.pick_index(cache_);
    const sim::NodeId peer = cache_[idx].id;
    if (engine.is_active(peer)) return peer;
    cache_.erase(cache_.begin() + static_cast<std::ptrdiff_t>(idx));
  }
  return std::nullopt;
}

std::vector<sim::NodeId> CyclonProtocol::neighbor_view() const {
  std::vector<sim::NodeId> ids;
  ids.reserve(cache_.size());
  for (const auto& e : cache_) ids.push_back(e.id);
  return ids;
}

}  // namespace glap::overlay
