#include "overlay/newscast.hpp"

#include <algorithm>

#include "common/metrics.hpp"
#include "common/tracing.hpp"
#include "net/network_model.hpp"

namespace glap::overlay {

namespace {
constexpr std::size_t kItemBytes = 8;
/// Retries when the picked peer turns out to be dead; each failure
/// removes the dead item.
constexpr std::size_t kDeadPeerRetries = 3;
}  // namespace

NewscastProtocol::NewscastProtocol(sim::Slot<NewscastProtocol> self, Rng rng,
                                   metrics::Counter* exchanges)
    : self_(self), rng_(rng), ctr_exchanges_(exchanges) {
  cache_.reserve(kCacheSize);
}

sim::Slot<NewscastProtocol> NewscastProtocol::install(sim::Engine& engine,
                                                      std::uint64_t seed) {
  const std::size_t n = engine.node_count();
  metrics::Counter* exchanges = nullptr;
  if (metrics::MetricsRegistry* m = engine.metrics())
    exchanges = m->counter("newscast.exchanges");
  Rng master(hash_combine(seed, hash_tag("newscast")));
  Rng boot(hash_combine(seed, hash_tag("newscast-bootstrap")));
  std::vector<sim::NodeId> peers;
  return engine.add_protocol_pool<NewscastProtocol>(
      [&](sim::NodeId i, sim::Slot<NewscastProtocol> self) {
        NewscastProtocol proto(self, master.split(i), exchanges);
        peers.clear();
        if (n > 1) {
          peers.push_back(static_cast<sim::NodeId>((i + 1) % n));
          while (peers.size() < std::min(kCacheSize, n - 1)) {
            auto candidate = static_cast<sim::NodeId>(boot.bounded(n));
            if (candidate == i) continue;
            if (std::find(peers.begin(), peers.end(), candidate) !=
                peers.end())
              continue;
            peers.push_back(candidate);
          }
        }
        proto.bootstrap(i, peers);
        return proto;
      });
}

void NewscastProtocol::bootstrap(sim::NodeId self,
                                 const std::vector<sim::NodeId>& peers) {
  for (sim::NodeId id : peers) {
    if (id == self || cache_.size() >= kCacheSize) continue;
    const bool dup = std::any_of(cache_.begin(), cache_.end(),
                                 [&](const Item& e) { return e.id == id; });
    if (!dup) cache_.push_back({id, 0});
  }
}

void NewscastProtocol::merge(sim::NodeId self,
                             const std::vector<Item>& incoming) {
  for (const Item& item : incoming) {
    if (item.id == self) continue;
    auto it = std::find_if(cache_.begin(), cache_.end(),
                           [&](const Item& e) { return e.id == item.id; });
    if (it != cache_.end()) {
      it->timestamp = std::max(it->timestamp, item.timestamp);
    } else {
      cache_.push_back(item);
    }
  }
  if (cache_.size() > kCacheSize) {
    std::sort(cache_.begin(), cache_.end(),
              [](const Item& a, const Item& b) {
                return a.timestamp > b.timestamp;
              });
    cache_.resize(kCacheSize);
  }
}

std::vector<NewscastProtocol::Item> NewscastProtocol::handle_exchange(
    sim::NodeId self, sim::NodeId initiator,
    const std::vector<Item>& received, std::uint32_t now) {
  std::vector<Item> snapshot = cache_;
  snapshot.push_back({self, now});
  std::vector<Item> incoming = received;
  incoming.push_back({initiator, now});
  merge(self, incoming);
  return snapshot;
}

void NewscastProtocol::execute(sim::Engine& engine, sim::NodeId self) {
  const auto now = static_cast<std::uint32_t>(engine.current_round() + 1);
  for (std::size_t attempt = 0;
       attempt <= kDeadPeerRetries && !cache_.empty(); ++attempt) {
    const std::size_t idx = rng_.pick_index(cache_);
    const sim::NodeId peer = cache_[idx].id;
    if (!engine.is_active(peer)) {
      cache_.erase(cache_.begin() + static_cast<std::ptrdiff_t>(idx));
      continue;
    }
    if (net::NetworkModel* net = engine.net_model()) {
      // Like Cyclon: a lost round-trip just times the exchange out until
      // next round.
      const std::size_t wire = (cache_.size() + 1) * kItemBytes;
      if (!net->round_trip(self, peer, wire, wire, net::Channel::kShuffle)
               .ok())
        return;
    }
    std::vector<Item> outgoing = cache_;
    outgoing.push_back({self, now});
    engine.network().count_message(self, peer, outgoing.size() * kItemBytes);
    auto& remote = engine.protocol_at(self_, peer);
    const auto reply = remote.handle_exchange(peer, self, outgoing, now);
    engine.network().count_message(peer, self, reply.size() * kItemBytes);
    if (ctr_exchanges_ != nullptr) ctr_exchanges_->inc();
    if (trace::TraceLog* t = engine.trace_log())
      t->emit(trace::Shuffle{self, peer,
                             static_cast<std::int64_t>(outgoing.size()),
                             static_cast<std::int64_t>(reply.size())});
    std::vector<Item> incoming = reply;
    incoming.push_back({peer, now});
    merge(self, incoming);
    return;
  }
}

std::optional<sim::NodeId> NewscastProtocol::sample_active_peer(
    sim::Engine& engine, sim::NodeId /*self*/) {
  while (!cache_.empty()) {
    const std::size_t idx = rng_.pick_index(cache_);
    const sim::NodeId peer = cache_[idx].id;
    if (engine.is_active(peer)) return peer;
    cache_.erase(cache_.begin() + static_cast<std::ptrdiff_t>(idx));
  }
  return std::nullopt;
}

std::vector<sim::NodeId> NewscastProtocol::neighbor_view() const {
  std::vector<sim::NodeId> ids;
  ids.reserve(cache_.size());
  for (const auto& e : cache_) ids.push_back(e.id);
  return ids;
}

}  // namespace glap::overlay
