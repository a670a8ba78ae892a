// Learning demo / diagnostic: runs GLAP's two-phase gossip learning on a
// small cluster, prints the per-round Q-table convergence (the Fig. 5
// signal), a digest of the learned IN-table acceptance policy (which
// (PM-state, VM-action) pairs the cluster learned to reject), and the
// consolidation gate counters.
#include <cstdio>

#include "core/glap.hpp"
#include "harness/runner.hpp"
#include "qlearn/levels.hpp"

using namespace glap;

int main() {
  harness::ExperimentConfig config;
  config.algorithm = harness::Algorithm::kGlap;
  config.pm_count = 200;
  config.vm_ratio = 3;
  config.rounds = 240;
  config.warmup_rounds = 240;
  config.fit_glap_phases_to_warmup();
  config.track_convergence = true;
  config.seed = 11;

  // Re-create the run manually so the protocol internals stay reachable.
  cloud::DataCenter dc(config.pm_count, config.vm_count(),
                       config.datacenter);
  const trace::GoogleSynth synth(config.workload, config.seed);
  std::vector<trace::DemandModelPtr> models;
  for (std::size_t v = 0; v < config.vm_count(); ++v)
    models.push_back(synth.make_model(v));
  Rng placement_rng(hash_combine(config.seed, hash_tag("placement")));
  dc.place_randomly(placement_rng);

  sim::Engine engine(config.pm_count, config.seed);
  const auto slots = core::install_glap(engine, dc, config.glap, config.seed);

  std::vector<Resources> demands(config.vm_count());
  auto step = [&] {
    for (std::size_t v = 0; v < demands.size(); ++v)
      demands[v] = models[v]->next().clamped(0.0, 1.0);
    dc.observe_demands(demands);
    engine.step();
    dc.end_round();
  };

  std::printf("== convergence (every 10 warmup rounds) ==\n");
  for (sim::Round r = 0; r < config.warmup_rounds; ++r) {
    step();
    if (r % 10 == 9) {
      RunningStats sim_stats;
      Rng pair_rng(hash_combine(config.seed, r));
      for (int i = 0; i < 64; ++i) {
        const auto a =
            static_cast<sim::NodeId>(pair_rng.bounded(config.pm_count));
        auto b = static_cast<sim::NodeId>(pair_rng.bounded(config.pm_count));
        if (a == b) b = (b + 1) % config.pm_count;
        sim_stats.add(core::cosine_similarity(
            engine.protocol_at(slots.learning, a).tables(),
            engine.protocol_at(slots.learning, b).tables()));
      }
      std::printf("round %3u  similarity %.4f\n", r + 1, sim_stats.mean());
    }
  }

  // Digest of node 0's learned IN table.
  const auto& tables = engine.protocol_at(slots.learning, 0).tables();
  std::printf("\n== learned tables (node 0) ==\n");
  std::printf("out entries: %zu, in entries: %zu\n", tables.out.size(),
              tables.in.size());
  std::size_t negative = 0;
  for (const auto& [key, q] : tables.in.entries())
    if (q < 0) ++negative;
  std::printf("negative IN entries: %zu (%.1f%%)\n", negative,
              100.0 * negative / std::max<std::size_t>(1, tables.in.size()));

  std::printf("\nIN-table: fraction of known actions rejected, by PM CPU "
              "state level:\n");
  for (std::size_t lvl = 0; lvl < qlearn::kLevelCount; ++lvl) {
    std::size_t known = 0, rejected = 0;
    for (const auto& [key, q] : tables.in.entries()) {
      const auto s = qlearn::QTable::state_of(key);
      if (qlearn::level_index(s.cpu) != lvl) continue;
      ++known;
      if (q < 0) ++rejected;
    }
    std::printf("  %-9s known=%4zu rejected=%4zu\n",
                std::string(qlearn::to_string(static_cast<qlearn::Level>(lvl)))
                    .c_str(),
                known, rejected);
  }

  std::printf("\n== consolidation (240 rounds) ==\n");
  for (sim::Round r = 0; r < config.rounds; ++r) step();

  core::ConsolidationStats total;
  for (sim::NodeId n = 0; n < config.pm_count; ++n) {
    const auto& s = engine.protocol_at(slots.consolidation, n).stats();
    total.exchanges += s.exchanges;
    total.migrations += s.migrations;
    total.rejected_by_pi_in += s.rejected_by_pi_in;
    total.rejected_by_capacity += s.rejected_by_capacity;
    total.no_vm_available += s.no_vm_available;
    total.switch_offs += s.switch_offs;
  }
  std::printf("exchanges=%llu migrations=%llu pi_in_rejects=%llu "
              "capacity_rejects=%llu no_vm=%llu switch_offs=%llu\n",
              (unsigned long long)total.exchanges,
              (unsigned long long)total.migrations,
              (unsigned long long)total.rejected_by_pi_in,
              (unsigned long long)total.rejected_by_capacity,
              (unsigned long long)total.no_vm_available,
              (unsigned long long)total.switch_offs);
  std::printf("active=%zu overloaded=%zu\n", dc.active_pm_count(),
              dc.overloaded_pm_count());
  return 0;
}
