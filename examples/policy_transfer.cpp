// Policy transfer: train GLAP's Q-tables on one cluster, persist them as
// CSV, reload them, and show that the reloaded tables are the trained
// ones, entry for entry and bit for bit — the workflow for shipping a
// learned policy to PMs joining a cluster instead of retraining from
// scratch. Exits 1 when a reloaded table differs.
#include <bit>
#include <cstdint>
#include <cstdio>
#include <sstream>

#include "cloud/average_tracker.hpp"
#include "core/learning.hpp"
#include "core/qtable_pair.hpp"
#include "qlearn/serialize.hpp"
#include "trace/google_synth.hpp"

using namespace glap;

namespace {

/// True when `loaded` holds exactly the keys of `trained`, each with a
/// bit-identical value (save_qtable writes %.17g, so a round trip is
/// exact).
bool identical(const qlearn::QTable& trained, const qlearn::QTable& loaded) {
  if (loaded.size() != trained.size()) return false;
  for (const auto& [key, q] : trained.entries()) {
    const auto s = qlearn::QTable::state_of(key);
    const auto a = qlearn::QTable::action_of(key);
    if (!loaded.contains(s, a) ||
        std::bit_cast<std::uint64_t>(loaded.value(s, a)) !=
            std::bit_cast<std::uint64_t>(q))
      return false;
  }
  return true;
}

}  // namespace

int main() {
  // --- Train on a pool of profiles sampled from the synthetic ensemble.
  const Resources pm_capacity{2660.0, 4096.0};
  core::GlapConfig config;
  core::LocalTrainer trainer(config, pm_capacity, Rng(1));

  const trace::GoogleSynth synth({}, 7);
  std::vector<core::VmProfile> pool;
  const Resources alloc{500.0, 613.0};
  for (std::uint64_t vm = 0; vm < 48; ++vm) {
    auto model = synth.make_model(vm);
    cloud::AverageTracker tracker;
    Resources current;
    for (int i = 0; i < 200; ++i) {
      current = model->next();
      tracker.observe(current);
    }
    pool.push_back({current.scaled_by(alloc),
                    tracker.average().scaled_by(alloc), alloc});
  }

  core::QTablePair tables;
  core::LocalTrainer::Scratch scratch;
  for (int round = 0; round < 150; ++round)
    trainer.train_round(pool, tables, scratch);
  std::printf("trained: %zu OUT entries, %zu IN entries\n",
              tables.out.size(), tables.in.size());

  // --- Persist and reload.
  std::ostringstream out_csv, in_csv;
  qlearn::save_qtable(tables.out, out_csv);
  qlearn::save_qtable(tables.in, in_csv);
  std::printf("serialized policy: %zu bytes (OUT) + %zu bytes (IN)\n",
              out_csv.str().size(), in_csv.str().size());

  std::istringstream out_src(out_csv.str()), in_src(in_csv.str());
  const qlearn::QTable out_loaded = qlearn::load_qtable(out_src);
  const qlearn::QTable in_loaded = qlearn::load_qtable(in_src);

  // --- The reloaded tables are the trained ones.
  const bool out_same = identical(tables.out, out_loaded);
  const bool in_same = identical(tables.in, in_loaded);
  std::size_t rejections = 0;
  for (const auto& [key, q] : in_loaded.entries())
    if (q < 0.0) ++rejections;
  std::printf("reloaded: OUT %s, IN %s (%zu pi_in rejections)\n",
              out_same ? "bit-identical" : "DIFFERS",
              in_same ? "bit-identical" : "DIFFERS", rejections);

  // Show a slice of the acceptance policy for a mid-loaded PM state.
  const qlearn::State mid{qlearn::Level::k3xHigh, qlearn::Level::kMedium};
  std::printf("\nacceptance at PM state %s:\n",
              qlearn::to_string(mid).c_str());
  for (std::size_t lvl = 0; lvl < qlearn::kLevelCount; ++lvl) {
    const qlearn::Action action{static_cast<qlearn::Level>(lvl),
                                qlearn::Level::kMedium};
    if (!in_loaded.contains(mid, action)) continue;
    const double q = in_loaded.value(mid, action);
    std::printf("  VM action (%-8s, Medium): Q=%8.2f -> %s\n",
                std::string(qlearn::to_string(action.cpu)).c_str(), q,
                q >= 0.0 ? "accept" : "reject");
  }
  return out_same && in_same ? 0 : 1;
}
