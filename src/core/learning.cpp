#include "core/learning.hpp"

#include <algorithm>

#include "core/rewards.hpp"

namespace glap::core {

namespace {
constexpr std::size_t kNoExclusion = static_cast<std::size_t>(-1);
/// Bellman update parameters of the GLAP evaluation.
constexpr qlearn::QLearningParams kQParams{.alpha = 0.5, .gamma = 0.8};
}  // namespace

LocalTrainer::LocalTrainer(const GlapConfig& config, Resources pm_capacity,
                           Rng rng)
    : pm_capacity_(pm_capacity),
      rng_(rng),
      use_average_state_(config.use_average_state) {
  GLAP_REQUIRE(pm_capacity.cpu > 0.0 && pm_capacity.mem > 0.0,
               "pm capacity must be positive");
}

void LocalTrainer::grow_pool(std::vector<VmProfile>& pool) const {
  if (pool.empty()) return;
  double total_avg_cpu = 0.0;
  for (const auto& p : pool) total_avg_cpu += p.average_usage.cpu;
  const double target = kDuplicatePoolPmMultiple * pm_capacity_.cpu;
  const std::size_t originals = pool.size();
  std::size_t cursor = 0;
  // Hard cap keeps adversarial all-idle pools from ballooning the pool.
  const std::size_t max_size = originals * 16;
  pool.reserve(max_size);
  while (total_avg_cpu < target && pool.size() < max_size) {
    pool.push_back(pool[cursor]);
    total_avg_cpu += pool[cursor].average_usage.cpu;
    cursor = (cursor + 1) % originals;
  }
}

void LocalTrainer::draw_subset(const std::vector<VmProfile>& pool,
                               std::vector<std::size_t>& order,
                               std::vector<std::size_t>& out) {
  // Aim the subset's aggregate *average* CPU utilization at a random
  // target so training visits the whole state spectrum, including
  // overloaded configurations (target may exceed 1).
  const double target_util = rng_.uniform(0.05, 1.1);
  order.resize(pool.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng_.shuffle(order);

  out.clear();
  out.reserve(pool.size());
  double cpu_sum = 0.0;
  for (std::size_t idx : order) {
    out.push_back(idx);
    cpu_sum += pool[idx].average_usage.cpu;
    if (cpu_sum / pm_capacity_.cpu >= target_util) break;
  }
}

qlearn::State LocalTrainer::subset_state(
    const std::vector<VmProfile>& pool, const std::vector<std::size_t>& subset,
    bool use_average, std::size_t excluded, const VmProfile* added) const {
  Resources sum;
  for (std::size_t idx : subset) {
    if (idx == excluded) continue;
    const VmProfile& p = pool[idx];
    sum += use_average ? p.average_usage : p.current_usage;
  }
  if (added) sum += use_average ? added->average_usage : added->current_usage;
  const Resources util = sum.divided_by(pm_capacity_);
  return qlearn::classify(util.cpu, util.mem);
}

void LocalTrainer::train_round(const std::vector<VmProfile>& pool,
                               QTablePair& tables, Scratch& scratch) {
  if (pool.size() < 2) return;
  const bool avg = use_average_state_;

  for (std::size_t iter = 0; iter < kTrainIterationsPerRound; ++iter) {
    draw_subset(pool, scratch.order, scratch.sender);
    draw_subset(pool, scratch.order, scratch.target);
    const auto& sender = scratch.sender;
    const auto& target = scratch.target;
    if (sender.empty()) continue;

    // The migrating VM: a random member of the sender subset.
    const std::size_t vm_pos = rng_.pick_index(sender);
    const std::size_t vm_idx = sender[vm_pos];
    const VmProfile& vm = pool[vm_idx];
    const qlearn::Action action = vm.action(avg);

    // Sender side (OUT): pre-state from averages, outcome from currents.
    const qlearn::State s_sender =
        subset_state(pool, sender, avg, kNoExclusion, nullptr);
    const qlearn::State s_sender_after =
        subset_state(pool, sender, /*use_average=*/false, vm_idx, nullptr);
    tables.out.update(s_sender, action, out_reward(s_sender_after),
                      s_sender_after, kQParams);

    // Target side (IN): would accepting this VM (eventually) overload us?
    const qlearn::State s_target =
        subset_state(pool, target, avg, kNoExclusion, nullptr);
    const qlearn::State s_target_after =
        subset_state(pool, target, /*use_average=*/false, kNoExclusion, &vm);
    tables.in.update(s_target, action, in_reward(s_target_after),
                     s_target_after, kQParams);
  }
}

}  // namespace glap::core
