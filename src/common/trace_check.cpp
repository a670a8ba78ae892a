#include "common/trace_check.hpp"

#include <algorithm>
#include <sstream>

namespace glap::trace {

// ---- LineageBuilder -----------------------------------------------------

void LineageBuilder::add(const TraceEvent& e) {
  switch (e.kind) {
    case EventKind::kMigration: {
      vm_chains_[e.migration.vm].push_back({e.round, e.migration.from,
                                            e.migration.to, e.migration.cpu,
                                            e.migration.energy_j});
      pm_timelines_[e.migration.from].push_back(
          {e.round, OccupancyEvent::What::kVmOut, e.migration.vm});
      pm_timelines_[e.migration.to].push_back(
          {e.round, OccupancyEvent::What::kVmIn, e.migration.vm});
      break;
    }
    case EventKind::kPower:
      pm_timelines_[e.power.pm].push_back(
          {e.round,
           e.power.on ? OccupancyEvent::What::kPowerOn
                      : OccupancyEvent::What::kPowerOff,
           -1});
      break;
    default:
      break;
  }
}

// ---- EpisodeDetector ----------------------------------------------------

void EpisodeDetector::close(std::int64_t pm, const Open& open, bool ongoing) {
  OverloadEpisode episode;
  episode.pm = pm;
  episode.onset_round = open.onset;
  episode.rounds = open.last - open.onset + 1;
  episode.peak_cpu = open.peak;
  episode.ongoing = ongoing;
  // The shed that ends an episode lands in the round right after the last
  // overload report; migrations of that round precede the report scan in
  // the trace, so by close time the shed (if any) has been seen.
  const auto shed = last_shed_.find(pm);
  if (!ongoing && shed != last_shed_.end() &&
      shed->second.round == open.last + 1) {
    episode.resolved_by_migration = true;
    episode.resolving_vm = shed->second.vm;
    episode.resolving_round = shed->second.round;
  }
  closed_.push_back(episode);
}

void EpisodeDetector::add(const TraceEvent& e) {
  max_round_seen_ = std::max(max_round_seen_, e.round);
  if (e.kind == EventKind::kMigration) {
    last_shed_[e.migration.from] = {e.round, e.migration.vm};
    return;
  }
  if (e.kind != EventKind::kOverload) return;
  const std::int64_t pm = e.overload.pm;
  auto it = open_.find(pm);
  if (it != open_.end()) {
    if (e.round <= it->second.last + 1) {  // consecutive (or duplicate) report
      it->second.last = std::max(it->second.last, e.round);
      it->second.peak = std::max(it->second.peak, e.overload.cpu);
      return;
    }
    close(pm, it->second, /*ongoing=*/false);
    open_.erase(it);
  }
  open_[pm] = {e.round, e.round, e.overload.cpu};
}

std::vector<OverloadEpisode> EpisodeDetector::finish() {
  for (const auto& [pm, open] : open_) {
    // An episode whose last report is before the final round did end; one
    // reaching the final round is cut off by the end of the trace.
    close(pm, open, /*ongoing=*/open.last >= max_round_seen_);
  }
  open_.clear();
  std::vector<OverloadEpisode> out = std::move(closed_);
  closed_.clear();
  std::sort(out.begin(), out.end(),
            [](const OverloadEpisode& a, const OverloadEpisode& b) {
              return a.onset_round != b.onset_round
                         ? a.onset_round < b.onset_round
                         : a.pm < b.pm;
            });
  return out;
}

// ---- InvariantChecker ---------------------------------------------------

void InvariantChecker::report(std::size_t line, std::uint64_t round,
                              const char* rule, std::string message) {
  violations_.push_back({line, round, rule, std::move(message)});
}

void InvariantChecker::finalize_overload_report() {
  if (report_open_) {
    if (have_summary_ && summary_round_ == report_round_) {
      if (report_pms_.size() != summary_overloaded_) {
        std::ostringstream msg;
        msg << "round " << report_round_ << " summary claims "
            << summary_overloaded_ << " overloaded PMs but the driver scan "
            << "reported " << report_pms_.size();
        report(report_first_line_, report_round_, "summary-overloaded",
               msg.str());
      }
      summary_overloaded_ = 0;  // resolved
    }
    still_overloaded_ = std::move(report_pms_);
    report_pms_.clear();
    report_open_ = false;
    have_summary_ = have_summary_ && summary_round_ != report_round_;
  } else if (have_summary_) {
    // Summary announced overloads but no overload line followed, or a
    // clean round: either way the completed report is empty.
    if (summary_overloaded_ != 0) {
      std::ostringstream msg;
      msg << "round " << summary_round_ << " summary claims "
          << summary_overloaded_
          << " overloaded PMs but no overload lines followed";
      report(summary_line_, summary_round_, "summary-overloaded", msg.str());
    }
    still_overloaded_.clear();
    have_summary_ = false;
  }
}

void InvariantChecker::add(const TraceEvent& e, std::size_t line) {
  ++events_checked_;

  // Crossing into a later round proves the previous round's driver
  // overload scan is complete (overload lines are the last deterministic
  // lines of a round).
  if ((report_open_ && e.round > report_round_) ||
      (have_summary_ && e.round > summary_round_))
    finalize_overload_report();

  if (any_event_ && e.round < last_round_) {
    std::ostringstream msg;
    msg << "round went backwards: " << last_round_ << " -> " << e.round;
    report(line, e.round, "monotone-rounds", msg.str());
  }
  any_event_ = true;
  last_round_ = std::max(last_round_, e.round);

  switch (e.kind) {
    case EventKind::kMigration: {
      const auto& m = e.migration;
      if (e.round != migration_round_) {
        migration_round_ = e.round;
        migrations_this_round_ = 0;
      }
      ++migrations_this_round_;
      if (m.from == m.to) {
        std::ostringstream msg;
        msg << "vm " << m.vm << " migrated from pm " << m.from
            << " onto itself";
        report(line, e.round, "migration-self", msg.str());
      }
      if (!options_.churn_tolerant) {
        const auto host = vm_host_.find(m.vm);
        if (host != vm_host_.end() && host->second != m.from) {
          std::ostringstream msg;
          msg << "vm " << m.vm << " migrated from pm " << m.from
              << " but was last seen on pm " << host->second;
          report(line, e.round, "migration-chain", msg.str());
        }
      }
      const auto from_power = power_on_.find(m.from);
      if (from_power != power_on_.end() && !from_power->second) {
        std::ostringstream msg;
        msg << "vm " << m.vm << " migrated off pm " << m.from
            << ", which is powered off";
        report(line, e.round, "migration-from-off", msg.str());
      }
      const auto to_power = power_on_.find(m.to);
      if (to_power != power_on_.end() && !to_power->second) {
        std::ostringstream msg;
        msg << "vm " << m.vm << " migrated onto pm " << m.to
            << ", which is powered off";
        report(line, e.round, "migration-into-off", msg.str());
      }
      if (options_.strict_overload_target &&
          still_overloaded_.count(m.to) != 0) {
        std::ostringstream msg;
        msg << "vm " << m.vm << " migrated onto pm " << m.to
            << ", overloaded per the last report and untouched since";
        report(line, e.round, "migration-into-overloaded", msg.str());
      }
      vm_host_[m.vm] = m.to;
      occupants_[m.from].erase(m.vm);
      occupants_[m.to].insert(m.vm);
      still_overloaded_.erase(m.from);  // shed a VM: overload mark is stale
      break;
    }
    case EventKind::kPower: {
      const auto& p = e.power;
      const auto known = power_on_.find(p.pm);
      if (known != power_on_.end() && known->second == p.on) {
        std::ostringstream msg;
        msg << "pm " << p.pm << " powered " << (p.on ? "on" : "off")
            << " twice in a row";
        report(line, e.round, "power-alternation", msg.str());
      }
      if (!p.on && !options_.churn_tolerant) {
        const auto occ = occupants_.find(p.pm);
        if (occ != occupants_.end() && !occ->second.empty()) {
          std::ostringstream msg;
          msg << "pm " << p.pm << " powered off with " << occ->second.size()
              << " known VM(s) still placed (first: vm "
              << *occ->second.begin() << ")";
          report(line, e.round, "power-off-occupied", msg.str());
        }
      }
      if (!p.on) occupants_[p.pm].clear();  // churn departures are invisible
      power_on_[p.pm] = p.on;
      net_power_delta_ += p.on ? 1 : -1;
      still_overloaded_.erase(p.pm);  // power cycle: overload mark is stale
      break;
    }
    case EventKind::kShuffle:
      if (e.shuffle.initiator == e.shuffle.peer) {
        std::ostringstream msg;
        msg << "node " << e.shuffle.initiator << " shuffled with itself";
        report(line, e.round, "shuffle-self", msg.str());
      }
      if (e.shuffle.sent < 0 || e.shuffle.reply < 0) {
        std::ostringstream msg;
        msg << "negative shuffle payload (sent " << e.shuffle.sent
            << ", reply " << e.shuffle.reply << ")";
        report(line, e.round, "shuffle-negative", msg.str());
      }
      break;
    case EventKind::kOverload: {
      const auto& o = e.overload;
      if (!report_open_) {
        report_open_ = true;
        report_round_ = e.round;
        report_first_line_ = line;
      }
      if (!report_pms_.insert(o.pm).second) {
        std::ostringstream msg;
        msg << "pm " << o.pm << " reported overloaded twice in round "
            << e.round;
        report(line, e.round, "overload-duplicate", msg.str());
      }
      const auto known = power_on_.find(o.pm);
      if (known != power_on_.end() && !known->second) {
        std::ostringstream msg;
        msg << "powered-off pm " << o.pm << " reported overloaded";
        report(line, e.round, "overload-off-pm", msg.str());
      }
      break;
    }
    case EventKind::kFault:
      break;  // semantics land with the fault-injection harness
    case EventKind::kNet: {
      const auto& n = e.net;
      if (n.op == "send") {
        if (!net_msgs_.emplace(n.msg, NetMsg{e.round, false}).second) {
          std::ostringstream msg;
          msg << "msg " << n.msg << " sent twice";
          report(line, e.round, "net-deliver-unsent", msg.str());
        }
      } else if (n.op == "deliver" || n.op == "drop") {
        const auto it = net_msgs_.find(n.msg);
        if (it == net_msgs_.end()) {
          std::ostringstream msg;
          msg << "net " << n.op << " for msg " << n.msg
              << " which was never sent";
          report(line, e.round, "net-deliver-unsent", msg.str());
        } else {
          if (it->second.terminal) {
            std::ostringstream msg;
            msg << "msg " << n.msg << " already delivered or dropped before "
                << "this " << n.op;
            report(line, e.round, "net-terminal-duplicate", msg.str());
          }
          it->second.terminal = true;
          if (n.op == "deliver" &&
              e.round != it->second.send_round +
                             static_cast<std::uint64_t>(n.delay)) {
            std::ostringstream msg;
            msg << "msg " << n.msg << " sent in round " << it->second.send_round
                << " with delay " << n.delay << " but delivered in round "
                << e.round;
            report(line, e.round, "net-delay-arithmetic", msg.str());
          }
          if (n.op == "drop" && e.round != it->second.send_round) {
            std::ostringstream msg;
            msg << "msg " << n.msg << " sent in round " << it->second.send_round
                << " but dropped in round " << e.round
                << " (drops are decided at send time)";
            report(line, e.round, "net-delay-arithmetic", msg.str());
          }
        }
        if (n.op == "drop" && n.reason != "loss" && n.reason != "congestion") {
          std::ostringstream msg;
          msg << "msg " << n.msg << " dropped with unknown reason '"
              << n.reason << "' (a drop requires a lossy or congested link)";
          report(line, e.round, "net-drop-reason", msg.str());
        }
      } else if (n.op == "queue") {
        if (n.link != "access" && n.link != "uplink") {
          std::ostringstream msg;
          msg << "net queue line names unknown link kind '" << n.link << "'";
          report(line, e.round, "net-drop-reason", msg.str());
        }
        if (n.bytes == 0) {
          // The writer skips idle links entirely (DESIGN.md §13.6), so a
          // zero-backlog line means the emitter regressed; readers must
          // instead tolerate per-round gaps in queue coverage.
          std::ostringstream msg;
          msg << "net queue line for " << n.link << ' ' << n.link_id
              << " reports zero backlog (idle links are skipped, not "
                 "emitted)";
          report(line, e.round, "net-queue-zero", msg.str());
        }
      }
      break;
    }
    case EventKind::kActivity: {
      const auto& a = e.activity;
      static const std::set<std::string> kKnownReasons{
          "converged", "gossip",   "demand",  "migration",
          "status",    "schedule", "relearn", "network"};
      if (kKnownReasons.count(a.reason) == 0) {
        std::ostringstream msg;
        msg << "pm " << a.pm << " activity event has unknown reason '"
            << a.reason << "'";
        report(line, e.round, "activity-reason", msg.str());
      } else if (a.awake == (a.reason == "converged")) {
        std::ostringstream msg;
        msg << "pm " << a.pm << (a.awake ? " woke" : " parked")
            << " with reason '" << a.reason
            << "' (parking must be 'converged', wakes must not)";
        report(line, e.round, "activity-reason", msg.str());
      }
      if (a.awake) {
        if (parked_.erase(a.pm) == 0) {
          std::ostringstream msg;
          msg << "pm " << a.pm << " re-activated but was not parked";
          report(line, e.round, "activity-alternation", msg.str());
        }
      } else {
        if (!parked_.insert(a.pm).second) {
          std::ostringstream msg;
          msg << "pm " << a.pm << " parked twice in a row";
          report(line, e.round, "activity-alternation", msg.str());
        }
        const auto known = power_on_.find(a.pm);
        if (known != power_on_.end() && !known->second) {
          std::ostringstream msg;
          msg << "powered-off pm " << a.pm << " parked as quiescent";
          report(line, e.round, "activity-park-off-pm", msg.str());
        }
      }
      break;
    }
    case EventKind::kRound: {
      const auto& s = e.summary;
      const std::uint64_t migrations_seen =
          migration_round_ == e.round ? migrations_this_round_ : 0;
      if (s.migrations != migrations_seen) {
        std::ostringstream msg;
        msg << "round " << e.round << " summary claims " << s.migrations
            << " migrations but the trace carries " << migrations_seen;
        report(line, e.round, "summary-migrations", msg.str());
      }
      if (have_prev_summary_) {
        if (e.round != prev_summary_round_ + 1) {
          std::ostringstream msg;
          msg << "summary rounds jumped from " << prev_summary_round_
              << " to " << e.round;
          report(line, e.round, "summary-gap", msg.str());
        }
        const std::int64_t expected =
            static_cast<std::int64_t>(prev_summary_active_) +
            net_power_delta_;
        if (static_cast<std::int64_t>(s.active_pms) != expected) {
          std::ostringstream msg;
          msg << "round " << e.round << " summary reports " << s.active_pms
              << " active PMs, but " << prev_summary_active_
              << " active in round " << prev_summary_round_ << " plus a net "
              << net_power_delta_ << " power transitions gives " << expected;
          report(line, e.round, "summary-active-delta", msg.str());
        }
      }
      net_power_delta_ = 0;
      have_prev_summary_ = true;
      prev_summary_round_ = e.round;
      prev_summary_active_ = s.active_pms;

      have_summary_ = true;
      summary_round_ = e.round;
      summary_overloaded_ = s.overloaded_pms;
      summary_line_ = line;
      break;
    }
    case EventKind::kQsim:
      if (e.qsim.similarity < -1.0 - 1e-9 || e.qsim.similarity > 1.0 + 1e-9) {
        std::ostringstream msg;
        msg << "qsim similarity " << e.qsim.similarity
            << " outside [-1, 1]";
        report(line, e.round, "qsim-range", msg.str());
      }
      break;
    case EventKind::kRelearn:
      break;
  }
}

void InvariantChecker::finish() { finalize_overload_report(); }

// ---- StatsCollector -----------------------------------------------------

void StatsCollector::add(const TraceEvent& e) {
  ++stats_.counts[static_cast<std::size_t>(e.kind)];
  if (stats_.total_lines == 0 || e.round < stats_.first_round)
    stats_.first_round = e.round;
  stats_.last_round = std::max(stats_.last_round, e.round);
  ++stats_.total_lines;
  switch (e.kind) {
    case EventKind::kMigration:
      stats_.migration_cpu.push_back(e.migration.cpu);
      stats_.migration_energy_j.push_back(e.migration.energy_j);
      break;
    case EventKind::kShuffle:
      stats_.shuffle_sent.push_back(static_cast<double>(e.shuffle.sent));
      break;
    case EventKind::kOverload:
      stats_.overload_cpu.push_back(e.overload.cpu);
      break;
    case EventKind::kNet:
      if (e.net.op == "send")
        stats_.net_send_bytes.push_back(static_cast<double>(e.net.bytes));
      else if (e.net.op == "deliver")
        stats_.net_deliver_delay.push_back(static_cast<double>(e.net.delay));
      break;
    case EventKind::kQsim:
      stats_.qsim_similarity.push_back(e.qsim.similarity);
      break;
    case EventKind::kRound:
      stats_.round_active_pms.push_back(
          static_cast<double>(e.summary.active_pms));
      stats_.round_overloaded_pms.push_back(
          static_cast<double>(e.summary.overloaded_pms));
      stats_.round_migrations.push_back(
          static_cast<double>(e.summary.migrations));
      stats_.round_messages.push_back(
          static_cast<double>(e.summary.messages));
      stats_.round_bytes.push_back(static_cast<double>(e.summary.bytes));
      break;
    default:
      break;
  }
}

}  // namespace glap::trace
