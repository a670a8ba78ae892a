// Trace analysis over the typed events of trace_reader: per-VM migration
// lineage, per-PM overload episodes, the physical-invariant verifier
// behind `glap-trace check`, and per-kind statistics.
//
// All four analyzers are single-pass streaming consumers: feed every
// event of a trace to add() in file order, then call finish()/accessors.
// They assume the trace of ONE complete run_experiment invocation — the
// invariants lean on the harness's per-round line ordering (buffered
// interaction events, then the "round" summary, then the driver overload
// scan; see DESIGN.md §10.2), which concatenated or truncated traces do
// not satisfy.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/trace_reader.hpp"

namespace glap::trace {

// ---- lineage ------------------------------------------------------------

struct MigrationHop {
  std::uint64_t round = 0;
  std::int64_t from = 0;
  std::int64_t to = 0;
  double cpu = 0.0;
  double energy_j = 0.0;
};

struct OccupancyEvent {
  enum class What : std::uint8_t { kVmIn, kVmOut, kPowerOn, kPowerOff };
  std::uint64_t round = 0;
  What what = What::kVmIn;
  std::int64_t vm = -1;  ///< -1 for power events
};

/// Reconstructs where every VM travelled and what happened to every PM.
/// Maps are keyed by id so report output is deterministic.
class LineageBuilder {
 public:
  void add(const TraceEvent& e);

  [[nodiscard]] const std::map<std::int64_t, std::vector<MigrationHop>>&
  vm_chains() const noexcept {
    return vm_chains_;
  }
  [[nodiscard]] const std::map<std::int64_t, std::vector<OccupancyEvent>>&
  pm_timelines() const noexcept {
    return pm_timelines_;
  }

 private:
  std::map<std::int64_t, std::vector<MigrationHop>> vm_chains_;
  std::map<std::int64_t, std::vector<OccupancyEvent>> pm_timelines_;
};

// ---- overload episodes --------------------------------------------------

/// A maximal run of consecutive rounds in which one PM was reported
/// overloaded by the driver's per-round scan.
struct OverloadEpisode {
  std::int64_t pm = 0;
  std::uint64_t onset_round = 0;
  std::uint64_t rounds = 0;  ///< consecutive overload reports
  double peak_cpu = 0.0;
  /// True when an out-migration from the PM happened in the round right
  /// after the last overload report (the shed that ended the episode);
  /// false means demand dropped on its own (or the trace ended first).
  bool resolved_by_migration = false;
  std::int64_t resolving_vm = -1;
  std::uint64_t resolving_round = 0;
  /// Episode still open when the trace ended.
  bool ongoing = false;
};

class EpisodeDetector {
 public:
  void add(const TraceEvent& e);
  /// Closes open episodes and returns all episodes in (onset, pm) order.
  [[nodiscard]] std::vector<OverloadEpisode> finish();

 private:
  struct Open {
    std::uint64_t onset = 0;
    std::uint64_t last = 0;
    double peak = 0.0;
  };
  struct LastShed {
    std::uint64_t round = 0;
    std::int64_t vm = -1;
  };
  void close(std::int64_t pm, const Open& open, bool ongoing);

  std::map<std::int64_t, Open> open_;
  std::map<std::int64_t, LastShed> last_shed_;
  std::vector<OverloadEpisode> closed_;
  std::uint64_t max_round_seen_ = 0;
};

// ---- invariant checking -------------------------------------------------

struct Violation {
  std::size_t line = 0;  ///< 1-based trace line (0 for end-of-trace checks)
  std::uint64_t round = 0;
  std::string rule;     ///< stable rule id, e.g. "migration-into-off"
  std::string message;  ///< pointed human-readable diagnostic
};

/// Verifies the physical invariants every run_experiment trace satisfies
/// by construction (the rules mirror DataCenter's own preconditions plus
/// the harness's conservation arithmetic — see DESIGN.md §10.5):
///
///   monotone-rounds          round numbers never decrease
///   summary-gap              "round" summaries are consecutive
///   migration-self           from != to
///   migration-chain          a VM migrates from the PM it was last seen on
///   migration-from-off /     neither endpoint of a migration is a PM whose
///   migration-into-off         last power event switched it off
///   migration-into-overloaded  (strict_overload_target only) no migration
///                              into a PM still marked by the most recent
///                              overload report; the mark clears once the PM
///                              sheds a VM, power-cycles, or a newer report
///                              completes without naming it
///   power-alternation        per-PM power events alternate on/off
///   power-off-occupied       a PM only powers off when every VM that ever
///                            migrated onto it has migrated away (churn
///                            departures are trace-invisible, so traces of
///                            churn runs need churn_tolerant)
///   overload-off-pm          overload reports only name powered-on PMs
///   overload-duplicate       one report per PM per round
///   summary-migrations       summary.migrations == migration lines that round
///   summary-overloaded       summary.overloaded_pms == overload lines
///   summary-active-delta     active_pms deltas == net power events between
///                            consecutive summaries (capacity conservation)
///   qsim-range               similarity in [-1, 1]
///   activity-alternation     per-PM activity events alternate: a PM parks
///                            only while awake and re-activates only while
///                            parked (mirrors Engine's quiescent set)
///   activity-park-off-pm     only powered-on PMs park (the engine un-parks
///                            a node before any lifecycle transition)
///   activity-reason          parking carries reason "converged"; wakes
///                            carry any other sim::WakeReason
///   net-deliver-unsent       a deliver/drop references a msg id with no
///                            prior send (no deliver-before-send)
///   net-delay-arithmetic     every exchange resolves in its send round: a
///                            deliver or drop carries the send's round (a
///                            deliver with delay 0), and a send still open
///                            when a later round's event arrives is a
///                            violation
///   net-terminal-duplicate   at most one terminal (deliver or drop) per
///                            msg id — a message cannot be both delivered
///                            and dropped
///   net-queue-zero           queue lines report a positive backlog — the
///                            writer skips idle links (DESIGN.md §13.6),
///                            so readers tolerate per-round gaps in queue
///                            coverage rather than expecting zero lines
class InvariantChecker {
 public:
  struct Options {
    /// Accept traces of churn-enabled runs: VM departures do not emit
    /// trace events, so occupancy-based rules cannot be enforced.
    bool churn_tolerant = false;
    /// Enforce migration-into-overloaded. Advisory: the per-round demand
    /// re-advance can clear a real overload with no trace-visible event,
    /// so a migration into a PM from the last overload report may be
    /// legitimate (the accepting protocol saw the new, lower demand).
    bool strict_overload_target = false;
  };

  InvariantChecker() = default;
  explicit InvariantChecker(Options options) : options_(options) {}

  /// `line` is the 1-based line number (TraceReader::line_number()).
  void add(const TraceEvent& e, std::size_t line);

  /// Runs the end-of-trace checks; call exactly once, after the last add.
  void finish();

  [[nodiscard]] const std::vector<Violation>& violations() const noexcept {
    return violations_;
  }
  [[nodiscard]] std::uint64_t events_checked() const noexcept {
    return events_checked_;
  }

 private:
  void report(std::size_t line, std::uint64_t round, const char* rule,
              std::string message);
  /// Completes the open overload report once an event proves the driver
  /// scan for that round is over.
  void finalize_overload_report();
  /// Reports every send still awaiting its deliver or drop once the
  /// trace has moved on to `round`, and marks them late.
  void expire_open_sends(std::uint64_t round);

  Options options_;
  std::vector<Violation> violations_;
  std::uint64_t events_checked_ = 0;

  bool any_event_ = false;
  std::uint64_t last_round_ = 0;

  std::map<std::int64_t, bool> power_on_;        ///< last power event per PM
  std::map<std::int64_t, std::int64_t> vm_host_;  ///< last known host per VM
  std::map<std::int64_t, std::set<std::int64_t>> occupants_;

  /// PMs named by the most recent *completed* overload report that have
  /// not shed a VM or power-cycled since.
  std::set<std::int64_t> still_overloaded_;

  /// PMs currently parked per the activity event stream.
  std::set<std::int64_t> parked_;

  // Open overload report (driver scan in progress for report_round_).
  bool report_open_ = false;
  std::uint64_t report_round_ = 0;
  std::set<std::int64_t> report_pms_;
  std::size_t report_first_line_ = 0;

  // Pending summary whose overload scan has not completed yet.
  bool have_summary_ = false;
  std::uint64_t summary_round_ = 0;
  std::uint64_t summary_overloaded_ = 0;
  std::size_t summary_line_ = 0;

  // Previous completed summary (capacity-conservation anchor).
  bool have_prev_summary_ = false;
  std::uint64_t prev_summary_round_ = 0;
  std::uint64_t prev_summary_active_ = 0;

  std::uint64_t migrations_this_round_ = 0;
  std::uint64_t migration_round_ = 0;
  std::int64_t net_power_delta_ = 0;  ///< since the last summary

  /// Network-model message ledger, keyed by msg id: where it was sent
  /// and whether its terminal event (deliver or drop) has been seen.
  struct NetMsg {
    enum class State : std::uint8_t {
      kOpen,    ///< sent this round, no terminal yet
      kLate,    ///< reported open past its round; a late terminal is the
                ///< same fault, not a new one
      kClosed,  ///< terminal seen
    };
    std::uint64_t send_round = 0;
    std::size_t send_line = 0;
    State state = State::kOpen;
  };
  std::map<std::int64_t, NetMsg> net_msgs_;
  /// Ids sent in the latest round, in send order; expiry reports those
  /// still kOpen.
  std::vector<std::int64_t> net_sent_this_round_;
};

// ---- statistics ---------------------------------------------------------

struct TraceStats {
  std::uint64_t counts[kEventKindCodes] = {};  ///< indexed by kind code
  std::uint64_t total_lines = 0;
  std::uint64_t first_round = 0;
  std::uint64_t last_round = 0;

  // Value series for percentile reporting.
  std::vector<double> migration_cpu;
  std::vector<double> migration_energy_j;
  std::vector<double> shuffle_sent;
  std::vector<double> net_send_bytes;     ///< payload of "send" events
  std::vector<double> net_deliver_delay;  ///< rounds late per "deliver"
  std::vector<double> overload_cpu;
  std::vector<double> qsim_similarity;
  std::vector<double> round_active_pms;
  std::vector<double> round_overloaded_pms;
  std::vector<double> round_migrations;
  std::vector<double> round_messages;
  std::vector<double> round_bytes;
};

class StatsCollector {
 public:
  void add(const TraceEvent& e);
  [[nodiscard]] const TraceStats& stats() const noexcept { return stats_; }

 private:
  TraceStats stats_;
};

}  // namespace glap::trace
