// Experiment configuration: one cell of the paper's evaluation sweep
// (cluster size × VM:PM ratio × algorithm × seed).
#pragma once

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "baselines/pabfd.hpp"
#include "cloud/datacenter.hpp"
#include "common/tracing.hpp"
#include "core/config.hpp"
#include "net/network_model.hpp"
#include "trace/google_synth.hpp"

namespace glap::harness {

enum class Algorithm {
  kGlap,
  kGrmp,
  kEcoCloud,
  kPabfd,
  kNone,  ///< no consolidation: workload replay only (control)
};

/// Peer-sampling overlay for the gossip protocols (GLAP, GRMP).
enum class OverlayKind {
  kCyclon,    ///< the paper's membership layer
  kNewscast,  ///< ablation: freshness-driven gossip membership
};

[[nodiscard]] constexpr std::string_view to_string(OverlayKind o) noexcept {
  switch (o) {
    case OverlayKind::kCyclon:
      return "Cyclon";
    case OverlayKind::kNewscast:
      return "Newscast";
  }
  return "?";
}

[[nodiscard]] constexpr std::string_view to_string(Algorithm a) noexcept {
  switch (a) {
    case Algorithm::kGlap:
      return "GLAP";
    case Algorithm::kGrmp:
      return "GRMP";
    case Algorithm::kEcoCloud:
      return "EcoCloud";
    case Algorithm::kPabfd:
      return "PABFD";
    case Algorithm::kNone:
      return "None";
  }
  return "?";
}

/// Optional heterogeneous fleet composition. When a class list is
/// non-empty, per-entity specs are drawn from it (weighted, seeded by the
/// experiment seed) instead of the homogeneous DataCenterConfig specs.
struct FleetMix {
  struct PmClass {
    cloud::PmSpec spec;
    double weight = 1.0;
  };
  struct VmClass {
    cloud::VmSpec spec;
    double weight = 1.0;
  };
  std::vector<PmClass> pm_classes;
  std::vector<VmClass> vm_classes;

  [[nodiscard]] bool heterogeneous() const noexcept {
    return !pm_classes.empty() || !vm_classes.empty();
  }
};

/// VM churn: arrivals and departures during the evaluation window. Churn
/// is harness-driven (the cloud provider's admission path), identical for
/// every algorithm: a departure frees the VM's slot; an arrival places the
/// VM on a random powered-on PM with nominal-allocation headroom, waking a
/// sleeping PM when none has room.
struct ChurnConfig {
  bool enabled = false;
  /// Per placed VM per evaluation round.
  double departure_prob = 0.0;
  /// Per departed VM per evaluation round.
  double arrival_prob = 0.0;
  /// Fraction of VMs placed when the run starts (the rest arrive later).
  double initial_placed_fraction = 1.0;

  // GLAP's re-learning oracle (paper §IV-B): re-trigger the two-phase
  // learning when churn since the last learning exceeds a rate threshold
  // (kRelearnRateThreshold in runner.cpp: 0.02 events per VM per round).
  bool glap_relearn = true;
  sim::Round relearn_learning_rounds = 40;
  sim::Round relearn_aggregation_rounds = 20;
  sim::Round relearn_min_interval = 60;
};

/// Observability knobs (DESIGN.md §10). File sinks default to off; a run
/// with the defaults constructs no registry and no trace file, so the
/// only cost instrumented code pays is one null-pointer test per site —
/// except the flight recorder (§10.7), which is always on with a bounded
/// in-memory ring of the last FlightRecorder::kDefaultRounds rounds, so
/// crashes always leave a post-mortem trace.
struct ObservabilityConfig {
  /// Collect counters/gauges/histograms/per-round series into a
  /// MetricsRegistry, returned via RunResult::metrics. Implied by any of
  /// the sink paths below.
  bool metrics = false;

  /// Non-empty: stream the round-level event trace to this file.
  std::string trace_path;
  /// Test hook: stream the trace to this stream instead of a file (takes
  /// precedence over trace_path; not owned).
  std::ostream* trace_sink = nullptr;
  /// Encoding for the trace sink: JSONL text (default) or the compact
  /// GTB binary format (DESIGN.md §10.6). Both carry the same events and
  /// are interchangeable via `glap-trace convert`.
  trace::Format trace_format = trace::Format::kJsonl;
  /// Deterministic trace sampling (DESIGN.md §10.6): keep probability for
  /// the high-volume shuffle and net event kinds, decided by a pure hash
  /// of (seed, ids), so a message's send/deliver/drop are kept or dropped
  /// together. 1.0 = keep everything. Driver-only lines are never sampled.
  double trace_sample_shuffle = 1.0;
  double trace_sample_net = 1.0;

  /// Where the flight recorder dumps when an invariant check,
  /// GLAP_ENABLE_CHECKS assertion, or fatal signal fires mid-run.
  std::string flight_recorder_path = "glap-flight.gtb";
  /// Non-empty: also dump the recorder here at normal run end (CI hook —
  /// lets the pipeline verify the dump parses without crashing a run).
  std::string flight_dump_path;

  /// Collect the per-phase engine profile (execute/commit scoped timers,
  /// DESIGN.md §10.4), returned via RunResult::profile. Phase call counts
  /// are a pure function of (config, seed) and, when metrics are also on,
  /// published as `profile.<phase>.calls` counters; wall-clock columns
  /// are host-dependent and stay out of every bit-identity contract.
  bool profile = false;

  /// Non-empty: write the full registry snapshot (JSON) here at run end.
  std::string metrics_json_path;
  /// Non-empty: write all per-round series side by side as CSV here.
  std::string series_csv_path;

  [[nodiscard]] bool metrics_enabled() const noexcept {
    return metrics || !metrics_json_path.empty() || !series_csv_path.empty();
  }
};

struct ExperimentConfig {
  Algorithm algorithm = Algorithm::kGlap;
  std::size_t pm_count = 1000;
  std::size_t vm_ratio = 2;  ///< VMs per PM (paper: 2, 3, 4)

  /// Evaluation window: 720 rounds of 2 simulated minutes = 24 h.
  sim::Round rounds = 720;
  /// Pre-run during which demand plays but no algorithm consolidates
  /// (GLAP trains + aggregates here — "700 more rounds" in the paper).
  /// Identical for every algorithm so all see the same evaluation-window
  /// demand streams and VM averages.
  sim::Round warmup_rounds = 700;

  std::uint64_t seed = 42;

  /// Rack topology: 0 disables (no racks, no switch accounting). When
  /// set, PMs are grouped into racks of this size, active top-of-rack
  /// switches are metered at cloud::RackTopology::kSwitchWatts, and GLAP
  /// may use glap.rack_affinity.
  std::size_t rack_size = 0;

  /// Record Fig. 5's per-round Q-table cosine similarity during warmup
  /// (GLAP only; costs a similarity sweep per round).
  bool track_convergence = false;
  /// Node pairs sampled per round for the convergence estimate.
  std::size_t convergence_pairs = 128;

  ObservabilityConfig observability;

  /// Message-level network model (DESIGN.md §13). Off by default: gossip
  /// then completes instantaneously as in the paper's evaluation. When
  /// network.enabled, exchanges route over the rack fabric (bandwidth,
  /// loss, ToR contention).
  net::NetworkConfig network;

  cloud::DataCenterConfig datacenter;
  FleetMix fleet;
  ChurnConfig churn;
  trace::GoogleSynthConfig workload;
  OverlayKind overlay = OverlayKind::kCyclon;
  core::GlapConfig glap;
  baselines::PabfdConfig pabfd;

  [[nodiscard]] std::size_t vm_count() const noexcept {
    return pm_count * vm_ratio;
  }

  /// "1000-3 GLAP seed=42" style label for reports.
  [[nodiscard]] std::string label() const;

  /// Fits GLAP's two learning phases inside the warmup window and aligns
  /// the consolidation start with the end of warmup (call after changing
  /// warmup_rounds).
  void fit_glap_phases_to_warmup() noexcept {
    glap.learning_rounds = std::min<sim::Round>(glap.learning_rounds,
                                                warmup_rounds / 2);
    glap.aggregation_rounds = std::min<sim::Round>(
        glap.aggregation_rounds, warmup_rounds - glap.learning_rounds);
    glap.consolidation_start_round = warmup_rounds;
  }
};

}  // namespace glap::harness
