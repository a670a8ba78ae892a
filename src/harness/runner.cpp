#include "harness/runner.hpp"

#include <algorithm>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>

#include "baselines/bfd.hpp"
#include "baselines/ecocloud.hpp"
#include "baselines/grmp.hpp"
#include "common/flight_recorder.hpp"
#include "common/metrics.hpp"
#include "common/profiler.hpp"
#include "common/round_time.hpp"
#include "common/tracing.hpp"
#include "core/glap.hpp"
#include "overlay/newscast.hpp"
#include "trace/demand_model.hpp"

namespace glap::harness {

std::string ExperimentConfig::label() const {
  std::ostringstream os;
  os << pm_count << '-' << vm_ratio << ' ' << to_string(algorithm)
     << " seed=" << seed;
  return os.str();
}

namespace {

/// GLAP's re-learning oracle fires when churn since the last trigger
/// reaches this many events per VM per round.
constexpr double kRelearnRateThreshold = 0.02;

/// Builds the per-entity spec vectors for a heterogeneous fleet; class
/// choice depends only on (seed, index), never on the algorithm.
template <typename Class, typename Spec>
std::vector<Spec> draw_specs(const std::vector<Class>& classes,
                             const Spec& fallback, std::size_t count,
                             Rng rng) {
  if (classes.empty()) return std::vector<Spec>(count, fallback);
  double total = 0.0;
  for (const auto& c : classes) {
    GLAP_REQUIRE(c.weight >= 0.0, "fleet class weight must be non-negative");
    total += c.weight;
  }
  GLAP_REQUIRE(total > 0.0, "fleet class weights must not all be zero");
  std::vector<Spec> specs;
  specs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    double pick = rng.uniform() * total;
    const Class* chosen = &classes.back();
    for (const auto& c : classes) {
      pick -= c.weight;
      if (pick < 0.0) {
        chosen = &c;
        break;
      }
    }
    specs.push_back(chosen->spec);
  }
  return specs;
}

/// Flushes a file sink and fails, naming the file, if any write to it
/// failed; without this a full disk leaves a truncated file and a run that
/// reports success.
void require_written(std::ofstream& out, const std::string& path) {
  out.flush();
  GLAP_REQUIRE(out.good(), "write to '" + path + "' failed");
}

/// Mean cosine similarity of Q-table pairs over sampled node pairs.
double sample_convergence(sim::Engine& engine,
                          sim::Slot<core::GossipLearningProtocol> learning,
                          std::size_t pair_count, Rng& rng) {
  const std::size_t n = engine.node_count();
  if (n < 2) return 1.0;
  RunningStats stats;
  for (std::size_t i = 0; i < pair_count; ++i) {
    const auto a = static_cast<sim::NodeId>(rng.bounded(n));
    auto b = static_cast<sim::NodeId>(rng.bounded(n));
    if (a == b) b = static_cast<sim::NodeId>((b + 1) % n);
    const auto& ta = engine.protocol_at(learning, a).tables();
    const auto& tb = engine.protocol_at(learning, b).tables();
    stats.add(core::cosine_similarity(ta, tb));
  }
  return stats.mean();
}

}  // namespace

RunResult run_experiment(const ExperimentConfig& config) {
  GLAP_REQUIRE(config.pm_count > 0 && config.vm_ratio > 0,
               "experiment needs PMs and VMs");
  if (config.algorithm == Algorithm::kGlap)
    GLAP_REQUIRE(config.glap.learning_rounds + config.glap.aggregation_rounds <=
                     config.warmup_rounds,
                 "GLAP pre-phases must fit inside warmup_rounds "
                 "(call fit_glap_phases_to_warmup)");

  // --- Substrate construction (algorithm-independent) -------------------
  Rng fleet_rng(hash_combine(config.seed, hash_tag("fleet")));
  cloud::DataCenter dc(
      draw_specs(config.fleet.pm_classes, config.datacenter.pm_spec,
                 config.pm_count, fleet_rng.split("pm")),
      draw_specs(config.fleet.vm_classes, config.datacenter.vm_spec,
                 config.vm_count(), fleet_rng.split("vm")),
      config.datacenter);

  const trace::GoogleSynth synth(config.workload, config.seed);
  std::vector<trace::DemandModelPtr> models;
  models.reserve(config.vm_count());
  for (std::size_t v = 0; v < config.vm_count(); ++v)
    models.push_back(synth.make_model(v));

  Rng placement_rng(hash_combine(config.seed, hash_tag("placement")));
  dc.place_randomly(placement_rng);

  sim::Engine engine(config.pm_count, config.seed);
  const core::QuiescenceConfig& quiesce = config.glap.quiescence;
  if (quiesce.enabled) {
    engine.enable_quiescence();
    // Bridge data-center events onto parked nodes. Power transitions
    // already flow through Engine::set_status (which un-parks), so the
    // hook's kStatus wakes are only a safety net.
    dc.set_wake_hook(
        [&engine](cloud::PmId pm, sim::WakeReason reason) {
          engine.wake(static_cast<sim::NodeId>(pm), reason);
        },
        quiesce.demand_epsilon);
  }

  std::optional<cloud::RackTopology> topology;
  if (config.rack_size > 0) topology.emplace(config.pm_count, config.rack_size);

  // --- Network model (DESIGN.md §13) -------------------------------------
  std::optional<net::NetworkModel> net_model;
  if (config.network.enabled) {
    net_model.emplace(config.pm_count, config.rack_size, config.network,
                      config.seed);
    engine.set_net_model(&*net_model);
    if (config.network.migration_contention)
      dc.set_migration_network([&net_model](cloud::PmId from, cloud::PmId to,
                                            double mem_mb) {
        return net_model->migration_delay_seconds(
            static_cast<sim::NodeId>(from), static_cast<sim::NodeId>(to),
            mem_mb);
      });
  }

  // --- Observability -----------------------------------------------------
  // Sinks attach BEFORE protocol install so instrumented code resolves its
  // instruments from a registry that exists for the whole run. Off by
  // default: no registry and no trace file, one null check per
  // instrumented site. The trace log always exists, because it feeds the
  // always-on flight recorder.
  const ObservabilityConfig& obs = config.observability;
  std::shared_ptr<metrics::MetricsRegistry> registry;
  // The harness's per-round series, registered here so all registration
  // stays out of the engine's execution phase; null without a registry.
  struct {
    metrics::Series* active_pms = nullptr;
    metrics::Series* overloaded_pms = nullptr;
    metrics::Series* migrations_round = nullptr;
    metrics::Series* net_messages = nullptr;
    metrics::Series* net_bytes = nullptr;
  } series;
  if (obs.metrics_enabled()) {
    registry = std::make_shared<metrics::MetricsRegistry>();
    series.active_pms = registry->series("active_pms");
    series.overloaded_pms = registry->series("overloaded_pms");
    series.migrations_round = registry->series("migrations_round");
    series.net_messages = registry->series("net_messages");
    series.net_bytes = registry->series("net_bytes");
  }
  const trace::SamplingPolicy sampling{obs.trace_sample_shuffle,
                                       obs.trace_sample_net, config.seed};
  std::ofstream trace_file;
  std::ostream* trace_out = obs.trace_sink;
  if (trace_out == nullptr && !obs.trace_path.empty()) {
    // Binary mode either way: GTB needs it, and JSONL never emits '\r'.
    trace_file.open(obs.trace_path, std::ios::binary | std::ios::trunc);
    GLAP_REQUIRE(trace_file.is_open(), "cannot open trace_path for writing");
    trace_out = &trace_file;
  }
  // Without a file sink the log GTB-encodes straight into the ring.
  trace::TraceLog trace_log(
      trace_out, trace_out != nullptr ? obs.trace_format : trace::Format::kGtb,
      sampling);
  flight::FlightRecorder flight;
  flight.set_registry(registry.get());
  trace_log.set_flight_recorder(&flight);
  engine.set_telemetry(registry.get(), &trace_log);
  dc.set_telemetry(registry.get(), &trace_log);
  if (net_model) net_model->set_telemetry(registry.get(), &trace_log);
  std::unique_ptr<prof::PhaseProfiler> profiler;
  if (obs.profile) {
    profiler = std::make_unique<prof::PhaseProfiler>();
    engine.set_profiler(profiler.get());
  }

  // --- Protocol stack ----------------------------------------------------
  auto install_overlay = [&]() -> sim::Slot<overlay::NeighborProvider> {
    if (config.overlay == OverlayKind::kNewscast)
      return overlay::NewscastProtocol::install(engine, config.seed);
    return overlay::CyclonProtocol::install(engine, config.seed);
  };
  // Readable phase labels for the profile report: `execute.<protocol>`
  // per installed slot instead of the positional slot index.
  auto label_slot = [&](sim::Slot<sim::Protocol> slot, const char* name) {
    if (profiler)
      profiler->set_label(prof::PhaseProfiler::kFirstSlot + slot.index(),
                          std::string("execute.") + name);
  };
  const char* overlay_name =
      config.overlay == OverlayKind::kNewscast ? "newscast" : "cyclon";
  std::optional<core::GlapSlots> glap_slots;
  switch (config.algorithm) {
    case Algorithm::kGlap:
      glap_slots = core::install_glap_on(engine, dc, config.glap,
                                         install_overlay(), config.seed,
                                         topology ? &*topology : nullptr);
      label_slot(glap_slots->overlay, overlay_name);
      label_slot(glap_slots->learning, "learning");
      label_slot(glap_slots->consolidation, "consolidation");
      break;
    case Algorithm::kGrmp: {
      const auto overlay_slot = install_overlay();
      label_slot(overlay_slot, overlay_name);
      label_slot(baselines::GrmpProtocol::install(engine, dc, overlay_slot),
                 "grmp");
      break;
    }
    case Algorithm::kEcoCloud:
      label_slot(baselines::EcoCloudProtocol::install(engine, dc, config.seed),
                 "ecocloud");
      break;
    case Algorithm::kPabfd:
      label_slot(baselines::PabfdManager::install(engine, config.pabfd, dc),
                 "pabfd");
      break;
    case Algorithm::kNone:
      break;
  }

  // GLAP's consolidation waits for learning to go idle; every baseline
  // must equally sit out the warmup so all algorithms start consolidating
  // at the same instant. Baseline warmup idling is enforced here by
  // simply not stepping their protocols during warmup (see below).
  const bool baseline_idles_in_warmup =
      config.algorithm != Algorithm::kGlap;

  RunResult result;
  Rng convergence_rng(hash_combine(config.seed, hash_tag("convergence")));

  std::vector<Resources> demands(config.vm_count());
  auto advance_demands = [&] {
    for (std::size_t v = 0; v < demands.size(); ++v)
      demands[v] = models[v]->next().clamped(0.0, 1.0);
    dc.observe_demands(demands);
  };

  // --- Churn machinery -----------------------------------------------------
  // The event stream (who departs/arrives when) is a pure function of the
  // seed — identical for every algorithm. Arrival *placement* necessarily
  // depends on cluster state, so it draws from a separate stream to keep
  // the event stream aligned across algorithms.
  Rng churn_rng(hash_combine(config.seed, hash_tag("churn")));
  Rng churn_place_rng(hash_combine(config.seed, hash_tag("churn-place")));
  auto place_arrival = [&](cloud::VmId vm) -> bool {
    // Admission by nominal allocations among powered-on PMs; wake one
    // sleeping PM when nothing fits.
    auto allocated_of = [&](cloud::PmId p) {
      Resources sum;
      for (cloud::VmId hosted : dc.pm(p).vms())
        sum += dc.vm(hosted).spec().capacity();
      return sum;
    };
    auto fits = [&](cloud::PmId p) {
      return (allocated_of(p) + dc.vm(vm).spec().capacity())
          .fits_within(dc.pm(p).spec().capacity());
    };
    for (std::size_t attempt = 0; attempt < dc.pm_count(); ++attempt) {
      const auto p =
          static_cast<cloud::PmId>(churn_place_rng.bounded(dc.pm_count()));
      if (!dc.pm_on(p) || !fits(p)) continue;
      dc.place(vm, p);
      return true;
    }
    for (cloud::PmId p = 0; p < dc.pm_count(); ++p) {
      if (!dc.pm_on(p) && dc.pm(p).empty()) {
        dc.set_power(p, cloud::PmPower::kOn);
        engine.set_status(static_cast<sim::NodeId>(p),
                          sim::NodeStatus::kActive);
        dc.place(vm, p);
        return true;
      }
      if (dc.pm_on(p) && fits(p)) {
        dc.place(vm, p);
        return true;
      }
    }
    return false;  // full cluster: the arrival is refused this round
  };

  std::uint64_t churn_events_since_relearn = 0;
  sim::Round rounds_since_relearn = 0;
  auto churn_step = [&] {
    if (!config.churn.enabled) return;
    for (cloud::VmId v = 0; v < dc.vm_count(); ++v) {
      if (dc.is_placed(v)) {
        if (churn_rng.bernoulli(config.churn.departure_prob)) {
          dc.depart(v);
          ++churn_events_since_relearn;
        }
      } else if (churn_rng.bernoulli(config.churn.arrival_prob)) {
        if (place_arrival(v)) ++churn_events_since_relearn;
      }
    }
  };

  auto maybe_relearn = [&] {
    if (!config.churn.enabled || !config.churn.glap_relearn || !glap_slots)
      return;
    ++rounds_since_relearn;
    if (rounds_since_relearn < config.churn.relearn_min_interval) return;
    const double rate =
        static_cast<double>(churn_events_since_relearn) /
        (static_cast<double>(dc.vm_count()) * rounds_since_relearn);
    if (rate < kRelearnRateThreshold) return;
    for (sim::NodeId n = 0; n < engine.node_count(); ++n)
      engine.protocol_at(glap_slots->learning, n)
          .retrigger(config.churn.relearn_learning_rounds,
                     config.churn.relearn_aggregation_rounds);
    // A fleet-wide phase reset invalidates every park decision.
    engine.wake_all(sim::WakeReason::kRelearn);
    ++result.relearn_triggers;
    trace_log.write(engine.current_round(), trace::Relearn{});
    churn_events_since_relearn = 0;
    rounds_since_relearn = 0;
  };

  // Initial partial placement: depart a deterministic random subset.
  if (config.churn.enabled && config.churn.initial_placed_fraction < 1.0) {
    for (cloud::VmId v = 0; v < dc.vm_count(); ++v)
      if (!churn_rng.bernoulli(config.churn.initial_placed_fraction))
        dc.depart(v);
  }

  // Crash dumping arms only now — after every config-validation
  // GLAP_REQUIRE and sink setup above — so an expected precondition
  // failure leaves no stray dump file. From here to the final validity
  // check, any invariant failure or fatal signal dumps the flight-recorder
  // ring to flight_recorder_path (plus `.what.txt` / `.metrics.json`
  // sidecars).
  std::optional<flight::CrashDumpScope> crash_scope;
  crash_scope.emplace(&flight, obs.flight_recorder_path);

  // --- Warmup ------------------------------------------------------------
  for (sim::Round r = 0; r < config.warmup_rounds; ++r) {
    advance_demands();
    if (!baseline_idles_in_warmup) {
      trace_log.begin_round(engine.current_round());
      if (net_model) net_model->begin_round(engine.current_round());
      engine.step();
      {
        prof::PhaseScope timer(profiler.get(), prof::PhaseProfiler::kCommit);
        trace_log.commit_round();
      }
      if (config.track_convergence && glap_slots) {
        result.convergence.push_back(
            sample_convergence(engine, glap_slots->learning,
                               config.convergence_pairs, convergence_rng));
        trace_log.write(engine.current_round() - 1,
                        trace::Qsim{result.convergence.back()});
      }
    }
    // Note: no dc.end_round() — warmup time does not count toward SLA,
    // energy, or migration metrics; demand averages still accumulate.
  }

  // --- Evaluation window ---------------------------------------------------
  const std::uint64_t warmup_messages = engine.network().messages();
  const std::uint64_t warmup_bytes = engine.network().bytes();

  std::uint64_t prev_messages = engine.network().messages();
  std::uint64_t prev_bytes = engine.network().bytes();

  for (sim::Round r = 0; r < config.rounds; ++r) {
    const std::uint64_t round = engine.current_round();
    trace_log.begin_round(round);
    advance_demands();
    churn_step();
    maybe_relearn();
    if (net_model) net_model->begin_round(round);
    engine.step();
    {
      prof::PhaseScope timer(profiler.get(), prof::PhaseProfiler::kCommit);
      trace_log.commit_round();
    }

    RoundSample sample;
    sample.round = r;
    sample.active_pms = static_cast<std::uint32_t>(dc.active_pm_count());
    sample.overloaded_pms =
        static_cast<std::uint32_t>(dc.overloaded_pm_count());
    sample.migrations_round =
        static_cast<std::uint32_t>(dc.migrations_this_round());
    sample.migrations_cum = dc.total_migrations();
    sample.migration_energy_j = dc.migration_energy_joules();
    sample.quiescent_pms = static_cast<std::uint32_t>(engine.quiescent_count());
    if (topology) {
      const std::size_t racks = topology->active_racks(dc);
      sample.active_racks = static_cast<std::uint32_t>(racks);
      result.switch_energy_j +=
          topology->switch_energy_joules(racks, kRoundSeconds);
    }
    result.rounds.push_back(sample);

    const std::uint64_t messages = engine.network().messages();
    const std::uint64_t bytes = engine.network().bytes();
    if (registry) {
      series.active_pms->append(sample.active_pms);
      series.overloaded_pms->append(sample.overloaded_pms);
      series.migrations_round->append(sample.migrations_round);
      series.net_messages->append(
          static_cast<double>(messages - prev_messages));
      series.net_bytes->append(static_cast<double>(bytes - prev_bytes));
    }
    trace_log.write(round, trace::RoundSummary{
                               sample.active_pms, sample.overloaded_pms,
                               sample.migrations_round,
                               messages - prev_messages, bytes - prev_bytes});
    for (cloud::PmId p = 0; p < dc.pm_count(); ++p)
      if (dc.pm_on(p) && dc.overloaded(p))
        trace_log.write(round,
                        trace::Overload{p, dc.current_utilization(p).cpu});
    if (net_model) net_model->trace_queue_depths(round);
    prev_messages = messages;
    prev_bytes = bytes;

    dc.end_round();
  }

  // --- Final validity check ------------------------------------------------
  // No protocol may leave a VM on a sleeping PM; migrations and power
  // transitions go through DataCenter, but this guards protocol logic
  // errors (e.g. sleeping a PM another protocol just filled).
  for (cloud::VmId v = 0; v < dc.vm_count(); ++v)
    if (dc.is_placed(v))
      GLAP_ASSERT(dc.pm_on(dc.host_of(v)),
                  "vm stranded on a sleeping pm after the run");

  // Disarmed before the sinks are checked: a failed write is an I/O
  // error, not a broken invariant, and leaves no dump file behind.
  crash_scope.reset();
  if (trace_file.is_open()) require_written(trace_file, obs.trace_path);

  // --- Run-level aggregates ------------------------------------------------
  result.total_migrations = dc.total_migrations();
  result.migration_energy_j = dc.migration_energy_joules();
  result.total_energy_j = dc.total_energy_joules();
  result.slavo = dc.sla().slavo();
  result.slalm = dc.sla().slalm();
  result.slav = dc.sla().slav();
  result.messages = engine.network().messages() - warmup_messages;
  result.bytes = engine.network().bytes() - warmup_bytes;
  result.final_active_pms = static_cast<std::uint32_t>(dc.active_pm_count());
  result.final_overloaded_pms =
      static_cast<std::uint32_t>(dc.overloaded_pm_count());
  result.final_bfd_bins =
      static_cast<std::uint32_t>(baselines::bfd_bin_count(dc));

  if (net_model) {
    const net::NetworkModel::Totals& net_totals = net_model->totals();
    result.net_sends = net_totals.sends;
    result.net_delivered = net_totals.delivered;
    result.net_dropped_loss = net_totals.dropped_loss;
    result.net_dropped_congestion = net_totals.dropped_congestion;
  }

  if (profiler) {
    result.profile = profiler->totals();
    // Phase call counts join the metric snapshot; wall-clock columns stay
    // out (host dependent).
    if (registry) {
      for (const auto& phase : result.profile)
        registry->counter("profile." + phase.label + ".calls")
            ->inc(phase.calls);
    }
  }

  if (registry) {
    registry->gauge("slavo")->set(result.slavo);
    registry->gauge("slalm")->set(result.slalm);
    registry->gauge("slav")->set(result.slav);
    registry->gauge("total_energy_j")->set(result.total_energy_j);
    registry->gauge("migration_energy_j")->set(result.migration_energy_j);
    if (!obs.metrics_json_path.empty()) {
      std::ofstream out(obs.metrics_json_path);
      GLAP_REQUIRE(out.is_open(), "cannot open metrics_json_path");
      registry->write_json(out);
      require_written(out, obs.metrics_json_path);
    }
    if (!obs.series_csv_path.empty()) {
      std::ofstream out(obs.series_csv_path);
      GLAP_REQUIRE(out.is_open(), "cannot open series_csv_path");
      registry->write_series_csv(out);
      require_written(out, obs.series_csv_path);
    }
    result.metrics = registry;
  }

  // CI hook: persist the flight-recorder ring at normal run end too, so
  // the pipeline can verify crash dumps parse without crashing a run.
  if (!obs.flight_dump_path.empty())
    GLAP_REQUIRE(flight.dump(obs.flight_dump_path),
                 "write to '" + obs.flight_dump_path + "' failed");

  return result;
}

}  // namespace glap::harness
