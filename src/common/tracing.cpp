#include "common/tracing.hpp"

#include <ostream>

#include "common/assert.hpp"
#include "common/flight_recorder.hpp"
#include "common/trace_format.hpp"

namespace glap::trace {

// The writer-side Kind values double as the wire codes of the read-side
// EventKind (GTB stores the latter); keep the prefixes aligned.
static_assert(static_cast<int>(Kind::kMigration) ==
                  static_cast<int>(EventKind::kMigration) &&
              static_cast<int>(Kind::kPower) ==
                  static_cast<int>(EventKind::kPower) &&
              static_cast<int>(Kind::kShuffle) ==
                  static_cast<int>(EventKind::kShuffle) &&
              static_cast<int>(Kind::kOverload) ==
                  static_cast<int>(EventKind::kOverload) &&
              static_cast<int>(Kind::kFault) ==
                  static_cast<int>(EventKind::kFault) &&
              static_cast<int>(Kind::kActivity) ==
                  static_cast<int>(EventKind::kActivity) &&
              static_cast<int>(Kind::kNet) ==
                  static_cast<int>(EventKind::kNet),
              "trace::Kind must mirror the first trace::EventKind values");

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kMigration: return "migration";
    case Kind::kPower: return "power";
    case Kind::kShuffle: return "shuffle";
    case Kind::kOverload: return "overload";
    case Kind::kFault: return "fault";
    case Kind::kActivity: return "activity";
    case Kind::kNet: return "net";
  }
  return "?";
}

const char* activity_reason_name(std::int64_t code) {
  switch (code) {
    case 0: return "converged";
    case 1: return "gossip";
    case 2: return "demand";
    case 3: return "migration";
    case 4: return "status";
    case 5: return "schedule";
    case 6: return "relearn";
    case 7: return "network";
  }
  return "?";
}

TraceLog::TraceLog(std::ostream& out, Format format,
                   const SamplingPolicy& sampling)
    : TraceLog(&out, format, sampling) {}

TraceLog::TraceLog(std::ostream* out, Format format,
                   const SamplingPolicy& sampling)
    : out_(out),
      format_(format),
      sampling_(sampling),
      shuffle_keep_all_(sampling.shuffle_keep >= 1.0),
      net_keep_all_(sampling.net_keep >= 1.0),
      sample_seed_(hash_combine(sampling.seed, hash_tag("trace-sample"))) {
  GLAP_REQUIRE(sampling.shuffle_keep >= 0.0 && sampling.shuffle_keep <= 1.0 &&
                   sampling.net_keep >= 0.0 && sampling.net_keep <= 1.0,
               "trace sampling keep probabilities must be in [0, 1]");
  if (out_ != nullptr && format_ == Format::kGtb) {
    bytes_.clear();
    append_gtb_header(&bytes_);
    out_->write(bytes_.data(), static_cast<std::streamsize>(bytes_.size()));
  }
}

void TraceLog::begin_round(std::uint64_t round) {
  round_ = round;
  if (recorder_ != nullptr) recorder_->begin_round(round);
}

void TraceLog::to_trace_event(const Event& e) {
  ev_.kind = static_cast<EventKind>(e.kind);
  ev_.round = round_;
  switch (e.kind) {
    case Kind::kMigration:
      ev_.migration.vm = e.a;
      ev_.migration.from = e.b;
      ev_.migration.to = e.c;
      ev_.migration.cpu = e.x;
      ev_.migration.energy_j = e.y;
      break;
    case Kind::kPower:
      ev_.power.pm = e.a;
      ev_.power.on = e.b != 0;
      break;
    case Kind::kShuffle:
      ev_.shuffle.initiator = e.a;
      ev_.shuffle.peer = e.b;
      ev_.shuffle.sent = e.c;
      ev_.shuffle.reply = e.d;
      break;
    case Kind::kOverload:
      ev_.overload.pm = e.a;
      ev_.overload.cpu = e.x;
      break;
    case Kind::kFault:
      ev_.fault.pm = e.a;
      ev_.fault.code = e.b;
      ev_.fault.value = e.x;
      break;
    case Kind::kActivity:
      ev_.activity.pm = e.a;
      ev_.activity.awake = e.b != 0;
      ev_.activity.reason = activity_reason_name(e.c);
      break;
    case Kind::kNet:
      ev_.net.src = e.b;
      ev_.net.dst = e.c;
      ev_.net.msg = e.d;
      switch (e.a) {
        case 0:
          ev_.net.op = "send";
          ev_.net.bytes = static_cast<std::int64_t>(e.x);
          ev_.net.channel =
              net_channel_name(static_cast<std::int64_t>(e.y));
          break;
        case 1:
          ev_.net.op = "deliver";
          ev_.net.delay = static_cast<std::int64_t>(e.x);
          break;
        default:
          ev_.net.op = "drop";
          ev_.net.reason =
              net_drop_reason_name(static_cast<std::int64_t>(e.x));
          break;
      }
      break;
  }
}

void TraceLog::write_event() {
  bytes_.clear();
  if (format_ == Format::kGtb) {
    std::string error;
    const bool ok = append_gtb_record(ev_, &bytes_, &error);
    GLAP_ASSERT(ok, "GTB encode of writer event failed: " + error);
    if (out_ != nullptr)
      out_->write(bytes_.data(), static_cast<std::streamsize>(bytes_.size()));
    if (recorder_ != nullptr) recorder_->append(bytes_.data(), bytes_.size());
    return;
  }
  render_jsonl(ev_, &bytes_);
  if (out_ != nullptr)
    out_->write(bytes_.data(), static_cast<std::streamsize>(bytes_.size()));
  if (recorder_ != nullptr) {
    recorder_bytes_.clear();
    std::string error;
    const bool ok = append_gtb_record(ev_, &recorder_bytes_, &error);
    GLAP_ASSERT(ok, "GTB encode of writer event failed: " + error);
    recorder_->append(recorder_bytes_.data(), recorder_bytes_.size());
  }
}

void TraceLog::commit_round() {
  for (const Event& e : round_events_) {
    to_trace_event(e);
    write_event();
  }
  round_events_.clear();
}

void TraceLog::round_summary(std::uint64_t round, std::uint64_t active_pms,
                             std::uint64_t overloaded_pms,
                             std::uint64_t migrations, std::uint64_t messages,
                             std::uint64_t bytes) {
  ev_.kind = EventKind::kRound;
  ev_.round = round;
  ev_.summary.active_pms = active_pms;
  ev_.summary.overloaded_pms = overloaded_pms;
  ev_.summary.migrations = migrations;
  ev_.summary.messages = messages;
  ev_.summary.bytes = bytes;
  write_event();
}

void TraceLog::qsim(std::uint64_t round, double similarity) {
  ev_.kind = EventKind::kQsim;
  ev_.round = round;
  ev_.qsim.similarity = similarity;
  write_event();
}

void TraceLog::overload(std::uint64_t round, std::int64_t pm, double cpu) {
  ev_.kind = EventKind::kOverload;
  ev_.round = round;
  ev_.overload.pm = pm;
  ev_.overload.cpu = cpu;
  write_event();
}

void TraceLog::relearn(std::uint64_t round) {
  ev_.kind = EventKind::kRelearn;
  ev_.round = round;
  write_event();
}

void TraceLog::net_queue(std::uint64_t round, const char* link,
                         std::int64_t id, std::uint64_t backlog_bytes) {
  ev_.kind = EventKind::kNet;
  ev_.round = round;
  ev_.net.op = "queue";
  ev_.net.link = link;
  ev_.net.link_id = id;
  ev_.net.bytes = static_cast<std::int64_t>(backlog_bytes);
  write_event();
}

}  // namespace glap::trace
