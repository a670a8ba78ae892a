#include "common/trace_format.hpp"

#include <charconv>
#include <cstring>

#include "common/json.hpp"
#include "common/tracing.hpp"

namespace glap::trace {

namespace {

void app_i64(std::string* out, std::int64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out->append(buf, res.ptr);
}

void app_u64(std::string* out, std::uint64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out->append(buf, res.ptr);
}

void app_bool(std::string* out, bool v) { *out += v ? "true" : "false"; }

void app_double(std::string* out, double v) { *out += json_double(v); }

// ---- GTB primitive writers (explicit little-endian byte order) ----------

void put_u8(std::string* out, std::uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void put_u32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
}

void put_u64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
}

void put_i64(std::string* out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

void put_f64(std::string* out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(out, bits);
}

// ---- GTB primitive readers ----------------------------------------------

class GtbCursor {
 public:
  GtbCursor(std::string_view payload, std::string* error)
      : p_(payload.data()),
        end_(payload.data() + payload.size()),
        error_(error) {}

  bool fail(const char* why) {
    if (error_ != nullptr && error_->empty()) *error_ = why;
    ok_ = false;
    return false;
  }

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] bool at_end() const noexcept { return p_ == end_; }

  bool read_u8(std::uint8_t* out) {
    if (end_ - p_ < 1) return fail("record payload ends mid-field");
    *out = static_cast<std::uint8_t>(*p_++);
    return true;
  }

  bool read_u32(std::uint32_t* out) {
    if (end_ - p_ < 4) return fail("record payload ends mid-field");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p_[i]))
           << (8 * i);
    p_ += 4;
    *out = v;
    return true;
  }

  bool read_u64(std::uint64_t* out) {
    if (end_ - p_ < 8) return fail("record payload ends mid-field");
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p_[i]))
           << (8 * i);
    p_ += 8;
    *out = v;
    return true;
  }

  bool read_i64(std::int64_t* out) {
    std::uint64_t v = 0;
    if (!read_u64(&v)) return false;
    *out = static_cast<std::int64_t>(v);
    return true;
  }

  bool read_f64(double* out) {
    std::uint64_t bits = 0;
    if (!read_u64(&bits)) return false;
    std::memcpy(out, &bits, sizeof *out);
    return true;
  }

 private:
  const char* p_;
  const char* end_;
  std::string* error_;
  bool ok_ = true;
};

bool unknown_name(const char* what, std::string_view name,
                  std::string* error) {
  if (error != nullptr && error->empty())
    *error = std::string("unknown ") + what + " '" + std::string(name) + "'";
  return false;
}

}  // namespace

// ---- name/code tables ---------------------------------------------------

const char* net_channel_name(std::int64_t code) {
  switch (code) {
    case 0: return "shuffle";
    case 1: return "learning";
    case 2: return "aggregation";
    case 3: return "consolidation";
    case 4: return "probe";
    case 5: return "migration";
  }
  return "?";
}

bool net_channel_code(std::string_view name, std::int64_t* out) {
  for (std::int64_t c = 0; c <= 5; ++c)
    if (name == net_channel_name(c)) {
      *out = c;
      return true;
    }
  return false;
}

const char* net_drop_reason_name(std::int64_t code) {
  switch (code) {
    case 1: return "loss";
    case 2: return "congestion";
  }
  return "?";
}

bool net_drop_reason_code(std::string_view name, std::int64_t* out) {
  for (std::int64_t c = 1; c <= 2; ++c)
    if (name == net_drop_reason_name(c)) {
      *out = c;
      return true;
    }
  return false;
}

bool activity_reason_code(std::string_view name, std::int64_t* out) {
  for (std::int64_t c = 0; c <= 7; ++c)
    if (name == activity_reason_name(c)) {
      *out = c;
      return true;
    }
  return false;
}

const char* net_op_name(std::int64_t code) {
  switch (code) {
    case 0: return "send";
    case 1: return "deliver";
    case 2: return "drop";
    case 3: return "queue";
  }
  return "?";
}

bool net_op_code(std::string_view name, std::int64_t* out) {
  for (std::int64_t c = 0; c <= 3; ++c)
    if (name == net_op_name(c)) {
      *out = c;
      return true;
    }
  return false;
}

const char* net_link_name(std::int64_t code) {
  switch (code) {
    case 0: return "access";
    case 1: return "uplink";
  }
  return "?";
}

bool net_link_code(std::string_view name, std::int64_t* out) {
  for (std::int64_t c = 0; c <= 1; ++c)
    if (name == net_link_name(c)) {
      *out = c;
      return true;
    }
  return false;
}

// ---- JSONL --------------------------------------------------------------

void render_jsonl(const TraceEvent& e, std::string* out) {
  *out += "{\"ev\":\"";
  *out += event_kind_name(e.kind);
  *out += "\",\"round\":";
  app_u64(out, e.round);
  switch (e.kind) {
    case EventKind::kMigration:
      *out += ",\"vm\":";
      app_i64(out, e.migration.vm);
      *out += ",\"from\":";
      app_i64(out, e.migration.from);
      *out += ",\"to\":";
      app_i64(out, e.migration.to);
      *out += ",\"cpu\":";
      app_double(out, e.migration.cpu);
      *out += ",\"energy_j\":";
      app_double(out, e.migration.energy_j);
      break;
    case EventKind::kPower:
      *out += ",\"pm\":";
      app_i64(out, e.power.pm);
      *out += ",\"on\":";
      app_bool(out, e.power.on);
      break;
    case EventKind::kShuffle:
      *out += ",\"initiator\":";
      app_i64(out, e.shuffle.initiator);
      *out += ",\"peer\":";
      app_i64(out, e.shuffle.peer);
      *out += ",\"sent\":";
      app_i64(out, e.shuffle.sent);
      *out += ",\"reply\":";
      app_i64(out, e.shuffle.reply);
      break;
    case EventKind::kOverload:
      *out += ",\"pm\":";
      app_i64(out, e.overload.pm);
      *out += ",\"cpu\":";
      app_double(out, e.overload.cpu);
      break;
    case EventKind::kFault:
      *out += ",\"pm\":";
      app_i64(out, e.fault.pm);
      *out += ",\"kind\":";
      app_i64(out, e.fault.code);
      *out += ",\"value\":";
      app_double(out, e.fault.value);
      break;
    case EventKind::kActivity:
      *out += ",\"pm\":";
      app_i64(out, e.activity.pm);
      *out += ",\"awake\":";
      app_bool(out, e.activity.awake);
      *out += ",\"reason\":\"";
      *out += e.activity.reason;
      *out += '"';
      break;
    case EventKind::kNet:
      *out += ",\"op\":\"";
      *out += e.net.op;
      *out += '"';
      if (e.net.op == "queue") {
        *out += ",\"link\":\"";
        *out += e.net.link;
        *out += "\",\"id\":";
        app_i64(out, e.net.link_id);
        *out += ",\"bytes\":";
        app_i64(out, e.net.bytes);
      } else {
        *out += ",\"src\":";
        app_i64(out, e.net.src);
        *out += ",\"dst\":";
        app_i64(out, e.net.dst);
        *out += ",\"msg\":";
        app_i64(out, e.net.msg);
        if (e.net.op == "send") {
          *out += ",\"bytes\":";
          app_i64(out, e.net.bytes);
          *out += ",\"channel\":\"";
          *out += e.net.channel;
          *out += '"';
        } else if (e.net.op == "deliver") {
          *out += ",\"delay\":";
          app_i64(out, e.net.delay);
        } else {
          *out += ",\"reason\":\"";
          *out += e.net.reason;
          *out += '"';
        }
      }
      break;
    case EventKind::kRound:
      *out += ",\"active_pms\":";
      app_u64(out, e.summary.active_pms);
      *out += ",\"overloaded_pms\":";
      app_u64(out, e.summary.overloaded_pms);
      *out += ",\"migrations\":";
      app_u64(out, e.summary.migrations);
      *out += ",\"messages\":";
      app_u64(out, e.summary.messages);
      *out += ",\"bytes\":";
      app_u64(out, e.summary.bytes);
      break;
    case EventKind::kQsim:
      *out += ",\"similarity\":";
      app_double(out, e.qsim.similarity);
      break;
    case EventKind::kRelearn:
      break;
  }
  *out += "}\n";
}

// ---- GTB ----------------------------------------------------------------

void append_gtb_header(std::string* out) {
  out->append(kGtbMagic, sizeof kGtbMagic);
  put_u32(out, kGtbVersion);
}

bool append_gtb_record(const TraceEvent& e, std::string* out,
                       std::string* error) {
  const std::size_t len_at = out->size();
  put_u32(out, 0);  // length backpatched below
  const std::size_t payload_at = out->size();
  put_u8(out, static_cast<std::uint8_t>(e.kind));
  put_u64(out, e.round);
  bool ok = true;
  switch (e.kind) {
    case EventKind::kMigration:
      put_i64(out, e.migration.vm);
      put_i64(out, e.migration.from);
      put_i64(out, e.migration.to);
      put_f64(out, e.migration.cpu);
      put_f64(out, e.migration.energy_j);
      break;
    case EventKind::kPower:
      put_i64(out, e.power.pm);
      put_u8(out, e.power.on ? 1 : 0);
      break;
    case EventKind::kShuffle:
      put_i64(out, e.shuffle.initiator);
      put_i64(out, e.shuffle.peer);
      put_i64(out, e.shuffle.sent);
      put_i64(out, e.shuffle.reply);
      break;
    case EventKind::kOverload:
      put_i64(out, e.overload.pm);
      put_f64(out, e.overload.cpu);
      break;
    case EventKind::kFault:
      put_i64(out, e.fault.pm);
      put_i64(out, e.fault.code);
      put_f64(out, e.fault.value);
      break;
    case EventKind::kActivity: {
      std::int64_t reason = 0;
      if (!activity_reason_code(e.activity.reason, &reason))
        ok = unknown_name("activity reason", e.activity.reason, error);
      put_i64(out, e.activity.pm);
      put_u8(out, e.activity.awake ? 1 : 0);
      put_u8(out, static_cast<std::uint8_t>(reason));
      break;
    }
    case EventKind::kNet: {
      std::int64_t op = 0;
      if (!net_op_code(e.net.op, &op)) {
        ok = unknown_name("net op", e.net.op, error);
        break;
      }
      put_u8(out, static_cast<std::uint8_t>(op));
      if (op == 3) {  // queue
        std::int64_t link = 0;
        if (!net_link_code(e.net.link, &link))
          ok = unknown_name("net link", e.net.link, error);
        put_u8(out, static_cast<std::uint8_t>(link));
        put_i64(out, e.net.link_id);
        put_i64(out, e.net.bytes);
      } else {
        put_i64(out, e.net.src);
        put_i64(out, e.net.dst);
        put_i64(out, e.net.msg);
        if (op == 0) {  // send
          std::int64_t channel = 0;
          if (!net_channel_code(e.net.channel, &channel))
            ok = unknown_name("net channel", e.net.channel, error);
          put_i64(out, e.net.bytes);
          put_u8(out, static_cast<std::uint8_t>(channel));
        } else if (op == 1) {  // deliver
          put_i64(out, e.net.delay);
        } else {  // drop
          std::int64_t reason = 0;
          if (!net_drop_reason_code(e.net.reason, &reason))
            ok = unknown_name("net drop reason", e.net.reason, error);
          put_u8(out, static_cast<std::uint8_t>(reason));
        }
      }
      break;
    }
    case EventKind::kRound:
      put_u64(out, e.summary.active_pms);
      put_u64(out, e.summary.overloaded_pms);
      put_u64(out, e.summary.migrations);
      put_u64(out, e.summary.messages);
      put_u64(out, e.summary.bytes);
      break;
    case EventKind::kQsim:
      put_f64(out, e.qsim.similarity);
      break;
    case EventKind::kRelearn:
      break;
  }
  if (!ok) {
    out->resize(len_at);
    return false;
  }
  const auto len = static_cast<std::uint32_t>(out->size() - payload_at);
  for (int i = 0; i < 4; ++i)
    (*out)[len_at + static_cast<std::size_t>(i)] =
        static_cast<char>((len >> (8 * i)) & 0xffu);
  return true;
}

bool decode_gtb_payload(std::string_view payload, TraceEvent* out,
                        std::string* error) {
  if (error != nullptr) error->clear();
  GtbCursor in(payload, error);
  std::uint8_t kind_code = 0;
  TraceEvent parsed;
  if (!in.read_u8(&kind_code)) return false;
  if (kind_code >= kEventKindCount) {
    return in.fail("unknown event kind code");
  }
  parsed.kind = static_cast<EventKind>(kind_code);
  if (!in.read_u64(&parsed.round)) return false;
  switch (parsed.kind) {
    case EventKind::kMigration:
      in.read_i64(&parsed.migration.vm);
      in.read_i64(&parsed.migration.from);
      in.read_i64(&parsed.migration.to);
      in.read_f64(&parsed.migration.cpu);
      in.read_f64(&parsed.migration.energy_j);
      break;
    case EventKind::kPower: {
      std::uint8_t on = 0;
      in.read_i64(&parsed.power.pm);
      in.read_u8(&on);
      parsed.power.on = on != 0;
      break;
    }
    case EventKind::kShuffle:
      in.read_i64(&parsed.shuffle.initiator);
      in.read_i64(&parsed.shuffle.peer);
      in.read_i64(&parsed.shuffle.sent);
      in.read_i64(&parsed.shuffle.reply);
      break;
    case EventKind::kOverload:
      in.read_i64(&parsed.overload.pm);
      in.read_f64(&parsed.overload.cpu);
      break;
    case EventKind::kFault:
      in.read_i64(&parsed.fault.pm);
      in.read_i64(&parsed.fault.code);
      in.read_f64(&parsed.fault.value);
      break;
    case EventKind::kActivity: {
      std::uint8_t awake = 0, reason = 0;
      in.read_i64(&parsed.activity.pm);
      in.read_u8(&awake);
      in.read_u8(&reason);
      if (!in.ok()) break;
      parsed.activity.awake = awake != 0;
      if (reason > 7) return in.fail("unknown activity reason code");
      parsed.activity.reason = activity_reason_name(reason);
      break;
    }
    case EventKind::kNet: {
      std::uint8_t op = 0;
      if (!in.read_u8(&op)) break;
      if (op > 3) return in.fail("unknown net op code");
      parsed.net.op = net_op_name(op);
      if (op == 3) {  // queue
        std::uint8_t link = 0;
        in.read_u8(&link);
        in.read_i64(&parsed.net.link_id);
        in.read_i64(&parsed.net.bytes);
        if (!in.ok()) break;
        if (link > 1) return in.fail("unknown net link code");
        parsed.net.link = net_link_name(link);
      } else {
        in.read_i64(&parsed.net.src);
        in.read_i64(&parsed.net.dst);
        in.read_i64(&parsed.net.msg);
        if (op == 0) {  // send
          std::uint8_t channel = 0;
          in.read_i64(&parsed.net.bytes);
          in.read_u8(&channel);
          if (!in.ok()) break;
          if (channel > 5) return in.fail("unknown net channel code");
          parsed.net.channel = net_channel_name(channel);
        } else if (op == 1) {  // deliver
          in.read_i64(&parsed.net.delay);
        } else {  // drop
          std::uint8_t reason = 0;
          in.read_u8(&reason);
          if (!in.ok()) break;
          if (reason < 1 || reason > 2)
            return in.fail("unknown net drop reason code");
          parsed.net.reason = net_drop_reason_name(reason);
        }
      }
      break;
    }
    case EventKind::kRound:
      in.read_u64(&parsed.summary.active_pms);
      in.read_u64(&parsed.summary.overloaded_pms);
      in.read_u64(&parsed.summary.migrations);
      in.read_u64(&parsed.summary.messages);
      in.read_u64(&parsed.summary.bytes);
      break;
    case EventKind::kQsim:
      in.read_f64(&parsed.qsim.similarity);
      break;
    case EventKind::kRelearn:
      break;
  }
  if (!in.ok()) return false;
  if (!in.at_end()) return in.fail("trailing bytes after the record");
  *out = std::move(parsed);
  return true;
}

}  // namespace glap::trace
