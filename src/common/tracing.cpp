#include "common/tracing.hpp"

#include <ostream>

#include "common/assert.hpp"
#include "common/flight_recorder.hpp"

namespace glap::trace {

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
    std::string header;
    append_gtb_header(&header);
    out_->write(header.data(), static_cast<std::streamsize>(header.size()));
  }
}

void TraceLog::begin_round(std::uint64_t round) {
  round_ = round;
  if (recorder_ != nullptr) recorder_->begin_round(round);
}

void TraceLog::commit_round() {
  write_records(round_records_);
  round_records_.clear();
}

void TraceLog::write_records(std::string_view records) {
  if (records.empty()) return;
  if (recorder_ != nullptr) recorder_->append(records.data(), records.size());
  if (out_ == nullptr) return;
  if (format_ == Format::kJsonl) {
    jsonl_.clear();
    for (std::size_t at = 0; at < records.size();) {
      const std::uint32_t len = load_u32(records.data() + at);
      const bool ok =
          decode_gtb_payload(records.substr(at + 4, len), &event_, nullptr);
      GLAP_ASSERT(ok, "TraceLog buffered a record it cannot decode");
      render_jsonl(event_, &jsonl_);
      at += 4 + len;
    }
    records = jsonl_;
  }
  out_->write(records.data(), static_cast<std::streamsize>(records.size()));
}

}  // namespace glap::trace
