#include "common/flight_recorder.hpp"

#include <atomic>
#include <csignal>
#include <cstring>
#include <fstream>

#include <fcntl.h>
#include <unistd.h>

#include "common/assert.hpp"
#include "common/metrics.hpp"
#include "common/trace_format.hpp"

namespace glap::flight {

FlightRecorder::FlightRecorder(std::size_t max_rounds)
    : ring_(max_rounds > 0 ? max_rounds : 1) {}

void FlightRecorder::begin_round(std::uint64_t round) {
  if (any_) cursor_ = (cursor_ + 1) % ring_.size();
  any_ = true;
  Bucket& b = ring_[cursor_];
  b.round = round;
  b.used = true;
  b.bytes.clear();
}

void FlightRecorder::append(const char* data, std::size_t size) {
  if (!any_) begin_round(0);
  ring_[cursor_].bytes.append(data, size);
}

std::size_t FlightRecorder::rounds_retained() const noexcept {
  std::size_t n = 0;
  for_each_bucket([&](const Bucket&) { ++n; });
  return n;
}

std::uint64_t FlightRecorder::oldest_round() const noexcept {
  std::uint64_t round = 0;
  bool first = true;
  for_each_bucket([&](const Bucket& b) {
    if (first) round = b.round;
    first = false;
  });
  return round;
}

bool FlightRecorder::dump(const std::string& path) const {
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) return false;
    std::string header;
    trace::append_gtb_header(&header);
    out.write(header.data(), static_cast<std::streamsize>(header.size()));
    for_each_bucket([&](const Bucket& b) {
      out.write(b.bytes.data(), static_cast<std::streamsize>(b.bytes.size()));
    });
    out.flush();
    if (!out.good()) return false;
  }
  if (registry_ != nullptr) {
    std::ofstream out(path + ".metrics.json", std::ios::trunc);
    if (!out.is_open()) return false;
    registry_->write_json(out);
    out.flush();
    if (!out.good()) return false;
  }
  return true;
}

void FlightRecorder::dump_to_fd(int fd) const noexcept {
  // The GTB header, spelled out so no allocation happens in this path.
  char header[trace::kGtbHeaderBytes] = {};
  std::memcpy(header, trace::kGtbMagic, sizeof trace::kGtbMagic);
  for (int i = 0; i < 4; ++i)
    header[4 + i] = static_cast<char>((trace::kGtbVersion >> (8 * i)) & 0xffu);
  auto write_all = [fd](const char* data, std::size_t size) {
    while (size > 0) {
      const ::ssize_t n = ::write(fd, data, size);
      if (n <= 0) return;
      data += n;
      size -= static_cast<std::size_t>(n);
    }
  };
  write_all(header, sizeof header);
  for_each_bucket(
      [&](const Bucket& b) { write_all(b.bytes.data(), b.bytes.size()); });
}

// ---- crash-dump activation ----------------------------------------------

namespace {

// One scope at a time owns the process-wide state below: it wins
// g_claimed by compare-exchange, writes the dump path, then publishes its
// recorder for the signal handler. The assertion hook is per thread
// (assert.hpp), so only the winning thread's failures dump, and only its
// own ring.
std::atomic<bool> g_claimed{false};
std::atomic<const FlightRecorder*> g_recorder{nullptr};
char g_dump_path[512] = {};
thread_local bool t_dumping = false;

constexpr int kFatalSignals[] = {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL};
constexpr std::size_t kFatalSignalCount =
    sizeof kFatalSignals / sizeof kFatalSignals[0];
struct sigaction g_saved_actions[kFatalSignalCount];

extern "C" void flight_signal_handler(int sig) {
  if (const FlightRecorder* recorder =
          g_recorder.load(std::memory_order_acquire)) {
    const int fd =
        ::open(g_dump_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      recorder->dump_to_fd(fd);
      ::close(fd);
    }
  }
  // Restore the default disposition and re-raise so the process still
  // dies the way it would have (core dump, abort status, ...).
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

void flight_assert_hook(const char* what) {
  // Installed only on the claiming thread, which alone writes the state.
  const FlightRecorder* recorder = g_recorder.load(std::memory_order_relaxed);
  if (t_dumping || recorder == nullptr) return;
  t_dumping = true;
  if (recorder->dump(g_dump_path)) {
    // The failure text rides along so the artifact is self-describing.
    std::ofstream out(std::string(g_dump_path) + ".what.txt",
                      std::ios::trunc);
    if (out.is_open()) out << what << '\n';
  }
  t_dumping = false;
}

}  // namespace

CrashDumpScope::CrashDumpScope(FlightRecorder* recorder,
                               const std::string& path) {
  if (recorder == nullptr || path.empty()) return;
  bool unclaimed = false;
  if (!g_claimed.compare_exchange_strong(unclaimed, true,
                                         std::memory_order_acquire))
    return;
  active_ = true;
  std::strncpy(g_dump_path, path.c_str(), sizeof g_dump_path - 1);
  g_dump_path[sizeof g_dump_path - 1] = '\0';
  g_recorder.store(recorder, std::memory_order_release);
  glap::detail::fatal_hook = &flight_assert_hook;
  struct sigaction action {};
  action.sa_handler = &flight_signal_handler;
  sigemptyset(&action.sa_mask);
  for (std::size_t i = 0; i < kFatalSignalCount; ++i)
    ::sigaction(kFatalSignals[i], &action, &g_saved_actions[i]);
}

CrashDumpScope::~CrashDumpScope() {
  if (!active_) return;
  for (std::size_t i = 0; i < kFatalSignalCount; ++i)
    ::sigaction(kFatalSignals[i], &g_saved_actions[i], nullptr);
  glap::detail::fatal_hook = nullptr;
  g_recorder.store(nullptr, std::memory_order_release);
  g_claimed.store(false, std::memory_order_release);
}

}  // namespace glap::flight
