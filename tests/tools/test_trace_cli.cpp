// glap-trace CLI argument handling: each subcommand accepts only its own
// flags, so a typo or a flag meant for another subcommand is a usage
// error (exit 2) instead of being silently ignored.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <sys/wait.h>

namespace {

const std::string kBin = GLAP_TRACE_BIN;
const std::string kGolden =
    std::string(GLAP_TESTS_DIR) + "/integration/golden/trace_8pm.jsonl";

int run(const std::string& args) {
  const int status =
      std::system((kBin + " " + args + " >/dev/null 2>&1").c_str());
  EXPECT_NE(status, -1);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(TraceCli, KnownFlagsAreAccepted) {
  EXPECT_EQ(run("check " + kGolden + " --strict --max-print 5"), 0);
  EXPECT_EQ(run("stats " + kGolden), 0);
}

TEST(TraceCli, UnknownGenFlagExitsTwoBeforeRunning) {
  const std::filesystem::path out =
      std::filesystem::path(::testing::TempDir()) / "glap_trace_cli.jsonl";
  std::filesystem::remove(out);
  EXPECT_EQ(run("gen " + out.string() + " --event"), 2);
  EXPECT_FALSE(std::filesystem::exists(out)) << "gen ran despite the flag";
}

TEST(TraceCli, MisspeltCheckFlagExitsTwo) {
  EXPECT_EQ(run("check " + kGolden + " --strcit"), 2);
}

TEST(TraceCli, FlagOfAnotherSubcommandExitsTwo) {
  EXPECT_EQ(run("stats " + kGolden + " --vm 3"), 2);
}

TEST(TraceCli, UnknownSubcommandExitsTwo) {
  EXPECT_EQ(run("replay " + kGolden), 2);
}

}  // namespace
