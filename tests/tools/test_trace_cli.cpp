// glap-trace CLI: each subcommand accepts only its own flags, so a typo or
// a flag meant for another subcommand is a usage error (exit 2) instead
// of being silently ignored; and `convert` turns each committed golden
// into its twin in the other encoding byte for byte.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>

namespace {

const std::string kBin = GLAP_TRACE_BIN;
const std::string kGoldenDir =
    std::string(GLAP_TESTS_DIR) + "/integration/golden/";
const std::string kGolden = kGoldenDir + "trace_8pm.jsonl";

int run(const std::string& args) {
  const int status =
      std::system((kBin + " " + args + " >/dev/null 2>&1").c_str());
  EXPECT_NE(status, -1);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

TEST(TraceCli, ConvertTurnsEachGoldenIntoItsTwinByteForByte) {
  for (const std::string name : {"trace_8pm", "trace_allkinds"}) {
    const std::string golden = kGoldenDir + name;
    const std::string out =
        (std::filesystem::path(::testing::TempDir()) / ("glap_convert_" + name))
            .string();
    ASSERT_EQ(run("convert " + golden + ".gtb " + out + ".jsonl"), 0) << name;
    EXPECT_EQ(slurp(out + ".jsonl"), slurp(golden + ".jsonl")) << name;
    ASSERT_EQ(run("convert " + golden + ".jsonl " + out + ".gtb --to gtb"), 0)
        << name;
    EXPECT_EQ(slurp(out + ".gtb"), slurp(golden + ".gtb")) << name;
    std::filesystem::remove(out + ".jsonl");
    std::filesystem::remove(out + ".gtb");
  }
}

// A kind, op or vocabulary name (or GTB code) the schema lacks is a
// malformed trace — exit 2 — not a violation the checker weighs.
TEST(TraceCli, CheckRejectsNamesAndCodesOutsideTheSchema) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "glap_trace_bad")
          .string();
  const std::string relearn = "{\"ev\":\"relearn\",\"round\":1}\n";
  for (const std::string bad :
       {R"({"ev":"fault","round":1,"pm":2,"kind":3,"value":0.5})",
        R"({"ev":"net","round":1,"op":"teleport","src":0,"dst":1,"msg":9})",
        R"({"ev":"net","round":1,"op":"send","src":0,"dst":1,"msg":9,)"
        R"("bytes":8,"channel":"carrier-pigeon"})",
        R"({"ev":"net","round":1,"op":"drop","src":0,"dst":1,"msg":9,)"
        R"("reason":"gremlins"})",
        R"({"ev":"net","round":1,"op":"queue","link":"warp","id":0,)"
        R"("bytes":9})",
        R"({"ev":"activity","round":1,"pm":3,"awake":true,)"
        R"("reason":"cosmic-rays"})"}) {
    std::ofstream(path + ".jsonl") << bad << '\n' << relearn;
    EXPECT_EQ(run("check " + path + ".jsonl"), 2) << bad;
  }
  // A GTB record with the retired kind code 4.
  std::string gtb = slurp(kGoldenDir + "trace_8pm.gtb").substr(0, 8);
  gtb += std::string("\x09\x00\x00\x00\x04", 5) + std::string(8, '\0');
  std::ofstream(path + ".gtb", std::ios::binary) << gtb;
  EXPECT_EQ(run("check " + path + ".gtb"), 2);
  std::filesystem::remove(path + ".jsonl");
  std::filesystem::remove(path + ".gtb");
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

// A numeric flag must parse as a whole token and fit its range: "-1"
// used to wrap --rounds to 2^32 - 1 rounds, and "abc" read as 0.
TEST(TraceCli, MalformedNumericGenFlagExitsTwoBeforeRunning) {
  const std::filesystem::path out =
      std::filesystem::path(::testing::TempDir()) / "glap_trace_num.jsonl";
  for (const std::string bad :
       {"--pms abc", "--pms 0", "--ratio 2x", "--warmup -5", "--seed 1e3",
        "--loss 101", "--epsilon-pct 1.5", "--sample-net 150",
        "--sample-shuffle nan", "--idle-rounds 4294967296",
        "--rounds -1"}) {
    std::filesystem::remove(out);
    EXPECT_EQ(run("gen " + out.string() + " --pms 4 --warmup 1 " + bad), 2)
        << bad;
    EXPECT_FALSE(std::filesystem::exists(out)) << "gen ran despite " << bad;
  }
}

TEST(TraceCli, MalformedAnalysisCountExitsTwo) {
  EXPECT_EQ(run("lineage " + kGolden + " --top -3"), 2);
  EXPECT_EQ(run("lineage " + kGolden + " --vm x"), 2);
  EXPECT_EQ(run("episodes " + kGolden + " --min-rounds 1.5"), 2);
  EXPECT_EQ(run("check " + kGolden + " --max-print -1"), 2);
  EXPECT_EQ(run("lineage " + kGolden + " --top 3 --vm 0"), 0);
}

TEST(TraceCli, MisspeltCheckFlagExitsTwo) {
  EXPECT_EQ(run("check " + kGolden + " --strcit"), 2);
}

TEST(TraceCli, FlagOfAnotherSubcommandExitsTwo) {
  EXPECT_EQ(run("stats " + kGolden + " --vm 3"), 2);
}

// A trace or flight dump on a full disk fails gen instead of leaving a
// truncated file behind exit 0.
TEST(TraceCli, GenToAFullDiskFails) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const std::string small = " --pms 8 --warmup 20 --rounds 8";
  EXPECT_EQ(run("gen /dev/full" + small), 2);
  const std::filesystem::path trace =
      std::filesystem::path(::testing::TempDir()) / "glap_trace_full.jsonl";
  EXPECT_EQ(run("gen " + trace.string() + small + " --flight-dump /dev/full"),
            2);
  std::filesystem::remove(trace);
}

TEST(TraceCli, UnknownSubcommandExitsTwo) {
  EXPECT_EQ(run("replay " + kGolden), 2);
}

}  // namespace
