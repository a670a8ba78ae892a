// Fixture-driven unit tests for every glap-lint rule: each rule has a
// pass fixture (0 findings), a fail fixture (>=1 finding, all under that
// rule), and a suppressed fixture (same hazard excused by a justified
// allow comment). A completeness test pins that the fixture set can
// never silently fall behind the rule catalogue.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "lint/lint.hpp"

namespace glap::lint {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture: " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Each rule's fixtures are linted *as if* they lived at a path where the
// rule is in force — e.g. unordered-iteration only fires in protocol
// dirs, float-narrowing only in Q-kernel files.
const std::map<std::string, std::string>& as_path_for_rule() {
  static const std::map<std::string, std::string> kAsPath = {
      {"wall-clock", "bench/fixture.cpp"},
      {"banned-random", "src/core/fixture.cpp"},
      {"unordered-iteration", "src/sim/fixture.cpp"},
      {"pointer-order", "src/sim/fixture.cpp"},
      {"static-mutable", "src/overlay/fixture.cpp"},
      {"trace-kind", "src/common/fixture.cpp"},
      {"checks-guard", "src/common/fixture.cpp"},
      {"float-narrowing", "src/qlearn/fixture.cpp"},
      {"hot-alloc", "src/sim/fixture.cpp"},
      {"suppression", "bench/fixture.cpp"},
  };
  return kAsPath;
}

FileReport lint_fixture(const std::string& rule, const std::string& which) {
  const std::string path =
      std::string(GLAP_TESTS_DIR) + "/fixtures/lint/" + rule + "/" + which +
      ".cpp";
  return lint_source(as_path_for_rule().at(rule), read_file(path));
}

class LintRuleTest : public ::testing::TestWithParam<std::string> {};

TEST_P(LintRuleTest, PassFixtureIsClean) {
  const FileReport report = lint_fixture(GetParam(), "pass");
  for (const Finding& f : report.findings)
    ADD_FAILURE() << f.file << ":" << f.line << " [" << f.rule
                  << "] " << f.message;
}

TEST_P(LintRuleTest, FailFixtureFlagsOnlyThisRule) {
  const FileReport report = lint_fixture(GetParam(), "fail");
  ASSERT_FALSE(report.findings.empty());
  for (const Finding& f : report.findings) {
    EXPECT_EQ(f.rule, GetParam()) << f.message;
    EXPECT_GT(f.line, 0u);
    EXPECT_FALSE(f.message.empty());
  }
}

TEST_P(LintRuleTest, SuppressedFixtureIsCleanAndUsesItsAllows) {
  const FileReport report = lint_fixture(GetParam(), "suppressed");
  for (const Finding& f : report.findings)
    ADD_FAILURE() << f.file << ":" << f.line << " [" << f.rule
                  << "] " << f.message;
  std::size_t used = 0;
  for (const Suppression& s : report.suppressions) {
    EXPECT_FALSE(s.reason.empty()) << "allow without justification";
    if (s.used) ++used;
  }
  EXPECT_GE(used, 1u) << "suppressed fixture's allow matched nothing";
}

INSTANTIATE_TEST_SUITE_P(
    AllRules, LintRuleTest,
    ::testing::Values("wall-clock", "banned-random", "unordered-iteration",
                      "pointer-order", "static-mutable", "trace-kind",
                      "checks-guard", "float-narrowing", "hot-alloc",
                      "suppression"),
    [](const auto& info) {
      std::string name = info.param;
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST(LintRules, EveryCatalogueRuleHasAllThreeFixtures) {
  namespace fs = std::filesystem;
  for (const RuleInfo& r : rules()) {
    if (is_project_rule(r.name)) {
      // Project rules use fixture *trees* (driven by test_lint_model.cpp):
      // pass/, fail/ and suppressed/ directories shaped like a mini repo.
      for (const char* which : {"pass", "fail", "suppressed"}) {
        const fs::path dir = fs::path(GLAP_TESTS_DIR) / "fixtures" / "lint" /
                             r.name / which;
        EXPECT_TRUE(fs::is_directory(dir))
            << "missing fixture tree: " << dir;
      }
      continue;
    }
    EXPECT_TRUE(as_path_for_rule().count(r.name))
        << "rule " << r.name << " has no fixture mapping — add "
        << "tests/fixtures/lint/" << r.name << "/{pass,fail,suppressed}.cpp";
    for (const char* which : {"pass", "fail", "suppressed"}) {
      const std::string path = std::string(GLAP_TESTS_DIR) +
                               "/fixtures/lint/" + r.name + "/" + which +
                               ".cpp";
      std::ifstream in(path);
      EXPECT_TRUE(in.is_open()) << "missing fixture: " << path;
    }
  }
}

// Directory scoping: the same hazard is a violation in protocol code and
// silent outside it.
TEST(LintRules, UnorderedIterationOnlyFiresInProtocolDirs) {
  const std::string code =
      "#include <unordered_map>\n"
      "int f(const std::unordered_map<int,int>& m) {\n"
      "  int t = 0;\n"
      "  for (const auto& [k, v] : m) t += v;\n"
      "  return t;\n"
      "}\n";
  EXPECT_FALSE(lint_source("src/sim/x.cpp", code).findings.empty());
  EXPECT_FALSE(lint_source("src/baselines/x.cpp", code).findings.empty());
  EXPECT_TRUE(lint_source("tools/x.cpp", code).findings.empty());
  EXPECT_TRUE(lint_source("src/harness/x.cpp", code).findings.empty());
}

TEST(LintRules, WallClockWhitelistCoversProfilerAndRngOnly) {
  const std::string code =
      "#include <chrono>\n"
      "double t() { return std::chrono::steady_clock::now()"
      ".time_since_epoch().count(); }\n";
  EXPECT_TRUE(lint_source("src/common/profiler.cpp", code).findings.empty());
  EXPECT_TRUE(lint_source("src/common/rng.cpp", code).findings.empty());
  EXPECT_FALSE(lint_source("src/common/metrics.cpp", code).findings.empty());
  EXPECT_FALSE(lint_source("src/sim/engine.cpp", code).findings.empty());
}

TEST(LintRules, FloatNarrowingCoversQtablePairButNotOtherCore) {
  const std::string code = "float q = 0.0f;\n";
  EXPECT_FALSE(
      lint_source("src/core/qtable_pair.cpp", code).findings.empty());
  EXPECT_FALSE(lint_source("src/qlearn/qtable.hpp", code).findings.empty());
  EXPECT_TRUE(lint_source("src/core/rewards.cpp", code).findings.empty());
}

// hot-alloc is scoped twice: by directory (src/sim, src/core) and by
// scope (round-loop functions only); a reserve anywhere in the file
// excuses push_back growth.
TEST(LintRules, HotAllocFiresOnlyInRoundLoopScopesOfSimAndCore) {
  const std::string hot =
      "#include <vector>\n"
      "void learning_cycle(std::vector<int>& v) { v.push_back(1); }\n";
  EXPECT_FALSE(lint_source("src/sim/x.cpp", hot).findings.empty());
  EXPECT_FALSE(lint_source("src/core/x.cpp", hot).findings.empty());
  EXPECT_TRUE(lint_source("src/overlay/x.cpp", hot).findings.empty());
  EXPECT_TRUE(lint_source("src/harness/x.cpp", hot).findings.empty());
  const std::string cold =
      "#include <vector>\n"
      "void install(std::vector<int>& v) { v.push_back(1); }\n";
  EXPECT_TRUE(lint_source("src/sim/x.cpp", cold).findings.empty());
  const std::string reserved =
      "#include <vector>\n"
      "void prime(std::vector<int>& v) { v.reserve(8); }\n"
      "void learning_cycle(std::vector<int>& v) { v.push_back(1); }\n";
  EXPECT_TRUE(lint_source("src/sim/x.cpp", reserved).findings.empty());
}

// A stale allow is itself a finding: deleting the hazard without deleting
// its excuse shrinks the allow inventory by force.
TEST(LintRules, StaleAllowIsReportedUnderTheSuppressionRule) {
  const std::string code =
      "// glap-lint: allow(wall-clock): excuse with nothing left to "
      "excuse\n"
      "int x = 0;\n";
  const FileReport report = lint_source("src/sim/x.cpp", code);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].rule, "suppression");
  EXPECT_EQ(report.findings[0].line, 1u);
}

TEST(LintRules, RuleCatalogueTiersAreStable) {
  std::map<std::string, std::string> tier;
  for (const RuleInfo& r : rules()) tier[r.name] = r.tier;
  EXPECT_EQ(tier.size(), 13u);
  EXPECT_EQ(tier.at("wall-clock"), "determinism");
  EXPECT_EQ(tier.at("banned-random"), "determinism");
  EXPECT_EQ(tier.at("unordered-iteration"), "determinism");
  EXPECT_EQ(tier.at("pointer-order"), "determinism");
  EXPECT_EQ(tier.at("static-mutable"), "determinism");
  EXPECT_EQ(tier.at("trace-kind"), "safety");
  EXPECT_EQ(tier.at("checks-guard"), "safety");
  EXPECT_EQ(tier.at("float-narrowing"), "safety");
  EXPECT_EQ(tier.at("table-sync"), "safety");
  EXPECT_EQ(tier.at("hot-alloc"), "perf");
  EXPECT_EQ(tier.at("layering"), "project");
  EXPECT_EQ(tier.at("include-hygiene"), "project");
  EXPECT_EQ(tier.at("suppression"), "meta");
  EXPECT_TRUE(is_known_rule("wall-clock"));
  EXPECT_FALSE(is_known_rule("wallclock"));
  // Project rules resolve suppressions at tree scope; per-file rules don't.
  EXPECT_TRUE(is_project_rule("layering"));
  EXPECT_TRUE(is_project_rule("table-sync"));
  EXPECT_TRUE(is_project_rule("include-hygiene"));
  EXPECT_FALSE(is_project_rule("hot-alloc"));
}

}  // namespace
}  // namespace glap::lint
