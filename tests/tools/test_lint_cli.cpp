// End-to-end glap-lint CLI: the checked-in tree lints clean (exit 0), a
// seeded violation flips the scan to exit 1, and unreadable input exits 2.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <sys/wait.h>

#include "lint/lint.hpp"

namespace {

int run(const std::string& cmd) {
  const int status = std::system((cmd + " >/dev/null 2>&1").c_str());
  EXPECT_NE(status, -1);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string capture(const std::string& cmd) {
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  std::string out;
  char buf[256];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
  pclose(pipe);
  return out;
}

const std::string kBin = GLAP_LINT_BIN;

TEST(LintCli, CheckedInTreeLintsClean) {
  EXPECT_EQ(run(kBin + " scan " + GLAP_SOURCE_DIR), 0)
      << "the repo tree has lint violations; run `glap-lint scan .` for "
         "the list";
}

TEST(LintCli, SeededViolationFlipsTheScanToExitOne) {
  namespace fs = std::filesystem;
  const fs::path root =
      fs::path(::testing::TempDir()) / "glap_lint_seeded_tree";
  fs::remove_all(root);
  fs::create_directories(root / "src" / "sim");
  {
    std::ofstream bad(root / "src" / "sim" / "bad.cpp");
    bad << "#include <cstdlib>\n"
           "int draw() { return std::rand(); }\n";
  }
  EXPECT_EQ(run(kBin + " scan " + root.string()), 1);

  // The same hazard with a justified allow scans clean again.
  {
    std::ofstream ok(root / "src" / "sim" / "bad.cpp");
    ok << "#include <cstdlib>\n"
          "// glap-lint: allow(banned-random): seeded-fixture exemption\n"
          "int draw() { return std::rand(); }\n";
  }
  EXPECT_EQ(run(kBin + " scan " + root.string()), 0);
  fs::remove_all(root);
}

TEST(LintCli, MissingInputsExitTwo) {
  namespace fs = std::filesystem;
  const fs::path empty =
      fs::path(::testing::TempDir()) / "glap_lint_empty_tree";
  fs::remove_all(empty);
  fs::create_directories(empty);
  EXPECT_EQ(run(kBin + " scan " + empty.string()), 2);  // no scan roots
  fs::remove_all(empty);
  EXPECT_EQ(run(kBin + " file /nonexistent/no_such_file.cpp"), 2);
  EXPECT_EQ(run(kBin), 2);                 // no subcommand
  EXPECT_EQ(run(kBin + " frobnicate"), 2); // unknown subcommand
}

TEST(LintCli, FileSubcommandHonoursAsScoping) {
  namespace fs = std::filesystem;
  const fs::path file =
      fs::path(::testing::TempDir()) / "glap_lint_scope_probe.cpp";
  {
    std::ofstream out(file);
    out << "#include <unordered_set>\n"
           "int f(const std::unordered_set<int>& s) {\n"
           "  int t = 0;\n"
           "  for (int v : s) t += v;\n"
           "  return t;\n"
           "}\n";
  }
  // Unordered iteration is only a violation in protocol code.
  EXPECT_EQ(run(kBin + " file " + file.string()), 0);
  EXPECT_EQ(run(kBin + " file " + file.string() + " --as src/sim/probe.cpp"),
            1);
  fs::remove(file);
}

TEST(LintCli, RulesSubcommandListsTheFullCatalogue) {
  const std::string out = capture(kBin + " rules");
  for (const auto& r : glap::lint::rules())
    EXPECT_NE(out.find(r.name), std::string::npos) << r.name;
}

// The layering DAG is a checked-in contract: the file must exist (else
// the rule silently self-disables) and the real tree's observed module
// graph must be fully declared.
TEST(LintCli, LayersFileExistsAndRealGraphIsFullyDeclared) {
  std::ifstream layers(std::string(GLAP_SOURCE_DIR) +
                       "/tools/lint/layers.txt");
  ASSERT_TRUE(layers.is_open())
      << "tools/lint/layers.txt is gone — the layering rule is a no-op";
  const std::string out =
      capture(kBin + " graph " + GLAP_SOURCE_DIR + " 2>/dev/null");
  EXPECT_NE(out.find("modules ("), std::string::npos);
  EXPECT_NE(out.find("edges ("), std::string::npos);
  EXPECT_EQ(out.find("UNDECLARED"), std::string::npos)
      << "observed module edges missing from layers.txt:\n" << out;
}

TEST(LintCli, GraphDotModeEmitsGraphviz) {
  const std::string out =
      capture(kBin + " graph " + GLAP_SOURCE_DIR + " --dot 2>/dev/null");
  EXPECT_NE(out.find("digraph glap_modules"), std::string::npos);
  EXPECT_NE(out.find("\"sim\" -> \"common\""), std::string::npos);
}

// --max-print takes a count: the whole token must be a non-negative
// integer. "-1" used to wrap into "... (5 more)" for 4 findings.
TEST(LintCli, MaxPrintRejectsMalformedCounts) {
  const std::string fail =
      std::string(GLAP_TESTS_DIR) + "/fixtures/lint/layering/fail";
  for (const std::string bad : {"-1", "abc", "5x", ""})
    EXPECT_EQ(run(kBin + " scan " + fail + " --max-print '" + bad + "'"), 2)
        << "'" << bad << "'";
  const std::string out =
      capture(kBin + " scan " + fail + " --max-print 1 2>&1");
  EXPECT_NE(out.find("... (3 more; raise --max-print)"), std::string::npos)
      << out;
}

// The incremental scan cache is gone; its flag is a usage error now.
TEST(LintCli, CacheFlagIsUnknown) {
  EXPECT_EQ(run(kBin + " scan " + GLAP_SOURCE_DIR + " --cache lint.cache"),
            2);
}

}  // namespace
