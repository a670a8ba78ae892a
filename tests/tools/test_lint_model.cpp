// Tests for glap-lint's cross-TU project model (tools/lint/model.*): the
// per-file summarizer, the joined project pass, and the two project
// rules. The rule-level tests are fixture trees — each project rule has
// pass/, fail/ and suppressed/ directories shaped like a miniature repo
// (src/<module>/..., optionally tools/lint/layers.txt) and run through
// the same lint_project pipeline `glap-lint scan` uses.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "lint/lint.hpp"
#include "lint/model.hpp"

namespace glap::lint {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture: " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Loads a fixture tree into lint_project inputs: every .cpp/.hpp/.h
/// becomes a ProjectFile keyed by its tree-relative path, and the tree's
/// tools/lint/layers.txt (if any) becomes the layers text.
struct FixtureTree {
  std::vector<ProjectFile> files;
  std::string layers;
};

FixtureTree load_tree(const std::string& rule, const std::string& which) {
  const fs::path root =
      fs::path(GLAP_TESTS_DIR) / "fixtures" / "lint" / rule / which;
  FixtureTree tree;
  EXPECT_TRUE(fs::is_directory(root)) << "missing fixture tree: " << root;
  std::vector<fs::path> paths;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext == ".cpp" || ext == ".hpp" || ext == ".h")
      paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  for (const fs::path& p : paths)
    tree.files.push_back(
        {fs::relative(p, root).generic_string(), read_file(p)});
  const fs::path layers = root / "tools" / "lint" / "layers.txt";
  if (fs::exists(layers)) tree.layers = read_file(layers);
  return tree;
}

class ProjectRuleTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ProjectRuleTest, PassTreeIsClean) {
  const FixtureTree tree = load_tree(GetParam(), "pass");
  const TreeReport report = lint_project(tree.files, tree.layers);
  for (const Finding& f : report.findings)
    ADD_FAILURE() << f.file << ":" << f.line << " [" << f.rule << "] "
                  << f.message;
}

TEST_P(ProjectRuleTest, FailTreeFlagsOnlyThisRule) {
  const FixtureTree tree = load_tree(GetParam(), "fail");
  const TreeReport report = lint_project(tree.files, tree.layers);
  ASSERT_FALSE(report.findings.empty());
  for (const Finding& f : report.findings) {
    EXPECT_EQ(f.rule, GetParam()) << f.file << ":" << f.line << " "
                                  << f.message;
    EXPECT_GT(f.line, 0u);
    EXPECT_FALSE(f.message.empty());
  }
}

TEST_P(ProjectRuleTest, SuppressedTreeIsCleanAndUsesItsAllows) {
  const FixtureTree tree = load_tree(GetParam(), "suppressed");
  const TreeReport report = lint_project(tree.files, tree.layers);
  for (const Finding& f : report.findings)
    ADD_FAILURE() << f.file << ":" << f.line << " [" << f.rule << "] "
                  << f.message;
  EXPECT_GE(report.suppressions_used, 1u)
      << "suppressed fixture's allow matched nothing";
  EXPECT_GE(report.rule_suppressions.count(GetParam()), 1u);
}

INSTANTIATE_TEST_SUITE_P(ProjectRules, ProjectRuleTest,
                         ::testing::Values("layering", "include-hygiene"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

// The fail fixtures are built to exercise *every* failure mode of their
// rule; pin the specific shapes so a regression in one detector cannot
// hide behind the others still firing.
TEST(ProjectRules, LayeringFailTreeCoversAllFourFindingShapes) {
  const FixtureTree tree = load_tree("layering", "fail");
  const TreeReport report = lint_project(tree.files, tree.layers);
  bool undeclared = false, stale = false, missing = false, cycle = false;
  for (const Finding& f : report.findings) {
    if (f.message.find("does not declare") != std::string::npos)
      undeclared = true;
    if (f.message.find("stale declaration") != std::string::npos)
      stale = true;
    if (f.message.find("no entry") != std::string::npos) missing = true;
    if (f.message.find("dependency cycle") != std::string::npos) cycle = true;
    // Findings about layers.txt itself anchor there, not at a source file.
    if (f.message.find("cycle") != std::string::npos) {
      EXPECT_EQ(f.file, "tools/lint/layers.txt");
    }
  }
  EXPECT_TRUE(undeclared);
  EXPECT_TRUE(stale);
  EXPECT_TRUE(missing);
  EXPECT_TRUE(cycle);
}

// ---- summarize_source ---------------------------------------------------

TEST(SummarizeSource, ExtractsModuleHeaderAndIncludes) {
  const FileSummary s = summarize_source(
      "src/overlay/x.hpp",
      "#pragma once\n#include \"common/rng.hpp\"\n#include <vector>\n");
  EXPECT_EQ(s.module, "overlay");
  EXPECT_TRUE(s.is_header);
  EXPECT_TRUE(s.has_pragma_once);
  ASSERT_EQ(s.includes.size(), 1u);  // system includes are ignored
  EXPECT_EQ(s.includes[0].path, "common/rng.hpp");
  EXPECT_EQ(s.includes[0].line, 2u);
}

TEST(SummarizeSource, NonSrcPathsHaveNoModule) {
  EXPECT_EQ(summarize_source("tools/lint/lint.cpp", "int x;\n").module, "");
  EXPECT_EQ(summarize_source("bench/bench_rng.cpp", "int x;\n").module, "");
  EXPECT_EQ(summarize_source("src/sim/engine.cpp", "int x;\n").module,
            "sim");
}

// Enum names and their enumerators are provided names (an include that
// only supplies `Kind::kB` is still used); a forward declaration provides
// its name alone.
TEST(SummarizeSource, EnumExtractionHandlesScopedUnderlyingAndValues) {
  const FileSummary s = summarize_source(
      "src/common/e.hpp",
      "#pragma once\n"
      "enum class Kind : unsigned char { kA = 0, kB, kC = 7 };\n"
      "enum Flags { kX, kY };\n"
      "enum class Fwd : int;\n");
  for (const char* name : {"Kind", "kA", "kB", "kC", "Flags", "kX", "kY",
                           "Fwd"})
    EXPECT_TRUE(std::binary_search(s.provided.begin(), s.provided.end(),
                                   std::string(name)))
        << name;
  EXPECT_FALSE(std::binary_search(s.provided.begin(), s.provided.end(),
                                  std::string("unsigned")));
}

// Class names and their method names are provided names, whatever the
// method's qualifiers; include-hygiene relies on both.
TEST(SummarizeSource, ClassAndMethodNamesAreProvided) {
  const FileSummary s = summarize_source("src/sim/p.hpp",
                                         "#pragma once\n"
                                         "class P final : public sim::Base {\n"
                                         " public:\n"
                                         "  P(int seed) : seed_(seed) {}\n"
                                         "  int peek() const { return 0; }\n"
                                         "  static int make();\n"
                                         " private:\n"
                                         "  int seed_;\n"
                                         "};\n");
  for (const char* name : {"P", "peek", "make"})
    EXPECT_TRUE(std::binary_search(s.provided.begin(), s.provided.end(),
                                   std::string(name)))
        << name;
}

// ---- analyze_project ----------------------------------------------------

TEST(AnalyzeProject, IncludeHygieneSeesTransitiveProvides) {
  // u.cpp includes a.hpp but only uses b_fn, which a.hpp pulls in from
  // b.hpp — the closure makes that include legitimate.
  const std::vector<ProjectFile> files = {
      {"src/common/b.hpp", "#pragma once\ninline int b_fn() { return 1; }\n"},
      {"src/common/a.hpp",
       "#pragma once\n#include \"common/b.hpp\"\n"
       "inline int a_fn() { return b_fn(); }\n"},
      {"src/sim/u.cpp",
       "#include \"common/a.hpp\"\nint u() { return b_fn(); }\n"},
  };
  const TreeReport report = lint_project(files, "");
  for (const Finding& f : report.findings)
    ADD_FAILURE() << f.file << ":" << f.line << " " << f.message;
}

TEST(AnalyzeProject, ModuleGraphCountsEdgesAndDeclarations) {
  const std::vector<ProjectFile> files = {
      {"src/common/c.hpp", "#pragma once\ninline int c_fn() { return 1; }\n"},
      {"src/sim/a.cpp", "#include \"common/c.hpp\"\nint a() { return c_fn(); }\n"},
      {"src/sim/b.cpp", "#include \"common/c.hpp\"\nint b() { return c_fn(); }\n"},
  };
  const TreeReport report = lint_project(files, "common ->\nsim -> common\n");
  ASSERT_EQ(report.layer_edges.size(), 1u);
  EXPECT_EQ(report.layer_edges[0].from, "sim");
  EXPECT_EQ(report.layer_edges[0].to, "common");
  EXPECT_EQ(report.layer_edges[0].includes, 2u);
  EXPECT_TRUE(report.layer_edges[0].declared);
  EXPECT_EQ(report.module_files.at("sim"), 2u);
  EXPECT_EQ(report.module_files.at("common"), 1u);
  EXPECT_TRUE(report.findings.empty());
}

TEST(AnalyzeProject, EmptyLayersTextSkipsTheLayeringRule) {
  const std::vector<ProjectFile> files = {
      {"src/common/c.hpp", "#pragma once\ninline int c_fn() { return 1; }\n"},
      {"src/sim/a.cpp", "#include \"common/c.hpp\"\nint a() { return c_fn(); }\n"},
  };
  const TreeReport report = lint_project(files, "");
  EXPECT_TRUE(report.findings.empty());
  ASSERT_EQ(report.layer_edges.size(), 1u);  // graph still observed
  EXPECT_FALSE(report.layer_edges[0].declared);
}

// Stale project-rule allows surface at tree scope (lint_source defers
// them because the findings they could match only exist project-wide).
TEST(AnalyzeProject, StaleProjectAllowIsReportedAtTreeScope) {
  const std::string code =
      "// glap-lint: allow(include-hygiene): nothing here to excuse\n"
      "int x = 0;\n";
  EXPECT_TRUE(lint_source("src/sim/x.cpp", code).findings.empty());
  const TreeReport report = lint_project({{"src/sim/x.cpp", code}}, "");
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].rule, "suppression");
  EXPECT_EQ(report.findings[0].line, 1u);
}

}  // namespace
}  // namespace glap::lint
