// glap-lint: determinism/safety static analysis over src/, bench/,
// tools/ and tests/support (DESIGN.md §11 documents the rule catalogue
// and suppression syntax). The tokenizer, per-file rules and the
// cross-TU project model live in tools/lint; this binary is argument
// handling and report formatting, mirroring glap-trace.
//
//   glap-lint scan [<root>] [--results] [--max-print N]
//   glap-lint graph [<root>] [--dot] [--results]
//   glap-lint file <path> [--as <rel-path>]
//   glap-lint rules
//
// Exit codes (pinned by DESIGN.md §11 and tests/tools):
//   0  clean — no rule violations
//   1  violations found (each printed as file:line: [rule] message)
//   2  usage error or unreadable input
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "common/cli_number.hpp"
#include "harness/report.hpp"
#include "lint/lint.hpp"

namespace {

using namespace glap;

constexpr int kExitOk = 0;
constexpr int kExitViolations = 1;
constexpr int kExitError = 2;

int usage() {
  std::fprintf(
      stderr,
      "usage: glap-lint <subcommand> [args]\n"
      "  scan [<root>] [--results] [--max-print N]\n"
      "        lint src/ bench/ tools/ tests/support under <root>\n"
      "        (default .); --results mirrors rule-hit counts to\n"
      "        results/lint_stats.json\n"
      "  graph [<root>] [--dot] [--results]\n"
      "        print the src/ module dependency graph against the\n"
      "        tools/lint/layers.txt DAG; --dot emits Graphviz,\n"
      "        --results mirrors it to results/lint_graph.json\n"
      "  file <path> [--as <rel-path>]\n"
      "        lint one file (per-file rules), scoped as if at <rel-path>\n"
      "  rules\n"
      "        list every rule\n");
  return kExitError;
}

void print_findings(const std::vector<lint::Finding>& findings,
                    std::size_t max_print) {
  std::size_t printed = 0;
  for (const auto& f : findings) {
    if (printed++ >= max_print) {
      std::fprintf(stderr, "  ... (%zu more; raise --max-print)\n",
                   findings.size() - max_print);
      break;
    }
    std::fprintf(stderr, "%s:%zu: [%s] %s\n", f.file.c_str(), f.line,
                 f.rule.c_str(), f.message.c_str());
  }
}

int cmd_scan(int argc, char** argv) {
  std::string root = ".";
  bool results = false;
  std::size_t max_print = 50;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--results") == 0) {
      results = true;
    } else if (std::strcmp(argv[i], "--max-print") == 0 && i + 1 < argc) {
      // Throws on a malformed count; main() reports it with exit 2.
      max_print = cli::parse_uint("--max-print", argv[++i], 0,
                                  std::numeric_limits<std::size_t>::max());
    } else if (std::strncmp(argv[i], "--", 2) != 0) {
      root = argv[i];
    } else {
      std::fprintf(stderr, "glap-lint: unknown flag '%s'\n", argv[i]);
      return usage();
    }
  }

  const lint::TreeReport report = lint::lint_tree(root);
  for (const auto& err : report.io_errors)
    std::fprintf(stderr, "glap-lint: %s\n", err.c_str());
  if (!report.io_errors.empty()) return kExitError;

  if (results) {
    harness::BenchReport out("lint_stats",
                             "glap-lint rule hits and suppressions over "
                             "src/, bench/, tools/ and tests/support");
    std::vector<std::vector<std::string>> rows;
    for (const auto& rule : lint::rules()) {
      const auto hit = report.rule_hits.find(rule.name);
      const auto sup = report.rule_suppressions.find(rule.name);
      rows.push_back(
          {rule.name, rule.tier,
           std::to_string(hit == report.rule_hits.end() ? 0 : hit->second),
           std::to_string(sup == report.rule_suppressions.end()
                              ? 0
                              : sup->second)});
    }
    out.add_table("rules", {"rule", "tier", "violations", "suppressions"},
                  rows);
    out.add_headline("files_scanned",
                     std::to_string(report.files_scanned));
    out.add_headline("violations", std::to_string(report.findings.size()));
    out.add_headline("suppressions",
                     std::to_string(report.suppressions_used));
    out.write();
  }

  if (report.findings.empty()) {
    std::printf("glap-lint: OK — %zu files, 0 violations, %zu "
                "suppression(s) in effect\n",
                report.files_scanned, report.suppressions_used);
    return kExitOk;
  }
  print_findings(report.findings, max_print);
  std::fprintf(stderr,
               "glap-lint: FAIL — %zu violation(s) in %zu files (%zu "
               "suppression(s) in effect)\n",
               report.findings.size(), report.files_scanned,
               report.suppressions_used);
  return kExitViolations;
}

// graph: render the observed src/ module dependency graph. Text mode
// lists modules with file counts and every observed edge (with the
// number of inducing #includes and whether layers.txt declares it);
// --dot emits a Graphviz digraph; --results mirrors the module-level
// graph to results/lint_graph.json (drift-checked against EXPERIMENTS.md,
// so only stable fields go in — no per-file data).
int cmd_graph(int argc, char** argv) {
  std::string root = ".";
  bool dot = false;
  bool results = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--dot") == 0) {
      dot = true;
    } else if (std::strcmp(argv[i], "--results") == 0) {
      results = true;
    } else if (std::strncmp(argv[i], "--", 2) != 0) {
      root = argv[i];
    } else {
      std::fprintf(stderr, "glap-lint: unknown flag '%s'\n", argv[i]);
      return usage();
    }
  }

  const lint::TreeReport report = lint::lint_tree(root);
  for (const auto& err : report.io_errors)
    std::fprintf(stderr, "glap-lint: %s\n", err.c_str());
  if (!report.io_errors.empty()) return kExitError;

  if (dot) {
    std::printf("digraph glap_modules {\n  rankdir=BT;\n");
    for (const auto& [mod, files] : report.module_files)
      std::printf("  \"%s\" [label=\"%s\\n%zu files\"];\n", mod.c_str(),
                  mod.c_str(), files);
    for (const auto& e : report.layer_edges)
      std::printf("  \"%s\" -> \"%s\" [label=\"%zu\"%s];\n", e.from.c_str(),
                  e.to.c_str(), e.includes,
                  e.declared ? "" : " color=red style=dashed");
    std::printf("}\n");
  } else {
    std::printf("modules (%zu):\n", report.module_files.size());
    for (const auto& [mod, files] : report.module_files)
      std::printf("  %-10s %zu files\n", mod.c_str(), files);
    std::printf("edges (%zu):\n", report.layer_edges.size());
    for (const auto& e : report.layer_edges)
      std::printf("  %-10s -> %-10s %3zu include(s)%s\n", e.from.c_str(),
                  e.to.c_str(), e.includes,
                  e.declared ? "" : "  UNDECLARED");
  }

  if (results) {
    harness::BenchReport out("lint_graph",
                             "src/ module dependency graph observed by "
                             "glap-lint against tools/lint/layers.txt");
    std::vector<std::vector<std::string>> mod_rows;
    for (const auto& [mod, files] : report.module_files)
      mod_rows.push_back({mod, std::to_string(files)});
    out.add_table("modules", {"module", "files"}, mod_rows);
    std::vector<std::vector<std::string>> edge_rows;
    std::size_t undeclared = 0;
    for (const auto& e : report.layer_edges) {
      edge_rows.push_back({e.from, e.to, std::to_string(e.includes),
                           e.declared ? "yes" : "no"});
      undeclared += e.declared ? 0 : 1;
    }
    out.add_table("layer_edges", {"from", "to", "includes", "declared"},
                  edge_rows);
    out.add_headline("modules", std::to_string(report.module_files.size()));
    out.add_headline("edges", std::to_string(report.layer_edges.size()));
    out.add_headline("undeclared_edges", std::to_string(undeclared));
    out.write();
  }
  return kExitOk;
}

int cmd_file(int argc, char** argv) {
  std::string path;
  std::string as;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--as") == 0 && i + 1 < argc) {
      as = argv[++i];
    } else if (std::strncmp(argv[i], "--", 2) != 0 && path.empty()) {
      path = argv[i];
    } else {
      std::fprintf(stderr, "glap-lint: unexpected argument '%s'\n", argv[i]);
      return usage();
    }
  }
  if (path.empty()) {
    std::fprintf(stderr, "glap-lint: missing file argument\n");
    return usage();
  }
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    std::fprintf(stderr, "glap-lint: cannot open '%s'\n", path.c_str());
    return kExitError;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string rel = as.empty() ? path : as;
  lint::FileReport report = lint::lint_source(rel, buf.str());
  // Report under the real path but keep --as scoping for rule selection.
  for (auto& f : report.findings) f.file = path;
  if (report.findings.empty()) {
    std::size_t used = 0;
    for (const auto& s : report.suppressions) used += s.used ? 1 : 0;
    std::printf("glap-lint: OK — %s, 0 violations, %zu suppression(s)\n",
                path.c_str(), used);
    return kExitOk;
  }
  print_findings(report.findings, 50);
  std::fprintf(stderr, "glap-lint: FAIL — %zu violation(s) in %s\n",
               report.findings.size(), path.c_str());
  return kExitViolations;
}

int cmd_rules() {
  std::printf("%-20s %-12s %s\n", "rule", "tier", "summary");
  for (const auto& r : lint::rules())
    std::printf("%-20s %-12s %s\n", r.name, r.tier, r.summary);
  std::printf(
      "\nsuppress with: // glap-lint: allow(<rule>): <justification>\n"
      "               // glap-lint: allow-file(<rule>): <justification>\n");
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "scan") return cmd_scan(argc, argv);
    if (cmd == "graph") return cmd_graph(argc, argv);
    if (cmd == "file") return cmd_file(argc, argv);
    if (cmd == "rules") return cmd_rules();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "glap-lint: %s\n", e.what());
    return kExitError;
  }
  std::fprintf(stderr, "glap-lint: unknown subcommand '%s'\n", cmd.c_str());
  return usage();
}
