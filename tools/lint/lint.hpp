// glap-lint core: a dependency-free, tokenizer-based static analyzer
// enforcing the project's determinism and safety rules over src/, bench/,
// tools/ and tests/support (DESIGN.md §11 documents the full catalogue).
//
// The engine's headline claim — every run is a pure function of
// (config, seed) — survives only while every source of nondeterminism stays
// quarantined inside src/common (Rng for randomness, PhaseProfiler for
// wall clocks). Nothing in the compiler enforces that, so this pass does:
// it lexes each file (comments and string literals stripped), applies
// per-directory rules, and honours explicit, justified suppressions.
//
// Two tiers of analysis:
//   per-file   lint_source() — one token stream at a time (PR 5 rules)
//   project    tools/lint/model.{hpp,cpp} — the include graph and the
//              provided/referenced names joined across files: layering,
//              include-hygiene
//
// Suppression syntax (justification is mandatory):
//   // glap-lint: allow(<rule>): <why this occurrence is safe>
//     — on the violating line or the line directly above it
//   // glap-lint: allow-file(<rule>): <why this whole file is exempt>
//     — anywhere in the file (conventionally the top comment block)
// A suppression that matches nothing, names an unknown rule, or lacks a
// justification is itself reported under the "suppression" rule, so the
// allow inventory can only grow deliberately. Allows naming a project
// rule are resolved during tree scans (lint_tree/lint_project), where the
// cross-file findings exist; `glap-lint file` parses but ignores them.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace glap::lint {

/// One rule violation at a source location.
struct Finding {
  std::string file;     ///< path as reported (repo-relative under scan)
  std::size_t line = 0; ///< 1-based
  std::string rule;     ///< rule name, e.g. "wall-clock"
  std::string message;  ///< human-readable diagnostic
};

/// One `glap-lint: allow(...)` comment found in a file.
struct Suppression {
  std::size_t line = 0;
  std::string rule;
  std::string reason;
  bool file_wide = false;  ///< allow-file(...) vs line-scoped allow(...)
  bool used = false;       ///< matched at least one would-be finding
};

/// Static rule metadata (also rendered by `glap-lint rules`).
struct RuleInfo {
  const char* name;
  const char* tier;     ///< "determinism", "perf", "project" or "meta"
  const char* summary;  ///< one-line description
};

/// Every rule the analyzer knows, in stable display order.
const std::vector<RuleInfo>& rules();

/// True iff `name` names a known rule (suppression targets must).
bool is_known_rule(std::string_view name);

/// True iff `name` is a project-tier rule resolved across files during
/// tree scans (layering, include-hygiene).
/// Suppressions targeting these are matched — and checked for staleness —
/// at the tree level, not inside lint_source.
bool is_project_rule(std::string_view name);

/// Result of linting one file.
struct FileReport {
  std::vector<Finding> findings;         ///< unsuppressed violations
  std::vector<Suppression> suppressions; ///< every allow comment seen
};

/// Lints `content` as if it lived at repo-relative `rel_path`; the path
/// drives directory-scoped rules (protocol dirs, Q-kernel files, the
/// src/common whitelists). Pure function of its inputs. Runs the
/// per-file rules only — project rules need the whole tree.
FileReport lint_source(std::string_view rel_path, std::string_view content);

/// One observed src/ module dependency edge. Produced by the project
/// pass (tools/lint/model.cpp) and rendered by `glap-lint graph`.
struct LayerEdge {
  std::string from;
  std::string to;
  std::size_t includes = 0;  ///< how many #include directives induce it
  bool declared = false;     ///< present in tools/lint/layers.txt
};

/// Aggregate over a tree scan.
struct TreeReport {
  std::vector<Finding> findings;  ///< across files, in sorted path order
  std::size_t files_scanned = 0;
  std::size_t suppressions_used = 0;
  std::map<std::string, std::size_t> rule_hits;         ///< findings per rule
  std::map<std::string, std::size_t> rule_suppressions; ///< used allows
  std::vector<std::string> io_errors;  ///< unreadable files / missing dirs
  // Project-model outputs (rendered by `glap-lint graph`).
  std::vector<LayerEdge> layer_edges;               ///< sorted (from, to)
  std::map<std::string, std::size_t> module_files;  ///< src module -> files
};

/// Walks `<root>/src`, `<root>/bench`, `<root>/tools` and
/// `<root>/tests/support` (every .cpp, .hpp, .h, in sorted path order),
/// lints each file, then runs the project rules over the joined
/// summaries. The layering DAG is read from `<root>/tools/lint/layers.txt`
/// when present (absent: the layering rule is skipped). Missing scan
/// roots or unreadable files are reported in `io_errors`, never thrown.
TreeReport lint_tree(const std::string& root);

/// An in-memory file for lint_project (fixture trees in tests).
struct ProjectFile {
  std::string path;     ///< repo-relative, '/'-separated
  std::string content;
};

/// The full pipeline — per-file rules, project rules, suppression
/// resolution — over an in-memory tree. `layers_text` plays the role of
/// tools/lint/layers.txt ("" = absent). lint_tree is this plus I/O.
TreeReport lint_project(const std::vector<ProjectFile>& files,
                        std::string_view layers_text);

}  // namespace glap::lint
