// Cross-TU project model for glap-lint. The per-file rules in lint.cpp
// see one token stream at a time; the properties that actually carry the
// determinism contract — module layering and the pinned enum↔name/byte
// tables shared by GTB, the trace checker and the wake scheduler — span
// translation units. This layer
// summarizes each file once (`summarize_source`, pure and cacheable) and
// then runs the project-scoped rules over the joined summaries
// (`analyze_project`):
//
//   layering         src/ module include edges must match the checked-in
//                    tools/lint/layers.txt DAG (undeclared edges, stale
//                    declared edges and cycles are findings)
//   table-sync       every enumerator of a registered pinned enum must
//                    appear in the renderer/parser/code tables that
//                    serialize it (trace_format.cpp, tracing.cpp, ...)
//   include-hygiene  quoted project includes must provide at least one
//                    name the includer references (transitively), and
//                    project headers must carry #pragma once
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "lint/lint.hpp"

namespace glap::lint {

/// One quoted `#include "..."` directive (system includes are ignored).
struct IncludeRef {
  std::size_t line = 0;
  std::string path;  ///< as spelled, e.g. "common/rng.hpp"
};

/// A class/struct definition: its bases, data members and non-const
/// methods.
struct ClassDecl {
  std::string name;
  std::size_t line = 0;
  std::vector<std::string> bases;             ///< unqualified base names
  std::vector<std::string> members;           ///< data members (…_ suffix)
  std::vector<std::string> mutating_methods;  ///< non-const method names
};

/// An enum (scoped or not) with its enumerators, for table-sync.
struct EnumDecl {
  std::string name;
  std::size_t line = 0;
  std::vector<std::string> enumerators;
};

/// Everything the project pass needs to know about one file. Produced by
/// a single tokenize of the file, independent of every other file — which
/// is what makes the on-disk scan cache sound.
struct FileSummary {
  std::string path;    ///< repo-relative, '/'-separated
  std::string module;  ///< "common", "sim", ... for src/<m>/...; else ""
  bool is_header = false;
  bool has_pragma_once = false;
  std::vector<IncludeRef> includes;
  std::vector<std::string> provided;      ///< names this file defines (sorted)
  std::vector<std::string> referenced;    ///< identifiers used (sorted)
  std::vector<std::string> name_strings;  ///< snake_case string literals
  std::vector<ClassDecl> classes;
  std::vector<EnumDecl> enums;
};

/// Summarizes one file. Pure function of its inputs; `rel_path` drives
/// the module assignment and header detection.
FileSummary summarize_source(std::string_view rel_path,
                             std::string_view content);

/// Output of the project pass: the module graph plus every finding from
/// the three project rules (unsuppressed — the caller applies allows).
struct ProjectModel {
  std::vector<LayerEdge> edges;                     ///< sorted (from, to)
  std::map<std::string, std::size_t> module_files;  ///< src module -> files
  std::vector<Finding> findings;
};

/// Runs layering / table-sync / include-hygiene over the
/// joined summaries. `layers_text` is the contents of layers.txt
/// ("module -> dep dep ..." lines, '#' comments); when empty the layering
/// rule is skipped (synthetic trees without a DAG stay lintable). Enum
/// table specs whose declaring file is absent from the scan are skipped
/// for the same reason.
ProjectModel analyze_project(const std::vector<FileSummary>& files,
                             std::string_view layers_text);

}  // namespace glap::lint
