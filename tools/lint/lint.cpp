#include "lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "lint/model.hpp"
#include "lint/token.hpp"

namespace glap::lint {

namespace {

// ---- rule catalogue -----------------------------------------------------

constexpr RuleInfo kRules[] = {
    {"wall-clock", "determinism",
     "no wall-clock reads (<clock>::now, time(), gettimeofday) outside the "
     "src/common profiler/rng whitelist"},
    {"banned-random", "determinism",
     "no std::rand/std::random_device/<random> engines; all randomness "
     "flows through glap::Rng (src/common/rng)"},
    {"unordered-iteration", "determinism",
     "no range-iteration over std::unordered_{map,set} in protocol code "
     "(src/sim, src/overlay, src/core, src/baselines)"},
    {"pointer-order", "determinism",
     "no pointer-keyed ordering: std::hash<T*>, map/set keyed by pointer, "
     "or pointer-to-integer casts used as keys"},
    {"static-mutable", "determinism",
     "no mutable function-local or class statics in protocol code"},
    {"hot-alloc", "perf",
     "no per-round heap allocation in round-loop scopes of src/sim and "
     "src/core: new/make_unique/make_shared, or push_back/emplace_back on "
     "a container never reserve()d in the file"},
    {"layering", "project",
     "src/ module include edges must match the tools/lint/layers.txt DAG; "
     "undeclared edges, stale declared edges and cycles are findings"},
    {"include-hygiene", "project",
     "quoted project includes must provide at least one name the includer "
     "references (transitively), and project headers need #pragma once"},
    {"suppression", "meta",
     "glap-lint allow comments must name a known rule, carry a "
     "justification, and match a real finding"},
};

// ---- path scoping -------------------------------------------------------

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

/// Protocol code: everything that runs inside engine interactions and so
/// falls under the serial-vs-parallel bit-identity contract.
bool in_protocol_code(std::string_view rel) {
  return starts_with(rel, "src/sim/") || starts_with(rel, "src/overlay/") ||
         starts_with(rel, "src/core/") || starts_with(rel, "src/baselines/");
}

/// Wall-clock whitelist: the profiler measures wall time by design, and
/// the Rng implementation is the one blessed randomness source.
bool wall_clock_whitelisted(std::string_view rel) {
  return starts_with(rel, "src/common/profiler") ||
         starts_with(rel, "src/common/rng");
}

bool random_whitelisted(std::string_view rel) {
  return starts_with(rel, "src/common/rng");
}

// ---- per-file analysis --------------------------------------------------

struct Analysis {
  std::string_view rel;
  const std::vector<Token>& toks;
  std::vector<Finding> raw;  ///< pre-suppression findings

  void flag(std::size_t line, const char* rule, std::string message) {
    raw.push_back({std::string(rel), line, rule, std::move(message)});
  }

  bool is_ident(std::size_t i, std::string_view text) const {
    return i < toks.size() && toks[i].kind == Token::Kind::kIdent &&
           toks[i].text == text;
  }
  bool is_punct(std::size_t i, std::string_view text) const {
    return i < toks.size() && toks[i].kind == Token::Kind::kPunct &&
           toks[i].text == text;
  }

  /// Index just past the `>` matching the `<` at `open` (which must be a
  /// `<`), or `open + 1` if no well-formed close is found nearby.
  std::size_t match_angle(std::size_t open, std::size_t* close) const {
    int depth = 0;
    for (std::size_t i = open; i < toks.size() && i < open + 256; ++i) {
      if (is_punct(i, "<")) ++depth;
      else if (is_punct(i, ">")) {
        if (--depth == 0) {
          if (close) *close = i;
          return i + 1;
        }
      } else if (is_punct(i, ";") || is_punct(i, "{")) {
        break;  // statement ended: was a comparison, not a template
      }
    }
    if (close) *close = open;
    return open + 1;
  }
};

// wall-clock: `<anything>clock::now(`, plus freestanding C time calls.
void rule_wall_clock(Analysis& a) {
  if (wall_clock_whitelisted(a.rel)) return;
  static const std::set<std::string_view> kTimeFns = {
      "time",   "clock",     "gettimeofday", "clock_gettime",
      "ftime",  "localtime", "gmtime",       "mktime"};
  const auto& t = a.toks;
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    // <ident containing "clock"> :: now (
    if (t[i].kind == Token::Kind::kIdent && a.is_punct(i + 1, "::") &&
        a.is_ident(i + 2, "now")) {
      std::string lower = t[i].text;
      std::transform(lower.begin(), lower.end(), lower.begin(),
                     [](unsigned char ch) { return std::tolower(ch); });
      if (lower.find("clock") != std::string::npos)
        a.flag(t[i].line, "wall-clock",
               t[i].text + "::now() reads a wall clock; simulation state "
               "must be a pure function of the seed (use prof::PhaseProfiler "
               "for timing)");
    }
    // freestanding time()/clock()/... call, not a member access
    if (t[i].kind == Token::Kind::kIdent && kTimeFns.count(t[i].text) &&
        a.is_punct(i + 1, "(")) {
      const bool member =
          i > 0 && (a.is_punct(i - 1, ".") || a.is_punct(i - 1, "->"));
      const bool declared =  // `double time(...)` style declaration
          i > 0 && t[i - 1].kind == Token::Kind::kIdent;
      if (!member && !declared)
        a.flag(t[i].line, "wall-clock",
               t[i].text + "() reads the system clock; derive timing from "
               "rounds or the profiler, never from wall time");
    }
  }
}

// banned-random: <random> engines / C rand anywhere outside src/common/rng.
void rule_banned_random(Analysis& a) {
  if (random_whitelisted(a.rel)) return;
  static const std::set<std::string_view> kEngines = {
      "random_device", "mt19937",     "mt19937_64", "default_random_engine",
      "minstd_rand",   "minstd_rand0", "knuth_b",   "ranlux24",
      "ranlux48"};
  static const std::set<std::string_view> kCallOnly = {
      "rand", "srand", "rand_r", "drand48", "lrand48", "srand48", "random",
      "srandom"};
  const auto& t = a.toks;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Token::Kind::kIdent) continue;
    if (kEngines.count(t[i].text)) {
      a.flag(t[i].line, "banned-random",
             "std::" + t[i].text + " is nondeterministic or standard-"
             "library-specific; all randomness must flow through glap::Rng");
      continue;
    }
    if (kCallOnly.count(t[i].text) && a.is_punct(i + 1, "(")) {
      const bool member =
          i > 0 && (a.is_punct(i - 1, ".") || a.is_punct(i - 1, "->"));
      const bool declared = i > 0 && t[i - 1].kind == Token::Kind::kIdent;
      if (!member && !declared)
        a.flag(t[i].line, "banned-random",
               t[i].text + "() draws from global, seed-independent state; "
               "use glap::Rng");
    }
  }
}

// unordered-iteration: range-for / begin() over unordered containers in
// protocol code. Two passes: collect declared unordered variable names,
// then flag iteration over them (or over inline unordered expressions).
void rule_unordered_iteration(Analysis& a) {
  if (!in_protocol_code(a.rel)) return;
  const auto& t = a.toks;
  std::set<std::string> unordered_vars;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!a.is_ident(i, "unordered_map") && !a.is_ident(i, "unordered_set"))
      continue;
    if (!a.is_punct(i + 1, "<")) continue;
    std::size_t close = i + 1;
    std::size_t j = a.match_angle(i + 1, &close);
    while (a.is_punct(j, "&") || a.is_punct(j, "*")) ++j;
    if (j < t.size() && t[j].kind == Token::Kind::kIdent)
      unordered_vars.insert(t[j].text);
  }
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    // for ( ... : <range containing an unordered name> )
    if (a.is_ident(i, "for") && a.is_punct(i + 1, "(")) {
      int depth = 0;
      std::size_t colon = 0;
      for (std::size_t j = i + 1; j < t.size() && j < i + 128; ++j) {
        if (a.is_punct(j, "(")) ++depth;
        else if (a.is_punct(j, ")")) {
          if (--depth == 0) break;
        } else if (a.is_punct(j, ":") && depth == 1 && colon == 0) {
          colon = j;
        } else if (a.is_punct(j, ";")) {
          break;  // classic for loop
        }
      }
      if (colon == 0) continue;
      int d = 1;
      for (std::size_t j = colon + 1; j < t.size() && j < colon + 64; ++j) {
        if (a.is_punct(j, "(")) ++d;
        else if (a.is_punct(j, ")") && --d == 0) break;
        const bool hit =
            t[j].kind == Token::Kind::kIdent &&
            (unordered_vars.count(t[j].text) ||
             t[j].text == "unordered_map" || t[j].text == "unordered_set");
        if (hit) {
          a.flag(t[i].line, "unordered-iteration",
                 "range-iteration over '" + t[j].text + "' (unordered "
                 "container): bucket order depends on hashing/allocation, "
                 "not the seed — iterate a sorted extraction instead");
          break;
        }
      }
    }
    // <unordered var> . begin/end/cbegin/cend — except in argument
    // position (preceded by '(' or ','), which is the blessed sorted-
    // extraction idiom: std::vector<...> v(m.begin(), m.end()); sort(v).
    if (t[i].kind == Token::Kind::kIdent && unordered_vars.count(t[i].text) &&
        a.is_punct(i + 1, ".") && i + 2 < t.size() &&
        t[i + 2].kind == Token::Kind::kIdent) {
      const std::string& m = t[i + 2].text;
      const bool extraction =
          i > 0 && (a.is_punct(i - 1, "(") || a.is_punct(i - 1, ","));
      if (!extraction &&
          (m == "begin" || m == "end" || m == "cbegin" || m == "cend"))
        a.flag(t[i].line, "unordered-iteration",
               "'" + t[i].text + "." + m + "()' iterates an unordered "
               "container in protocol code; extract into a sorted "
               "container first");
    }
  }
}

// pointer-order: hashing or ordering keyed on pointer values.
void rule_pointer_order(Analysis& a) {
  const auto& t = a.toks;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Token::Kind::kIdent) continue;
    const std::string& name = t[i].text;
    if (name == "hash" && a.is_punct(i + 1, "<")) {
      std::size_t close = i + 1;
      a.match_angle(i + 1, &close);
      for (std::size_t j = i + 2; j < close; ++j)
        if (a.is_punct(j, "*")) {
          a.flag(t[i].line, "pointer-order",
                 "std::hash over a pointer type: hash values depend on "
                 "allocation addresses and differ run to run");
          break;
        }
    }
    // std::map / std::set keyed by a pointer (first template argument).
    if ((name == "map" || name == "set" || name == "multimap" ||
         name == "multiset") &&
        i > 0 && a.is_punct(i - 1, "::") && a.is_punct(i + 1, "<")) {
      std::size_t close = i + 1;
      a.match_angle(i + 1, &close);
      int depth = 0;
      for (std::size_t j = i + 1; j < close; ++j) {
        if (a.is_punct(j, "<")) ++depth;
        else if (a.is_punct(j, ">")) --depth;
        else if (a.is_punct(j, ",") && depth == 1) break;  // past the key
        else if (a.is_punct(j, "*") && depth == 1) {
          a.flag(t[i].line, "pointer-order",
                 "std::" + name + " keyed by a pointer orders by address; "
                 "key on a stable id instead");
          break;
        }
      }
    }
    if (name == "reinterpret_cast" && a.is_punct(i + 1, "<")) {
      std::size_t close = i + 1;
      a.match_angle(i + 1, &close);
      for (std::size_t j = i + 2; j < close; ++j)
        if (t[j].kind == Token::Kind::kIdent &&
            t[j].text.find("intptr") != std::string::npos) {
          a.flag(t[i].line, "pointer-order",
                 "pointer-to-integer cast: address-derived values must "
                 "never feed ordering, hashing or seeds");
          break;
        }
    }
  }
}

// static-mutable: `static` data (without const/constexpr) in protocol code.
void rule_static_mutable(Analysis& a) {
  if (!in_protocol_code(a.rel)) return;
  const auto& t = a.toks;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!a.is_ident(i, "static")) continue;
    bool is_const = false;
    std::size_t j = i + 1;
    // Skip/inspect decl-specifiers before the declarator.
    while (j < t.size() && t[j].kind == Token::Kind::kIdent &&
           (t[j].text == "const" || t[j].text == "constexpr" ||
            t[j].text == "consteval" || t[j].text == "constinit" ||
            t[j].text == "inline" || t[j].text == "thread_local")) {
      if (t[j].text == "const" || t[j].text == "constexpr" ||
          t[j].text == "consteval")
        is_const = true;
      ++j;
    }
    if (is_const) continue;
    // Walk to the first structural token: '(' before ';'/'='/'{' means a
    // function declaration (fine); anything else is static mutable data.
    // A trailing `const` anywhere before the terminator (e.g.
    // `static std::string const x`) also counts as immutable.
    bool mutable_data = false;
    for (std::size_t k = j; k < t.size() && k < j + 64; ++k) {
      if (t[k].kind == Token::Kind::kIdent &&
          (t[k].text == "const" || t[k].text == "constexpr")) {
        is_const = true;
        break;
      }
      if (a.is_punct(k, "(")) break;  // function (or ctor-style init — rare)
      if (a.is_punct(k, "<")) {       // template args: skip to close
        std::size_t close = k;
        k = a.match_angle(k, &close);
        if (k == close) break;  // unmatched; give up on this decl
        --k;                    // loop ++ lands just past the '>'
        continue;
      }
      if (a.is_punct(k, ";") || a.is_punct(k, "=") || a.is_punct(k, "{")) {
        mutable_data = true;
        break;
      }
    }
    if (!is_const && mutable_data)
      a.flag(t[i].line, "static-mutable",
             "mutable static in protocol code: shared across every node "
             "and every concurrently running sweep cell, so it breaks "
             "determinism — keep per-node state in the protocol object");
  }
}

// hot-alloc: heap allocation inside round-loop scopes. The engine's round
// loop dominates wall time at 10k-100k PMs, so per-round allocation there
// is a measured regression, not a style nit (DESIGN.md §12). A scope is
// "round-loop" when the enclosing function is one the engine enters every
// round per node: the per-node dispatch (`execute`, `execute_node`,
// `run_round`), any `*_cycle` protocol phase, or a known per-round helper.
// Setup/install paths allocate freely. push_back/emplace_back is only
// flagged when the receiver is never reserve()d anywhere in the file —
// a reserve hoists the growth out of the hot path.
bool in_hot_alloc_dirs(std::string_view rel) {
  return starts_with(rel, "src/sim/") || starts_with(rel, "src/core/");
}

bool hot_scope_name(const std::string& name) {
  static const std::set<std::string_view> kExact = {
      "execute",     "execute_node", "run_round",  "poll_quiesce",
      "find_vm",     "update_state", "grow_pool",  "draw_subset",
      "train_round", "wake"};
  return kExact.count(name) > 0 || name.find("_cycle") != std::string::npos;
}

void rule_hot_alloc(Analysis& a) {
  if (!in_hot_alloc_dirs(a.rel)) return;
  const auto& t = a.toks;
  // Pre-pass: receivers that are reserve()d somewhere in this file.
  std::set<std::string> reserved;
  for (std::size_t i = 0; i + 3 < t.size(); ++i)
    if (t[i].kind == Token::Kind::kIdent &&
        (a.is_punct(i + 1, ".") || a.is_punct(i + 1, "->")) &&
        a.is_ident(i + 2, "reserve") && a.is_punct(i + 3, "("))
      reserved.insert(t[i].text);

  static const std::set<std::string_view> kNotAFunction = {
      "if", "for", "while", "switch", "catch", "return", "sizeof"};
  struct Scope {
    int depth;         ///< brace depth of the function body
    bool hot;
    std::string name;  ///< innermost hot scope, for the diagnostic
  };
  std::vector<Scope> scopes;
  int depth = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (a.is_punct(i, "{")) {
      ++depth;
      continue;
    }
    if (a.is_punct(i, "}")) {
      --depth;
      while (!scopes.empty() && depth < scopes.back().depth)
        scopes.pop_back();
      continue;
    }
    // Function definition: ident ( ... ) [const noexcept override final] {
    // (ctor-init-lists and trailing-return types are not recognised; the
    // hot set contains no constructors, so nothing is lost).
    if (t[i].kind == Token::Kind::kIdent && !kNotAFunction.count(t[i].text) &&
        a.is_punct(i + 1, "(")) {
      int d = 0;
      std::size_t j = i + 1;
      for (; j < t.size() && j < i + 512; ++j) {
        if (a.is_punct(j, "(")) ++d;
        else if (a.is_punct(j, ")") && --d == 0) break;
      }
      if (j < t.size() && a.is_punct(j, ")")) {
        std::size_t k = j + 1;
        while (k < t.size() && t[k].kind == Token::Kind::kIdent &&
               (t[k].text == "const" || t[k].text == "noexcept" ||
                t[k].text == "override" || t[k].text == "final"))
          ++k;
        if (k < t.size() && a.is_punct(k, "{"))
          scopes.push_back({depth + 1, hot_scope_name(t[i].text), t[i].text});
      }
    }
    std::string hot_name;
    for (const Scope& s : scopes)
      if (s.hot) hot_name = s.name;
    if (hot_name.empty()) continue;

    if (a.is_ident(i, "new") && !(i > 0 && (a.is_punct(i - 1, ".") ||
                                            a.is_punct(i - 1, "->") ||
                                            a.is_ident(i - 1, "operator")))) {
      a.flag(t[i].line, "hot-alloc",
             "'new' inside round-loop scope '" + hot_name + "' allocates "
             "every round; hoist the allocation into setup or a reused "
             "member buffer");
      continue;
    }
    if ((a.is_ident(i, "make_unique") || a.is_ident(i, "make_shared")) &&
        (a.is_punct(i + 1, "<") || a.is_punct(i + 1, "("))) {
      a.flag(t[i].line, "hot-alloc",
             "'" + t[i].text + "' inside round-loop scope '" + hot_name +
             "' allocates every round; hoist the allocation into setup or "
             "a reused member buffer");
      continue;
    }
    if ((a.is_ident(i, "push_back") || a.is_ident(i, "emplace_back")) &&
        a.is_punct(i + 1, "(") && i >= 2 &&
        (a.is_punct(i - 1, ".") || a.is_punct(i - 1, "->")) &&
        t[i - 2].kind == Token::Kind::kIdent &&
        !reserved.count(t[i - 2].text)) {
      a.flag(t[i].line, "hot-alloc",
             "'" + t[i - 2].text + "." + t[i].text + "' in round-loop "
             "scope '" + hot_name + "' with no '" + t[i - 2].text +
             ".reserve' anywhere in this file: growth reallocates in the "
             "hot path");
    }
  }
}

// ---- suppression comments ----------------------------------------------

/// Parses `// glap-lint: allow(<rule>): <reason>` (and allow-file) out of
/// each raw line. Only `//` comments count, and only when the directive
/// names a plausible (lowercase/dash) rule — so prose, usage strings and
/// documentation that merely *mention* the syntax never parse as allows.
/// Malformed directives become "suppression" findings directly.
std::vector<Suppression> parse_suppressions(
    std::string_view rel, const std::vector<std::string>& lines,
    std::vector<Finding>* malformed) {
  std::vector<Suppression> out;
  for (std::size_t ln = 0; ln < lines.size(); ++ln) {
    const std::string& raw = lines[ln];
    const std::size_t at = raw.find("glap-lint:");
    if (at == std::string::npos) continue;
    if (raw.rfind("//", at) == std::string::npos) continue;  // not a comment
    std::size_t p = at + std::string("glap-lint:").size();
    while (p < raw.size() && raw[p] == ' ') ++p;
    bool file_wide = false;
    if (raw.compare(p, 11, "allow-file(") == 0) {
      file_wide = true;
      p += 11;
    } else if (raw.compare(p, 6, "allow(") == 0) {
      p += 6;
    } else {
      continue;  // mentions glap-lint: but is not a directive
    }
    const std::size_t close = raw.find(')', p);
    if (close == std::string::npos) continue;
    const std::string rule = raw.substr(p, close - p);
    const bool rule_shaped =
        !rule.empty() &&
        rule.find_first_not_of("abcdefghijklmnopqrstuvwxyz-") ==
            std::string::npos;
    if (!rule_shaped) continue;  // documentation placeholder, not an allow
    std::size_t r = close + 1;
    if (r < raw.size() && raw[r] == ':') ++r;
    while (r < raw.size() && raw[r] == ' ') ++r;
    const std::string reason = raw.substr(r);
    if (!is_known_rule(rule)) {
      malformed->push_back({std::string(rel), ln + 1, "suppression",
                            "allow(" + rule + ") names no known rule (see "
                            "glap-lint rules)"});
      continue;
    }
    if (reason.empty()) {
      malformed->push_back(
          {std::string(rel), ln + 1, "suppression",
           "allow(" + rule + ") has no justification — every suppression "
           "must say why the occurrence is safe"});
      continue;
    }
    out.push_back({ln + 1, rule, reason, file_wide, false});
  }
  return out;
}

// ---- tree pipeline ------------------------------------------------------

/// One scanned file: per-file report plus the project-pass summary.
struct FileEntry {
  std::string path;
  FileReport report;
  FileSummary summary;
};

/// Project pass + suppression resolution + aggregation over per-file
/// entries. Consumes the entries (moves findings out).
TreeReport finalize_tree(std::vector<FileEntry>& entries,
                         std::string_view layers_text) {
  std::sort(entries.begin(), entries.end(),
            [](const FileEntry& a, const FileEntry& b) {
              return a.path < b.path;
            });
  TreeReport report;
  report.files_scanned = entries.size();

  std::vector<FileSummary> summaries;
  summaries.reserve(entries.size());
  for (const FileEntry& e : entries) summaries.push_back(e.summary);
  ProjectModel pm = analyze_project(summaries, layers_text);
  report.layer_edges = std::move(pm.edges);
  report.module_files = std::move(pm.module_files);

  std::map<std::string, FileEntry*> by_path;
  for (FileEntry& e : entries) by_path[e.path] = &e;

  // Project findings run through the same allow machinery as per-file
  // ones: an allow on the finding's line or the line above, or an
  // allow-file, silences it and is marked used.
  auto try_suppress = [](FileEntry* e, const Finding& f) {
    if (!e) return false;
    for (Suppression& s : e->report.suppressions) {
      if (s.rule != f.rule) continue;
      if (s.file_wide || s.line == f.line || s.line + 1 == f.line) {
        s.used = true;
        return true;
      }
    }
    return false;
  };
  std::map<std::string, std::vector<Finding>> extra;
  std::vector<Finding> orphans;  // e.g. anchored at tools/lint/layers.txt
  for (Finding& f : pm.findings) {
    const auto it = by_path.find(f.file);
    FileEntry* e = it == by_path.end() ? nullptr : it->second;
    if (try_suppress(e, f)) continue;
    if (e)
      extra[f.file].push_back(std::move(f));
    else
      orphans.push_back(std::move(f));
  }
  // Allows naming a project rule were deferred by lint_source; any still
  // unused after the project pass is stale, same as a per-file allow.
  for (FileEntry& e : entries) {
    for (const Suppression& s : e.report.suppressions) {
      if (!is_project_rule(s.rule) || s.used) continue;
      Finding stale{e.path, s.line, "suppression",
                    "allow(" + s.rule + ") matched no finding — remove the "
                    "stale suppression"};
      if (!try_suppress(&e, stale))
        extra[e.path].push_back(std::move(stale));
    }
  }

  for (FileEntry& e : entries) {
    for (const Suppression& s : e.report.suppressions)
      if (s.used) {
        ++report.suppressions_used;
        ++report.rule_suppressions[s.rule];
      }
    std::vector<Finding> merged = std::move(e.report.findings);
    const auto it = extra.find(e.path);
    if (it != extra.end())
      for (Finding& f : it->second) merged.push_back(std::move(f));
    std::stable_sort(merged.begin(), merged.end(),
                     [](const Finding& x, const Finding& y) {
                       return x.line < y.line;
                     });
    for (Finding& f : merged) {
      ++report.rule_hits[f.rule];
      report.findings.push_back(std::move(f));
    }
  }
  for (Finding& f : orphans) {
    ++report.rule_hits[f.rule];
    report.findings.push_back(std::move(f));
  }
  return report;
}

}  // namespace

// ---- public API ---------------------------------------------------------

const std::vector<RuleInfo>& rules() {
  static const std::vector<RuleInfo> kAll(std::begin(kRules),
                                          std::end(kRules));
  return kAll;
}

bool is_known_rule(std::string_view name) {
  for (const RuleInfo& r : rules())
    if (name == r.name) return true;
  return false;
}

bool is_project_rule(std::string_view name) {
  return name == "layering" || name == "include-hygiene";
}

FileReport lint_source(std::string_view rel_path, std::string_view content) {
  std::vector<std::string> lines;
  {
    std::size_t start = 0;
    while (start <= content.size()) {
      std::size_t nl = content.find('\n', start);
      if (nl == std::string_view::npos) {
        lines.emplace_back(content.substr(start));
        break;
      }
      lines.emplace_back(content.substr(start, nl - start));
      start = nl + 1;
    }
  }
  const std::vector<Token> toks = tokenize(content);
  Analysis a{rel_path, toks, {}};

  rule_wall_clock(a);
  rule_banned_random(a);
  rule_unordered_iteration(a);
  rule_pointer_order(a);
  rule_static_mutable(a);
  rule_hot_alloc(a);

  FileReport report;
  std::vector<Finding> malformed;
  report.suppressions = parse_suppressions(rel_path, lines, &malformed);

  // Apply suppressions: a finding is dropped by an allow on its line or
  // the line above, or an allow-file anywhere; the allow is marked used.
  // Findings under the meta "suppression" rule (malformed or stale
  // allows) run through the same machinery, so even they can be excused
  // with an explicit allow(suppression): <reason>.
  auto suppressed = [&](const Finding& f) {
    for (Suppression& s : report.suppressions) {
      if (s.rule != f.rule) continue;
      if (s.file_wide || s.line == f.line || s.line + 1 == f.line) {
        s.used = true;
        return true;
      }
    }
    return false;
  };
  for (Finding& f : a.raw)
    if (!suppressed(f)) report.findings.push_back(std::move(f));
  for (Finding& f : malformed)
    if (!suppressed(f)) report.findings.push_back(std::move(f));
  // A suppression that silences nothing is stale: report it so the allow
  // inventory shrinks when the code it excused goes away. Allows naming
  // a project rule are exempt here — their findings only exist at tree
  // scope, so lint_tree/lint_project do their staleness check instead.
  for (const Suppression& s : report.suppressions) {
    if (s.used || is_project_rule(s.rule)) continue;
    Finding stale{std::string(rel_path), s.line, "suppression",
                  "allow(" + s.rule + ") matched no finding — remove the "
                  "stale suppression"};
    if (!suppressed(stale)) report.findings.push_back(std::move(stale));
  }
  std::stable_sort(report.findings.begin(), report.findings.end(),
                   [](const Finding& x, const Finding& y) {
                     return x.line < y.line;
                   });
  return report;
}

TreeReport lint_project(const std::vector<ProjectFile>& files,
                        std::string_view layers_text) {
  std::vector<FileEntry> entries;
  entries.reserve(files.size());
  for (const ProjectFile& f : files) {
    FileEntry e;
    e.path = f.path;
    e.report = lint_source(f.path, f.content);
    e.summary = summarize_source(f.path, f.content);
    entries.push_back(std::move(e));
  }
  return finalize_tree(entries, layers_text);
}

TreeReport lint_tree(const std::string& root) {
  namespace fs = std::filesystem;
  std::vector<std::string> io_errors;
  std::vector<fs::path> paths;
  bool any_root = false;
  for (const char* sub : {"src", "bench", "tools", "tests/support"}) {
    const fs::path dir = fs::path(root) / sub;
    std::error_code ec;
    if (!fs::is_directory(dir, ec)) continue;
    any_root = true;
    for (fs::recursive_directory_iterator it(dir, ec), end;
         it != end && !ec; it.increment(ec)) {
      if (!it->is_regular_file()) continue;
      const std::string ext = it->path().extension().string();
      if (ext == ".cpp" || ext == ".hpp" || ext == ".h")
        paths.push_back(it->path());
    }
    if (ec) io_errors.push_back(dir.string() + ": " + ec.message());
  }
  if (!any_root) {
    TreeReport report;
    report.io_errors.push_back(root +
                               ": no src/, bench/ or tools/ directory");
    return report;
  }
  std::sort(paths.begin(), paths.end());

  std::string layers_text;
  {
    std::ifstream in(fs::path(root) / "tools" / "lint" / "layers.txt");
    if (in.is_open()) {
      std::ostringstream buf;
      buf << in.rdbuf();
      layers_text = buf.str();
    }
  }

  std::vector<ProjectFile> files;
  files.reserve(paths.size());
  for (const fs::path& path : paths) {
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open()) {
      io_errors.push_back(path.string() + ": cannot open");
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    files.push_back(
        {fs::path(fs::relative(path, root)).generic_string(), buf.str()});
  }

  TreeReport report = lint_project(files, layers_text);
  report.io_errors = std::move(io_errors);
  return report;
}

}  // namespace glap::lint
