#include "lint/model.hpp"

#include <algorithm>
#include <cctype>
#include <set>
#include <sstream>

#include "lint/token.hpp"

namespace glap::lint {

namespace {

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

/// kCamelCase enumerator -> snake_case table name: kWakeReason -> wake_reason.
std::string enum_snake_name(std::string_view enumerator) {
  std::string_view s = enumerator;
  if (s.size() > 1 && s[0] == 'k' &&
      std::isupper(static_cast<unsigned char>(s[1])))
    s.remove_prefix(1);
  std::string out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (std::isupper(static_cast<unsigned char>(c))) {
      if (i > 0) out += '_';
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else {
      out += c;
    }
  }
  return out;
}

// ---- token-stream helpers ----------------------------------------------

struct Cursor {
  const std::vector<Token>& t;

  bool is_ident(std::size_t i, std::string_view text) const {
    return i < t.size() && t[i].kind == Token::Kind::kIdent &&
           t[i].text == text;
  }
  bool is_punct(std::size_t i, std::string_view text) const {
    return i < t.size() && t[i].kind == Token::Kind::kPunct &&
           t[i].text == text;
  }
  bool is_any_ident(std::size_t i) const {
    return i < t.size() && t[i].kind == Token::Kind::kIdent;
  }

  /// Index just past the `>` matching the `<` at `open`, or open + 1 when
  /// no close is found nearby (comparison, not template arguments).
  std::size_t skip_angles(std::size_t open) const {
    int depth = 0;
    for (std::size_t i = open; i < t.size() && i < open + 256; ++i) {
      if (is_punct(i, "<")) ++depth;
      else if (is_punct(i, ">")) {
        if (--depth == 0) return i + 1;
      } else if (is_punct(i, ";") || is_punct(i, "{")) {
        break;
      }
    }
    return open + 1;
  }

  /// Index of the `)` matching the `(` at `open` (or t.size()).
  std::size_t match_paren(std::size_t open) const {
    int depth = 0;
    for (std::size_t i = open; i < t.size(); ++i) {
      if (is_punct(i, "(")) ++depth;
      else if (is_punct(i, ")") && --depth == 0) return i;
    }
    return t.size();
  }

  /// Index of the `}` matching the `{` at `open` (or t.size()).
  std::size_t match_brace(std::size_t open) const {
    int depth = 0;
    for (std::size_t i = open; i < t.size(); ++i) {
      if (is_punct(i, "{")) ++depth;
      else if (is_punct(i, "}") && --depth == 0) return i;
    }
    return t.size();
  }
};

// ---- class / enum / provided-name extraction ---------------------------

/// Names after which `ident (` is a call, not a declaration.
bool decl_prev_excluded(const std::string& prev) {
  static const std::set<std::string_view> kExcluded = {
      "return", "new",  "delete", "throw",  "case",      "goto",
      "else",   "do",   "sizeof", "co_return", "co_await", "co_yield",
      "operator"};
  return kExcluded.count(prev) > 0;
}

}  // namespace

FileSummary summarize_source(std::string_view rel_path,
                             std::string_view content) {
  FileSummary out;
  out.path = std::string(rel_path);
  if (starts_with(rel_path, "src/")) {
    const std::size_t slash = rel_path.find('/', 4);
    if (slash != std::string_view::npos)
      out.module = std::string(rel_path.substr(4, slash - 4));
  }
  const std::size_t dot = rel_path.rfind('.');
  const std::string_view ext =
      dot == std::string_view::npos ? "" : rel_path.substr(dot);
  out.is_header = ext == ".hpp" || ext == ".h";

  // Line pass: includes, #pragma once, #define'd names.
  std::set<std::string> provided;
  {
    std::size_t start = 0, ln = 1;
    while (start <= content.size()) {
      std::size_t nl = content.find('\n', start);
      const std::string_view raw = content.substr(
          start, nl == std::string_view::npos ? std::string_view::npos
                                              : nl - start);
      std::size_t p = raw.find_first_not_of(" \t");
      if (p != std::string_view::npos && raw[p] == '#') {
        std::size_t q = raw.find_first_not_of(" \t", p + 1);
        const std::string_view body =
            q == std::string_view::npos ? std::string_view() : raw.substr(q);
        if (starts_with(body, "pragma") &&
            body.find("once") != std::string_view::npos) {
          out.has_pragma_once = true;
        } else if (starts_with(body, "include")) {
          const std::size_t open = body.find('"');
          if (open != std::string_view::npos) {
            const std::size_t end = body.find('"', open + 1);
            if (end != std::string_view::npos)
              out.includes.push_back(
                  {ln, std::string(body.substr(open + 1, end - open - 1))});
          }
        } else if (starts_with(body, "define")) {
          std::size_t d = body.find_first_not_of(" \t", 6);
          if (d != std::string_view::npos && ident_start(body[d])) {
            std::size_t e = d;
            while (e < body.size() && ident_char(body[e])) ++e;
            provided.insert(std::string(body.substr(d, e - d)));
          }
        }
      }
      if (nl == std::string_view::npos) break;
      start = nl + 1;
      ++ln;
    }
  }

  const std::vector<Token> toks = tokenize(content);
  const Cursor c{toks};
  std::set<std::string> referenced, name_strings;

  // Open class bodies, innermost last: member/method declarations live at
  // exactly `depth` braces inside their class.
  struct OpenClass {
    std::string name;
    int depth;        ///< brace depth of the class body interior
    std::size_t decl; ///< index into out.classes (it reallocates; no pointers)
  };
  std::vector<OpenClass> open_classes;
  int depth = 0;
  std::size_t decl_start = 0;  ///< first token of the current declaration

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& tok = toks[i];
    if (tok.kind == Token::Kind::kString) {
      bool snake = !tok.text.empty() && tok.text.size() <= 64;
      for (char ch : tok.text)
        if (!(std::islower(static_cast<unsigned char>(ch)) ||
              std::isdigit(static_cast<unsigned char>(ch)) || ch == '_'))
          snake = false;
      if (snake) name_strings.insert(tok.text);
      continue;
    }
    if (tok.kind == Token::Kind::kPunct) {
      if (tok.text == "{") ++depth;
      else if (tok.text == "}") {
        --depth;
        while (!open_classes.empty() && depth < open_classes.back().depth)
          open_classes.pop_back();
      }
      if (tok.text == ";" || tok.text == "{" || tok.text == "}" ||
          tok.text == ":")
        decl_start = i + 1;
      continue;
    }
    if (tok.kind != Token::Kind::kIdent) continue;
    const std::string& s = tok.text;
    if (!is_cpp_keyword(s)) referenced.insert(s);

    // enum [class|struct] Name [: base] { enumerators }
    if (s == "enum") {
      std::size_t j = i + 1;
      if (c.is_ident(j, "class") || c.is_ident(j, "struct")) ++j;
      if (!c.is_any_ident(j)) continue;  // anonymous
      EnumDecl e;
      e.name = toks[j].text;
      e.line = toks[j].line;
      provided.insert(e.name);
      ++j;
      while (j < toks.size() && !c.is_punct(j, "{") && !c.is_punct(j, ";"))
        ++j;
      if (!c.is_punct(j, "{")) continue;  // forward declaration
      const std::size_t close = c.match_brace(j);
      int pd = 0;
      for (std::size_t k = j + 1; k < close; ++k) {
        if (c.is_punct(k, "(") || c.is_punct(k, "{")) ++pd;
        else if (c.is_punct(k, ")") || c.is_punct(k, "}")) --pd;
        else if (pd == 0 && c.is_any_ident(k) &&
                 (c.is_punct(k + 1, ",") || c.is_punct(k + 1, "=") ||
                  k + 1 == close)) {
          e.enumerators.push_back(toks[k].text);
          provided.insert(toks[k].text);
        }
      }
      out.enums.push_back(std::move(e));
      continue;
    }

    // class/struct Name [final] [: bases] { ... }
    if ((s == "class" || s == "struct") &&
        !(i > 0 && c.is_ident(i - 1, "enum"))) {
      std::size_t j = i + 1;
      while (c.is_punct(j, "[")) {  // [[attributes]]
        int d = 0;
        for (; j < toks.size(); ++j) {
          if (c.is_punct(j, "[")) ++d;
          else if (c.is_punct(j, "]") && --d == 0) {
            ++j;
            break;
          }
        }
      }
      if (!c.is_any_ident(j) || is_cpp_keyword(toks[j].text)) continue;
      ClassDecl decl;
      decl.name = toks[j].text;
      decl.line = toks[j].line;
      provided.insert(decl.name);
      ++j;
      if (c.is_ident(j, "final")) ++j;
      if (c.is_punct(j, ";") || c.is_punct(j, ",") || c.is_punct(j, ">") ||
          c.is_punct(j, ")"))
        continue;  // forward declaration / template parameter
      if (c.is_punct(j, ":")) {
        ++j;
        bool prev_scope = false;
        while (j < toks.size() && !c.is_punct(j, "{") && !c.is_punct(j, ";")) {
          if (c.is_punct(j, "<")) {
            j = c.skip_angles(j);
            continue;
          }
          if (c.is_punct(j, "::")) {
            prev_scope = true;
            ++j;
            continue;
          }
          if (c.is_any_ident(j) && !c.is_ident(j, "public") &&
              !c.is_ident(j, "protected") && !c.is_ident(j, "private") &&
              !c.is_ident(j, "virtual")) {
            if (prev_scope && !decl.bases.empty())
              decl.bases.back() = toks[j].text;  // sim::Protocol -> Protocol
            else
              decl.bases.push_back(toks[j].text);
            prev_scope = false;
          }
          ++j;
        }
      }
      if (!c.is_punct(j, "{")) continue;
      out.classes.push_back(std::move(decl));
      open_classes.push_back(
          {out.classes.back().name, depth + 1, out.classes.size() - 1});
      // The `{` itself is handled by the punct branch on its own turn.
      continue;
    }

    // using Alias = ...;
    if (s == "using" && c.is_any_ident(i + 1) && c.is_punct(i + 2, "=")) {
      provided.insert(toks[i + 1].text);
      continue;
    }

    const bool in_class_scope =
        !open_classes.empty() && depth == open_classes.back().depth;

    // Member data: `type name_ ;` directly inside a class body.
    if (in_class_scope && !s.empty() && s.back() == '_' &&
        (c.is_punct(i + 1, ";") || c.is_punct(i + 1, "=") ||
         c.is_punct(i + 1, "{") || c.is_punct(i + 1, "[") ||
         c.is_punct(i + 1, ",")) &&
        !(i > 0 && (c.is_punct(i - 1, ".") || c.is_punct(i - 1, "->") ||
                    c.is_punct(i - 1, "::")))) {
      out.classes[open_classes.back().decl].members.push_back(s);
    }

    // Method declaration/definition: `name ( ... ) [quals] {|;|=`.
    if (in_class_scope && c.is_punct(i + 1, "(") &&
        !(i > 0 && (c.is_punct(i - 1, ".") || c.is_punct(i - 1, "->") ||
                    c.is_punct(i - 1, "::") || c.is_punct(i - 1, "~")))) {
      ClassDecl* decl = &out.classes[open_classes.back().decl];
      const std::size_t close_paren = c.match_paren(i + 1);
      std::size_t k = close_paren + 1;
      bool is_const = false;
      while (k < toks.size() &&
             (c.is_ident(k, "const") || c.is_ident(k, "noexcept") ||
              c.is_ident(k, "override") || c.is_ident(k, "final") ||
              c.is_punct(k, "&"))) {
        if (c.is_ident(k, "const")) is_const = true;
        if (c.is_ident(k, "noexcept") && c.is_punct(k + 1, "("))
          k = c.match_paren(k + 1);
        ++k;
      }
      const bool has_body = c.is_punct(k, "{");
      const bool decl_like = c.is_punct(k, ";") || c.is_punct(k, "=") ||
                             c.is_punct(k, ":") || has_body;
      if (decl_like) {
        bool is_static = false, is_friend = false;
        for (std::size_t b = decl_start; b < i; ++b) {
          if (c.is_ident(b, "static")) is_static = true;
          if (c.is_ident(b, "friend")) is_friend = true;
        }
        if (!is_const && !is_static && !is_friend && s != decl->name)
          decl->mutating_methods.push_back(s);
        provided.insert(s);
      }
    }

    // Namespace-scope declaration heuristic: `Type name (` / `Type name =`
    // / `Type name ;` provides `name`. Lenient by design — it exists so
    // include-hygiene only fires on includes providing *nothing* used.
    if (i > 0 &&
        (c.is_punct(i + 1, "(") || c.is_punct(i + 1, "=") ||
         c.is_punct(i + 1, ";") || c.is_punct(i + 1, ",") ||
         c.is_punct(i + 1, "{") || c.is_punct(i + 1, "["))) {
      const Token& prev = toks[i - 1];
      const bool type_prev =
          (prev.kind == Token::Kind::kIdent &&
           !decl_prev_excluded(prev.text)) ||
          (prev.kind == Token::Kind::kPunct &&
           (prev.text == ">" || prev.text == "*" || prev.text == "&"));
      if (type_prev && !(c.is_punct(i + 1, "=") && c.is_punct(i + 2, "=")))
        provided.insert(s);
    }
  }

  out.provided.assign(provided.begin(), provided.end());
  out.referenced.assign(referenced.begin(), referenced.end());
  out.name_strings.assign(name_strings.begin(), name_strings.end());
  return out;
}

// ---- project pass -------------------------------------------------------

namespace {

struct LayersSpec {
  bool present = false;
  std::map<std::string, std::size_t> module_line;
  std::map<std::pair<std::string, std::string>, std::size_t> edge_line;
};

LayersSpec parse_layers(std::string_view text) {
  LayersSpec spec;
  if (text.empty()) return spec;
  spec.present = true;
  std::istringstream in{std::string(text)};
  std::string raw;
  std::size_t ln = 0;
  while (std::getline(in, raw)) {
    ++ln;
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) raw.resize(hash);
    std::istringstream line(raw);
    std::string module, arrow, dep;
    if (!(line >> module)) continue;
    spec.module_line.emplace(module, ln);
    if (!(line >> arrow) || arrow != "->") continue;
    while (line >> dep)
      spec.edge_line.emplace(std::make_pair(module, dep), ln);
  }
  return spec;
}

/// Registered pinned enums: any new enumerator must land in every listed
/// table file before lint passes. kIdent matches the enumerator token
/// itself (switch cases / static_asserts); kName matches the derived
/// snake_case name as a standalone string literal (name/code tables).
struct EnumTableSpec {
  const char* decl_file;
  const char* enum_name;
  bool match_ident;
  std::vector<const char*> table_files;
  std::vector<const char*> skip;  ///< enumerators exempt (e.g. sentinels)
};

const std::vector<EnumTableSpec>& enum_table_specs() {
  static const std::vector<EnumTableSpec> kSpecs = {
      {"src/common/trace_reader.hpp", "EventKind", true,
       {"src/common/trace_reader.cpp", "src/common/trace_format.cpp",
        "src/common/tracing.cpp"},
       {}},
      {"src/common/tracing.hpp", "Kind", true,
       {"src/common/tracing.cpp"},
       {}},
      {"src/sim/node.hpp", "WakeReason", false,
       {"src/sim/node.hpp", "src/common/tracing.cpp"},
       {}},
      {"src/net/network_model.hpp", "Channel", false,
       {"src/net/network_model.cpp", "src/common/trace_format.cpp"},
       {}},
      {"src/net/network_model.hpp", "DropReason", false,
       {"src/net/network_model.cpp", "src/common/trace_format.cpp"},
       {"kNone"}},
  };
  return kSpecs;
}

}  // namespace

ProjectModel analyze_project(const std::vector<FileSummary>& files,
                             std::string_view layers_text) {
  ProjectModel pm;
  std::map<std::string, const FileSummary*> by_path;
  for (const FileSummary& f : files) by_path.emplace(f.path, &f);

  // Resolve quoted includes against the scanned tree. Each scan root is
  // its own include dir (src/, tools/, bench/, tests/), so try each
  // prefix; unresolved includes are external (gtest, system) and ignored.
  auto resolve = [&](const std::string& inc) -> const FileSummary* {
    for (const char* prefix : {"src/", "tools/", "bench/", "tests/", ""}) {
      const auto it = by_path.find(prefix + inc);
      if (it != by_path.end()) return it->second;
    }
    return nullptr;
  };

  // ---- layering ---------------------------------------------------------
  const LayersSpec layers = parse_layers(layers_text);
  struct EdgeSeen {
    std::size_t count = 0;
    std::string file;       ///< first include inducing the edge
    std::size_t line = 0;
    std::string target;
  };
  std::map<std::pair<std::string, std::string>, EdgeSeen> observed;
  for (const FileSummary& f : files) {
    if (f.module.empty()) continue;
    pm.module_files[f.module] += 1;
    for (const IncludeRef& inc : f.includes) {
      const FileSummary* target = resolve(inc.path);
      if (!target || target->module.empty() || target->module == f.module)
        continue;
      EdgeSeen& e = observed[{f.module, target->module}];
      if (e.count == 0) {
        e.file = f.path;
        e.line = inc.line;
        e.target = inc.path;
      }
      ++e.count;
    }
  }
  for (const auto& [edge, seen] : observed)
    pm.edges.push_back({edge.first, edge.second, seen.count,
                        layers.edge_line.count(edge) > 0});

  if (layers.present) {
    const std::string layers_file = "tools/lint/layers.txt";
    for (const auto& [edge, seen] : observed) {
      if (layers.edge_line.count(edge)) continue;
      pm.findings.push_back(
          {seen.file, seen.line, "layering",
           "#include \"" + seen.target + "\" creates module edge " +
               edge.first + " -> " + edge.second + " which " + layers_file +
               " does not declare — declare it or break the dependency"});
    }
    for (const auto& [edge, line] : layers.edge_line) {
      if (observed.count(edge)) continue;
      pm.findings.push_back(
          {layers_file, line, "layering",
           "declared edge " + edge.first + " -> " + edge.second +
               " matches no include in the tree — remove the stale "
               "declaration"});
    }
    for (const auto& [module, count] : pm.module_files) {
      (void)count;
      if (!layers.module_line.count(module))
        pm.findings.push_back(
            {layers_file, 1, "layering",
             "src/" + module + "/ exists but " + layers_file +
                 " has no entry for it — every module must declare its "
                 "dependencies"});
    }
    // Cycle check over the *declared* DAG (observed edges are a subset
    // once the undeclared-edge findings above are fixed).
    std::map<std::string, std::vector<std::string>> adj;
    for (const auto& [edge, line] : layers.edge_line) {
      (void)line;
      adj[edge.first].push_back(edge.second);
    }
    std::map<std::string, int> color;  // 0 white, 1 gray, 2 black
    std::set<std::string> reported;
    std::vector<std::string> stack;
    auto dfs = [&](auto&& self, const std::string& u) -> void {
      color[u] = 1;
      stack.push_back(u);
      for (const std::string& v : adj[u]) {
        if (color[v] == 1) {
          // Reconstruct u -> ... -> v -> u from the gray stack.
          std::string cycle = v;
          bool in_cycle = false;
          for (const std::string& w : stack) {
            if (w == v) in_cycle = true;
            if (in_cycle && w != v) cycle += " -> " + w;
          }
          cycle += " -> " + v;
          if (reported.insert(cycle).second) {
            const auto it = layers.edge_line.find({u, v});
            pm.findings.push_back(
                {"tools/lint/layers.txt",
                 it == layers.edge_line.end() ? 1 : it->second, "layering",
                 "dependency cycle " + cycle + " — the module graph must "
                 "be a DAG or the build order and layering guarantees "
                 "collapse"});
          }
        } else if (color[v] == 0) {
          self(self, v);
        }
      }
      stack.pop_back();
      color[u] = 2;
    };
    for (const auto& [module, line] : layers.module_line) {
      (void)line;
      if (color[module] == 0) dfs(dfs, module);
    }
  }

  // ---- table-sync -------------------------------------------------------
  for (const EnumTableSpec& spec : enum_table_specs()) {
    const auto decl_it = by_path.find(spec.decl_file);
    if (decl_it == by_path.end()) continue;  // synthetic tree: not pinned
    const EnumDecl* decl = nullptr;
    for (const EnumDecl& e : decl_it->second->enums)
      if (e.name == spec.enum_name) decl = &e;
    if (!decl) {
      pm.findings.push_back(
          {spec.decl_file, 1, "table-sync",
           std::string("registered enum ") + spec.enum_name +
               " not found in this file — update the table-sync registry "
               "in tools/lint/model.cpp"});
      continue;
    }
    for (const std::string& enumerator : decl->enumerators) {
      bool skipped = false;
      for (const char* s : spec.skip)
        if (enumerator == s) skipped = true;
      if (skipped) continue;
      const std::string snake = enum_snake_name(enumerator);
      std::vector<std::string> missing;
      for (const char* table : spec.table_files) {
        const auto it = by_path.find(table);
        if (it == by_path.end()) {
          missing.push_back(std::string(table) + " (not in scan)");
          continue;
        }
        const FileSummary& t = *it->second;
        const bool hit =
            spec.match_ident
                ? std::binary_search(t.referenced.begin(), t.referenced.end(),
                                     enumerator)
                : std::binary_search(t.name_strings.begin(),
                                     t.name_strings.end(), snake);
        if (!hit) missing.push_back(table);
      }
      if (missing.empty()) continue;
      std::string where = missing[0];
      for (std::size_t i = 1; i < missing.size(); ++i)
        where += ", " + missing[i];
      pm.findings.push_back(
          {spec.decl_file, decl->line, "table-sync",
           std::string(spec.enum_name) + "::" + enumerator +
               (spec.match_ident ? " never appears in "
                                 : " (\"" + snake + "\") has no table entry "
                                   "in ") +
               where + " — a new enumerator must land in every pinned "
               "renderer/parser table before it can ship"});
    }
  }

  // ---- include-hygiene --------------------------------------------------
  std::map<std::string, std::set<std::string>> closure;
  std::set<std::string> in_progress;
  auto provided_closure = [&](auto&& self,
                              const FileSummary& f) -> const std::set<std::string>& {
    const auto it = closure.find(f.path);
    if (it != closure.end()) return it->second;
    std::set<std::string>& out = closure[f.path];  // placeholder breaks cycles
    if (!in_progress.insert(f.path).second) return out;
    out.insert(f.provided.begin(), f.provided.end());
    for (const IncludeRef& inc : f.includes) {
      const FileSummary* target = resolve(inc.path);
      if (!target) continue;
      const std::set<std::string>& sub = self(self, *target);
      out.insert(sub.begin(), sub.end());
    }
    in_progress.erase(f.path);
    return out;
  };

  auto own_header = [](const FileSummary& f, const FileSummary& h) {
    const auto stem = [](const std::string& p) {
      const std::size_t dot = p.rfind('.');
      return dot == std::string::npos ? p : p.substr(0, dot);
    };
    return stem(f.path) == stem(h.path);
  };

  for (const FileSummary& f : files) {
    for (const IncludeRef& inc : f.includes) {
      const FileSummary* target = resolve(inc.path);
      if (!target || own_header(f, *target)) continue;
      const std::set<std::string>& names = provided_closure(provided_closure,
                                                            *target);
      bool used = false;
      for (const std::string& r : f.referenced)
        if (names.count(r)) {
          used = true;
          break;
        }
      if (!used)
        pm.findings.push_back(
            {f.path, inc.line, "include-hygiene",
             "#include \"" + inc.path + "\" provides no name this file "
             "references (checked transitively) — drop the include"});
    }
    if (f.is_header && !f.has_pragma_once)
      pm.findings.push_back(
          {f.path, 1, "include-hygiene",
           "header lacks #pragma once — every project header must be "
           "safely re-includable (the CI stage compiles each one "
           "standalone)"});
  }

  std::stable_sort(pm.findings.begin(), pm.findings.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.file != b.file) return a.file < b.file;
                     return a.line < b.line;
                   });
  return pm;
}

}  // namespace glap::lint
