#include "rules.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <string_view>
#include <tuple>
#include <utility>

#include "cfg.hpp"
#include "dataflow.hpp"
#include "parse.hpp"
#include "token_util.hpp"

namespace iotls::lint {

namespace {

using Tokens = std::vector<Token>;
using tok::is_ident;
using tok::is_punct;
using tok::skip_balanced;

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

// ---------------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------------

bool next_is_call(const Tokens& toks, std::size_t i) {
  return i + 1 < toks.size() && is_punct(toks[i + 1], "(");
}

/// True when toks[i] names a global (or std::) entity rather than a member,
/// a user-defined qualified name, or a declaration: `x.time(`, `Foo::rand(`
/// and `SimClock clock(...)` are fine, `time(` and `std::time(` are not.
bool global_or_std(const Tokens& toks, std::size_t i) {
  if (i == 0) return true;
  const Token& prev = toks[i - 1];
  if (prev.kind == TokenKind::Ident) {
    static const std::set<std::string> kStmtKeywords = {
        "return", "co_return", "co_yield", "case",  "else",
        "do",     "throw",     "new",      "delete"};
    return kStmtKeywords.count(prev.text) != 0;
  }
  if (prev.kind != TokenKind::Punct) return true;
  if (prev.text == "." || prev.text == "->") return false;
  if (prev.text == "::") {
    return i >= 2 && is_ident(toks[i - 2], "std");
  }
  return true;
}

/// v1-compatible balanced skip whose "<" scan gives up at ";" or "{".
std::size_t skip_balanced_v1(const Tokens& toks, std::size_t open,
                             std::string_view open_text,
                             std::string_view close_text) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (is_punct(toks[i], open_text)) {
      ++depth;
    } else if (is_punct(toks[i], close_text)) {
      if (--depth == 0) return i + 1;
    } else if (open_text == "<" &&
               (is_punct(toks[i], ";") || is_punct(toks[i], "{"))) {
      return i;  // was a comparison, not a template argument list
    }
  }
  return toks.size();
}

bool path_has_fragment(const std::string& path,
                       const std::vector<std::string>& fragments) {
  return std::any_of(fragments.begin(), fragments.end(),
                     [&](const std::string& fragment) {
                       return path.find(fragment) != std::string::npos;
                     });
}

bool in_list(const std::vector<std::string>& list, const std::string& value) {
  return std::find(list.begin(), list.end(), value) != list.end();
}

// ---------------------------------------------------------------------------
// Suppressions and markers
// ---------------------------------------------------------------------------

/// Extract `name(args)` from a directive comment: for directive "allow",
/// a comment tagged iotls-lint with "determinism, banned-api" in the
/// parens yields that list. Returns false for any other comment.
bool parse_directive(const std::string& comment, std::string_view directive,
                     std::string* args) {
  const auto tag = comment.find("iotls-lint:");
  if (tag == std::string::npos) return false;
  auto pos = comment.find(directive, tag);
  if (pos == std::string::npos) return false;
  pos = comment.find('(', pos);
  const auto end = comment.find(')', pos);
  if (pos == std::string::npos || end == std::string::npos) return false;
  *args = comment.substr(pos + 1, end - pos - 1);
  return true;
}

std::vector<std::string> split_list(const std::string& args) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : args) {
    if (c == ',' || c == ' ' || c == '\t') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

// ---------------------------------------------------------------------------
// Shared analysis context
// ---------------------------------------------------------------------------

struct Ctx {
  const std::vector<SourceFile>& files;
  const std::vector<ParsedFile>& parsed;
  /// cfgs[f][k] is the CFG of parsed[f].functions[k].
  const std::vector<std::vector<Cfg>>& cfgs;
  const RuleConfig& config;
};

/// The token range a statement "owns" for fact/sink scanning: control
/// statements own only their head (children are separate nodes), compounds
/// own nothing. Prevents double-scanning nested statements.
void own_range(const Stmt& s, std::size_t* begin, std::size_t* end) {
  switch (s.kind) {
    case Stmt::Kind::Compound:
    case Stmt::Kind::Try:
    case Stmt::Kind::Empty:
      *begin = *end = s.begin;
      return;
    case Stmt::Kind::If:
    case Stmt::Kind::While:
    case Stmt::Kind::DoWhile:
    case Stmt::Kind::For:
    case Stmt::Kind::Switch:
      *begin = s.head_begin;
      *end = s.head_end;
      return;
    default:
      *begin = s.begin;
      *end = s.end;
      return;
  }
}

// ---------------------------------------------------------------------------
// Rule: determinism (ported token rule)
// ---------------------------------------------------------------------------

const std::set<std::string>& wall_clock_calls() {
  static const std::set<std::string> kCalls = {
      "time",   "clock",     "rand",   "srand",    "gettimeofday",
      "random", "localtime", "gmtime", "mktime",   "drand48",
  };
  return kCalls;
}

void rule_determinism(const SourceFile& file, const RuleConfig& config,
                      std::vector<Finding>* out) {
  const Tokens& toks = file.lex.tokens;
  const bool getenv_ok = in_list(config.getenv_allowed_files, file.path);
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::Ident) continue;
    if (wall_clock_calls().count(t.text) != 0 && next_is_call(toks, i) &&
        global_or_std(toks, i)) {
      out->push_back({file.path, t.line, "determinism",
                      t.text + "() is nondeterministic; draw through "
                      "common::Rng / common::SimClock instead"});
    } else if (t.text == "random_device" || t.text == "system_clock") {
      out->push_back({file.path, t.line, "determinism",
                      "std::" + t.text + " breaks byte-identical outputs; "
                      "use common::Rng (seeded) or steady_clock (timing)"});
    } else if (t.text == "getenv" && !getenv_ok) {
      out->push_back({file.path, t.line, "determinism",
                      "getenv outside common/env.hpp; route knobs through "
                      "common::strict_env_long"});
    } else if (t.text == "hash" && i + 1 < toks.size() &&
               is_punct(toks[i + 1], "<")) {
      const std::size_t end = skip_balanced_v1(toks, i + 1, "<", ">");
      for (std::size_t j = i + 2; j + 1 < end; ++j) {
        if (is_punct(toks[j], "*")) {
          out->push_back({file.path, t.line, "determinism",
                          "hashing a pointer value makes iteration order "
                          "depend on the allocator; hash stable contents "
                          "or an explicit id"});
          break;
        }
      }
    } else if (t.text == "reinterpret_cast" && i + 1 < toks.size() &&
               is_punct(toks[i + 1], "<")) {
      const std::size_t end = skip_balanced_v1(toks, i + 1, "<", ">");
      for (std::size_t j = i + 2; j + 1 < end; ++j) {
        if (toks[j].kind == TokenKind::Ident &&
            (toks[j].text == "uintptr_t" || toks[j].text == "intptr_t")) {
          out->push_back({file.path, t.line, "determinism",
                          "casting a pointer to an integer launders address "
                          "nondeterminism into data; use a stable id"});
          break;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: banned-api (ported token rule)
// ---------------------------------------------------------------------------

void rule_banned_api(const SourceFile& file, std::vector<Finding>* out) {
  static const std::map<std::string, std::string> kBanned = {
      {"strcpy", "unbounded copy; use std::string or std::copy_n"},
      {"strcat", "unbounded append; use std::string"},
      {"sprintf", "unbounded format; use std::snprintf"},
      {"vsprintf", "unbounded format; use std::vsnprintf"},
      {"gets", "unbounded read; use std::getline"},
      {"atoi", "silent-zero parsing; use std::from_chars or strict_env_long"},
      {"atol", "silent-zero parsing; use std::from_chars or strict_env_long"},
      {"atoll", "silent-zero parsing; use std::from_chars or strict_env_long"},
      {"atof", "silent-zero parsing; use std::from_chars"},
  };
  const Tokens& toks = file.lex.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::Ident) continue;
    const auto it = kBanned.find(toks[i].text);
    if (it == kBanned.end()) continue;
    if (!next_is_call(toks, i) || !global_or_std(toks, i)) continue;
    out->push_back({file.path, toks[i].line, "banned-api",
                    it->first + "(): " + it->second});
  }
}

// ---------------------------------------------------------------------------
// Rule: include-hygiene (ported token rule)
// ---------------------------------------------------------------------------

void rule_include_hygiene(const SourceFile& file, std::vector<Finding>* out) {
  const Tokens& toks = file.lex.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TokenKind::PPLine) {
      const auto head = t.text.find_first_not_of(" \t");
      if (head == std::string::npos ||
          t.text.compare(head, 7, "include") != 0) {
        continue;
      }
      const auto open = t.text.find('"', head);
      const auto close =
          open == std::string::npos ? open : t.text.find('"', open + 1);
      if (open == std::string::npos || close == std::string::npos) continue;
      const std::string path = t.text.substr(open + 1, close - open - 1);
      if (path.rfind("../", 0) == 0 ||
          path.find("/../") != std::string::npos) {
        out->push_back({file.path, t.line, "include-hygiene",
                        "relative include \"" + path + "\"; include "
                        "src-root-relative (\"tls/alert.hpp\") instead"});
      }
    } else if (file.is_header() && is_ident(t, "using") &&
               i + 1 < toks.size() && is_ident(toks[i + 1], "namespace")) {
      out->push_back({file.path, t.line, "include-hygiene",
                      "`using namespace` in a header leaks into every "
                      "includer; qualify or alias instead"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: raw-io (ported token rule)
// ---------------------------------------------------------------------------

const std::set<std::string>& raw_io_calls() {
  static const std::set<std::string> kCalls = {
      "fopen",  "freopen", "fdopen", "fread", "fwrite", "fclose",
      "fflush", "fgets",   "fputs",  "fgetc", "fputc",  "fprintf",
      "fscanf", "fseek",   "ftell",  "rewind",
  };
  return kCalls;
}

void rule_raw_io(const SourceFile& file, const RuleConfig& config,
                 std::vector<Finding>* out) {
  if (!path_has_fragment(file.path, config.raw_io_scope_fragments)) return;
  if (in_list(config.raw_io_allowed_files, file.path)) return;
  static const std::set<std::string> kStreamTypes = {"ifstream", "ofstream",
                                                     "fstream"};
  const Tokens& toks = file.lex.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::Ident) continue;
    if (raw_io_calls().count(t.text) != 0 && next_is_call(toks, i) &&
        global_or_std(toks, i)) {
      out->push_back({file.path, t.line, "raw-io",
                      t.text + "() in capture-store code; route file I/O "
                      "through store::CheckedFile (src/store/io.hpp)"});
    } else if (kStreamTypes.count(t.text) != 0) {
      out->push_back({file.path, t.line, "raw-io",
                      "std::" + t.text + " in capture-store code; route file "
                      "I/O through store::CheckedFile (src/store/io.hpp)"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: timing-hygiene (ported token rule)
// ---------------------------------------------------------------------------

const std::set<std::string>& raw_clock_types() {
  static const std::set<std::string> kClocks = {"steady_clock",
                                                "high_resolution_clock"};
  return kClocks;
}

void rule_timing_hygiene(const SourceFile& file, const RuleConfig& config,
                         std::vector<Finding>* out) {
  if (path_has_fragment(file.path, config.timing_allowed_fragments)) return;
  const Tokens& toks = file.lex.tokens;
  for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::Ident || raw_clock_types().count(t.text) == 0) {
      continue;
    }
    if (is_punct(toks[i + 1], "::") && is_ident(toks[i + 2], "now") &&
        is_punct(toks[i + 3], "(")) {
      out->push_back({file.path, t.line, "timing-hygiene",
                      t.text + "::now() outside src/obs/; measure through "
                      "obs::WallTimer or obs::profile_now_ns so clock reads "
                      "stay auditable"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: alert-exhaustive (ported cross-file token rule)
// ---------------------------------------------------------------------------

std::vector<std::string> parse_alert_enum(const SourceFile& file) {
  const Tokens& toks = file.lex.tokens;
  std::vector<std::string> out;
  for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
    if (!(is_ident(toks[i], "enum") && is_ident(toks[i + 1], "class") &&
          is_ident(toks[i + 2], "AlertDescription"))) {
      continue;
    }
    std::size_t j = i + 3;
    while (j < toks.size() && !is_punct(toks[j], "{")) ++j;  // skip ": type"
    bool expect_name = true;
    for (++j; j < toks.size() && !is_punct(toks[j], "}"); ++j) {
      if (expect_name && toks[j].kind == TokenKind::Ident) {
        out.push_back(toks[j].text);
        expect_name = false;
      } else if (is_punct(toks[j], ",")) {
        expect_name = true;
      }
    }
    break;
  }
  return out;
}

struct AlertMarker {
  std::string name;
  std::string file;
  int line;
};

void rule_alert_exhaustive(const Ctx& ctx, std::vector<Finding>* out) {
  const RuleConfig& config = ctx.config;
  std::vector<std::string> enumerators;
  for (const auto& file : ctx.files) {
    if (file.path == config.alert_enum_file) {
      enumerators = parse_alert_enum(file);
      break;
    }
  }
  if (enumerators.empty()) {
    if (!config.alert_enum_file.empty()) {
      out->push_back({config.alert_enum_file, 1, "alert-exhaustive",
                      "AlertDescription enum not found; the exhaustiveness "
                      "invariant has nothing to check against"});
    }
    return;
  }

  std::vector<AlertMarker> markers;
  for (const auto& file : ctx.files) {
    for (const auto& comment : file.lex.comments) {
      std::string name;
      if (!parse_directive(comment.text, "alert-exhaustive", &name)) continue;
      markers.push_back({name, file.path, comment.line});
      const Tokens& toks = file.lex.tokens;
      std::size_t open = 0;
      while (open < toks.size() &&
             !(is_punct(toks[open], "{") && toks[open].line >= comment.line)) {
        ++open;
      }
      const std::size_t end = skip_balanced(toks, open, "{", "}");
      std::set<std::string> covered;
      for (std::size_t i = open; i + 2 < end; ++i) {
        if (is_ident(toks[i], "AlertDescription") &&
            is_punct(toks[i + 1], "::") &&
            toks[i + 2].kind == TokenKind::Ident) {
          covered.insert(toks[i + 2].text);
        }
      }
      std::string missing;
      for (const auto& e : enumerators) {
        if (covered.count(e) == 0) {
          missing += missing.empty() ? e : ", " + e;
        }
      }
      if (!missing.empty()) {
        out->push_back({file.path, comment.line, "alert-exhaustive",
                        "switch '" + name + "' does not classify: " +
                            missing});
      }
    }
  }

  for (const auto& required : config.required_alert_markers) {
    const bool present =
        std::any_of(markers.begin(), markers.end(),
                    [&](const AlertMarker& m) { return m.name == required; });
    if (!present) {
      out->push_back({config.alert_enum_file, 1, "alert-exhaustive",
                      "registered switch '" + required + "' has no "
                      "iotls-lint: alert-exhaustive(" + required +
                          ") marker anywhere in the tree"});
    }
  }
}

// ---------------------------------------------------------------------------
// Nested-lambda exclusion
// ---------------------------------------------------------------------------

using TokenRange = std::pair<std::size_t, std::size_t>;

/// Sorted body ranges of lambdas nested inside `fn`. Their tokens sit
/// inside the enclosing statement ranges but belong to their own Function
/// entry — scanning them here would attribute a lambda's facts (and its
/// secrets) to the enclosing function.
std::vector<TokenRange> nested_lambda_ranges(const ParsedFile& parsed,
                                             const Function& fn) {
  std::vector<TokenRange> out;
  for (const Function& other : parsed.functions) {
    if (&other == &fn || !other.is_lambda) continue;
    if (other.body_begin >= fn.body_begin && other.body_end <= fn.body_end) {
      out.emplace_back(other.body_begin, other.body_end);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// First index at or after `i` that is outside every skip range.
std::size_t skip_nested(const std::vector<TokenRange>& skips,
                        std::size_t i) {
  std::size_t r = i;
  for (const auto& [b, e] : skips) {
    if (b > r) break;
    if (r < e) r = e;
  }
  return r;
}

// ---------------------------------------------------------------------------
// RAII-region-across-suspension machinery (lock + thread-local RAII rules)
// ---------------------------------------------------------------------------

struct RaiiFact {
  std::string name;  // variable name
  std::string type;  // RAII type that made it a fact
};

/// End of the declarator-type region of a Decl statement: the index of the
/// declared name. The RAII type of interest is always spelled before the
/// name, and stopping there keeps lambda initializers out of the scan.
std::size_t decl_type_end(const Tokens& toks, const Stmt& s, std::size_t b,
                          std::size_t e) {
  for (std::size_t i = b; i < e && i < toks.size(); ++i) {
    if (toks[i].kind == TokenKind::Ident &&
        toks[i].text == s.decl_names.front()) {
      return i;
    }
  }
  return e;
}

/// Find RAII facts of `types` in coroutine `fn`, solve liveness over the
/// CFG, and report every suspension point where one is live.
void check_raii_across_suspension(
    const SourceFile& file, const Function& fn, const Cfg& cfg,
    const std::vector<std::string>& types, const char* rule,
    const char* hazard, std::vector<Finding>* out) {
  const Tokens& toks = file.lex.tokens;

  // Fact universe: declarations whose statement names one of the RAII
  // types, plus `m.lock()` statements for the lock rule (type "mutex").
  std::vector<RaiiFact> facts;
  std::map<std::string, std::size_t> fact_ids;
  const bool lock_rule = std::string_view(rule) == "lock-across-suspension";
  auto fact_id = [&](const std::string& name,
                     const std::string& type) -> std::size_t {
    const auto it = fact_ids.find(name);
    if (it != fact_ids.end()) return it->second;
    fact_ids[name] = facts.size();
    facts.push_back({name, type});
    return facts.size() - 1;
  };

  // First pass: discover facts so the bitsets can be sized.
  for (const CfgNode& node : cfg.nodes) {
    if (node.kind != CfgNode::Kind::Stmt || node.stmt == nullptr) continue;
    const Stmt& s = *node.stmt;
    std::size_t b = 0, e = 0;
    own_range(s, &b, &e);
    if (s.kind == Stmt::Kind::Decl && !s.decl_names.empty()) {
      const std::size_t type_end = decl_type_end(toks, s, b, e);
      for (std::size_t i = b; i < type_end; ++i) {
        if (toks[i].kind == TokenKind::Ident &&
            in_list(types, toks[i].text)) {
          fact_id(s.decl_names.front(), toks[i].text);
          break;
        }
      }
    } else if (lock_rule && e >= b + 4 && toks[b].kind == TokenKind::Ident &&
               (is_punct(toks[b + 1], ".") || is_punct(toks[b + 1], "->")) &&
               is_ident(toks[b + 2], "lock") && is_punct(toks[b + 3], "(")) {
      fact_id(toks[b].text, "mutex");
    }
  }
  if (facts.empty()) return;

  FlowProblem problem;
  problem.nfacts = facts.size();
  problem.gen.assign(cfg.nodes.size(), BitSet(facts.size()));
  problem.kill.assign(cfg.nodes.size(), BitSet(facts.size()));
  for (std::size_t n = 0; n < cfg.nodes.size(); ++n) {
    const CfgNode& node = cfg.nodes[n];
    if (node.kind == CfgNode::Kind::ScopeExit) {
      for (const auto& name : node.dying) {
        const auto it = fact_ids.find(name);
        if (it != fact_ids.end()) problem.kill[n].set(it->second);
      }
      continue;
    }
    if (node.kind != CfgNode::Kind::Stmt || node.stmt == nullptr) continue;
    const Stmt& s = *node.stmt;
    std::size_t b = 0, e = 0;
    own_range(s, &b, &e);
    if (s.kind == Stmt::Kind::Decl && !s.decl_names.empty()) {
      const std::size_t type_end = decl_type_end(toks, s, b, e);
      for (std::size_t i = b; i < type_end; ++i) {
        if (toks[i].kind == TokenKind::Ident &&
            in_list(types, toks[i].text)) {
          problem.gen[n].set(fact_ids.at(s.decl_names.front()));
          break;
        }
      }
    } else if (lock_rule && e >= b + 4 && toks[b].kind == TokenKind::Ident &&
               (is_punct(toks[b + 1], ".") || is_punct(toks[b + 1], "->"))) {
      const auto it = fact_ids.find(toks[b].text);
      if (it != fact_ids.end() && is_punct(toks[b + 3], "(")) {
        if (is_ident(toks[b + 2], "lock")) problem.gen[n].set(it->second);
        if (is_ident(toks[b + 2], "unlock")) problem.kill[n].set(it->second);
      }
    }
    // `g.unlock()` on a unique_lock releases the RAII fact too.
    if (e >= b + 4 && toks[b].kind == TokenKind::Ident &&
        (is_punct(toks[b + 1], ".") || is_punct(toks[b + 1], "->")) &&
        is_ident(toks[b + 2], "unlock") && is_punct(toks[b + 3], "(")) {
      const auto it = fact_ids.find(toks[b].text);
      if (it != fact_ids.end()) problem.kill[n].set(it->second);
    }
  }

  const FlowResult flow = solve_forward(cfg, problem);
  for (std::size_t n = 0; n < cfg.nodes.size(); ++n) {
    if (cfg.nodes[n].kind != CfgNode::Kind::Suspend) continue;
    for (std::size_t f = 0; f < facts.size(); ++f) {
      if (!flow.in[n].test(f)) continue;
      out->push_back(
          {file.path, cfg.nodes[n].line, rule,
           "'" + facts[f].name + "' (" + facts[f].type + ") in '" +
               fn.name + "' is live across a suspension point; " + hazard});
    }
  }
}

void rule_lock_across_suspension(const Ctx& ctx, std::vector<Finding>* out) {
  for (std::size_t f = 0; f < ctx.files.size(); ++f) {
    const auto& functions = ctx.parsed[f].functions;
    for (std::size_t k = 0; k < functions.size(); ++k) {
      if (!functions[k].is_coroutine) continue;
      check_raii_across_suspension(
          ctx.files[f], functions[k], ctx.cfgs[f][k], ctx.config.lock_types,
          "lock-across-suspension",
          "a parked coroutine resumes on a later tick with the mutex still "
          "held, stalling every connection that needs it — release before "
          "co_await",
          out);
    }
  }
}

void rule_thread_local_across_suspension(const Ctx& ctx,
                                         std::vector<Finding>* out) {
  for (std::size_t f = 0; f < ctx.files.size(); ++f) {
    const SourceFile& file = ctx.files[f];
    const ParsedFile& parsed = ctx.parsed[f];
    for (std::size_t k = 0; k < parsed.functions.size(); ++k) {
      const Function& fn = parsed.functions[k];
      if (!fn.is_coroutine) continue;
      const Cfg& cfg = ctx.cfgs[f][k];
      check_raii_across_suspension(
          file, fn, cfg, ctx.config.thread_local_raii_types,
          "thread-local-across-suspension",
          "its destructor touches thread_local state and may run on a "
          "different thread after resume — scope it between suspension "
          "points",
          out);

      // Direct reads of thread_local variables on both sides of a
      // suspension: fact pair (read, read-then-suspended) per name.
      const std::vector<std::string>& names = parsed.thread_locals;
      if (names.empty()) continue;
      const std::size_t n_names = names.size();
      const std::vector<TokenRange> skips = nested_lambda_ranges(parsed, fn);
      FlowProblem problem;
      problem.nfacts = 2 * n_names;  // [i]=read, [n_names+i]=crossed
      problem.gen.assign(cfg.nodes.size(), BitSet(problem.nfacts));
      problem.kill.assign(cfg.nodes.size(), BitSet(problem.nfacts));
      const Tokens& toks = file.lex.tokens;
      std::vector<std::vector<std::size_t>> mentions(cfg.nodes.size());
      for (std::size_t n = 0; n < cfg.nodes.size(); ++n) {
        const CfgNode& node = cfg.nodes[n];
        if (node.kind != CfgNode::Kind::Stmt || node.stmt == nullptr) {
          continue;
        }
        std::size_t b = 0, e = 0;
        own_range(*node.stmt, &b, &e);
        for (std::size_t i = b; i < e && i < toks.size(); ++i) {
          const std::size_t past = skip_nested(skips, i);
          if (past != i) {
            i = past - 1;
            continue;
          }
          if (toks[i].kind != TokenKind::Ident) continue;
          for (std::size_t x = 0; x < n_names; ++x) {
            if (toks[i].text == names[x]) {
              problem.gen[n].set(x);
              mentions[n].push_back(x);
            }
          }
        }
      }
      const Cfg& c = cfg;
      problem.transfer = [&c, n_names](int n, BitSet& outset) {
        if (c.nodes[n].kind == CfgNode::Kind::Suspend) {
          for (std::size_t x = 0; x < n_names; ++x) {
            if (outset.test(x)) outset.set(n_names + x);
          }
        }
        return false;  // fall through to gen/kill
      };
      const FlowResult flow = solve_forward(cfg, problem);
      std::set<std::pair<int, std::size_t>> reported;
      for (std::size_t n = 0; n < cfg.nodes.size(); ++n) {
        for (const std::size_t x : mentions[n]) {
          if (!flow.in[n].test(n_names + x)) continue;
          if (!reported.insert({cfg.nodes[n].line, x}).second) continue;
          out->push_back(
              {file.path, cfg.nodes[n].line,
               "thread-local-across-suspension",
               "thread_local '" + names[x] + "' is accessed on both sides "
               "of a suspension point in '" + fn.name + "'; the coroutine "
               "may resume on a different thread — confine the access to "
               "one side or capture a plain local"});
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: secret-taint
// ---------------------------------------------------------------------------

/// Types that hold private-key material or Rng state (crypto/rsa.hpp,
/// common/rng.hpp). Naming one in a logging/trace/metrics argument list is
/// a leak even if only a summary is printed today.
const std::set<std::string>& secret_types() {
  static const std::set<std::string> kTypes = {"RsaPrivateKey", "RsaKeyPair"};
  return kTypes;
}

/// Data members of RsaPrivateKey / Rng whose values are the secret: the CRT
/// params, the private exponent, the generator state.
const std::set<std::string>& secret_members() {
  static const std::set<std::string> kMembers = {"d",  "p",    "q",   "dp",
                                                 "dq", "qinv", "priv"};
  return kMembers;
}

/// Call-argument sinks: anything written here ends up in a trace span, a
/// metrics label, or a terminal.
const std::set<std::string>& sink_calls() {
  static const std::set<std::string> kSinks = {
      "event", "set_attr", "log",   "printf", "fprintf",
      "snprintf", "counter", "gauge", "record",
  };
  return kSinks;
}

bool name_has_fragment(const std::string& name,
                       const std::vector<std::string>& fragments) {
  return std::any_of(fragments.begin(), fragments.end(),
                     [&](const std::string& fragment) {
                       return name.find(fragment) != std::string::npos;
                     });
}

struct TaintWorld {
  const RuleConfig* config = nullptr;
  /// Functions whose return value carries taint (interprocedural-lite).
  std::set<std::string> tainted_returns;
};

/// Does the token range carry taint? Sanitizer calls are skipped wholesale
/// — `digest_hex(premaster)` is clean by decree. `locals` maps in-scope
/// variable names to fact ids tested against `in` (pass null for a
/// flow-free scan).
bool range_tainted(const Tokens& toks, std::size_t begin, std::size_t end,
                   const TaintWorld& world,
                   const std::map<std::string, std::size_t>* locals,
                   const BitSet* in, int* line,
                   const std::vector<TokenRange>* skips = nullptr) {
  for (std::size_t i = begin; i < end && i < toks.size(); ++i) {
    if (skips != nullptr) {
      const std::size_t past = skip_nested(*skips, i);
      if (past != i) {
        i = past - 1;
        continue;
      }
    }
    const Token& t = toks[i];
    if (t.kind != TokenKind::Ident) continue;
    if (in_list(world.config->taint_sanitizers, t.text) &&
        next_is_call(toks, i)) {
      i = skip_balanced(toks, i + 1, "(", ")");
      if (i > 0) --i;  // loop increment lands just past the close paren
      continue;
    }
    const bool is_member_access =
        i > 0 && (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->"));
    if (secret_types().count(t.text) != 0) {
      if (line != nullptr) *line = t.line;
      return true;
    }
    if (is_member_access && secret_members().count(t.text) != 0 &&
        !next_is_call(toks, i)) {
      if (line != nullptr) *line = t.line;
      return true;
    }
    if (name_has_fragment(t.text, world.config->secret_name_fragments)) {
      if (line != nullptr) *line = t.line;
      return true;
    }
    if (!is_member_access && locals != nullptr && in != nullptr) {
      const auto it = locals->find(t.text);
      if (it != locals->end() && in->test(it->second)) {
        if (line != nullptr) *line = t.line;
        return true;
      }
    }
    if (world.tainted_returns.count(t.text) != 0 && next_is_call(toks, i)) {
      if (line != nullptr) *line = t.line;
      return true;
    }
  }
  return false;
}

void collect_local_names(const Tokens& toks, const Stmt& s,
                         std::map<std::string, std::size_t>* out) {
  for (const auto& n : s.decl_names) {
    if (out->find(n) == out->end()) out->emplace(n, out->size());
  }
  // Assignment targets: `x = ...` (lexer max-munch keeps `==`, `<=`, `+=`
  // as single tokens, so a bare `=` is a real assignment).
  std::size_t b = 0, e = 0;
  own_range(s, &b, &e);
  for (std::size_t i = b; i + 1 < e && i + 1 < toks.size(); ++i) {
    if (toks[i].kind == TokenKind::Ident && is_punct(toks[i + 1], "=")) {
      if (out->find(toks[i].text) == out->end()) {
        out->emplace(toks[i].text, out->size());
      }
    }
  }
  for (const Stmt& c : s.children) collect_local_names(toks, c, out);
}

/// The initializer / right-hand-side range of a Decl or assignment
/// statement, or (false) when the statement is neither.
bool split_assignment(const Tokens& toks, const Stmt& s, std::string* lhs,
                      std::size_t* rhs_begin, std::size_t* rhs_end) {
  if (s.kind != Stmt::Kind::Decl && s.kind != Stmt::Kind::Expr) return false;
  std::size_t b = 0, e = 0;
  own_range(s, &b, &e);
  if (e > b && is_punct(toks[e - 1], ";")) --e;
  if (s.kind == Stmt::Kind::Decl) {
    if (s.decl_names.empty()) return false;
    *lhs = s.decl_names.front();
    // Initializer starts after the declarator name.
    for (std::size_t i = b; i < e; ++i) {
      if (toks[i].kind == TokenKind::Ident && toks[i].text == *lhs &&
          i + 1 < e &&
          (is_punct(toks[i + 1], "=") || is_punct(toks[i + 1], "(") ||
           is_punct(toks[i + 1], "{"))) {
        *rhs_begin = i + 2;
        *rhs_end = e;
        return true;
      }
    }
    return false;  // declaration without initializer
  }
  // Plain `x = ...` assignment.
  if (e > b + 2 && toks[b].kind == TokenKind::Ident &&
      is_punct(toks[b + 1], "=")) {
    *lhs = toks[b].text;
    *rhs_begin = b + 2;
    *rhs_end = e;
    return true;
  }
  return false;
}

void taint_function(const SourceFile& file, const ParsedFile& parsed,
                    const Function& fn, const Cfg& cfg,
                    const TaintWorld& world, bool* returns_taint,
                    std::vector<Finding>* out) {
  const Tokens& toks = file.lex.tokens;
  const std::vector<TokenRange> skips = nested_lambda_ranges(parsed, fn);
  std::map<std::string, std::size_t> locals;
  collect_local_names(toks, fn.body, &locals);

  FlowProblem problem;
  problem.nfacts = locals.size();
  problem.transfer = [&](int n, BitSet& outset) {
    const CfgNode& node = cfg.nodes[n];
    if (node.kind == CfgNode::Kind::ScopeExit) {
      for (const auto& name : node.dying) {
        const auto it = locals.find(name);
        if (it != locals.end()) outset.reset(it->second);
      }
      return true;
    }
    if (node.kind != CfgNode::Kind::Stmt || node.stmt == nullptr) {
      return true;
    }
    std::string lhs;
    std::size_t rb = 0, re = 0;
    if (split_assignment(toks, *node.stmt, &lhs, &rb, &re)) {
      const auto it = locals.find(lhs);
      if (it != locals.end()) {
        if (range_tainted(toks, rb, re, world, &locals, &outset, nullptr,
                          &skips)) {
          outset.set(it->second);
        } else {
          outset.reset(it->second);
        }
      }
    }
    return true;
  };
  const FlowResult flow = solve_forward(cfg, problem);

  // Sinks: a trace/log/metrics call whose arguments are tainted under the
  // facts flowing into that statement.
  if (out != nullptr) {
    std::set<std::pair<int, std::string>> reported;
    for (std::size_t n = 0; n < cfg.nodes.size(); ++n) {
      const CfgNode& node = cfg.nodes[n];
      if (node.kind != CfgNode::Kind::Stmt || node.stmt == nullptr) continue;
      std::size_t b = 0, e = 0;
      own_range(*node.stmt, &b, &e);
      for (std::size_t i = b; i < e && i < toks.size(); ++i) {
        const std::size_t past = skip_nested(skips, i);
        if (past != i) {
          i = past - 1;
          continue;
        }
        if (toks[i].kind != TokenKind::Ident ||
            sink_calls().count(toks[i].text) == 0 ||
            !next_is_call(toks, i)) {
          continue;
        }
        const std::size_t close = skip_balanced(toks, i + 1, "(", ")");
        int line = toks[i].line;
        if (range_tainted(toks, i + 2, close > 0 ? close - 1 : close, world,
                          &locals, &flow.in[n], &line, &skips)) {
          if (reported.insert({line, toks[i].text}).second) {
            out->push_back(
                {file.path, line, "secret-taint",
                 "key material reaches " + toks[i].text + "() arguments; "
                 "log a digest or size via an allowlisted wrapper, never "
                 "the secret"});
          }
        }
        i = close > i ? close - 1 : i;
      }
    }
  }

  // Return-taint summary for the interprocedural pass.
  if (returns_taint != nullptr) {
    *returns_taint = false;
    for (std::size_t n = 0; n < cfg.nodes.size(); ++n) {
      const CfgNode& node = cfg.nodes[n];
      if (node.kind != CfgNode::Kind::Stmt || node.stmt == nullptr ||
          node.stmt->kind != Stmt::Kind::Return) {
        continue;
      }
      std::size_t b = node.stmt->begin + 1;  // past return / co_return
      std::size_t e = node.stmt->end;
      if (e > b && is_punct(toks[e - 1], ";")) --e;
      if (range_tainted(toks, b, e, world, &locals, &flow.in[n], nullptr,
                        &skips)) {
        *returns_taint = true;
        return;
      }
    }
  }
}

void rule_secret_taint(const Ctx& ctx, std::vector<Finding>* out) {
  TaintWorld world;
  world.config = &ctx.config;

  // Interprocedural-lite: fixpoint over "does fn return tainted data",
  // keyed by (unqualified) name. A few rounds cover realistic call depth.
  for (int round = 0; round < 4; ++round) {
    bool changed = false;
    for (std::size_t f = 0; f < ctx.files.size(); ++f) {
      const auto& functions = ctx.parsed[f].functions;
      for (std::size_t k = 0; k < functions.size(); ++k) {
        const Function& fn = functions[k];
        if (fn.is_lambda || world.tainted_returns.count(fn.name) != 0) {
          continue;
        }
        bool returns_taint = false;
        taint_function(ctx.files[f], ctx.parsed[f], fn, ctx.cfgs[f][k],
                       world, &returns_taint, nullptr);
        if (returns_taint) {
          world.tainted_returns.insert(fn.name);
          changed = true;
        }
      }
    }
    if (!changed) break;
  }

  // Flow-sensitive sink pass per function.
  for (std::size_t f = 0; f < ctx.files.size(); ++f) {
    const auto& functions = ctx.parsed[f].functions;
    for (std::size_t k = 0; k < functions.size(); ++k) {
      taint_function(ctx.files[f], ctx.parsed[f], functions[k],
                     ctx.cfgs[f][k], world, nullptr, out);
    }
  }

  // Token-level checks kept from v1 (whole file, no flow needed):
  // operator<< over a secret type, and secret material streamed to an
  // ostream — a printable private key is a leak waiting for a call site.
  for (const SourceFile& file : ctx.files) {
    const Tokens& toks = file.lex.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (!is_ident(t, "operator")) continue;
      if (i + 2 < toks.size() && is_punct(toks[i + 1], "<<") &&
          is_punct(toks[i + 2], "(")) {
        const std::size_t end = skip_balanced(toks, i + 2, "(", ")");
        for (std::size_t j = i + 3; j + 1 < end; ++j) {
          if (toks[j].kind == TokenKind::Ident &&
              (secret_types().count(toks[j].text) != 0 ||
               toks[j].text == "Rng")) {
            out->push_back({file.path, t.line, "secret-taint",
                            "operator<< over key-material type " +
                                toks[j].text +
                                "; keys must not be printable"});
            break;
          }
        }
      }
    }
    static const std::set<std::string> kStreams = {
        "cout", "cerr", "clog", "ostream",      "ofstream",
        "oss",  "ss",   "stringstream", "ostringstream",
    };
    std::map<int, std::vector<std::size_t>> by_line;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      by_line[toks[i].line].push_back(i);
    }
    for (const auto& [line, idxs] : by_line) {
      bool has_shift = false, has_stream = false;
      for (const std::size_t i : idxs) {
        if (is_punct(toks[i], "<<")) has_shift = true;
        if (toks[i].kind == TokenKind::Ident &&
            kStreams.count(toks[i].text) != 0) {
          has_stream = true;
        }
      }
      if (!has_shift || !has_stream) continue;
      int found_line = line;
      if (range_tainted(toks, idxs.front(), idxs.back() + 1, world, nullptr,
                        nullptr, &found_line)) {
        out->push_back({file.path, line, "secret-taint",
                        "key material streamed to an ostream; log a digest "
                        "or size via an allowlisted wrapper, never the "
                        "secret"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: unchecked-result
// ---------------------------------------------------------------------------

/// Match a normalized return-type spelling against the configured status
/// types: whole spelling, last ::-component, or template head.
bool status_type_match(const std::string& type,
                       const std::vector<std::string>& status_types) {
  if (type.empty()) return false;
  // Discarding a call that returns a reference/pointer (an accessor) is
  // not a dropped status.
  const char tail = type.back();
  if (tail == '&' || tail == '*') return false;
  std::string head = type.substr(0, type.find('<'));
  const auto sep = head.rfind("::");
  if (sep != std::string::npos) head = head.substr(sep + 2);
  return in_list(status_types, type) || in_list(status_types, head);
}

/// When the statement is a bare call chain (`a.b(x).c(y);`), the callee of
/// the OUTERMOST (last) call — the one whose result is discarded. Empty
/// string otherwise, and for explicit `(void)` discards.
std::string bare_call_callee(const Tokens& toks, std::size_t begin,
                             std::size_t end) {
  std::size_t e = end;
  if (e > begin && is_punct(toks[e - 1], ";")) --e;
  if (e <= begin) return "";
  if (is_punct(toks[begin], "(") && begin + 2 < e &&
      is_ident(toks[begin + 1], "void") && is_punct(toks[begin + 2], ")")) {
    return "";  // explicit discard
  }
  std::string cur, last;
  std::size_t i = begin;
  while (i < e) {
    const Token& t = toks[i];
    if (t.kind == TokenKind::Ident) {
      if (t.text == "co_await" || t.text == "std") {
        ++i;
        continue;
      }
      cur = t.text;
      ++i;
    } else if (is_punct(t, "::") || is_punct(t, ".") || is_punct(t, "->")) {
      ++i;
    } else if (is_punct(t, "<")) {
      const std::size_t past = tok::skip_template_args(toks, i, e);
      if (past == kNpos) return "";
      i = past;
    } else if (is_punct(t, "(")) {
      const std::size_t close = skip_balanced(toks, i, "(", ")");
      last = cur;
      i = close;
    } else {
      return "";  // any other operator: not a bare call statement
    }
  }
  return last;
}

void walk_expr_stmts(const Stmt& s,
                     const std::function<void(const Stmt&)>& visit) {
  if (s.kind == Stmt::Kind::Expr) visit(s);
  for (const Stmt& c : s.children) walk_expr_stmts(c, visit);
}

void rule_unchecked_result(const Ctx& ctx, std::vector<Finding>* out) {
  // Cross-file declaration table: callee name -> status return type.
  // Names with ANY [[nodiscard]] declaration are skipped (the compiler
  // enforces those), as are names with conflicting non-status overloads.
  std::map<std::string, std::string> status_fns;
  std::set<std::string> excluded;
  for (const ParsedFile& parsed : ctx.parsed) {
    for (const FnDecl& decl : parsed.declarations) {
      if (decl.nodiscard) {
        excluded.insert(decl.name);
        continue;
      }
      if (status_type_match(decl.return_type, ctx.config.status_types)) {
        status_fns.emplace(decl.name, decl.return_type);
      } else {
        excluded.insert(decl.name);  // overload returning a non-status type
      }
    }
  }
  for (const auto& name : excluded) status_fns.erase(name);
  if (status_fns.empty()) return;

  for (std::size_t f = 0; f < ctx.files.size(); ++f) {
    const SourceFile& file = ctx.files[f];
    const Tokens& toks = file.lex.tokens;
    for (const Function& fn : ctx.parsed[f].functions) {
      walk_expr_stmts(fn.body, [&](const Stmt& s) {
        std::size_t b = 0, e = 0;
        own_range(s, &b, &e);
        const std::string callee = bare_call_callee(toks, b, e);
        if (callee.empty()) return;
        const auto it = status_fns.find(callee);
        if (it == status_fns.end()) return;
        out->push_back(
            {file.path, s.line, "unchecked-result",
             "result of " + callee + "() (" + it->second + ") is "
             "discarded; check it or cast to (void) with a reason"});
      });
    }
  }
}

// ---------------------------------------------------------------------------
// Engine: registry, suppression, ordering
// ---------------------------------------------------------------------------

struct AllowKey {
  std::string rule;
  int line;
  bool operator<(const AllowKey& o) const {
    return std::tie(rule, line) < std::tie(o.rule, o.line);
  }
};

}  // namespace

const std::vector<std::string>& rule_names() {
  static const std::vector<std::string> kNames = {
      "alert-exhaustive",
      "banned-api",
      "determinism",
      "include-hygiene",
      "lock-across-suspension",
      "raw-io",
      "secret-taint",
      "thread-local-across-suspension",
      "timing-hygiene",
      "unchecked-result"};
  return kNames;
}

std::vector<Finding> run_rules(const std::vector<SourceFile>& files,
                               const RuleConfig& config) {
  return run_rules_full(files, config).findings;
}

RunResult run_rules_full(const std::vector<SourceFile>& files,
                         const RuleConfig& config,
                         const std::function<double()>& now_ms,
                         std::vector<RuleTiming>* timings) {
  const auto stamp = [&](const char* label, double since) {
    if (timings != nullptr && now_ms != nullptr) {
      timings->push_back({label, now_ms() - since});
    }
  };
  const auto now = [&]() { return now_ms != nullptr ? now_ms() : 0.0; };

  // Shared parse pass: statement trees + CFGs, built once for every rule.
  double t0 = now();
  std::vector<ParsedFile> parsed;
  parsed.reserve(files.size());
  for (const SourceFile& file : files) parsed.push_back(parse_file(file));
  std::vector<std::vector<Cfg>> cfgs(files.size());
  for (std::size_t f = 0; f < files.size(); ++f) {
    cfgs[f].reserve(parsed[f].functions.size());
    for (const Function& fn : parsed[f].functions) {
      cfgs[f].push_back(build_cfg(fn));
    }
  }
  stamp("parse", t0);

  const Ctx ctx{files, parsed, cfgs, config};
  std::vector<Finding> findings;

  using RuleFn = std::function<void(const Ctx&, std::vector<Finding>*)>;
  const std::vector<std::pair<const char*, RuleFn>> registry = {
      {"determinism",
       [](const Ctx& c, std::vector<Finding>* out) {
         for (const auto& file : c.files) {
           rule_determinism(file, c.config, out);
         }
       }},
      {"banned-api",
       [](const Ctx& c, std::vector<Finding>* out) {
         for (const auto& file : c.files) rule_banned_api(file, out);
       }},
      {"include-hygiene",
       [](const Ctx& c, std::vector<Finding>* out) {
         for (const auto& file : c.files) rule_include_hygiene(file, out);
       }},
      {"raw-io",
       [](const Ctx& c, std::vector<Finding>* out) {
         for (const auto& file : c.files) rule_raw_io(file, c.config, out);
       }},
      {"timing-hygiene",
       [](const Ctx& c, std::vector<Finding>* out) {
         for (const auto& file : c.files) {
           rule_timing_hygiene(file, c.config, out);
         }
       }},
      {"alert-exhaustive", rule_alert_exhaustive},
      {"lock-across-suspension", rule_lock_across_suspension},
      {"thread-local-across-suspension", rule_thread_local_across_suspension},
      {"secret-taint", rule_secret_taint},
      {"unchecked-result", rule_unchecked_result},
  };
  for (const auto& [name, fn] : registry) {
    t0 = now();
    fn(ctx, &findings);
    stamp(name, t0);
  }

  // Collect allow() sites, apply suppressions, track usage.
  RunResult result;
  const std::set<std::string> known(rule_names().begin(), rule_names().end());
  std::map<std::string, std::map<AllowKey, std::size_t>> allow_index;
  for (const SourceFile& file : files) {
    for (const auto& comment : file.lex.comments) {
      std::string args;
      if (!parse_directive(comment.text, "allow", &args)) continue;
      for (const auto& rule : split_list(args)) {
        const std::size_t site = result.allows.size();
        result.allows.push_back(
            {file.path, comment.line, rule, false, known.count(rule) != 0});
        allow_index[file.path][{rule, comment.line}] = site;
        allow_index[file.path][{rule, comment.line + 1}] = site;
      }
    }
  }
  for (auto& f : findings) {
    const auto file_it = allow_index.find(f.file);
    if (file_it != allow_index.end()) {
      const auto site_it = file_it->second.find({f.rule, f.line});
      if (site_it != file_it->second.end()) {
        result.allows[site_it->second].used = true;
        continue;
      }
    }
    result.findings.push_back(std::move(f));
  }
  std::sort(result.findings.begin(), result.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  result.findings.erase(
      std::unique(result.findings.begin(), result.findings.end(),
                  [](const Finding& a, const Finding& b) {
                    return std::tie(a.file, a.line, a.rule, a.message) ==
                           std::tie(b.file, b.line, b.rule, b.message);
                  }),
      result.findings.end());
  return result;
}

}  // namespace iotls::lint
