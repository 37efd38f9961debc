// iotls-lint's own test suite: the tokenizer, each rule firing exactly
// where the fixture corpus says it should, suppression scoping, and the
// CLI's exit code contract.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "lint.hpp"

namespace {

using iotls::lint::Finding;
using iotls::lint::LintOptions;
using iotls::lint::RuleConfig;
using iotls::lint::TokenKind;

std::filesystem::path fixtures_root() { return IOTLS_LINT_FIXTURES; }

/// Fixture-corpus runs disable the cross-file alert obligations unless a
/// test opts back in; per-file rules are always on.
RuleConfig fixture_config() {
  RuleConfig config;
  config.alert_enum_file.clear();
  config.required_alert_markers.clear();
  return config;
}

std::vector<Finding> run_fixtures(const std::vector<std::string>& rel_files,
                                  const RuleConfig& config) {
  LintOptions options;
  options.root = fixtures_root();
  options.rules = config;
  std::vector<std::filesystem::path> files;
  for (const auto& rel : rel_files) files.push_back(fixtures_root() / rel);
  return iotls::lint::lint_files(options, files);
}

std::set<int> lines_for_rule(const std::vector<Finding>& findings,
                             const std::string& rule) {
  std::set<int> lines;
  for (const auto& f : findings) {
    EXPECT_EQ(f.rule, rule) << iotls::lint::format_finding(f);
    lines.insert(f.line);
  }
  return lines;
}

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

TEST(LintLexer, CommentsAndStringsAreNotCodeTokens) {
  const auto lex = iotls::lint::tokenize(
      "int x; // time(nullptr)\n"
      "/* rand() */ const char* s = \"getenv(\\\"X\\\")\";\n");
  for (const auto& tok : lex.tokens) {
    EXPECT_NE(tok.text, "time");
    EXPECT_NE(tok.text, "rand");
    if (tok.kind != TokenKind::String) {
      EXPECT_NE(tok.text, "getenv");
    }
  }
  ASSERT_EQ(lex.comments.size(), 2u);
  EXPECT_EQ(lex.comments[0].text, " time(nullptr)");
  EXPECT_EQ(lex.comments[0].line, 1);
  EXPECT_FALSE(lex.comments[0].own_line);
  EXPECT_EQ(lex.comments[1].line, 2);
}

TEST(LintLexer, RawStringsAndPreprocessor) {
  const auto lex = iotls::lint::tokenize(
      "#include \"tls/alert.hpp\"\n"
      "const char* j = R\"({\"rand\": 1})\";\n");
  ASSERT_FALSE(lex.tokens.empty());
  EXPECT_EQ(lex.tokens[0].kind, TokenKind::PPLine);
  EXPECT_EQ(lex.tokens[0].text, "include \"tls/alert.hpp\"");
  bool saw_raw = false;
  for (const auto& tok : lex.tokens) {
    if (tok.kind == TokenKind::String) {
      EXPECT_EQ(tok.text, "{\"rand\": 1}");
      saw_raw = true;
    }
    EXPECT_NE(tok.text, "rand");
  }
  EXPECT_TRUE(saw_raw);
}

TEST(LintLexer, LineNumbersSurviveMultilineConstructs) {
  const auto lex = iotls::lint::tokenize("/* a\nb\nc */\nint x;\n");
  ASSERT_FALSE(lex.tokens.empty());
  EXPECT_EQ(lex.tokens[0].text, "int");
  EXPECT_EQ(lex.tokens[0].line, 4);
}

// ---------------------------------------------------------------------------
// Rule: determinism
// ---------------------------------------------------------------------------

TEST(LintRules, DeterminismFiresOnEveryBannedConstruct) {
  const auto findings =
      run_fixtures({"bad_determinism.cpp"}, fixture_config());
  const std::set<int> expected = {8, 9, 10, 11, 12, 13, 14, 18, 21};
  EXPECT_EQ(lines_for_rule(findings, "determinism"), expected);
}

TEST(LintRules, DeterminismIgnoresLookalikesAndHonorsAllow) {
  EXPECT_TRUE(
      run_fixtures({"good_determinism.cpp"}, fixture_config()).empty());
}

TEST(LintRules, SuppressionForAnotherRuleDoesNotSilence) {
  const auto findings =
      run_fixtures({"suppressed_wrong_rule.cpp"}, fixture_config());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "determinism");
  EXPECT_EQ(findings[0].line, 6);
}

// ---------------------------------------------------------------------------
// Rule: banned-api
// ---------------------------------------------------------------------------

TEST(LintRules, BannedApiFiresOnLibcFootguns) {
  const auto findings = run_fixtures({"bad_banned_api.cpp"}, fixture_config());
  const std::set<int> expected = {6, 7, 8, 9, 10};
  EXPECT_EQ(lines_for_rule(findings, "banned-api"), expected);
}

TEST(LintRules, BannedApiIgnoresMembersAndHonorsAllow) {
  EXPECT_TRUE(
      run_fixtures({"good_banned_api.cpp"}, fixture_config()).empty());
}

// ---------------------------------------------------------------------------
// Rule: include-hygiene
// ---------------------------------------------------------------------------

TEST(LintRules, IncludeHygieneFiresInHeaders) {
  const auto findings = run_fixtures({"bad_include.hpp"}, fixture_config());
  const std::set<int> expected = {4, 5, 7};
  EXPECT_EQ(lines_for_rule(findings, "include-hygiene"), expected);
}

TEST(LintRules, IncludeHygieneAllowsUsingNamespaceInCpp) {
  EXPECT_TRUE(run_fixtures({"good_include.cpp"}, fixture_config()).empty());
}

// ---------------------------------------------------------------------------
// Rule: secret-taint (v1 called it secret-hygiene; same fixture lines)
// ---------------------------------------------------------------------------

TEST(LintRules, SecretTaintFiresOnEveryLeakPath) {
  const auto findings = run_fixtures({"bad_secret.cpp"}, fixture_config());
  const std::set<int> expected = {15, 19, 23, 26, 31};
  EXPECT_EQ(lines_for_rule(findings, "secret-taint"), expected);
}

TEST(LintRules, SecretTaintAllowsPublicMaterialAndMetadata) {
  EXPECT_TRUE(run_fixtures({"good_secret.cpp"}, fixture_config()).empty());
}

// ---------------------------------------------------------------------------
// Rule: raw-io
// ---------------------------------------------------------------------------

RuleConfig raw_io_config() {
  RuleConfig config = fixture_config();
  // Bring the fixture corpus into the rule's scope (in the real tree the
  // default fragments cover src/store/ and tools/store/).
  config.raw_io_scope_fragments = {"raw_io"};
  return config;
}

TEST(LintRules, RawIoFiresOnStdioAndFstreams) {
  const auto findings = run_fixtures({"bad_raw_io.cpp"}, raw_io_config());
  const std::set<int> expected = {6, 7, 8, 9, 12};
  EXPECT_EQ(lines_for_rule(findings, "raw-io"), expected);
}

TEST(LintRules, RawIoIgnoresMembersAndHonorsAllow) {
  EXPECT_TRUE(run_fixtures({"good_raw_io.cpp"}, raw_io_config()).empty());
}

TEST(LintRules, RawIoDefaultScopeExcludesOtherDirectories) {
  // Under the default config the fixtures sit outside src/store/ and
  // tools/store/, so the same bad file produces nothing.
  EXPECT_TRUE(run_fixtures({"bad_raw_io.cpp"}, fixture_config()).empty());
}

TEST(LintRules, RawIoAllowedChokepointFileIsExempt) {
  RuleConfig config = raw_io_config();
  config.raw_io_allowed_files = {"bad_raw_io.cpp"};
  EXPECT_TRUE(run_fixtures({"bad_raw_io.cpp"}, config).empty());
}

// ---------------------------------------------------------------------------
// Rule: timing-hygiene
// ---------------------------------------------------------------------------

RuleConfig timing_config() {
  RuleConfig config = fixture_config();
  // The fixture corpus sits outside src/obs/ and bench/, so the default
  // allowed fragments already leave it in scope; cleared here so the tests
  // stay valid if the defaults ever widen.
  config.timing_allowed_fragments.clear();
  return config;
}

TEST(LintRules, TimingHygieneFiresOnRawClockReads) {
  const auto findings = run_fixtures({"bad_timing.cpp"}, timing_config());
  const std::set<int> expected = {5, 9, 13, 14};
  EXPECT_EQ(lines_for_rule(findings, "timing-hygiene"), expected);
}

TEST(LintRules, TimingHygieneIgnoresLookalikesAndHonorsAllow) {
  EXPECT_TRUE(run_fixtures({"good_timing.cpp"}, timing_config()).empty());
}

TEST(LintRules, TimingHygieneAllowedFragmentsAreExempt) {
  RuleConfig config = timing_config();
  // The whole fixture tree matches this fragment, so the bad file is waived
  // — the real-tree analogue of src/obs/ and bench/.
  config.timing_allowed_fragments = {"bad_timing"};
  EXPECT_TRUE(run_fixtures({"bad_timing.cpp"}, config).empty());
}

// ---------------------------------------------------------------------------
// Rule: alert-exhaustive
// ---------------------------------------------------------------------------

RuleConfig alert_config() {
  RuleConfig config = fixture_config();
  config.alert_enum_file = "alert/alert.hpp";
  config.required_alert_markers = {"classify", "render"};
  return config;
}

TEST(LintRules, AlertExhaustiveNamesTheMissingEnumerator) {
  const auto findings = run_fixtures(
      {"alert/alert.hpp", "alert/bad_switch.cpp", "alert/good_switch.cpp"},
      alert_config());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "alert-exhaustive");
  EXPECT_EQ(findings[0].file, "alert/bad_switch.cpp");
  EXPECT_EQ(findings[0].line, 6);
  EXPECT_NE(findings[0].message.find("DecryptError"), std::string::npos);
  EXPECT_EQ(findings[0].message.find("UnknownCa"), std::string::npos);
}

TEST(LintRules, AlertExhaustiveRequiresRegisteredMarkers) {
  RuleConfig config = alert_config();
  config.required_alert_markers.push_back("annotate");
  const auto findings = run_fixtures(
      {"alert/alert.hpp", "alert/good_switch.cpp"}, config);
  // bad_switch.cpp (the 'render' marker) is absent from this run, and the
  // 'annotate' marker exists nowhere: both obligations must be reported.
  ASSERT_EQ(findings.size(), 2u);
  std::string all;
  for (const auto& f : findings) {
    EXPECT_EQ(f.rule, "alert-exhaustive");
    all += f.message + "\n";
  }
  EXPECT_NE(all.find("'render'"), std::string::npos);
  EXPECT_NE(all.find("'annotate'"), std::string::npos);
}

TEST(LintRules, AlertExhaustiveReportsMissingEnum) {
  const auto findings =
      run_fixtures({"alert/good_switch.cpp"}, alert_config());
  ASSERT_FALSE(findings.empty());
  EXPECT_EQ(findings[0].rule, "alert-exhaustive");
  EXPECT_NE(findings[0].message.find("not found"), std::string::npos);
}

// ---------------------------------------------------------------------------
// CLI contract
// ---------------------------------------------------------------------------

int run_cli(const std::string& args) {
  const std::string cmd = std::string(IOTLS_LINT_BIN) + " " + args +
                          " > /dev/null 2> /dev/null";
  const int status = std::system(cmd.c_str());
  return WEXITSTATUS(status);
}

TEST(LintCli, ExitsNonZeroOnViolationsZeroWhenClean) {
  const std::string root = fixtures_root().string();
  EXPECT_EQ(run_cli("--root " + root + " " + root + "/bad_banned_api.cpp"), 1);
  EXPECT_EQ(run_cli("--root " + root + " " + root + "/good_include.cpp"), 0);
  EXPECT_EQ(run_cli("--bogus-flag"), 2);
}

TEST(LintCli, WholeTreeIsClean) {
  // The same invocation ctest registers as lint_check: the shipped tree has
  // zero findings.
  EXPECT_EQ(run_cli("--check --root " + std::string(IOTLS_LINT_REPO_ROOT)), 0);
}

TEST(LintCli, FormatFindingIsClickable) {
  const Finding f{"src/tls/alert.cpp", 12, "determinism", "msg"};
  EXPECT_EQ(iotls::lint::format_finding(f),
            "src/tls/alert.cpp:12: [determinism] msg");
}

}  // namespace
