#include "checker.h"

#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace contjoin::check {
namespace {

std::string Fixture(const std::string& name) {
  return std::string(CONTJOIN_CHECK_TESTDATA) + "/" + name;
}

size_t CountRule(const std::vector<Diagnostic>& diags,
                 const std::string& rule) {
  return static_cast<size_t>(
      std::count_if(diags.begin(), diags.end(),
                    [&rule](const Diagnostic& d) { return d.rule == rule; }));
}

bool AnyMessageContains(const std::vector<Diagnostic>& diags,
                        const std::string& needle) {
  return std::any_of(diags.begin(), diags.end(),
                     [&needle](const Diagnostic& d) {
                       return d.message.find(needle) != std::string::npos;
                     });
}

TEST(CheckerTest, CleanFixtureHasNoFindings) {
  CheckConfig config;
  config.root = Fixture("clean");
  std::vector<Diagnostic> diags = RunChecks(config);
  for (const Diagnostic& d : diags) ADD_FAILURE() << FormatDiagnostic(d);
  EXPECT_TRUE(diags.empty());
}

TEST(CheckerTest, LayeringRuleFires) {
  CheckConfig config;
  config.root = Fixture("layering_bad");
  std::vector<Diagnostic> diags;
  CheckLayering(config, &diags);
  EXPECT_EQ(diags.size(), 3u);
  // Upward include from the bottom layer.
  EXPECT_TRUE(AnyMessageContains(diags, "layer 'src/common'"));
  // Sideways include chord -> query.
  EXPECT_TRUE(AnyMessageContains(diags, "layer 'src/chord'"));
  // Role module bypassing the seam.
  EXPECT_TRUE(AnyMessageContains(diags, "ProtocolContext seam"));
}

TEST(CheckerTest, MessagesRuleFires) {
  CheckConfig config;
  config.root = Fixture("messages_bad");
  std::vector<Diagnostic> diags;
  CheckMessages(config, &diags);
  EXPECT_EQ(CountRule(diags, "messages"), 8u);
  EXPECT_TRUE(AnyMessageContains(diags, "last enumerator is kAck"));
  EXPECT_TRUE(AnyMessageContains(diags, "kAlpha is tagged by 2"));
  EXPECT_TRUE(AnyMessageContains(diags, "kBeta has no payload struct"));
  EXPECT_TRUE(AnyMessageContains(diags, "kGamma has no payload struct"));
  EXPECT_TRUE(AnyMessageContains(diags, "kAlpha registered 2 times"));
  EXPECT_TRUE(AnyMessageContains(diags, "kGamma has no handler"));
  EXPECT_TRUE(AnyMessageContains(diags, "kAck has no handler"));
  EXPECT_TRUE(AnyMessageContains(diags, "unknown enumerator CqMsgType::kDelta"));
}

TEST(CheckerTest, CodecsRuleFires) {
  CheckConfig config;
  config.root = Fixture("codecs_bad");
  std::vector<Diagnostic> diags;
  CheckCodecs(config, &diags);
  EXPECT_EQ(CountRule(diags, "codecs"), 4u);
  EXPECT_TRUE(AnyMessageContains(diags, "kAlpha registered 2 times"));
  EXPECT_TRUE(AnyMessageContains(diags, "kBeta has no registered wire codec"));
  EXPECT_TRUE(
      AnyMessageContains(diags, "kDigest has no registered wire codec"));
  EXPECT_TRUE(
      AnyMessageContains(diags, "unknown enumerator CqMsgType::kGamma"));
  for (const Diagnostic& d : diags) {
    EXPECT_EQ(d.file, "src/core/codec.cc") << FormatDiagnostic(d);
  }
}

TEST(CheckerTest, DeterminismRuleFires) {
  CheckConfig config;
  config.root = Fixture("determinism_bad");
  std::vector<Diagnostic> diags;
  CheckDeterminism(config, &diags);
  EXPECT_TRUE(AnyMessageContains(diags, "banned call 'rand('"));
  EXPECT_TRUE(AnyMessageContains(diags, "banned call 'srand('"));
  EXPECT_TRUE(AnyMessageContains(diags, "banned call 'system_clock::now'"));
  EXPECT_TRUE(AnyMessageContains(diags, "banned call 'time('"));
  // Two unwaived unordered iterations (direct member + alias-typed member);
  // the third loop carries an ordered-ok waiver and must not be flagged.
  EXPECT_TRUE(AnyMessageContains(diags, "container 'counts'"));
  EXPECT_TRUE(AnyMessageContains(diags, "container 'by_alias'"));
  EXPECT_EQ(CountRule(diags, "determinism"), 6u);
}

TEST(CheckerTest, LintConfigRuleFires) {
  CheckConfig config;
  config.root = Fixture("lint_bad");
  std::vector<Diagnostic> diags;
  CheckLintConfig(config, &diags);
  EXPECT_EQ(CountRule(diags, "lint-config"), 5u);
  EXPECT_TRUE(AnyMessageContains(diags, "'performance-*' is not enabled"));
  EXPECT_TRUE(
      AnyMessageContains(diags, "'bugprone-use-after-move' must be listed"));
}

TEST(CheckerTest, ShardEscapeStaticsRuleFires) {
  CheckConfig config;
  config.root = Fixture("shard_bad");
  std::vector<Diagnostic> diags;
  CheckShardEscape(config, &diags);
  // One mutable static and one RNG draw; the waived static, the waived
  // draw, the immutable statics, the static function and the non-role
  // helpers.cc static are all silent.
  EXPECT_EQ(CountRule(diags, "shard-escape"), 2u);
  EXPECT_TRUE(AnyMessageContains(diags, "mutable static data"));
  EXPECT_TRUE(AnyMessageContains(diags, "GetRng() draw"));
  for (const Diagnostic& d : diags) {
    EXPECT_EQ(d.file, "src/core/rewriter.cc") << FormatDiagnostic(d);
  }
}

TEST(CheckerTest, ShardEscapeInterproceduralRuleFires) {
  CheckConfig config;
  config.root = Fixture("escape_bad");
  std::vector<Diagnostic> diags;
  CheckShardEscape(config, &diags);
  // A cross-shard StateOf write, an unordered iteration feeding a send
  // directly, and one feeding a send through a helper (one hop). The
  // ScheduleAfter-closure StateOf, the pure aggregation loop, and the
  // waived loop are all silent.
  EXPECT_EQ(CountRule(diags, "shard-escape"), 3u);
  EXPECT_TRUE(AnyMessageContains(diags, "StateOf(peer)"));
  EXPECT_TRUE(AnyMessageContains(diags, "container 'pending'"));
  EXPECT_TRUE(AnyMessageContains(diags, "EmitOne -> send"));
  EXPECT_FALSE(AnyMessageContains(diags, "container 'tallies'"));
  EXPECT_FALSE(AnyMessageContains(diags, "container 'acked'"));
}

TEST(CheckerTest, ProtocolFlowRuleFires) {
  CheckConfig config;
  config.root = Fixture("protocol_bad");
  std::vector<Diagnostic> diags;
  CheckProtocolFlow(config, &diags);
  EXPECT_EQ(CountRule(diags, "protocol-flow"), 4u);
  // kAck has a send site but no dispatch registration.
  EXPECT_TRUE(AnyMessageContains(diags, "kAck is sent by role 'rewriter' "
                                        "but never handled"));
  // kBeta is critical yet its send edge never reaches Arm/ArmAll.
  EXPECT_TRUE(
      AnyMessageContains(diags, "critical message CqMsgType::kBeta is sent "
                                "raw"));
  // kDigest has no codec but a role module sends it.
  EXPECT_TRUE(AnyMessageContains(diags, "simulator-only CqMsgType::kDigest"));
  // The spec declares a send edge that does not exist.
  EXPECT_TRUE(AnyMessageContains(diags, "`send kAlpha evaluator`"));
  // The armed edge (kAlpha via rewriter) is clean.
  EXPECT_FALSE(AnyMessageContains(diags, "CqMsgType::kAlpha is sent raw"));
}

TEST(CheckerTest, HotPathRuleFires) {
  CheckConfig config;
  config.root = Fixture("hotpath_bad");
  std::vector<Diagnostic> diags;
  CheckHotPath(config, &diags);
  // DecodeFast violates every ban class ('mutex' fires twice: the
  // declaration and the lock_guard template argument); EncodeFast's
  // allocation is waived; SlowPath is unmarked.
  EXPECT_EQ(CountRule(diags, "hotpath"), 7u);
  EXPECT_TRUE(AnyMessageContains(diags, "'new' in hot function 'DecodeFast'"));
  EXPECT_TRUE(AnyMessageContains(diags, "'make_shared'"));
  EXPECT_TRUE(AnyMessageContains(diags, "'regex'"));
  EXPECT_TRUE(AnyMessageContains(diags, "'lock_guard'"));
  EXPECT_TRUE(AnyMessageContains(diags, "'std::string'"));
  EXPECT_FALSE(AnyMessageContains(diags, "EncodeFast"));
  EXPECT_FALSE(AnyMessageContains(diags, "SlowPath"));
}

TEST(CheckerTest, CompileDbCoverageFires) {
  // A database missing dispatch.cc: it must be reported as unbuilt.
  std::string db_path =
      ::testing::TempDir() + "/contjoin_check_partial_db.json";
  {
    std::ofstream db(db_path);
    db << "[{\"directory\": \"/tmp\", \"command\": \"c++ -c\", "
          "\"file\": \"src/core/rewriter.cc\"},\n"
          " {\"directory\": \"/tmp\", \"command\": \"c++ -c\", "
          "\"file\": \"src/core/codec.cc\"}]\n";
  }
  CheckConfig config;
  config.root = Fixture("clean");
  config.compile_db = db_path;
  std::vector<Diagnostic> diags;
  CheckCompileDb(config, &diags);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].file, "src/core/dispatch.cc");
  EXPECT_EQ(diags[0].rule, "compile-db");
}

TEST(CheckerTest, DiagnosticsAreSortedAndStable) {
  CheckConfig config;
  config.root = Fixture("messages_bad");
  std::vector<Diagnostic> first = RunChecks(config);
  std::vector<Diagnostic> second = RunChecks(config);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(FormatDiagnostic(first[i]), FormatDiagnostic(second[i]));
  }
  for (size_t i = 1; i < first.size(); ++i) {
    EXPECT_LE(first[i - 1].file, first[i].file);
  }
}

// The real tree must satisfy every invariant the checker enforces: this is
// the same gate CI runs via the contjoin_check binary.
TEST(CheckerTest, RealSourceTreeIsClean) {
  CheckConfig config;
  config.root = CONTJOIN_SOURCE_ROOT;
  std::vector<Diagnostic> diags = RunChecks(config);
  for (const Diagnostic& d : diags) ADD_FAILURE() << FormatDiagnostic(d);
  EXPECT_TRUE(diags.empty());
}

// The extracted role x message graph for the real tree must match the
// checked-in snapshot, so an unintended protocol-shape change (a new send
// site, a rerouted handler, a dropped codec) shows up as a readable diff.
TEST(CheckerTest, ProtocolGraphGoldenMatchesRealTree) {
  SymbolIndex index = BuildSymbolIndex(CONTJOIN_SOURCE_ROOT);
  std::string rendered = RenderProtocolGraph(ExtractProtocolGraph(index));
  std::string golden = ReadFileText(std::string(CONTJOIN_SOURCE_ROOT) +
                                    "/tools/check/protocol_graph.golden");
  ASSERT_FALSE(golden.empty())
      << "tools/check/protocol_graph.golden missing; regenerate with "
         "contjoin_check --dump-graph";
  EXPECT_EQ(rendered, golden)
      << "protocol graph drifted from the golden snapshot; if the change "
         "is intentional, regenerate with contjoin_check --dump-graph and "
         "update protocol.spec to match";
}

// Every non-comment line of protocol.spec is load-bearing: deleting any
// one of them (a message, a handler, a criticality bit, a wire bit, a
// send edge) must make the protocol-flow rule fail on the real tree.
TEST(CheckerTest, ProtocolSpecLinesAllLoadBearing) {
  std::string spec_text = ReadFileText(std::string(CONTJOIN_SOURCE_ROOT) +
                                       "/tools/check/protocol.spec");
  ASSERT_FALSE(spec_text.empty());
  std::vector<std::string> lines = SplitLines(spec_text);
  std::string tmp_spec = ::testing::TempDir() + "/contjoin_check_spec_minus";
  size_t checked = 0;
  for (size_t skip = 0; skip < lines.size(); ++skip) {
    // Only fact lines are load-bearing; comments and blanks are not.
    std::string trimmed = lines[skip];
    size_t first = trimmed.find_first_not_of(" \t");
    if (first == std::string::npos || trimmed[first] == '#') continue;
    {
      std::ofstream out(tmp_spec, std::ios::trunc);
      for (size_t i = 0; i < lines.size(); ++i) {
        if (i != skip) out << lines[i] << "\n";
      }
    }
    CheckConfig config;
    config.root = CONTJOIN_SOURCE_ROOT;
    config.protocol_spec = tmp_spec;
    std::vector<Diagnostic> diags;
    CheckProtocolFlow(config, &diags);
    EXPECT_GE(CountRule(diags, "protocol-flow"), 1u)
        << "deleting spec line " << (skip + 1) << " ('" << lines[skip]
        << "') went undetected";
    ++checked;
  }
  // The spec declares facts for all 16 message types; make sure the loop
  // actually exercised a full-sized spec rather than an empty file.
  EXPECT_GE(checked, 70u);
}

TEST(CheckerTest, JsonOutputIsWellFormed) {
  std::vector<Diagnostic> diags = {
      {"src/core/a.cc", 3, "hotpath", "uses \"new\" on a hot path"},
      {"src/core/b.cc", 0, "protocol-flow", "line two\nline three"},
  };
  std::string json = FormatDiagnosticsJson(diags);
  EXPECT_NE(json.find("\"file\": \"src/core/a.cc\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 3"), std::string::npos);
  EXPECT_NE(json.find("\\\"new\\\""), std::string::npos);
  EXPECT_NE(json.find("line two\\nline three"), std::string::npos);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json[json.size() - 2], ']');
  EXPECT_EQ(FormatDiagnosticsJson({}), "[]\n");
}

}  // namespace
}  // namespace contjoin::check
