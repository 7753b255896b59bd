// contjoin_check: project-specific static analysis enforcing the
// architecture PR 1 introduced and the determinism guarantees the paper's
// evaluation rests on. Two passes: symbols.h builds a whole-tree symbol
// index (function definitions, call sites, payload creations, container
// declarations), and the rule families below run over it. Nine families:
//
//  1. layering       — the include graph of src/ must respect the layer
//                      DAG (common → relational/query/sim → chord → core
//                      → workload/reference), and the protocol role
//                      modules (rewriter, evaluator, subscriber,
//                      mw_protocol, otj_protocol) may reach shared engine
//                      state only via the ProtocolContext seam — never
//                      core/engine.h.
//  2. messages       — every CqMsgType enumerator is tagged by exactly
//                      one payload-struct constructor in core/messages.h,
//                      has exactly one registered handler in
//                      core/dispatch.cc, and kCqMsgTypeCount is derived
//                      from the last enumerator.
//  3. codecs         — every CqMsgType enumerator has exactly one
//                      Encode/Decode pair registered in the default wire
//                      codec table (core/codec.cc); a payload type
//                      without a codec would be silently undeliverable
//                      over the socket transport.
//  4. determinism    — src/ must not call std::rand/srand or read wall
//                      clocks (system_clock::now, time()); range-for
//                      iteration over an unordered container requires a
//                      `// contjoin-check: ordered-ok(<reason>)` waiver
//                      on the loop line or one of the two lines above it.
//  5. lint-config    — the promoted clang-tidy checks
//                      (bugprone-use-after-move, bugprone-dangling-handle,
//                      performance-*) must be enabled and listed in
//                      WarningsAsErrors in .clang-tidy.
//  6. shard-escape   — role-module handlers run concurrently across node
//                      shards under the parallel simulator core, so role
//                      modules must not declare mutable static data, must
//                      not draw from the shared engine RNG (GetRng), may
//                      touch NodeState only through StateOf(<their own
//                      node parameter>) — other nodes' state is reachable
//                      only by message, or inside ctx.ScheduleAfter
//                      closures, which execute on the scheduled shard —
//                      and must not let unordered-container iteration
//                      feed a send loop, even through one helper call.
//                      Waiver: `// contjoin-check: shard-ok(<reason>)`.
//  7. protocol-flow  — the extracted role×message send/handle graph must
//                      match the checked-in tools/check/protocol.spec:
//                      every send edge declared, every declared edge
//                      present, handlers as declared, criticality in sync
//                      with reliability::IsCritical (critical edges must
//                      be armed through the reliability wrapper), and
//                      wire reachability in sync with the codec table
//                      (simulator-only types must never be sent by a
//                      role module).
//  8. hotpath        — functions marked `// contjoin-check: hot` (within
//                      two lines above the definition) may not allocate
//                      (new / make_unique / make_shared / std::string
//                      temporaries / to_string / ostringstream),
//                      construct std::regex, or take locks. Waiver:
//                      `// contjoin-check: hot-ok(<reason>)`.
//  9. compile-db     — with -p, every scanned .cc translation unit must
//                      appear in the compile database (dead files cannot
//                      hide).
//
// The tool is deliberately textual (no libclang, no std::regex): it runs
// anywhere the source tree does, in milliseconds, and its rules are
// narrow enough that token-level scanning over the shared index is
// reliable. It scans src/ plus tools/ (the checker lints itself;
// fixture trees under testdata/ are skipped).

#ifndef CONTJOIN_TOOLS_CHECK_CHECKER_H_
#define CONTJOIN_TOOLS_CHECK_CHECKER_H_

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "symbols.h"

namespace contjoin::check {

struct Diagnostic {
  std::string file;  // Path relative to the checked root.
  size_t line = 0;   // 1-based; 0 for file- or config-level findings.
  std::string rule;  // "layering", "messages", "codecs", "determinism",
                     // "lint-config", "shard-escape", "protocol-flow",
                     // "hotpath", "compile-db".
  std::string message;
};

struct CheckConfig {
  std::string root;        // Tree root (contains src/ and .clang-tidy).
  std::string compile_db;  // Optional compile_commands.json path; empty
                           // skips the compile-database coverage check.
  std::string protocol_spec;  // Protocol spec path; empty means
                              // <root>/tools/check/protocol.spec.
  bool check_layering = true;
  bool check_messages = true;
  bool check_codecs = true;
  bool check_determinism = true;
  bool check_lint_config = true;
  bool check_shard_escape = true;
  bool check_protocol_flow = true;
  bool check_hotpath = true;
};

/// Wall time one rule family spent, for --timings.
struct RuleTiming {
  std::string rule;
  double millis = 0.0;
};

/// Runs every enabled rule family; diagnostics come back sorted by file,
/// line, rule (deterministic across runs and filesystems). When
/// `timings` is non-null it receives one entry per rule family plus one
/// for building the symbol index.
std::vector<Diagnostic> RunChecks(const CheckConfig& config,
                                  std::vector<RuleTiming>* timings = nullptr);

// Individual rule families (exposed so the fixture tests can prove each
// one fires in isolation). Each builds its own symbol index; RunChecks
// shares one across all families.
void CheckLayering(const CheckConfig& config, std::vector<Diagnostic>* out);
void CheckMessages(const CheckConfig& config, std::vector<Diagnostic>* out);
void CheckCodecs(const CheckConfig& config, std::vector<Diagnostic>* out);
void CheckDeterminism(const CheckConfig& config,
                      std::vector<Diagnostic>* out);
void CheckLintConfig(const CheckConfig& config,
                     std::vector<Diagnostic>* out);
void CheckShardEscape(const CheckConfig& config,
                      std::vector<Diagnostic>* out);
void CheckProtocolFlow(const CheckConfig& config,
                       std::vector<Diagnostic>* out);
void CheckHotPath(const CheckConfig& config, std::vector<Diagnostic>* out);
void CheckCompileDb(const CheckConfig& config, std::vector<Diagnostic>* out);

// --- Protocol graph (rule 7's extraction side, exposed for the golden
// test and the --dump-graph CLI mode) ------------------------------------------

struct ProtocolGraph {
  // CqMsgType enumerators in declaration order.
  std::vector<std::string> enums;
  // Enumerator -> handling role from the default dispatch table ("" when
  // unregistered). Roles: rewriter, evaluator, subscriber, mw, otj,
  // reliability.
  std::map<std::string, std::string> handler_of;
  // Enumerators reliability::IsCritical returns true for.
  std::set<std::string> critical;
  // Enumerators with a RegisterCodec entry (transport-reachable).
  std::set<std::string> has_codec;
  // Enumerator -> sending role -> armed (reaches a reliability wrapper
  // within one hop of the creating function, callers included).
  std::map<std::string, std::map<std::string, bool>> senders;
  // (enumerator, role) -> first payload-creation site, for diagnostics.
  std::map<std::string, std::map<std::string, std::pair<std::string, size_t>>>
      send_sites;
};

ProtocolGraph ExtractProtocolGraph(const SymbolIndex& index);

/// Stable one-line-per-type rendering, diffable against
/// tools/check/protocol_graph.golden.
std::string RenderProtocolGraph(const ProtocolGraph& graph);

// --- Output -------------------------------------------------------------------

/// "file:line: [rule] message" (line omitted when 0).
std::string FormatDiagnostic(const Diagnostic& d);

/// JSON array of {file, line, rule, message} objects (sorted as given),
/// for CI artifact upload.
std::string FormatDiagnosticsJson(const std::vector<Diagnostic>& diags);

}  // namespace contjoin::check

#endif  // CONTJOIN_TOOLS_CHECK_CHECKER_H_
