#include "checker.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>

namespace contjoin::check {

namespace fs = std::filesystem;

namespace {

bool IsSpace(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }

size_t SkipSpaces(const std::string& text, size_t pos) {
  while (pos < text.size() && IsSpace(text[pos])) ++pos;
  return pos;
}

// --- Layer DAG ----------------------------------------------------------------
//
// Allowed include targets per src/ layer. A layer may always include
// itself; anything else must be listed here. Adding a directory under
// src/ requires teaching this table its place in the DAG — that is the
// point: the architecture changes only by explicit decision.

const std::map<std::string, std::set<std::string>>& AllowedDeps() {
  static const std::map<std::string, std::set<std::string>> kDeps = {
      {"common", {}},
      {"relational", {"common"}},
      {"query", {"common", "relational"}},
      {"sim", {"common"}},
      {"faults", {"common", "sim"}},
      {"chord", {"common", "sim", "faults"}},
      {"adapt", {"common"}},
      {"core",
       {"common", "relational", "query", "sim", "faults", "chord", "adapt"}},
      {"workload",
       {"common", "relational", "query", "sim", "faults", "chord", "core"}},
      {"reference",
       {"common", "relational", "query", "sim", "faults", "chord", "core"}},
      {"serving",
       {"common", "relational", "query", "sim", "faults", "chord", "core",
        "workload"}},
  };
  return kDeps;
}

/// Protocol role modules: these reach shared engine state only through the
/// ProtocolContext seam, so the engine facade header is off-limits, and
/// their handlers run concurrently across node shards (rule 6).
const std::set<std::string>& RoleModuleStems() {
  static const std::set<std::string> kStems = {
      "rewriter",     "evaluator",   "subscriber", "mw_protocol",
      "otj_protocol", "reliability", "adapt_protocol"};
  return kStems;
}

/// File stem -> protocol role for the send side of the flow graph. The
/// submission entry path sends messages too (it runs serially on the
/// driver, so it is a send role without being a shard-checked role
/// module).
std::string SendRoleOf(const std::string& stem) {
  if (stem == "rewriter" || stem == "evaluator" || stem == "subscriber" ||
      stem == "reliability" || stem == "submission") {
    return stem;
  }
  if (stem == "mw_protocol") return "mw";
  if (stem == "otj_protocol") return "otj";
  if (stem == "adapt_protocol") return "adapt";
  return "";
}

/// Call names that hand a message to the network.
const std::set<std::string>& SendCallNames() {
  static const std::set<std::string> kNames = {
      "Send",         "Multisend",  "TransmitMessage", "Broadcast",
      "SendReliable", "TransmitHop"};
  return kNames;
}

/// Call names that arm the reliability wrapper.
const std::set<std::string>& WrapCallNames() {
  static const std::set<std::string> kNames = {"Arm", "ArmAll",
                                               "SendReliable"};
  return kNames;
}

bool HasWrapCall(const FunctionDef& fn) {
  for (const CallSite& call : fn.calls) {
    if (WrapCallNames().count(call.name) > 0) return true;
  }
  return false;
}

bool HasSendCall(const FunctionDef& fn) {
  for (const CallSite& call : fn.calls) {
    if (SendCallNames().count(call.name) > 0) return true;
  }
  return false;
}

// --- Rule 1: layering ---------------------------------------------------------

/// Include target of lines like `#include "x/y.h"`; empty otherwise.
std::string IncludeTargetOf(const std::string& line) {
  size_t i = SkipSpaces(line, 0);
  if (i >= line.size() || line[i] != '#') return "";
  i = SkipSpaces(line, i + 1);
  if (line.compare(i, 7, "include") != 0) return "";
  i = SkipSpaces(line, i + 7);
  if (i >= line.size() || line[i] != '"') return "";
  size_t end = line.find('"', i + 1);
  if (end == std::string::npos) return "";
  return line.substr(i + 1, end - i - 1);
}

void CheckFileLayering(const SourceFile& f, std::vector<Diagnostic>* out) {
  std::string layer = LayerOf(f.rel_path);
  if (layer.empty()) return;
  auto allowed = AllowedDeps().find(layer);
  if (allowed == AllowedDeps().end()) {
    out->push_back({f.rel_path, 0, "layering",
                    "unknown layer 'src/" + layer +
                        "'; add it to the DAG in tools/check/checker.cc"});
    return;
  }
  bool role_module =
      layer == "core" && RoleModuleStems().count(StemOf(f.rel_path)) > 0;
  for (size_t i = 0; i < f.lines.size(); ++i) {
    std::string target = IncludeTargetOf(f.lines[i]);
    if (target.empty()) continue;
    if (role_module && target == "core/engine.h") {
      out->push_back(
          {f.rel_path, i + 1, "layering",
           "role module includes core/engine.h; role handlers reach "
           "shared state only through the ProtocolContext seam "
           "(core/context.h)"});
      continue;
    }
    size_t slash = target.find('/');
    if (slash == std::string::npos) continue;
    std::string target_layer = target.substr(0, slash);
    if (AllowedDeps().count(target_layer) == 0) continue;  // Not a layer.
    if (target_layer == layer) continue;
    if (allowed->second.count(target_layer) == 0) {
      out->push_back({f.rel_path, i + 1, "layering",
                      "layer 'src/" + layer + "' must not include '" +
                          target + "' (allowed: own layer + lower layers "
                          "of the DAG)"});
    }
  }
}

void CheckLayeringWithIndex(const SymbolIndex& index,
                            std::vector<Diagnostic>* out) {
  for (const SourceFile& f : index.files) CheckFileLayering(f, out);
}

// --- Rule 2/3 shared parsing --------------------------------------------------

std::vector<std::string> ParseEnumerators(const std::string& stripped,
                                          size_t enum_pos) {
  std::vector<std::string> enums;
  size_t open = stripped.find('{', enum_pos);
  if (open == std::string::npos) return enums;
  size_t close = MatchBracket(stripped, open, '{', '}');
  if (close == std::string::npos) return enums;
  size_t i = open + 1;
  while (i < close) {
    if (stripped[i] == 'k' && !IsIdentChar(stripped[i - 1])) {
      size_t j = i;
      while (j < close && IsIdentChar(stripped[j])) ++j;
      if (j > i + 1) enums.push_back(stripped.substr(i, j - i));
      i = j;
    } else {
      ++i;
    }
  }
  return enums;
}

/// Collects `CqMsgType::kX` tokens appearing inside the argument list of
/// each `CqPayload(...)` constructor call, with the line of each token.
std::vector<std::pair<std::string, size_t>> ParseConstructorTags(
    const std::string& stripped) {
  std::vector<std::pair<std::string, size_t>> tags;
  size_t pos = 0;
  while ((pos = FindWordToken(stripped, pos, "CqPayload")) !=
         std::string::npos) {
    size_t open = SkipSpaces(stripped, pos + 9);
    pos += 9;
    if (open >= stripped.size() || stripped[open] != '(') continue;
    size_t end = MatchBracket(stripped, open, '(', ')');
    if (end == std::string::npos) break;
    size_t i = open;
    while ((i = stripped.find("CqMsgType::", i)) != std::string::npos &&
           i < end) {
      size_t start = i + 11;
      size_t j = start;
      while (j < stripped.size() && IsIdentChar(stripped[j])) ++j;
      if (j > start) {
        tags.emplace_back(stripped.substr(start, j - start),
                          LineOfOffset(stripped, i));
      }
      i = j;
    }
    pos = end;
  }
  return tags;
}

struct TypedCall {
  std::string enumerator;
  size_t line = 0;
  std::string args_tail;  // Text after the enumerator, inside the parens.
};

/// Occurrences of `fn_name(CqMsgType::kX, <tail>)`.
std::vector<TypedCall> FindTypedCalls(const std::string& code,
                                      const std::string& fn_name) {
  std::vector<TypedCall> out;
  size_t pos = 0;
  while ((pos = FindWordToken(code, pos, fn_name)) != std::string::npos) {
    size_t start = pos;
    size_t open = SkipSpaces(code, pos + fn_name.size());
    pos += fn_name.size();
    if (open >= code.size() || code[open] != '(') continue;
    size_t close = MatchBracket(code, open, '(', ')');
    if (close == std::string::npos) continue;
    size_t i = SkipSpaces(code, open + 1);
    if (code.compare(i, 11, "CqMsgType::") != 0) continue;
    size_t name_start = i + 11;
    size_t j = name_start;
    while (j < code.size() && IsIdentChar(code[j])) ++j;
    if (j == name_start) continue;
    TypedCall call;
    call.enumerator = code.substr(name_start, j - name_start);
    call.line = LineOfOffset(code, start);
    call.args_tail = code.substr(j, close - 1 - j);
    out.push_back(std::move(call));
    pos = close;
  }
  return out;
}

/// Verifies `kCqMsgTypeCount = static_cast<size_t>(CqMsgType::<X>) + 1`
/// and returns X; empty when the definition is absent or malformed
/// (`offset` then points at the token when it was at least found).
std::string ParseCountDerivation(const std::string& stripped,
                                 size_t* offset) {
  *offset = std::string::npos;
  size_t pos = FindWordToken(stripped, 0, "kCqMsgTypeCount");
  if (pos == std::string::npos) return "";
  *offset = pos;
  size_t j = SkipSpaces(stripped, pos + 15);
  if (j >= stripped.size() || stripped[j] != '=') return "";
  j = SkipSpaces(stripped, j + 1);
  if (stripped.compare(j, 11, "static_cast") != 0) return "";
  j = SkipSpaces(stripped, j + 11);
  if (j >= stripped.size() || stripped[j] != '<') return "";
  j = SkipSpaces(stripped, j + 1);
  if (stripped.compare(j, 6, "size_t") != 0) return "";
  j = SkipSpaces(stripped, j + 6);
  if (j >= stripped.size() || stripped[j] != '>') return "";
  j = SkipSpaces(stripped, j + 1);
  if (j >= stripped.size() || stripped[j] != '(') return "";
  j = SkipSpaces(stripped, j + 1);
  if (stripped.compare(j, 11, "CqMsgType::") != 0) return "";
  j += 11;
  size_t name_start = j;
  while (j < stripped.size() && IsIdentChar(stripped[j])) ++j;
  std::string name = stripped.substr(name_start, j - name_start);
  j = SkipSpaces(stripped, j);
  if (j >= stripped.size() || stripped[j] != ')') return "";
  j = SkipSpaces(stripped, j + 1);
  if (j >= stripped.size() || stripped[j] != '+') return "";
  j = SkipSpaces(stripped, j + 1);
  if (j >= stripped.size() || stripped[j] != '1') return "";
  return name;
}

}  // namespace

void CheckMessages(const CheckConfig& config, std::vector<Diagnostic>* out) {
  fs::path messages = fs::path(config.root) / "src" / "core" / "messages.h";
  fs::path dispatch = fs::path(config.root) / "src" / "core" / "dispatch.cc";
  if (!fs::exists(messages) || !fs::exists(dispatch)) return;
  const std::string messages_rel = "src/core/messages.h";
  const std::string dispatch_rel = "src/core/dispatch.cc";
  std::string mtext = StripComments(ReadFileText(messages.string()));
  std::string dtext = StripComments(ReadFileText(dispatch.string()));

  size_t enum_pos = mtext.find("enum class CqMsgType");
  if (enum_pos == std::string::npos) {
    out->push_back({messages_rel, 0, "messages",
                    "enum class CqMsgType not found"});
    return;
  }
  std::vector<std::string> enums = ParseEnumerators(mtext, enum_pos);
  if (enums.empty()) {
    out->push_back({messages_rel, LineOfOffset(mtext, enum_pos), "messages",
                    "CqMsgType has no enumerators"});
    return;
  }
  std::set<std::string> enum_set(enums.begin(), enums.end());

  // kCqMsgTypeCount must be derived from the last enumerator.
  size_t count_offset = 0;
  std::string count_base = ParseCountDerivation(mtext, &count_offset);
  if (count_base.empty()) {
    out->push_back({messages_rel, 0, "messages",
                    "kCqMsgTypeCount must be defined as "
                    "static_cast<size_t>(CqMsgType::<last>) + 1"});
  } else if (count_base != enums.back()) {
    out->push_back({messages_rel, LineOfOffset(mtext, count_offset),
                    "messages",
                    "kCqMsgTypeCount is derived from CqMsgType::" +
                        count_base + " but the last enumerator is " +
                        enums.back()});
  }

  // Every enumerator tagged by exactly one CqPayload(...) constructor.
  std::map<std::string, std::vector<size_t>> tag_lines;
  for (const auto& [name, line] : ParseConstructorTags(mtext)) {
    tag_lines[name].push_back(line);
    if (enum_set.count(name) == 0) {
      out->push_back({messages_rel, line, "messages",
                      "payload constructor tags unknown enumerator "
                      "CqMsgType::" + name});
    }
  }
  for (const std::string& e : enums) {
    auto it = tag_lines.find(e);
    if (it == tag_lines.end()) {
      out->push_back({messages_rel, 0, "messages",
                      "CqMsgType::" + e +
                          " has no payload struct (no CqPayload(CqMsgType::" +
                          e + ") constructor tag)"});
    } else if (it->second.size() > 1) {
      out->push_back({messages_rel, it->second[1], "messages",
                      "CqMsgType::" + e + " is tagged by " +
                          std::to_string(it->second.size()) +
                          " payload constructors; exactly one expected"});
    }
  }

  // Every enumerator registered exactly once in the dispatch table.
  std::map<std::string, std::vector<size_t>> reg_lines;
  for (const TypedCall& reg : FindTypedCalls(dtext, "Register")) {
    reg_lines[reg.enumerator].push_back(reg.line);
    if (enum_set.count(reg.enumerator) == 0) {
      out->push_back({dispatch_rel, reg.line, "messages",
                      "handler registered for unknown enumerator "
                      "CqMsgType::" + reg.enumerator});
    }
  }
  for (const std::string& e : enums) {
    auto it = reg_lines.find(e);
    if (it == reg_lines.end()) {
      out->push_back({dispatch_rel, 0, "messages",
                      "CqMsgType::" + e +
                          " has no handler in the default dispatch table"});
    } else if (it->second.size() > 1) {
      out->push_back({dispatch_rel, it->second[1], "messages",
                      "CqMsgType::" + e + " registered " +
                          std::to_string(it->second.size()) +
                          " times in the default dispatch table"});
    }
  }
}

// --- Rule 3: wire-codec exhaustiveness ----------------------------------------

void CheckCodecs(const CheckConfig& config, std::vector<Diagnostic>* out) {
  fs::path messages = fs::path(config.root) / "src" / "core" / "messages.h";
  fs::path codec = fs::path(config.root) / "src" / "core" / "codec.cc";
  if (!fs::exists(messages) || !fs::exists(codec)) return;
  const std::string messages_rel = "src/core/messages.h";
  const std::string codec_rel = "src/core/codec.cc";
  std::string mtext = StripComments(ReadFileText(messages.string()));
  std::string ctext = StripComments(ReadFileText(codec.string()));

  size_t enum_pos = mtext.find("enum class CqMsgType");
  if (enum_pos == std::string::npos) {
    out->push_back({messages_rel, 0, "codecs",
                    "enum class CqMsgType not found"});
    return;
  }
  std::vector<std::string> enums = ParseEnumerators(mtext, enum_pos);
  if (enums.empty()) {
    out->push_back({messages_rel, LineOfOffset(mtext, enum_pos), "codecs",
                    "CqMsgType has no enumerators"});
    return;
  }
  std::set<std::string> enum_set(enums.begin(), enums.end());

  // Every enumerator gets exactly one Encode/Decode pair in the default
  // codec table; a payload type without one is silently undeliverable over
  // the socket transport.
  std::map<std::string, std::vector<size_t>> reg_lines;
  for (const TypedCall& reg : FindTypedCalls(ctext, "RegisterCodec")) {
    reg_lines[reg.enumerator].push_back(reg.line);
    if (enum_set.count(reg.enumerator) == 0) {
      out->push_back({codec_rel, reg.line, "codecs",
                      "codec registered for unknown enumerator "
                      "CqMsgType::" + reg.enumerator});
    }
  }
  for (const std::string& e : enums) {
    auto it = reg_lines.find(e);
    if (it == reg_lines.end()) {
      out->push_back({codec_rel, 0, "codecs",
                      "CqMsgType::" + e +
                          " has no registered wire codec (no "
                          "RegisterCodec(CqMsgType::" + e +
                          ", ...) in the default codec table)"});
    } else if (it->second.size() > 1) {
      out->push_back({codec_rel, it->second[1], "codecs",
                      "CqMsgType::" + e + " registered " +
                          std::to_string(it->second.size()) +
                          " times in the default codec table"});
    }
  }
}

namespace {

// --- Rule 4: determinism ------------------------------------------------------

struct BannedToken {
  const char* token;
  const char* why;
};

constexpr BannedToken kBanned[] = {
    {"rand(", "use common/rng.h (seeded, reproducible) instead"},
    {"srand(", "use common/rng.h (seeded, reproducible) instead"},
    {"system_clock::now",
     "wall clocks break reproducible runs; use the simulator's virtual "
     "clock (ProtocolContext::Now)"},
    {"time(",
     "wall clocks break reproducible runs; use the simulator's virtual "
     "clock (ProtocolContext::Now)"},
};

/// A range-for over some container expression, with its body span.
struct RangeForLoop {
  size_t head = 0;        // Offset of the 'for' keyword.
  std::string container;  // Text after the ':' separator.
  size_t body_begin = 0;  // '{' (or first statement char).
  size_t body_end = 0;    // One past the body.
};

std::vector<RangeForLoop> FindRangeFors(const std::string& code) {
  std::vector<RangeForLoop> loops;
  size_t pos = 0;
  while ((pos = FindWordToken(code, pos, "for")) != std::string::npos) {
    size_t head = pos;
    size_t after = SkipSpaces(code, pos + 3);
    pos += 3;
    if (after >= code.size() || code[after] != '(') continue;
    size_t close = MatchBracket(code, after, '(', ')');
    if (close == std::string::npos) continue;
    std::string head_expr = code.substr(after + 1, close - after - 2);
    // The range-for separator: a ':' that is not part of '::'.
    size_t colon = std::string::npos;
    for (size_t i = 0; i < head_expr.size(); ++i) {
      if (head_expr[i] != ':') continue;
      if ((i + 1 < head_expr.size() && head_expr[i + 1] == ':') ||
          (i > 0 && head_expr[i - 1] == ':')) {
        continue;
      }
      colon = i;
      break;
    }
    if (colon == std::string::npos) continue;
    RangeForLoop loop;
    loop.head = head;
    loop.container = head_expr.substr(colon + 1);
    size_t body = SkipSpaces(code, close);
    if (body < code.size() && code[body] == '{') {
      size_t end = MatchBracket(code, body, '{', '}');
      if (end == std::string::npos) continue;
      loop.body_begin = body;
      loop.body_end = end;
    } else {
      size_t end = code.find(';', body);
      if (end == std::string::npos) continue;
      loop.body_begin = body;
      loop.body_end = end + 1;
    }
    loops.push_back(std::move(loop));
  }
  return loops;
}

void CheckFileDeterminism(const SourceFile& f,
                          const std::set<std::string>& unordered_names,
                          std::vector<Diagnostic>* out) {
  const std::string& code = f.code;

  // Banned nondeterminism sources. Member calls stay exempt (sim.time()
  // reads the virtual clock, which is fine) via FindWordToken's
  // allow_member=false mode.
  for (const BannedToken& banned : kBanned) {
    const std::string token = banned.token;
    size_t pos = 0;
    while ((pos = FindWordToken(code, pos, token, /*allow_member=*/false)) !=
           std::string::npos) {
      out->push_back({f.rel_path, LineOfOffset(code, pos), "determinism",
                      "banned call '" + token + "': " + banned.why});
      pos += token.size();
    }
  }

  // Range-for over unordered containers needs an ordered-ok waiver.
  for (const RangeForLoop& loop : FindRangeFors(code)) {
    std::string name = TrailingIdentifier(loop.container);
    if (name.empty() || unordered_names.count(name) == 0) continue;
    size_t line_index = LineOfOffset(code, loop.head) - 1;
    if (HasWaiverNeedle(f.lines, line_index,
                        "contjoin-check: ordered-ok(")) {
      continue;
    }
    out->push_back(
        {f.rel_path, line_index + 1, "determinism",
         "iteration over unordered container '" + name +
             "' — hash-table order must not reach emission (sort the "
             "keys, use an ordered container, or waive with "
             "// contjoin-check: ordered-ok(<reason>))"});
  }
}

void CheckDeterminismWithIndex(const SymbolIndex& index,
                               std::vector<Diagnostic>* out) {
  for (const SourceFile& f : index.files) {
    CheckFileDeterminism(f, index.unordered_names, out);
  }
}

}  // namespace

void CheckDeterminism(const CheckConfig& config,
                      std::vector<Diagnostic>* out) {
  SymbolIndex index = BuildSymbolIndex(config.root);
  CheckDeterminismWithIndex(index, out);
}

// --- Rule 5: lint promotion ---------------------------------------------------

void CheckLintConfig(const CheckConfig& config,
                     std::vector<Diagnostic>* out) {
  const char* kPromoted[] = {"bugprone-use-after-move",
                             "bugprone-dangling-handle", "performance-*"};
  fs::path tidy = fs::path(config.root) / ".clang-tidy";
  if (!fs::exists(tidy)) {
    out->push_back({".clang-tidy", 0, "lint-config",
                    ".clang-tidy missing; the lint gate has no profile"});
    return;
  }
  std::string text = ReadFileText(tidy.string());
  std::vector<std::string> lines = SplitLines(text);

  // Collect the (possibly folded multi-line) values of the two keys.
  auto value_of = [&lines](const std::string& key) {
    std::string value;
    for (size_t i = 0; i < lines.size(); ++i) {
      if (lines[i].rfind(key + ":", 0) != 0) continue;
      value = lines[i].substr(key.size() + 1);
      if (value.find('>') != std::string::npos ||
          value.find('|') != std::string::npos) {
        for (size_t j = i + 1;
             j < lines.size() && (lines[j].empty() || lines[j][0] == ' ');
             ++j) {
          value += " " + lines[j];
        }
      }
      break;
    }
    return value;
  };
  std::string checks = value_of("Checks");
  std::string errors = value_of("WarningsAsErrors");

  for (const char* check : kPromoted) {
    std::string family = std::string(check).substr(0, std::string(check).find('-'));
    bool enabled = checks.find(check) != std::string::npos ||
                   checks.find(family + "-*") != std::string::npos;
    if (!enabled) {
      out->push_back({".clang-tidy", 0, "lint-config",
                      std::string("promoted check '") + check +
                          "' is not enabled in Checks"});
    }
    if (errors.find(check) == std::string::npos) {
      out->push_back({".clang-tidy", 0, "lint-config",
                      std::string("promoted check '") + check +
                          "' must be listed in WarningsAsErrors "
                          "(warnings-as-errors lint gate)"});
    }
  }
}

// --- Rule 6: shard escape -----------------------------------------------------

namespace {

const char kShardWaiver[] = "contjoin-check: shard-ok(";

void CheckFileShardStatics(const SourceFile& f,
                           std::vector<Diagnostic>* out) {
  const std::string& stripped = f.code;

  // (a) Mutable static data. A `static` declarator is data when the first
  // structural token after the declaration's type+name is '=', ';' or '{'
  // — an opening paren first means a function. Template argument lists are
  // skipped so `static std::function<void()> f;` still reads as data.
  size_t pos = 0;
  while ((pos = FindWordToken(stripped, pos, "static")) !=
         std::string::npos) {
    size_t start = pos;
    pos += 6;
    size_t j = SkipSpaces(stripped, pos);
    // Immutable statics are shard-safe by construction.
    if (stripped.compare(j, 9, "constexpr") == 0 ||
        (stripped.compare(j, 5, "const") == 0 &&
         (j + 5 >= stripped.size() || !IsIdentChar(stripped[j + 5])))) {
      continue;
    }
    bool is_data = false;
    while (j < stripped.size()) {
      char c = stripped[j];
      if (c == '<') {
        size_t end = MatchBracket(stripped, j, '<', '>');
        if (end == std::string::npos) break;
        j = end;
        continue;
      }
      if (c == '(') break;  // Function declaration or definition.
      if (c == '=' || c == ';' || c == '{') {
        is_data = true;
        break;
      }
      ++j;
    }
    if (!is_data) continue;
    size_t line_index = LineOfOffset(stripped, start) - 1;
    if (HasWaiverNeedle(f.lines, line_index, kShardWaiver)) continue;
    out->push_back(
        {f.rel_path, line_index + 1, "shard-escape",
         "mutable static data in a role module — handlers for different "
         "node shards run concurrently under the parallel simulator core; "
         "keep state in NodeState (or waive with "
         "// contjoin-check: shard-ok(<reason>))"});
  }

  // (b) Shared engine RNG draws. The draw order of a process-wide RNG
  // depends on thread interleaving, so a role handler consuming it breaks
  // the bit-identical-at-any-worker-count contract.
  pos = 0;
  const std::string rng = "GetRng(";
  while ((pos = stripped.find(rng, pos)) != std::string::npos) {
    size_t start = pos;
    pos += rng.size();
    size_t line_index = LineOfOffset(stripped, start) - 1;
    if (HasWaiverNeedle(f.lines, line_index, kShardWaiver)) continue;
    out->push_back(
        {f.rel_path, line_index + 1, "shard-escape",
         "GetRng() draw in a role module — shared-RNG draw order depends "
         "on thread interleaving; derive randomness from per-node state "
         "(or waive with // contjoin-check: shard-ok(<reason>))"});
  }
}

/// Spans (paren-open .. matching close) of ctx.ScheduleAfter call arguments
/// inside `fn` — closures passed there execute on the scheduled node's
/// shard, so StateOf(<that node>) inside them is not an escape.
std::vector<std::pair<size_t, size_t>> DeferredClosureSpans(
    const SourceFile& f, const FunctionDef& fn) {
  std::vector<std::pair<size_t, size_t>> spans;
  for (const CallSite& call : fn.calls) {
    if (call.name != "ScheduleAfter") continue;
    size_t end = MatchBracket(f.code, call.paren, '(', ')');
    if (end != std::string::npos) spans.emplace_back(call.paren, end);
  }
  return spans;
}

void CheckFileShardEscape(const SourceFile& f, const SymbolIndex& index,
                          size_t file_index, std::vector<Diagnostic>* out) {
  CheckFileShardStatics(f, out);

  // (c) Cross-shard writes: a role-module function may pass only its own
  // node parameter to StateOf — other nodes' state belongs to other
  // shards. Closures handed to ctx.ScheduleAfter are exempt: they run on
  // the scheduled node's shard.
  for (size_t fn_index : index.functions_by_file[file_index]) {
    const FunctionDef& fn = index.functions[fn_index];
    std::vector<std::pair<size_t, size_t>> deferred =
        DeferredClosureSpans(f, fn);
    for (const CallSite& call : fn.calls) {
      if (call.name != "StateOf") continue;
      bool exempt = false;
      for (const auto& span : deferred) {
        if (call.paren > span.first && call.paren < span.second) {
          exempt = true;
          break;
        }
      }
      if (exempt) continue;
      size_t close = MatchBracket(f.code, call.paren, '(', ')');
      if (close == std::string::npos) continue;
      std::string arg =
          f.code.substr(call.paren + 1, close - call.paren - 2);
      std::string name = TrailingIdentifier(arg);
      if (!name.empty() && name == fn.owner_param) continue;
      size_t line_index = LineOfOffset(f.code, call.paren) - 1;
      if (HasWaiverNeedle(f.lines, line_index, kShardWaiver)) continue;
      out->push_back(
          {f.rel_path, line_index + 1, "shard-escape",
           "StateOf(" + arg + ") in '" + fn.name +
               "' escapes the owning shard (own node parameter: " +
               (fn.owner_param.empty() ? std::string("<none>")
                                       : fn.owner_param) +
               "); reach other nodes by sending them a message, or inside "
               "a ctx.ScheduleAfter closure on their shard (or waive with "
               "// contjoin-check: shard-ok(<reason>))"});
    }
  }

  // (d) Unordered iteration feeding a send loop — directly, or through
  // one helper call — leaks hash-table order into message emission order
  // even when each element is independently correct.
  for (const RangeForLoop& loop : FindRangeFors(f.code)) {
    std::string container = TrailingIdentifier(loop.container);
    if (container.empty() || index.unordered_names.count(container) == 0) {
      continue;
    }
    std::string via;
    for (size_t fn_index : index.functions_by_file[file_index]) {
      const FunctionDef& fn = index.functions[fn_index];
      for (const CallSite& call : fn.calls) {
        if (call.paren <= loop.body_begin || call.paren >= loop.body_end) {
          continue;
        }
        if (SendCallNames().count(call.name) > 0) {
          via = call.name;
          break;
        }
        auto targets = index.functions_by_name.find(call.name);
        if (targets == index.functions_by_name.end()) continue;
        for (size_t target : targets->second) {
          if (HasSendCall(index.functions[target])) {
            via = call.name + " -> send";
            break;
          }
        }
        if (!via.empty()) break;
      }
      if (!via.empty()) break;
    }
    if (via.empty()) continue;
    size_t line_index = LineOfOffset(f.code, loop.head) - 1;
    if (HasWaiverNeedle(f.lines, line_index, kShardWaiver)) continue;
    out->push_back(
        {f.rel_path, line_index + 1, "shard-escape",
         "iteration over unordered container '" + container +
             "' feeds a send path (" + via +
             ") — hash-table order would reach the wire; sort or use an "
             "ordered container (or waive with "
             "// contjoin-check: shard-ok(<reason>))"});
  }
}

void CheckShardEscapeWithIndex(const SymbolIndex& index,
                               std::vector<Diagnostic>* out) {
  for (size_t i = 0; i < index.files.size(); ++i) {
    const SourceFile& f = index.files[i];
    if (LayerOf(f.rel_path) != "core") continue;
    if (RoleModuleStems().count(StemOf(f.rel_path)) == 0) continue;
    CheckFileShardEscape(f, index, i, out);
  }
}

}  // namespace

void CheckShardEscape(const CheckConfig& config,
                      std::vector<Diagnostic>* out) {
  SymbolIndex index = BuildSymbolIndex(config.root);
  CheckShardEscapeWithIndex(index, out);
}

// --- Rule 7: protocol flow ----------------------------------------------------

namespace {

struct ProtocolSpec {
  bool found = false;
  std::string rel_path;
  std::set<std::string> msgs;
  std::map<std::string, size_t> msg_line;
  std::map<std::string, std::string> handler;
  std::set<std::string> critical;
  std::set<std::string> wire;
  std::map<std::pair<std::string, std::string>, size_t> sends;  // -> line
  std::vector<Diagnostic> parse_errors;
};

std::string SpecPathOf(const CheckConfig& config) {
  if (!config.protocol_spec.empty()) return config.protocol_spec;
  return (fs::path(config.root) / "tools" / "check" / "protocol.spec")
      .string();
}

std::string SpecRelPath(const CheckConfig& config, const std::string& path) {
  std::string root_prefix =
      fs::path(config.root).lexically_normal().generic_string();
  std::string norm = fs::path(path).lexically_normal().generic_string();
  if (!root_prefix.empty() && norm.rfind(root_prefix + "/", 0) == 0) {
    return norm.substr(root_prefix.size() + 1);
  }
  return norm;
}

ProtocolSpec LoadProtocolSpec(const CheckConfig& config) {
  ProtocolSpec spec;
  std::string path = SpecPathOf(config);
  spec.rel_path = SpecRelPath(config, path);
  if (!fs::exists(path)) return spec;
  spec.found = true;
  std::vector<std::string> lines = SplitLines(ReadFileText(path));
  for (size_t i = 0; i < lines.size(); ++i) {
    std::string line = lines[i];
    size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    std::vector<std::string> words;
    size_t pos = 0;
    while (pos < line.size()) {
      pos = SkipSpaces(line, pos);
      size_t start = pos;
      while (pos < line.size() && !IsSpace(line[pos])) ++pos;
      if (pos > start) words.push_back(line.substr(start, pos - start));
    }
    if (words.empty()) continue;
    const std::string& directive = words[0];
    auto bad = [&](const std::string& why) {
      spec.parse_errors.push_back(
          {spec.rel_path, i + 1, "protocol-flow", "spec parse error: " + why});
    };
    if (directive == "msg" && words.size() == 2) {
      spec.msgs.insert(words[1]);
      spec.msg_line[words[1]] = i + 1;
    } else if (directive == "handler" && words.size() == 3) {
      spec.handler[words[1]] = words[2];
    } else if (directive == "critical" && words.size() == 2) {
      spec.critical.insert(words[1]);
    } else if (directive == "wire" && words.size() == 2) {
      spec.wire.insert(words[1]);
    } else if (directive == "send" && words.size() == 3) {
      spec.sends[{words[1], words[2]}] = i + 1;
    } else {
      bad("expected `msg|critical|wire <kType>`, `handler <kType> <role>` "
          "or `send <kType> <role>`, got '" + line + "'");
    }
  }
  return spec;
}

void CheckProtocolFlowWithIndex(const CheckConfig& config,
                                const SymbolIndex& index,
                                std::vector<Diagnostic>* out) {
  ProtocolGraph graph = ExtractProtocolGraph(index);
  ProtocolSpec spec = LoadProtocolSpec(config);
  if (graph.enums.empty() && !spec.found) return;  // Nothing to check.
  if (!spec.found) {
    out->push_back(
        {spec.rel_path, 0, "protocol-flow",
         "protocol.spec not found — declare the role x message flow "
         "graph (msg/handler/critical/wire/send lines) so protocol "
         "drift fails the lint gate"});
    return;
  }
  for (const Diagnostic& d : spec.parse_errors) out->push_back(d);

  std::set<std::string> enum_set(graph.enums.begin(), graph.enums.end());

  // Every enumerator declared; every declaration a real enumerator.
  for (const std::string& e : graph.enums) {
    if (spec.msgs.count(e) == 0) {
      out->push_back({spec.rel_path, 0, "protocol-flow",
                      "CqMsgType::" + e +
                          " is not declared in protocol.spec (add `msg " +
                          e + "` plus its handler/wire/send facts)"});
    }
  }
  for (const auto& [m, line] : spec.msg_line) {
    if (enum_set.count(m) == 0) {
      out->push_back({spec.rel_path, line, "protocol-flow",
                      "protocol.spec declares unknown enumerator " + m});
    }
  }

  for (const std::string& e : graph.enums) {
    // Handlers: dispatch table vs declared handling role.
    std::string extracted = graph.handler_of.count(e) > 0
                                ? graph.handler_of.at(e)
                                : std::string();
    auto declared = spec.handler.find(e);
    if (!extracted.empty() && declared == spec.handler.end()) {
      out->push_back({spec.rel_path, 0, "protocol-flow",
                      "CqMsgType::" + e + " is handled by role '" +
                          extracted +
                          "' but protocol.spec declares no handler (add "
                          "`handler " + e + " " + extracted + "`)"});
    } else if (extracted.empty() && declared != spec.handler.end()) {
      out->push_back({"src/core/dispatch.cc", 0, "protocol-flow",
                      "protocol.spec declares handler '" +
                          declared->second + "' for CqMsgType::" + e +
                          " but the default dispatch table does not "
                          "register one"});
    } else if (declared != spec.handler.end() &&
               extracted != declared->second) {
      out->push_back({"src/core/dispatch.cc", 0, "protocol-flow",
                      "CqMsgType::" + e + " is handled by role '" +
                          extracted + "' but protocol.spec declares '" +
                          declared->second + "'"});
    }

    // Criticality: reliability::IsCritical vs declared bit.
    bool ext_critical = graph.critical.count(e) > 0;
    bool spec_critical = spec.critical.count(e) > 0;
    if (ext_critical && !spec_critical) {
      out->push_back({spec.rel_path, 0, "protocol-flow",
                      "reliability::IsCritical marks CqMsgType::" + e +
                          " critical but protocol.spec does not (add "
                          "`critical " + e + "`)"});
    } else if (!ext_critical && spec_critical) {
      out->push_back({"src/core/reliability.cc", 0, "protocol-flow",
                      "protocol.spec marks CqMsgType::" + e +
                          " critical but reliability::IsCritical does "
                          "not return true for it"});
    }

    // Wire reachability: codec table vs declared bit.
    bool ext_wire = graph.has_codec.count(e) > 0;
    bool spec_wire = spec.wire.count(e) > 0;
    if (ext_wire && !spec_wire) {
      out->push_back({spec.rel_path, 0, "protocol-flow",
                      "CqMsgType::" + e +
                          " has a registered wire codec but protocol.spec "
                          "marks it simulator-only (add `wire " + e + "`)"});
    } else if (!ext_wire && spec_wire) {
      out->push_back({"src/core/codec.cc", 0, "protocol-flow",
                      "protocol.spec marks CqMsgType::" + e +
                          " transport-reachable but no wire codec is "
                          "registered for it"});
    }
  }

  // Send edges: extracted vs declared, plus the per-edge contracts.
  for (const auto& [e, roles] : graph.senders) {
    for (const auto& [role, armed] : roles) {
      std::pair<std::string, size_t> site{"", 0};
      auto site_types = graph.send_sites.find(e);
      if (site_types != graph.send_sites.end() &&
          site_types->second.count(role) > 0) {
        site = site_types->second.at(role);
      }
      if (spec.sends.count({e, role}) == 0) {
        out->push_back({site.first, site.second, "protocol-flow",
                        "role '" + role + "' sends CqMsgType::" + e +
                            " but protocol.spec declares no `send " + e +
                            " " + role + "` edge (protocol drift)"});
      }
      bool handled = graph.handler_of.count(e) > 0 &&
                     !graph.handler_of.at(e).empty();
      if (!handled) {
        out->push_back({site.first, site.second, "protocol-flow",
                        "CqMsgType::" + e + " is sent by role '" + role +
                            "' but never handled: the default dispatch "
                            "table registers no handler for it"});
      }
      if (spec.critical.count(e) > 0 && !armed) {
        out->push_back(
            {site.first, site.second, "protocol-flow",
             "critical message CqMsgType::" + e + " is sent raw by role '" +
                 role +
                 "' — route it through reliability::Arm/ArmAll/"
                 "SendReliable so delivery is retried"});
      }
      if (spec.wire.count(e) == 0) {
        out->push_back(
            {site.first, site.second, "protocol-flow",
             "simulator-only CqMsgType::" + e + " (no `wire " + e +
                 "` in protocol.spec) reaches the transport seam via a "
                 "role-module send path — it would be dropped on the "
                 "socket transport"});
      }
    }
  }
  for (const auto& [edge, line] : spec.sends) {
    const auto& [e, role] = edge;
    bool extracted = graph.senders.count(e) > 0 &&
                     graph.senders.at(e).count(role) > 0;
    if (!extracted) {
      out->push_back({spec.rel_path, line, "protocol-flow",
                      "protocol.spec declares `send " + e + " " + role +
                          "` but no such send site exists in the tree "
                          "(stale spec)"});
    }
  }
}

}  // namespace

ProtocolGraph ExtractProtocolGraph(const SymbolIndex& index) {
  ProtocolGraph graph;
  graph.enums = index.msg_enums;

  // Handling roles from the default dispatch table: the namespace
  // qualifier of the registered handler.
  for (size_t fi = 0; fi < index.files.size(); ++fi) {
    if (index.files[fi].rel_path != "src/core/dispatch.cc") continue;
    for (const TypedCall& reg :
         FindTypedCalls(index.files[fi].code, "Register")) {
      size_t sep = reg.args_tail.rfind("::");
      std::string role;
      if (sep != std::string::npos) {
        size_t end = sep;
        while (end > 0 && IsSpace(reg.args_tail[end - 1])) --end;
        size_t start = end;
        while (start > 0 && IsIdentChar(reg.args_tail[start - 1])) --start;
        role = reg.args_tail.substr(start, end - start);
      }
      if (graph.handler_of.count(reg.enumerator) == 0) {
        graph.handler_of[reg.enumerator] = role;
      }
    }
  }

  // Critical set: the case labels of reliability::IsCritical.
  auto critical_fns = index.functions_by_name.find("IsCritical");
  if (critical_fns != index.functions_by_name.end()) {
    for (size_t fn_index : critical_fns->second) {
      const FunctionDef& fn = index.functions[fn_index];
      const SourceFile& f = index.files[fn.file];
      if (StemOf(f.rel_path) != "reliability") continue;
      size_t pos = fn.body_begin;
      while ((pos = FindWordToken(f.code, pos, "case")) !=
                 std::string::npos &&
             pos < fn.body_end) {
        size_t j = SkipSpaces(f.code, pos + 4);
        pos += 4;
        if (f.code.compare(j, 11, "CqMsgType::") != 0) continue;
        j += 11;
        size_t start = j;
        while (j < f.code.size() && IsIdentChar(f.code[j])) ++j;
        if (j > start) graph.critical.insert(f.code.substr(start, j - start));
      }
    }
  }

  // Codec coverage.
  for (size_t fi = 0; fi < index.files.size(); ++fi) {
    if (index.files[fi].rel_path != "src/core/codec.cc") continue;
    for (const TypedCall& reg :
         FindTypedCalls(index.files[fi].code, "RegisterCodec")) {
      graph.has_codec.insert(reg.enumerator);
    }
  }

  // Reverse call map for the armed computation.
  std::map<std::string, std::vector<size_t>> callers_by_name;
  for (size_t i = 0; i < index.functions.size(); ++i) {
    std::set<std::string> seen;
    for (const CallSite& call : index.functions[i].calls) {
      if (seen.insert(call.name).second) {
        callers_by_name[call.name].push_back(i);
      }
    }
  }
  auto armed_near = [&index, &callers_by_name](size_t fn_index) {
    std::set<size_t> nbhd;
    auto add_callees = [&index, &nbhd](size_t gi) {
      for (const CallSite& call : index.functions[gi].calls) {
        auto targets = index.functions_by_name.find(call.name);
        if (targets == index.functions_by_name.end()) continue;
        for (size_t t : targets->second) nbhd.insert(t);
      }
    };
    nbhd.insert(fn_index);
    add_callees(fn_index);
    auto callers = callers_by_name.find(index.functions[fn_index].name);
    if (callers != callers_by_name.end()) {
      for (size_t gi : callers->second) {
        nbhd.insert(gi);
        add_callees(gi);
      }
    }
    for (size_t gi : nbhd) {
      if (HasWrapCall(index.functions[gi])) return true;
    }
    return false;
  };

  // Send edges: payload creations inside role-module (and submission)
  // functions, mapped through the payload-struct tag table.
  for (size_t fi = 0; fi < index.files.size(); ++fi) {
    const SourceFile& f = index.files[fi];
    if (LayerOf(f.rel_path) != "core") continue;
    std::string role = SendRoleOf(StemOf(f.rel_path));
    if (role.empty()) continue;
    for (size_t fn_index : index.functions_by_file[fi]) {
      const FunctionDef& fn = index.functions[fn_index];
      for (const PayloadCreation& creation : fn.creations) {
        auto tags = index.payload_tags.find(creation.type_name);
        if (tags == index.payload_tags.end()) continue;
        std::vector<std::string> selected;
        if (tags->second.size() > 1) {
          // A constructor tagging several types (TupleIndexPayload's
          // value_level ternary: true branch first) is disambiguated by a
          // boolean literal argument; ambiguous calls count as all tags.
          bool has_true =
              FindWordToken(creation.args, 0, "true") != std::string::npos;
          bool has_false =
              FindWordToken(creation.args, 0, "false") != std::string::npos;
          if (has_true && !has_false) {
            selected.push_back(tags->second[0]);
          } else if (has_false && !has_true) {
            selected.push_back(tags->second[1]);
          } else {
            selected = tags->second;
          }
        } else {
          selected = tags->second;
        }
        bool armed = armed_near(fn_index);
        for (const std::string& e : selected) {
          auto& entry = graph.senders[e][role];
          entry = entry || armed;
          if (graph.send_sites[e].count(role) == 0) {
            graph.send_sites[e][role] = {
                f.rel_path, LineOfOffset(f.code, creation.offset)};
          }
        }
      }
    }
  }
  return graph;
}

std::string RenderProtocolGraph(const ProtocolGraph& graph) {
  std::string out;
  for (const std::string& e : graph.enums) {
    out += e;
    auto handler = graph.handler_of.find(e);
    out += " handler=";
    out += (handler != graph.handler_of.end() && !handler->second.empty())
               ? handler->second
               : "-";
    if (graph.critical.count(e) > 0) out += " critical";
    if (graph.has_codec.count(e) > 0) out += " wire";
    out += " senders=";
    auto senders = graph.senders.find(e);
    if (senders == graph.senders.end() || senders->second.empty()) {
      out += "-";
    } else {
      bool first = true;
      for (const auto& [role, armed] : senders->second) {
        if (!first) out += ",";
        first = false;
        out += role;
        if (armed) out += "[armed]";
      }
    }
    out += "\n";
  }
  return out;
}

void CheckProtocolFlow(const CheckConfig& config,
                       std::vector<Diagnostic>* out) {
  SymbolIndex index = BuildSymbolIndex(config.root);
  CheckProtocolFlowWithIndex(config, index, out);
}

// --- Rule 8: hot-path hygiene -------------------------------------------------

namespace {

const char kHotWaiver[] = "contjoin-check: hot-ok(";

/// True when the line carries the hot marker itself (and not merely a
/// hot-ok waiver, whose needle shares the prefix).
bool IsHotMarkerLine(const std::string& line) {
  const std::string needle = "contjoin-check: hot";
  size_t pos = 0;
  while ((pos = line.find(needle, pos)) != std::string::npos) {
    size_t after = pos + needle.size();
    if (after >= line.size() || line[after] != '-') return true;
    pos = after;
  }
  return false;
}

bool IsHotFunction(const SourceFile& f, const FunctionDef& fn) {
  size_t def_index = fn.line - 1;  // 0-based line of the name.
  size_t first = def_index >= 2 ? def_index - 2 : 0;
  for (size_t i = first; i <= def_index && i < f.lines.size(); ++i) {
    if (IsHotMarkerLine(f.lines[i])) return true;
  }
  return false;
}

struct HotBan {
  const char* token;
  bool word = true;       // Word-boundary match (false: plain substring).
  bool needs_call = false;  // Must be followed by '(' or '{'.
  const char* why;
};

constexpr HotBan kHotBans[] = {
    {"new", true, false, "allocates on the per-message path"},
    {"make_unique", true, false, "allocates on the per-message path"},
    {"make_shared", true, false, "allocates on the per-message path"},
    {"std::string", false, true,
     "constructs a std::string temporary on the per-message path"},
    {"to_string", true, true,
     "constructs a std::string temporary on the per-message path"},
    {"ostringstream", true, false,
     "constructs a stream (allocation + locale) on the per-message path"},
    {"stringstream", true, false,
     "constructs a stream (allocation + locale) on the per-message path"},
    {"regex", false, false,
     "std::regex construction/matching is orders of magnitude too slow "
     "for a hot path (and the checker bans itself from it)"},
    {"lock_guard", true, false, "takes a lock on the per-message path"},
    {"unique_lock", true, false, "takes a lock on the per-message path"},
    {"scoped_lock", true, false, "takes a lock on the per-message path"},
    {"shared_lock", true, false, "takes a lock on the per-message path"},
    {"mutex", true, false, "takes a lock on the per-message path"},
    {".lock(", false, false, "takes a lock on the per-message path"},
};

void CheckHotPathWithIndex(const SymbolIndex& index,
                           std::vector<Diagnostic>* out) {
  for (const FunctionDef& fn : index.functions) {
    const SourceFile& f = index.files[fn.file];
    if (!IsHotFunction(f, fn)) continue;
    for (const HotBan& ban : kHotBans) {
      const std::string token = ban.token;
      size_t pos = fn.body_begin;
      while (pos < fn.body_end) {
        pos = ban.word ? FindWordToken(f.code, pos, token)
                       : f.code.find(token, pos);
        if (pos == std::string::npos || pos >= fn.body_end) break;
        size_t match = pos;
        pos += token.size();
        if (ban.needs_call) {
          size_t j = SkipSpaces(f.code, match + token.size());
          if (j >= f.code.size() || (f.code[j] != '(' && f.code[j] != '{')) {
            continue;
          }
        }
        size_t line_index = LineOfOffset(f.code, match) - 1;
        if (HasWaiverNeedle(f.lines, line_index, kHotWaiver)) continue;
        out->push_back(
            {f.rel_path, line_index + 1, "hotpath",
             "'" + token + "' in hot function '" + fn.name + "': " +
                 ban.why + " (waive with "
                 "// contjoin-check: hot-ok(<reason>))"});
      }
    }
  }
}

}  // namespace

void CheckHotPath(const CheckConfig& config, std::vector<Diagnostic>* out) {
  SymbolIndex index = BuildSymbolIndex(config.root);
  CheckHotPathWithIndex(index, out);
}

// --- Compile-database coverage ------------------------------------------------

namespace {

/// Values of every `"file": "<path>"` entry in a compile database,
/// unescaped.
std::set<std::string> CompileDbFiles(const std::string& db) {
  std::set<std::string> built;
  const std::string key = "\"file\"";
  size_t pos = 0;
  while ((pos = db.find(key, pos)) != std::string::npos) {
    pos += key.size();
    size_t j = SkipSpaces(db, pos);
    if (j >= db.size() || db[j] != ':') continue;
    j = SkipSpaces(db, j + 1);
    if (j >= db.size() || db[j] != '"') continue;
    std::string value;
    ++j;
    while (j < db.size() && db[j] != '"') {
      if (db[j] == '\\' && j + 1 < db.size()) ++j;
      value += db[j];
      ++j;
    }
    built.insert(fs::path(value).lexically_normal().generic_string());
    pos = j;
  }
  return built;
}

void CheckCompileDbWithIndex(const CheckConfig& config,
                             const SymbolIndex& index,
                             std::vector<Diagnostic>* out) {
  if (config.compile_db.empty()) return;
  if (!fs::exists(config.compile_db)) {
    out->push_back({config.compile_db, 0, "compile-db",
                    "compile database not found (configure with "
                    "CMAKE_EXPORT_COMPILE_COMMANDS=ON)"});
    return;
  }
  std::set<std::string> built = CompileDbFiles(ReadFileText(config.compile_db));
  for (const SourceFile& f : index.files) {
    if (fs::path(f.rel_path).extension() != ".cc") continue;
    fs::path abs = fs::absolute(fs::path(config.root) / f.rel_path)
                       .lexically_normal();
    bool found = built.count(abs.generic_string()) > 0;
    if (!found) {
      // Fall back to a suffix match (relative entries in the database).
      for (const std::string& b : built) {
        if (b.size() >= f.rel_path.size() &&
            b.compare(b.size() - f.rel_path.size(), f.rel_path.size(),
                      f.rel_path) == 0) {
          found = true;
          break;
        }
      }
    }
    if (!found) {
      out->push_back({f.rel_path, 0, "compile-db",
                      "translation unit missing from the compile database — "
                      "it is not built by any target (dead code or a "
                      "CMakeLists.txt omission)"});
    }
  }
}

}  // namespace

void CheckCompileDb(const CheckConfig& config, std::vector<Diagnostic>* out) {
  SymbolIndex index = BuildSymbolIndex(config.root);
  CheckCompileDbWithIndex(config, index, out);
}

void CheckLayering(const CheckConfig& config, std::vector<Diagnostic>* out) {
  SymbolIndex index = BuildSymbolIndex(config.root);
  CheckLayeringWithIndex(index, out);
}

// --- Driver -------------------------------------------------------------------

std::vector<Diagnostic> RunChecks(const CheckConfig& config,
                                  std::vector<RuleTiming>* timings) {
  std::vector<Diagnostic> out;
  auto timed = [timings](const char* rule, auto&& body) {
    auto t0 = std::chrono::steady_clock::now();
    body();
    if (timings != nullptr) {
      auto t1 = std::chrono::steady_clock::now();
      timings->push_back(
          {rule,
           std::chrono::duration<double, std::milli>(t1 - t0).count()});
    }
  };
  SymbolIndex index;
  timed("index", [&] { index = BuildSymbolIndex(config.root); });
  if (config.check_layering) {
    timed("layering", [&] { CheckLayeringWithIndex(index, &out); });
  }
  if (config.check_messages) {
    timed("messages", [&] { CheckMessages(config, &out); });
  }
  if (config.check_codecs) {
    timed("codecs", [&] { CheckCodecs(config, &out); });
  }
  if (config.check_determinism) {
    timed("determinism", [&] { CheckDeterminismWithIndex(index, &out); });
  }
  if (config.check_lint_config) {
    timed("lint-config", [&] { CheckLintConfig(config, &out); });
  }
  if (config.check_shard_escape) {
    timed("shard-escape", [&] { CheckShardEscapeWithIndex(index, &out); });
  }
  if (config.check_protocol_flow) {
    timed("protocol-flow",
          [&] { CheckProtocolFlowWithIndex(config, index, &out); });
  }
  if (config.check_hotpath) {
    timed("hotpath", [&] { CheckHotPathWithIndex(index, &out); });
  }
  timed("compile-db", [&] { CheckCompileDbWithIndex(config, index, &out); });
  std::sort(out.begin(), out.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  return out;
}

std::string FormatDiagnostic(const Diagnostic& d) {
  std::string out = d.file;
  if (d.line > 0) out += ":" + std::to_string(d.line);
  out += ": [" + d.rule + "] " + d.message;
  return out;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          const char* hex = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xF];
          out += hex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string FormatDiagnosticsJson(const std::vector<Diagnostic>& diags) {
  std::string out = "[";
  for (size_t i = 0; i < diags.size(); ++i) {
    if (i > 0) out += ",";
    out += "\n  {\"file\": \"" + JsonEscape(diags[i].file) +
           "\", \"line\": " + std::to_string(diags[i].line) +
           ", \"rule\": \"" + JsonEscape(diags[i].rule) +
           "\", \"message\": \"" + JsonEscape(diags[i].message) + "\"}";
  }
  out += diags.empty() ? "]\n" : "\n]\n";
  return out;
}

}  // namespace contjoin::check
