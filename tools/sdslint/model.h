// sdslint v2 intermediate representation (DESIGN.md §16).
//
// Pass 1 (symbols.cpp) distills every translation unit into a FileSummary:
// everything the later passes and every rule need, with the raw text gone.
// The summary is what passes 2–4 (call-graph linkage, interprocedural taint,
// concurrency discipline) consume. Rules therefore never touch raw lines;
// if a rule needs a fact, pass 1 records it here.
#pragma once

#include <string>
#include <vector>

namespace sdslint {

struct IncludeDirective {
  int line = 0;
  std::string target;
  bool angle = false;
};

// One allow(...) suppression comment. `used` is set at emission time.
struct AllowComment {
  int target_line = 0;   // the line this suppression silences
  int comment_line = 0;  // line the comment itself is on
  std::vector<std::string> rules;
  std::string raw_rules;
  bool used = false;
};

// A function declaration or definition found by the symbol pass.
struct FunctionSym {
  std::string name;       // last component ("Visit", "~Foo", "operator==")
  std::string qualified;  // best-effort ns::Class::Visit
  std::string class_name; // enclosing or explicitly qualified class, "" free
  int line = 0;           // line of the name token
  int body_begin = 0;     // 0 for declarations
  int body_end = 0;
  bool is_definition = false;
};

// A call site inside a function body: `name(`, optionally qualified
// (`Class::name(`). func indexes FileSummary::functions.
struct CallSite {
  int func = -1;
  int line = 0;
  std::string name;
  std::string qualifier;  // "" for unqualified / member-syntax calls
};

// A data member (class scope) or namespace-scope variable declaration the
// concurrency / unordered rules care about.
struct FieldDecl {
  std::string class_name;  // "" for namespace scope
  std::string name;
  int line = 0;
  std::string guarded_by;  // SDS_GUARDED_BY(mutex) argument, "" if none
  bool shard_owned = false;  // SDS_SHARD_OWNED present
  bool is_mutex = false;     // declared type mentions *mutex
  bool is_unordered = false; // declared type is an unordered container
};

// A lock acquisition (lock_guard / unique_lock / scoped_lock / shared_lock /
// m.lock()) or an SDS_ASSERT_HELD(m) assertion inside a function body.
struct LockOp {
  int func = -1;
  int line = 0;
  std::vector<std::string> args;  // mutex name token per acquired mutex
  bool assert_held = false;       // SDS_ASSERT_HELD: evidence, not acquisition
};

// Sink kinds for the determinism rules; `rule` is the direct det-* rule id
// the sink maps to and `token` the offending token (for messages).
struct SinkOccur {
  int func = -1;  // -1: outside any recorded function body
  int line = 0;
  std::string rule;   // kRuleDetRand / kRuleDetClock / kRuleDetPointerPrint
  std::string token;  // "rand", "system_clock", "%p", ...
};

// A range-for site; the range expression text is kept for unordered-name
// matching (same-file legacy behaviour plus the cross-TU closure check).
struct IterSite {
  int func = -1;
  int line = 0;
  std::string range_text;
};

// First use line of a std:: identifier covered by the self-containment rule.
struct StdUse {
  std::string ident;
  int line = 0;
};

// Member-call occurrences of the restricted mutation verbs
// (Migrate/StopVm/ResumeVm and the AttributionLedger Record* family).
struct VerbCall {
  int line = 0;
  std::string verb;
};

// First SnapshotWriter/Reader (resp. WalWriter/Reader) use and whether the
// file references the version pin token (det-snapshot/wal-versioned rules).
struct VersionPinUse {
  int first_use = 0;
  bool versioned = false;
};

struct FileSummary {
  std::string path;   // generic, lexically normal, as discovered
  std::string layer;  // "" when outside any known layer
  bool is_header = false;

  std::vector<IncludeDirective> includes;
  std::vector<AllowComment> allows;
  std::vector<FunctionSym> functions;
  std::vector<CallSite> calls;
  std::vector<FieldDecl> fields;
  std::vector<LockOp> locks;
  std::vector<SinkOccur> sinks;
  std::vector<IterSite> iters;
  std::vector<std::string> unordered_names;  // file-wide declared names
  std::vector<StdUse> std_uses;
  std::vector<VerbCall> verb_calls;
  int pragma_diag_line = 0;  // 0 = clean / not applicable
  VersionPinUse snapshot;
  VersionPinUse wal;
};

// Providers for the self-containment rule: returns the comma-separated
// <header> list satisfying std::`ident`, or nullptr when the identifier is
// out of the rule's scope. Defined in symbols.cpp next to the table.
const char* StdProvidersFor(const std::string& ident);

}  // namespace sdslint
