// Shared context handed by the orchestrator (lint.cpp) to the cross-TU
// passes: pass 2/3 (graph.cpp: call-graph linkage + determinism taint) and
// pass 4 (conc.cpp: concurrency discipline). The passes never touch raw text
// except conc.cpp's lazy body re-reads; everything else flows through the
// pass-1 FileSummary IR.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "sdslint/lint.h"
#include "sdslint/model.h"

namespace sdslint {

struct PassContext {
  // Scan-set summaries, sorted by path. Mutable: emission flips allow.used.
  std::vector<FileSummary*> files;
  // Resolves a quoted include target ("detect/params.h") against
  // <include_root>/src, loading + summarizing on demand; nullptr when the
  // target does not exist. May return files outside the scan set — they
  // contribute symbols and sinks but never receive diagnostics.
  std::function<FileSummary*(const std::string& target)> resolve;
  // Central emission: builtin-allow and allow(...) handling, rule-hit
  // accounting. The only way a pass may report.
  std::function<void(FileSummary&, int line, const std::string& rule,
                     std::string message)>
      emit;
  // True when a would-be diagnostic at (file, line, rule) is silenced by an
  // allow(...) comment or a builtin allow — used to keep suppressed sinks
  // from seeding taint WITHOUT marking the suppression as used.
  std::function<bool(const FileSummary&, int line, const std::string& rule)>
      silenced;
  Stats* stats = nullptr;
};

// Pass 2 + 3: link the cross-TU call graph over each file's quoted-include
// closure, seed determinism sinks, propagate taint backward, and emit
// det-taint at cross-file call edges out of deterministic layers plus the
// cross-file det-unordered-iter extension.
void RunGraphPasses(PassContext& ctx);

// Pass 4: conc-guarded-by / conc-shard-owned / conc-lock-order from the
// SDS_GUARDED_BY / SDS_SHARD_OWNED / SDS_ASSERT_HELD annotations.
void RunConcPass(PassContext& ctx);

}  // namespace sdslint
