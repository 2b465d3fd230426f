// Pass 1: distill one translation unit into a FileSummary (model.h).
//
// Combines the legacy line/token scans (sink tokens, unordered-container
// declarations and range-fors, std:: usage, version-pin tokens, restricted
// mutation verbs, #pragma once) with a lightweight scope-tracking token walk
// that records function declarations/definitions with body extents, call
// sites, annotated/mutex fields and lock operations. No libclang: the walk
// is a heuristic tuned to this codebase's style, and every downstream rule
// is designed to degrade safely (an unresolved name simply drops out of the
// graph) rather than misfire.
#pragma once

#include <string>

#include "sdslint/model.h"
#include "sdslint/source.h"

namespace sdslint {

// Builds the summary for a loaded file. `path` must already be the generic
// lexically-normal form; `layer` / `is_header` are precomputed by the
// caller.
FileSummary BuildSummary(const SourceText& text, const std::string& layer,
                         bool is_header);

}  // namespace sdslint
