// Orchestrator for the multi-pass analyzer (see lint.h for the pass map).
// This file owns the layer model, file discovery, pass-1 loading, the v1
// rule families (re-expressed over the FileSummary IR with byte-identical
// diagnostics) and central emission.
#include "sdslint/lint.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "sdslint/json.h"
#include "sdslint/model.h"
#include "sdslint/passes.h"
#include "sdslint/source.h"
#include "sdslint/symbols.h"

namespace sdslint {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Layer model
// ---------------------------------------------------------------------------

struct LayerInfo {
  const char* name;
  int rank;
  bool deterministic;
};

// The DAG from DESIGN.md §11. Equal rank == sibling layers that must not
// include each other. tests/bench/tools/examples sit above everything and may
// include anything.
constexpr LayerInfo kLayers[] = {
    {"common", 0, true},
    {"stats", 1, true},      {"signal", 1, true},    {"telemetry", 1, false},
    {"sim", 2, true},
    {"vm", 3, true},
    {"pcm", 4, true},
    {"attacks", 5, true},    {"workloads", 5, true}, {"detect", 5, true},
    {"fault", 5, true},
    {"cluster", 6, true},    {"obs", 6, true},
    {"svc", 7, true},
    {"eval", 8, false},
    {"tests", 100, false},   {"bench", 100, false},  {"tools", 100, false},
    {"examples", 100, false},
};

const LayerInfo* FindLayer(const std::string& name) {
  for (const auto& l : kLayers) {
    if (name == l.name) return &l;
  }
  return nullptr;
}

// Layers whose sources live under src/<layer>/ (vs the top-level trees).
bool IsSrcLayer(const std::string& name) {
  const LayerInfo* l = FindLayer(name);
  return l != nullptr && l->rank < 100;
}

// Legal same-rank edges: within the rank-1 band the spectral code builds on
// descriptive statistics, never the reverse.
struct SiblingEdge {
  const char* from;
  const char* to;
};
constexpr SiblingEdge kAllowedSiblingEdges[] = {
    {"signal", "stats"},
};

bool SiblingEdgeAllowed(const std::string& from, const std::string& to) {
  for (const SiblingEdge& e : kAllowedSiblingEdges) {
    if (from == e.from && to == e.to) return true;
  }
  return false;
}

// Layers whose dependents are enumerated explicitly: the rank test alone
// would let EVERY higher layer include them, but these seams are narrower
// than their rank. The non-layer trees (tests/bench/tools/examples, rank >=
// 100) may always include them.
struct RestrictedLayer {
  const char* name;
  const char* dependents;  // comma-separated src layers allowed to include it
};
constexpr RestrictedLayer kRestrictedLayers[] = {
    // fault wraps two seams of the response pipeline: the pcm SampleSource
    // (monitoring-plane injection) and the Actuator's ActuationFaultPlan
    // (actuation-plane injection). Only the layers that own those seams —
    // cluster and eval — may depend on it; the detectors under test must
    // never see the injection machinery. svc joins them for its stable-store
    // crash points (fault/service_plan.h).
    {"fault", "cluster,eval,svc"},
    // obs is the off-path observability plane: rollups, SLO scoring and
    // detector snapshots consume detector state but nothing on the
    // decision path may grow a dependency on its aggregates. Only eval
    // (which replays merged streams) and svc (whose checkpoints ride the
    // versioned snapshot envelope) may include it from src/.
    {"obs", "eval,svc"},
    // svc is the streaming service shell around the detectors; only the
    // evaluation harness may drive it from src/.
    {"svc", "eval"},
};

const RestrictedLayer* FindRestricted(const std::string& name) {
  for (const RestrictedLayer& r : kRestrictedLayers) {
    if (name == r.name) return &r;
  }
  return nullptr;
}

bool RestrictedDependentAllowed(const RestrictedLayer& restricted,
                                const std::string& from) {
  std::string cur;
  for (const char* p = restricted.dependents;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (cur == from) return true;
      cur.clear();
      if (*p == '\0') return false;
    } else {
      cur.push_back(*p);
    }
  }
}

// Wall-clock reads that are part of a layer's charter even though the layer
// would otherwise be rank-checked. Today: eval::Experiment's per-stage wall
// time (the stage_end events and eval.stage.*.wall_ms gauges).
struct BuiltinAllow {
  const char* path_fragment;
  const char* rule;
};
constexpr BuiltinAllow kBuiltinAllows[] = {
    {"src/eval/experiment", kRuleDetClock},  // wall-clock run timing report
};

// Why-texts for the direct determinism sink tokens (pass 1 records the
// occurrences; the message stays identical to v1).
struct BanWhy {
  const char* token;
  const char* why;
};
constexpr BanWhy kBanWhys[] = {
    {"rand",
     "libc rand() draws from ambient global state; use sds::Rng seeded "
     "from the run config"},
    {"srand", "seeding the global C RNG makes run order matter; use sds::Rng"},
    {"random_device",
     "std::random_device is nondeterministic by definition; use sds::Rng "
     "seeded from the run config"},
    {"system_clock",
     "wall-clock reads break bit-identical replays; use the tick clock "
     "(sds::TickClock) or move the timing to eval/telemetry"},
    {"steady_clock",
     "wall-clock reads break bit-identical replays; use the tick clock "
     "(sds::TickClock) or move the timing to eval/telemetry"},
    {"high_resolution_clock",
     "wall-clock reads break bit-identical replays; use the tick clock "
     "(sds::TickClock) or move the timing to eval/telemetry"},
    {"clock_gettime", "wall-clock reads break bit-identical replays"},
    {"gettimeofday", "wall-clock reads break bit-identical replays"},
};

const char* WhyOf(const std::string& token) {
  for (const BanWhy& b : kBanWhys) {
    if (token == b.token) return b.why;
  }
  return "";
}

// ---------------------------------------------------------------------------
// Analyzer
// ---------------------------------------------------------------------------

class Analyzer {
 public:
  explicit Analyzer(const Options& options) : options_(options) {}

  Result Run() {
    CollectFiles();
    for (const std::string& path : scan_list_) Load(path);
    result_.stats.files_scanned = static_cast<int>(scan_list_.size());
    for (const std::string& path : scan_list_) Check(files_.at(path));
    RunCrossTuPasses();
    std::sort(result_.diagnostics.begin(), result_.diagnostics.end(),
              [](const Diagnostic& a, const Diagnostic& b) {
                if (a.file != b.file) return a.file < b.file;
                if (a.line != b.line) return a.line < b.line;
                return a.rule < b.rule;
              });
    for (const std::string& path : scan_list_) {
      for (const AllowComment& a : files_.at(path).allows) {
        result_.suppressions.push_back(
            {path, a.target_line, a.comment_line, a.raw_rules, a.used});
      }
    }
    result_.files_scanned = static_cast<int>(scan_list_.size());
    return std::move(result_);
  }

 private:
  static bool IsSourceFile(const fs::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc";
  }

  bool Ignored(const std::string& generic) const {
    for (const std::string& frag : options_.ignores) {
      if (!frag.empty() && generic.find(frag) != std::string::npos) return true;
    }
    return false;
  }

  void CollectFiles() {
    std::set<std::string> seen;
    for (const std::string& root : options_.paths) {
      std::error_code ec;
      if (fs::is_directory(root, ec)) {
        for (fs::recursive_directory_iterator it(root, ec), end;
             !ec && it != end; it.increment(ec)) {
          if (it->is_regular_file(ec) && IsSourceFile(it->path())) {
            const std::string g =
                it->path().lexically_normal().generic_string();
            if (!Ignored(g)) seen.insert(g);
          }
        }
      } else if (fs::is_regular_file(root, ec) && IsSourceFile(root)) {
        const std::string g = fs::path(root).lexically_normal().generic_string();
        if (!Ignored(g)) seen.insert(g);
      }
    }
    scan_list_.assign(seen.begin(), seen.end());
  }

  // Pass 1: load and summarize each file once.
  FileSummary* Load(const std::string& path) {
    auto it = files_.find(path);
    if (it != files_.end()) return &it->second;
    SourceText text;
    if (!LoadSource(path, &text)) return nullptr;
    const std::string ext = fs::path(path).extension().string();
    FileSummary summary =
        BuildSummary(text, LayerOfPath(path), ext == ".h" || ext == ".hpp");
    return &files_.emplace(path, std::move(summary)).first->second;
  }

  // Resolves a quoted include ("detect/params.h") to a file under
  // <include_root>/src, loading it on demand (it need not be in the scan
  // set). Returns nullptr when the target does not exist.
  FileSummary* Resolve(const std::string& target) {
    const fs::path p = fs::path(options_.include_root) / "src" / target;
    std::error_code ec;
    if (!fs::is_regular_file(p, ec)) return nullptr;
    return Load(p.lexically_normal().generic_string());
  }

  bool BuiltinAllowed(const FileSummary& f, const std::string& rule) const {
    for (const BuiltinAllow& a : kBuiltinAllows) {
      if (rule == a.rule && f.path.find(a.path_fragment) != std::string::npos)
        return true;
    }
    return false;
  }

  void Emit(FileSummary& f, int line, const std::string& rule,
            std::string message) {
    if (BuiltinAllowed(f, rule)) return;
    for (AllowComment& a : f.allows) {
      if (a.target_line != line) continue;
      for (const std::string& r : a.rules) {
        if (r == rule || r == "all" || r == "*") {
          a.used = true;
          return;
        }
      }
    }
    ++result_.stats.rule_hits[rule];
    result_.diagnostics.push_back({f.path, line, rule, std::move(message)});
  }

  // Would Emit drop this diagnostic? (Without marking suppressions used —
  // taint seeding must not count as a firing.)
  bool Silenced(const FileSummary& f, int line, const std::string& rule) const {
    if (BuiltinAllowed(f, rule)) return true;
    for (const AllowComment& a : f.allows) {
      if (a.target_line != line) continue;
      for (const std::string& r : a.rules) {
        if (r == rule || r == "all" || r == "*") return true;
      }
    }
    return false;
  }

  void RunCrossTuPasses() {
    PassContext ctx;
    for (const std::string& path : scan_list_) {
      ctx.files.push_back(&files_.at(path));
    }
    ctx.resolve = [this](const std::string& target) { return Resolve(target); };
    ctx.emit = [this](FileSummary& f, int line, const std::string& rule,
                      std::string message) {
      Emit(f, line, rule, std::move(message));
    };
    ctx.silenced = [this](const FileSummary& f, int line,
                          const std::string& rule) {
      return Silenced(f, line, rule);
    };
    ctx.stats = &result_.stats;
    RunGraphPasses(ctx);
    RunConcPass(ctx);
  }

  // ---- v1 rule families, emitted from the pass-1 summaries ----

  void Check(FileSummary& f) {
    CheckIncludes(f);
    if (f.is_header) {
      CheckPragmaOnce(f);
      CheckSelfContained(f);
    }
    if (IsDeterministicLayer(f.layer)) {
      CheckDeterminismTokens(f);
      CheckUnorderedIteration(f);
    }
    CheckActuationIdempotent(f);
    CheckAttribLedger(f);
    CheckSnapshotVersioned(f);
    CheckWalVersioned(f);
    CheckHandoffVersioned(f);
  }

  // det-handoff-versioned: migration orchestration (cluster layer) and the
  // eval harnesses must never move detector state as raw SaveState /
  // RestoreState bytes — a handoff blob crosses hosts and release
  // boundaries, so it must travel inside the versioned + fingerprinted obs
  // envelope (obs/handoff.h), whose OpenSnapshot rejection is what turns a
  // config or format skew into a LOUD cold start instead of a misparse.
  // The detect layer (producing its own payload), the obs wrappers and the
  // svc WAL path are the sanctioned callers and stay out of scope.
  void CheckHandoffVersioned(FileSummary& f) {
    if (f.layer != "cluster" && f.layer != "eval") return;
    for (const VerbCall& v : f.verb_calls) {
      if (v.verb != "SaveState" && v.verb != "RestoreState") continue;
      Emit(f, v.line, kRuleDetHandoffVersioned,
           v.verb + "() called directly from " + f.path +
               ": detector state crossing hosts must ride the versioned "
               "handoff envelope (obs::PackSdsHandoff/ApplySdsHandoff or "
               "the KsTest equivalents) so fingerprint/version skew "
               "rejects loudly instead of misparsing");
    }
  }

  // det-snapshot-versioned: an obs-layer file that serializes or parses a
  // snapshot byte stream (SnapshotWriter / SnapshotReader) must reference
  // kSnapshotVersion somewhere in its code, so every blob format in the obs
  // plane carries the version pin that OpenSnapshot rejects on (DESIGN.md
  // §13). Detector-side SaveState payloads are out of scope: they are always
  // wrapped in the versioned obs envelope before leaving the process.
  void CheckSnapshotVersioned(FileSummary& f) {
    if (f.layer != "obs") return;
    if (f.snapshot.first_use != 0 && !f.snapshot.versioned) {
      Emit(f, f.snapshot.first_use, kRuleDetSnapshotVersioned,
           "obs-layer snapshot serialization without a kSnapshotVersion "
           "reference: every blob format must carry the version pin that "
           "OpenSnapshot validates, or restores after a format change would "
           "misparse old bytes instead of rejecting them");
    }
  }

  // det-wal-versioned: a svc-layer file that encodes or scans WAL frames
  // (WalWriter / WalReader) must reference obs::kSnapshotVersion somewhere
  // in its code, so every WAL payload carries the same version pin the
  // checkpoint envelope does (DESIGN.md §14).
  void CheckWalVersioned(FileSummary& f) {
    if (f.layer != "svc") return;
    if (f.wal.first_use != 0 && !f.wal.versioned) {
      Emit(f, f.wal.first_use, kRuleDetWalVersioned,
           "svc-layer WAL framing without a kSnapshotVersion reference: "
           "every WAL record must carry the snapshot version pin so a "
           "recovery scan rejects frames written by a different format "
           "instead of misparsing them");
    }
  }

  // det-actuation-idempotent: inside the cluster layer, only the Cluster
  // itself and the Actuator may invoke the placement-mutating verbs
  // (Migrate / StopVm / ResumeVm). Everything else — the MitigationEngine
  // above all — must route commands through the Actuator so the
  // one-outstanding-command-per-VM idempotency guard and the actuation fault
  // plan stay in the path.
  void CheckActuationIdempotent(FileSummary& f) {
    if (f.layer != "cluster") return;
    if (f.path.find("cluster/cluster.") != std::string::npos ||
        f.path.find("cluster/actuator.") != std::string::npos) {
      return;
    }
    for (const VerbCall& v : f.verb_calls) {
      if (v.verb != "Migrate" && v.verb != "StopVm" && v.verb != "ResumeVm") {
        continue;
      }
      Emit(f, v.line, kRuleDetActuationIdempotent,
           v.verb + "() called directly from " + f.path +
               ": cluster-layer code must route placement changes "
               "through the Actuator (SubmitMigrate/SubmitStop/"
               "SubmitResume) so the idempotency guard and the actuation "
               "fault plan apply");
    }
  }

  // det-attrib-ledger: the interference attribution ledger is a sim-layer
  // observer — only the hardware models (cache, bus, machine) may record
  // into it. Consumers (pcm sampler, forensics engine) read through the
  // const accessors only.
  void CheckAttribLedger(FileSummary& f) {
    if (!IsSrcLayer(f.layer) || f.layer == "sim") return;
    for (const VerbCall& v : f.verb_calls) {
      if (v.verb != "RecordTickStart" && v.verb != "RecordEviction" &&
          v.verb != "RecordBusOccupancy" && v.verb != "RecordBusStall") {
        continue;
      }
      Emit(f, v.line, kRuleDetAttribLedger,
           v.verb + "() mutates the AttributionLedger from layer '" + f.layer +
               "': hardware evidence may only be recorded by the sim layer; "
               "every other layer reads the ledger through its const "
               "accessors");
    }
  }

  void CheckIncludes(FileSummary& f) {
    const LayerInfo* from = FindLayer(f.layer);
    for (const IncludeDirective& inc : f.includes) {
      if (inc.angle) continue;
      const std::size_t slash = inc.target.find('/');
      if (slash == std::string::npos) continue;
      const std::string to_name = inc.target.substr(0, slash);
      const LayerInfo* to = FindLayer(to_name);
      if (to == nullptr || !IsSrcLayer(to_name)) continue;

      if (from != nullptr && IsSrcLayer(f.layer) && f.is_header &&
          to_name == "telemetry" && f.layer != "telemetry") {
        Emit(f, inc.line, kRuleHdrTelemetryFwd,
             "header includes \"" + inc.target +
                 "\"; headers outside src/telemetry must forward-declare "
                 "sds::telemetry types and include telemetry headers from the "
                 ".cpp only (PR 3 policy)");
        continue;
      }
      if (from == nullptr) continue;  // unknown tree: no DAG claim

      bool ok;
      const RestrictedLayer* restricted = FindRestricted(to_name);
      if (to_name == f.layer) {
        ok = true;
      } else if (to_name == "telemetry") {
        // Universal observability sink: any layer may include it.
        ok = true;
      } else if (restricted != nullptr) {
        ok = from->rank >= 100 ||
             RestrictedDependentAllowed(*restricted, f.layer);
      } else {
        ok = to->rank < from->rank || SiblingEdgeAllowed(f.layer, to_name);
      }
      if (!ok && restricted != nullptr) {
        Emit(f, inc.line, kRuleLayerDag,
             "include of \"" + inc.target + "\" (restricted layer " +
                 to_name + ") from layer " + f.layer + "; only {" +
                 restricted->dependents +
                 "} and the test/bench/tool trees may depend on " + to_name);
      } else if (!ok) {
        Emit(f, inc.line, kRuleLayerDag,
             "include of \"" + inc.target + "\" (layer " + to_name + ", rank " +
                 std::to_string(to->rank) + ") from layer " + f.layer +
                 " (rank " + std::to_string(from->rank) +
                 ") inverts the layer DAG common -> stats/signal -> sim -> vm "
                 "-> pcm -> {attacks,workloads,detect,fault} -> cluster -> "
                 "eval");
      }
    }
  }

  void CheckDeterminismTokens(FileSummary& f) {
    for (const SinkOccur& s : f.sinks) {
      if (s.rule == kRuleDetPointerPrint) {
        Emit(f, s.line, kRuleDetPointerPrint,
             "\"%p\" in a format string in deterministic layer " + f.layer +
                 ": pointer values differ across runs and machines; print a "
                 "stable id instead");
      } else {
        Emit(f, s.line, s.rule,
             s.token + " in deterministic layer " + f.layer + ": " +
                 WhyOf(s.token));
      }
    }
  }

  void CheckUnorderedIteration(FileSummary& f) {
    for (const IterSite& it : f.iters) {
      bool hit = it.range_text.find("unordered_map") != std::string::npos ||
                 it.range_text.find("unordered_set") != std::string::npos;
      if (!hit) {
        for (const std::string& name : f.unordered_names) {
          if (HasToken(it.range_text, name)) {
            hit = true;
            break;
          }
        }
      }
      if (hit) {
        Emit(f, it.line, kRuleDetUnorderedIter,
             "range-for over an unordered container in deterministic layer " +
                 f.layer +
                 ": iteration order is implementation-defined and varies with "
                 "rehashing; iterate a sorted view or switch to std::map/set");
      }
    }
  }

  void CheckPragmaOnce(FileSummary& f) {
    if (f.pragma_diag_line != 0) {
      Emit(f, f.pragma_diag_line, kRuleHdrPragmaOnce,
           "header's first code line must be #pragma once");
    }
  }

  // Transitive closure of <angle> includes reachable through the project
  // include graph (quoted includes resolved under <include_root>/src).
  const std::set<std::string>& AngleClosure(const std::string& path) {
    auto it = closures_.find(path);
    if (it != closures_.end()) return it->second;
    // Insert first to break include cycles.
    auto& closure = closures_[path];
    FileSummary* f = Load(path);
    if (f == nullptr) return closure;
    std::vector<std::string> nested;
    for (const IncludeDirective& inc : f->includes) {
      if (inc.angle) {
        closure.insert(inc.target);
      } else if (FileSummary* dep = Resolve(inc.target)) {
        nested.push_back(dep->path);
      }
    }
    for (const std::string& dep : nested) {
      const std::set<std::string>& sub = AngleClosure(dep);
      closure.insert(sub.begin(), sub.end());
    }
    return closure;
  }

  void CheckSelfContained(FileSummary& f) {
    const std::set<std::string>& closure = AngleClosure(f.path);
    for (const StdUse& use : f.std_uses) {
      const char* providers_cstr = StdProvidersFor(use.ident);
      if (providers_cstr == nullptr) continue;
      bool satisfied = false;
      std::stringstream ss{std::string(providers_cstr)};
      std::string provider;
      while (std::getline(ss, provider, ',')) {
        if (closure.count(provider) != 0) {
          satisfied = true;
          break;
        }
      }
      if (!satisfied) {
        const std::string providers(providers_cstr);
        Emit(f, use.line, kRuleHdrSelfContained,
             "header uses std::" + use.ident + " but its include closure "
             "never pulls in <" + providers.substr(0, providers.find(',')) +
             ">; include it directly so the header stays self-contained");
      }
    }
  }

  const Options& options_;
  std::vector<std::string> scan_list_;
  std::map<std::string, FileSummary> files_;
  std::map<std::string, std::set<std::string>> closures_;
  Result result_;
};

}  // namespace

int LayerRank(const std::string& layer) {
  const LayerInfo* l = FindLayer(layer);
  return l == nullptr ? -1 : l->rank;
}

bool IsDeterministicLayer(const std::string& layer) {
  const LayerInfo* l = FindLayer(layer);
  return l != nullptr && l->deterministic;
}

std::string LayerOfPath(const std::string& path) {
  const fs::path p(path);
  std::vector<std::string> parts;
  for (const auto& comp : p) parts.push_back(comp.generic_string());
  // The src/<layer>/ pattern wins anywhere in the path (the lint fixture
  // tree nests a src/ mirror under tests/), then the top-level trees.
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (parts[i] == "src" && i + 1 < parts.size() && IsSrcLayer(parts[i + 1]))
      return parts[i + 1];
  }
  for (const std::string& part : parts) {
    const LayerInfo* l = FindLayer(part);
    if (l != nullptr && l->rank >= 100) return part;
  }
  return "";
}

Result Run(const Options& options) { return Analyzer(options).Run(); }

std::string FormatText(const Diagnostic& d) {
  return d.file + ":" + std::to_string(d.line) + ": [" + d.rule + "] " +
         d.message;
}

std::string ToJson(const Result& result) {
  std::string out = "{\"files_scanned\":" +
                    std::to_string(result.files_scanned) +
                    ",\"diagnostics\":[";
  for (std::size_t i = 0; i < result.diagnostics.size(); ++i) {
    const Diagnostic& d = result.diagnostics[i];
    if (i != 0) out += ",";
    out += "{\"file\":\"" + JsonEscape(d.file) +
           "\",\"line\":" + std::to_string(d.line) + ",\"rule\":\"" +
           JsonEscape(d.rule) + "\",\"message\":\"" + JsonEscape(d.message) +
           "\"}";
  }
  out += "],\"suppressions\":[";
  for (std::size_t i = 0; i < result.suppressions.size(); ++i) {
    const Suppression& s = result.suppressions[i];
    if (i != 0) out += ",";
    out += "{\"file\":\"" + JsonEscape(s.file) +
           "\",\"line\":" + std::to_string(s.line) + ",\"rules\":\"" +
           JsonEscape(s.rules) + "\",\"used\":" + (s.used ? "true" : "false") +
           "}";
  }
  out += "]}";
  return out;
}

}  // namespace sdslint
