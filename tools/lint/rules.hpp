#pragma once
// icsim_lint rule packs and diagnostics.
//
// Every diagnostic carries a `symbol` — a stable, line-number-free anchor
// (the offending function, parameter, variable, or cast target) — so a
// baseline entry keeps matching while unrelated edits move lines around.

#include <string>
#include <vector>

#include "ir.hpp"

namespace icsim_lint {

struct Diagnostic {
  std::string file;
  int line = 0;
  std::string rule;
  std::string symbol;   // stable anchor for baseline matching
  std::string message;
  bool baselined = false;  // matched a baseline entry (reported, not fatal)
};

struct RuleInfo {
  const char* id;
  const char* summary;
};

/// The full catalog, in reporting order (drives --list-rules and the SARIF
/// rules array).
const std::vector<RuleInfo>& rule_catalog();

/// True if an `// icsim-lint: allow(<rule>)` comment on `line` or the line
/// above it suppresses `rule`.
bool suppressed(const LexedFile& lf, int line, const std::string& rule);

/// Append a diagnostic unless suppressed in-source.
void report(std::vector<Diagnostic>& diags, const TranslationUnit& tu, int line,
            const std::string& rule, const std::string& symbol,
            const std::string& message);

/// Legacy determinism pack (PR 3 rules, reimplemented on the IR):
/// wall-clock, unordered-iteration, raw-time-param, nodiscard-time.
void run_legacy_rules(const TranslationUnit& tu,
                      const std::set<std::string>& sibling_unordered_vars,
                      std::vector<Diagnostic>& diags);

/// Names of unordered-container variables declared in `lf` (token-level;
/// used to merge a .cpp's sibling-header declarations).
std::set<std::string> unordered_vars(const LexedFile& lf);

/// Model-safety pack: host-state-leak, parallel-purity, unit-discipline
/// (per-TU) and blocking-context (needs the project call graph).
void run_model_rules(const TranslationUnit& tu, const Project& project,
                     std::vector<Diagnostic>& diags);

/// Partition-safety classification of a shared-mutable site (docs/MODEL.md
/// §13):
///   shard  — per-partition copies are sound (no cross-partition meaning);
///   lock   — mutex-guarded and model-invisible; a lock keeps it correct;
///   forbid — the value (or the order of writes) can reach model behavior;
///            the parallel engine must not share it at all.
enum class PartitionClass { shard, lock, forbid };

[[nodiscard]] const char* to_string(PartitionClass c);

/// One shared-mutable site in the partition manifest — the certified
/// inventory the ROADMAP-item-1 parallel engine consumes.
struct ManifestSite {
  std::string variable;
  std::string var_kind;  // "namespace-scope" / "static-member" / "static-local"
  std::string type;      // declared type, tokens joined
  std::string file;
  int line = 0;
  PartitionClass cls = PartitionClass::shard;
  bool reachable = false;  // writable from an event/fiber entry point
  std::vector<std::string> call_path;  // entry -> ... -> writing function
  std::string reason;
};

/// Interprocedural partition-safety passes (dataflow.cpp): the
/// shared-state pass (call-graph walk from event/fiber entry points to
/// writes of shared mutable state, shard/lock/forbid classification) and the
/// determinism-taint pass (host-nondeterminism sources -> simulated-time
/// sinks).  Appends diagnostics and fills the manifest inventory.
void run_partition_rules(const Project& project, std::vector<Diagnostic>& diags,
                         std::vector<ManifestSite>& manifest);

/// Closure-lifetime pass (closure_lifetime.cpp): classify every capture of
/// every lambda flowing into a deferred-execution sink (Engine::post_at /
/// post_in / schedule_at / schedule_in, ParEngine::post_cross, resource
/// acquire callbacks, fiber spawn).  By-reference capture of an enclosing
/// frame variable is an error (the DES use-after-free class); a raw `this`
/// capture at a cancellable sink needs same-frame or destructor
/// cancellation; by-value captures are clean (docs/MODEL.md §15).
void run_closure_rules(const Project& project, std::vector<Diagnostic>& diags);

/// True when `tu` belongs to the partitioned tier — src/par/ sources,
/// par_*-named fixtures, and any unit that calls post_cross — where
/// sharded-by-index access to shard-classified state is legal and policed
/// by cross-shard-conformance.
[[nodiscard]] bool partition_tier(const TranslationUnit& tu);

/// Shape of the subscript on a write site: `none` (unsubscripted), `simple`
/// (a single identifier or member chain, modulo casts/parens — the
/// executing-partition idiom), or `compound` (arithmetic on the index — a
/// cross-partition reach).
enum class IndexShape { none, simple, compound };
[[nodiscard]] IndexShape write_index_shape(const TranslationUnit& tu,
                                           const WriteSite& w);

/// Cross-shard-conformance pass (cross_shard.cpp): every write to a
/// shard-classified manifest site in the partitioned tier must be indexed by
/// the executing partition; every mutex-disciplined site must be written
/// only under its guarding mutex (guarded-by inference over the call
/// graph); and every post_cross delay must trace to the lookahead constant.
void run_conformance_rules(const Project& project,
                           const std::vector<ManifestSite>& manifest,
                           std::vector<Diagnostic>& diags);

}  // namespace icsim_lint
