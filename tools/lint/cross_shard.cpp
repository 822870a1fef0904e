// cross-shard-conformance pass — the partition manifest as a checked
// contract.
//
// PR 8's shared-state pass classifies every shared-mutable site shard /
// lock / forbid and writes partition-manifest.json; PR 9's parallel engine
// (src/par/) consumes that inventory.  This pass closes the loop: the
// manifest stops being documentation and becomes a ratchet the analyzer
// enforces on every scan.
//
//   (A) lookahead provenance — every ParEngine::post_cross delay argument
//       must dataflow from the lookahead constant (wire_latency +
//       switch_latency, or a lookahead()/lookahead_of() accessor),
//       propagated through local assignments and function returns.  A
//       cross-partition event closer than one lookahead window would break
//       the barrier-window protocol's safety argument (the runtime
//       ICSIM_CHECK only sees exercised paths).
//   (B) shard indexing — in the partitioned tier (src/par/, par_*
//       fixtures, and any translation unit that calls post_cross, such as
//       the partitioned net::Fabric), every write to a site the manifest
//       classifies `shard` must be subscripted by a single
//       executing-partition identifier (casts and parens stripped).  An
//       unsubscripted write or index arithmetic (`state[self + 1]`) is a
//       cross-partition mutation that bypasses post_cross.
//   (C) guarded-by inference — when some writer of a site locks an
//       adjacent sync primitive, *every* writer must hold that guard:
//       either it locks the mutex itself or every call path reaching it
//       runs through a lock-holding caller (a monotone fixpoint over the
//       reversed call graph).

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "rules.hpp"

namespace icsim_lint {

namespace {

std::string basename_of(const std::string& path) {
  const auto slash = path.rfind('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

std::string stem_of(const std::string& path) {
  const std::string base = basename_of(path);
  const auto dot = base.rfind('.');
  return dot == std::string::npos ? base : base.substr(0, dot);
}

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

bool lookahead_named(const std::string& ident) {
  return lower(ident).find("lookahead") != std::string::npos;
}

/// Tokens transparent to index/cast reduction: wrappers that never change
/// which partition an index denotes.
bool cast_noise(const Token& tok) {
  static const std::set<std::string> kPunct = {"(", ")", "<", ">", "::"};
  static const std::set<std::string> kIdents = {
      "static_cast", "std",      "size_t",  "uint64_t", "uint32_t",
      "int64_t",     "int32_t",  "uint8_t", "int8_t",   "unsigned",
      "long",        "int",      "short",   "size_type"};
  if (tok.kind == TokKind::punct) return kPunct.count(tok.text) != 0;
  return kIdents.count(tok.text) != 0;
}

}  // namespace

bool partition_tier(const TranslationUnit& tu) {
  if (tu.file.find("/par/") != std::string::npos) return true;
  if (basename_of(tu.file).rfind("par_", 0) == 0) return true;
  // Wherever it lives, code that hands work across partitions runs in
  // the partitioned tier.
  for (const auto& fn : tu.functions) {
    for (const auto& call : fn.calls) {
      if (call.callee == "post_cross") return true;
    }
  }
  return false;
}

IndexShape write_index_shape(const TranslationUnit& tu, const WriteSite& w) {
  const auto& t = tu.lex.tokens;
  std::size_t i = w.tok + 1;
  if (i >= t.size() || t[i].text != "[") return IndexShape::none;
  // First subscript's token range.
  int depth = 0;
  std::size_t close = i;
  for (; close < t.size(); ++close) {
    if (t[close].text == "[") ++depth;
    else if (t[close].text == "]") {
      if (--depth == 0) break;
    }
  }
  // Reduce: drop cast/paren noise, then the remainder must be a single
  // identifier or a `.`/`->` member chain.
  std::vector<const Token*> rest;
  for (std::size_t k = i + 1; k < close; ++k) {
    if (cast_noise(t[k])) continue;
    rest.push_back(&t[k]);
  }
  if (rest.empty()) return IndexShape::compound;
  if (rest[0]->kind != TokKind::identifier) return IndexShape::compound;
  for (std::size_t k = 1; k < rest.size(); k += 2) {
    if (k + 1 >= rest.size()) return IndexShape::compound;
    if (rest[k]->text != "." && rest[k]->text != "->") {
      return IndexShape::compound;
    }
    if (rest[k + 1]->kind != TokKind::identifier) return IndexShape::compound;
  }
  return IndexShape::simple;
}

namespace {

// ---------------------------------------------------------------------------
// (A) post_cross lookahead provenance

class LookaheadScan {
 public:
  LookaheadScan(const Project& project, std::vector<Diagnostic>& diags)
      : p_(project), diags_(diags) {}

  void run() {
    // Seed: functions whose very name declares lookahead semantics
    // (net::Fabric::lookahead_of, ParEngine::lookahead()).
    for (const auto& tu : p_.tus) {
      for (const auto& fn : tu.functions) {
        if (fn.is_definition && lookahead_named(fn.name)) {
          bearing_fns_.insert(fn.name);
        }
      }
    }
    // Fixpoint: a function whose return expression is lookahead-bearing
    // makes its name bearing for every caller.
    for (int round = 0; round < 10; ++round) {
      bool grew = false;
      for (const auto& tu : p_.tus) {
        for (const auto& fn : tu.functions) {
          if (!fn.is_definition ||
              bearing_fns_.count(fn.name) != 0) {
            continue;
          }
          const auto locals = bearing_locals(tu, fn);
          const auto& t = tu.lex.tokens;
          for (std::size_t j = fn.body_begin;
               j < fn.body_end && j < t.size(); ++j) {
            if (t[j].kind != TokKind::identifier || t[j].text != "return") {
              continue;
            }
            const std::size_t end = statement_end(t, j + 1, fn.body_end);
            if (expr_bearing(t, j + 1, end, locals)) {
              bearing_fns_.insert(fn.name);
              grew = true;
              break;
            }
          }
        }
      }
      if (!grew) break;
    }
    // Check every post_cross delay argument (index 2 of (from, to, t, fn)).
    for (const auto& tu : p_.tus) {
      for (const auto& fn : tu.functions) {
        if (!fn.is_definition) continue;
        const auto locals = bearing_locals(tu, fn);
        for (const auto& call : fn.calls) {
          if (call.callee != "post_cross") continue;
          const auto args = arg_ranges(tu.lex.tokens, call.tok + 1);
          if (args.size() < 4) continue;  // declaration echo / partial parse
          if (expr_bearing(tu.lex.tokens, args[2].first, args[2].second,
                           locals)) {
            continue;
          }
          report(diags_, tu, call.line, "cross-shard-conformance",
                 "post_cross",
                 "post_cross() delay does not trace to the lookahead "
                 "constant: the time argument must dataflow from "
                 "wire_latency + switch_latency (or a lookahead()/"
                 "lookahead_of() value) so every cross-partition event is "
                 "at least one conservative window ahead [" +
                     fn_key(fn) + "() at " + basename_of(tu.file) + ":" +
                     std::to_string(call.line) +
                     "]; route the delay through the lookahead accessor");
        }
      }
    }
  }

 private:
  static std::size_t statement_end(const std::vector<Token>& t, std::size_t i,
                                   std::size_t limit) {
    int paren = 0, brace = 0, bracket = 0;
    for (; i < limit && i < t.size(); ++i) {
      const std::string& x = t[i].text;
      if (x == "(") ++paren;
      else if (x == ")") --paren;
      else if (x == "{") ++brace;
      else if (x == "}") { if (brace == 0) return i; --brace; }
      else if (x == "[") ++bracket;
      else if (x == "]") --bracket;
      else if (x == ";" && paren == 0 && brace == 0 && bracket == 0) return i;
    }
    return std::min(limit, t.size());
  }

  static std::vector<std::pair<std::size_t, std::size_t>> arg_ranges(
      const std::vector<Token>& t, std::size_t open_paren) {
    std::vector<std::pair<std::size_t, std::size_t>> out;
    int paren = 0, bracket = 0, brace = 0;
    std::size_t start = open_paren + 1;
    for (std::size_t k = open_paren; k < t.size(); ++k) {
      const std::string& x = t[k].text;
      if (x == "(") { ++paren; continue; }
      if (x == ")") {
        --paren;
        if (paren == 0) {
          if (k > start) out.emplace_back(start, k);
          break;
        }
        continue;
      }
      if (x == "[") ++bracket;
      else if (x == "]") --bracket;
      else if (x == "{") ++brace;
      else if (x == "}") --brace;
      else if (x == "," && paren == 1 && bracket == 0 && brace == 0) {
        out.emplace_back(start, k);
        start = k + 1;
      }
    }
    return out;
  }

  bool expr_bearing(const std::vector<Token>& t, std::size_t b, std::size_t e,
                    const std::set<std::string>& locals) const {
    for (std::size_t k = b; k < e && k < t.size(); ++k) {
      if (t[k].kind != TokKind::identifier) continue;
      const std::string& x = t[k].text;
      if (x == "wire_latency" || x == "switch_latency") return true;
      if (lookahead_named(x)) return true;
      if (locals.count(x) != 0) return true;
      if (k + 1 < t.size() && t[k + 1].text == "(" &&
          bearing_fns_.count(x) != 0) {
        return true;
      }
    }
    return false;
  }

  /// Locals whose value dataflows from a lookahead-bearing term, by two
  /// forward passes over the assignments in the body (second pass picks up
  /// chains assigned out of order).
  std::set<std::string> bearing_locals(const TranslationUnit& tu,
                                       const FunctionDecl& fn) const {
    const auto& t = tu.lex.tokens;
    std::set<std::string> locals;
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t j = fn.body_begin;
           j < fn.body_end && j < t.size(); ++j) {
        if (t[j].kind != TokKind::identifier) continue;
        std::size_t m = j + 1;
        while (m < fn.body_end && m < t.size() && t[m].text == "[") {
          int depth = 0;
          for (; m < t.size(); ++m) {
            if (t[m].text == "[") ++depth;
            else if (t[m].text == "]" && --depth == 0) { ++m; break; }
          }
        }
        if (m >= t.size()) continue;
        std::size_t rhs = 0;
        if (t[m].text == "=" && (m + 1 >= t.size() || t[m + 1].text != "=")) {
          rhs = m + 1;
        } else {
          static const std::set<std::string> kCompound = {"+", "-", "*", "/",
                                                          "%", "&", "|", "^"};
          if (kCompound.count(t[m].text) != 0 && m + 1 < t.size() &&
              t[m + 1].text == "=" &&
              (m + 2 >= t.size() || t[m + 2].text != "=")) {
            rhs = m + 2;
          }
        }
        if (rhs == 0) continue;
        const std::size_t end = statement_end(t, rhs, fn.body_end);
        if (expr_bearing(t, rhs, end, locals)) locals.insert(t[j].text);
      }
    }
    return locals;
  }

  const Project& p_;
  std::vector<Diagnostic>& diags_;
  std::set<std::string> bearing_fns_;  // unqualified names
};

// ---------------------------------------------------------------------------
// (B)/(C) manifest-site write discipline

/// Writers of a manifest site, matched by name plus the same file-affinity
/// the shared-state pass uses (static locals bind to their file; namespace
/// vars to their TU or sibling header/impl).
struct Writer {
  const TranslationUnit* tu;
  const FunctionDecl* fn;
  const WriteSite* w;
};

std::vector<Writer> writers_of(const Project& p, const ManifestSite& site) {
  std::vector<Writer> out;
  for (const auto& tu : p.tus) {
    const bool same_file =
        tu.file == site.file || stem_of(tu.file) == stem_of(site.file);
    if (!same_file) continue;
    for (const auto& fn : tu.functions) {
      if (!fn.is_definition) continue;
      for (const auto& w : fn.writes) {
        if (w.name == site.variable) out.push_back({&tu, &fn, &w});
      }
    }
  }
  return out;
}

void shard_index_check(const Project& p,
                       const std::vector<ManifestSite>& manifest,
                       std::vector<Diagnostic>& diags) {
  for (const auto& site : manifest) {
    if (site.cls != PartitionClass::shard) continue;
    for (const auto& wr : writers_of(p, site)) {
      if (!partition_tier(*wr.tu)) continue;
      const IndexShape shape = write_index_shape(*wr.tu, *wr.w);
      if (shape == IndexShape::simple) continue;
      const std::string detail =
          shape == IndexShape::none
              ? "the write is not subscripted at all, so every partition "
                "mutates the same instance"
              : "the index expression does not reduce to a single "
                "executing-partition identifier (arithmetic on the index "
                "reaches another shard's slot)";
      report(diags, *wr.tu, wr.w->line, "cross-shard-conformance",
             site.variable,
             "write to '" + site.variable +
                 "' (classified shard in the partition manifest, " +
                 basename_of(site.file) + ":" + std::to_string(site.line) +
                 ") is not indexed by the executing partition: " + detail +
                 " [" + fn_key(*wr.fn) + "() at " +
                 basename_of(wr.tu->file) + ":" +
                 std::to_string(wr.w->line) +
                 "]; cross-partition mutation must route through "
                 "post_cross()");
    }
  }
}

/// Does this function's body construct a lock on `mutex_name`?
bool locks_mutex(const TranslationUnit& tu, const FunctionDecl& fn,
                 const std::string& mutex_name) {
  if (!fn.body_has_lock) return false;
  const auto& t = tu.lex.tokens;
  for (std::size_t k = fn.body_begin; k < fn.body_end && k < t.size(); ++k) {
    if (t[k].kind == TokKind::identifier && t[k].text == mutex_name) {
      return true;
    }
  }
  return false;
}

void guarded_by_check(const Project& p,
                      const std::vector<ManifestSite>& manifest,
                      std::vector<Diagnostic>& diags) {
  // Reversed call graph over definitions, for the caller-holds inference.
  std::map<std::string, std::set<std::string>> callers;
  std::set<std::string> defined;
  for (const auto& tu : p.tus) {
    for (const auto& fn : tu.functions) {
      if (fn.is_definition) defined.insert(fn_key(fn));
    }
  }
  for (const auto& [from, tos] : p.call_graph) {
    for (const auto& to : tos) {
      if (defined.count(to) != 0) callers[to].insert(from);
    }
  }

  for (const auto& site : manifest) {
    const auto writers = writers_of(p, site);
    if (writers.empty()) continue;

    // Candidate guards: sync primitives declared in the site's file, with
    // static locals bound to the writing function's scope.  The inferred
    // guard is the one an actual writer locks.
    std::string guard;
    for (const auto& tu : p.tus) {
      if (tu.file != site.file && stem_of(tu.file) != stem_of(site.file)) {
        continue;
      }
      for (const auto& v : tu.vars) {
        if (!v.is_sync_primitive) continue;
        for (const auto& wr : writers) {
          if (locks_mutex(*wr.tu, *wr.fn, v.name)) {
            guard = v.name;
            break;
          }
        }
        if (!guard.empty()) break;
      }
      if (!guard.empty()) break;
    }
    if (guard.empty()) continue;  // no lock discipline in evidence

    // guarded(fn): locks the guard itself, or every caller is guarded —
    // the monotone fixpoint grows from the direct lockers.
    std::set<std::string> guarded;
    for (const auto& tu : p.tus) {
      for (const auto& fn : tu.functions) {
        if (fn.is_definition && locks_mutex(tu, fn, guard)) {
          guarded.insert(fn_key(fn));
        }
      }
    }
    bool grew = true;
    while (grew) {
      grew = false;
      for (const auto& [callee, froms] : callers) {
        if (guarded.count(callee) != 0 || froms.empty()) continue;
        bool all = true;
        for (const auto& f : froms) {
          if (guarded.count(f) == 0) { all = false; break; }
        }
        if (all) {
          guarded.insert(callee);
          grew = true;
        }
      }
    }

    for (const auto& wr : writers) {
      const std::string key = fn_key(*wr.fn);
      if (guarded.count(key) != 0) continue;
      report(diags, *wr.tu, wr.w->line, "cross-shard-conformance",
             site.variable,
             "write to '" + site.variable + "' (" + basename_of(site.file) +
                 ":" + std::to_string(site.line) +
                 ") without holding its guarding mutex '" + guard + "': " +
                 key +
                 "() neither locks it nor is reached only through "
                 "lock-holding callers, so the lock classification in the "
                 "partition manifest is unsound [guarded-by inference over "
                 "the call graph]; take '" + guard +
                 "' before the write or reclassify the site");
    }
  }
}

}  // namespace

void run_conformance_rules(const Project& project,
                           const std::vector<ManifestSite>& manifest,
                           std::vector<Diagnostic>& diags) {
  LookaheadScan(project, diags).run();
  shard_index_check(project, manifest, diags);
  guarded_by_check(project, manifest, diags);
}

}  // namespace icsim_lint
