// Interprocedural partition-safety passes (see dataflow.hpp).
//
// shared-state       — walk the call graph from every event/fiber entry
//                      point; every write to a static, global, or static
//                      class member reachable from one is a site the
//                      partitioned engine must shard, lock, or forbid.  The
//                      diagnostic carries the full call path from the entry
//                      point to the writing function, and every site lands
//                      in the partition manifest (write_manifest).
// determinism-taint  — dataflow from host-nondeterministic sources (pointer
//                      values materialized as integers, std::hash of a
//                      pointer, host clocks/entropy, unordered-container
//                      iteration order, reads of uninitialized locals)
//                      through assignments, returns, arguments and shared
//                      variables into simulated-time sinks (sim::Time
//                      factories, Engine::post_*/schedule_*, Rng seeding,
//                      digest folds, and branches that select time-relevant
//                      behavior — the PR 4 reg-cache hit/miss shape).
//
// Both passes are fixpoints over monotone fact sets with first-wins
// provenance, so they terminate and their output is deterministic.

#include <algorithm>
#include <optional>
#include <sstream>

#include "dataflow.hpp"
#include "rules.hpp"

namespace icsim_lint {

namespace {

// ---------------------------------------------------------------------------
// Common helpers

struct Def {
  const TranslationUnit* tu;
  const FunctionDecl* fn;
};

/// fn_key -> every definition with that key (overloads collapse together —
/// fine for a heuristic: facts about any overload apply to all).
using DefIndex = std::map<std::string, std::vector<Def>>;

DefIndex build_def_index(const Project& p) {
  DefIndex out;
  for (const auto& tu : p.tus) {
    for (const auto& fn : tu.functions) {
      if (!fn.is_definition) continue;
      out[fn_key(fn)].push_back({&tu, &fn});
    }
  }
  return out;
}

std::string basename_of(const std::string& path) {
  const auto slash = path.rfind('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

std::string stem_of(const std::string& path) {
  const std::string base = basename_of(path);
  const auto dot = base.rfind('.');
  return dot == std::string::npos ? base : base.substr(0, dot);
}

bool type_has(const VarDecl& v, const char* name) {
  return std::find(v.type.begin(), v.type.end(), name) != v.type.end();
}

std::string joined_type(const VarDecl& v) {
  std::string out;
  for (const auto& tok : v.type) {
    if (!out.empty() && (isalnum(static_cast<unsigned char>(tok[0])) != 0 ||
                         tok[0] == '_') &&
        (isalnum(static_cast<unsigned char>(out.back())) != 0 ||
         out.back() == '_')) {
      out += ' ';
    }
    out += tok;
  }
  return out;
}

bool in_handler_range(const TranslationUnit& tu, std::size_t tok) {
  for (const auto& h : tu.handlers) {
    if (tok >= h.begin && tok < h.end) return true;
  }
  return false;
}

std::string join_path(const std::vector<std::string>& path) {
  std::string out;
  for (const auto& n : path) {
    if (!out.empty()) out += " -> ";
    out += n;
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Reachability from event/fiber entry points

std::vector<std::string> Reachability::path_to(const std::string& key) const {
  std::vector<std::string> chain;
  std::string cur = key;
  while (!cur.empty()) {
    chain.push_back(cur);
    const auto it = parent.find(cur);
    if (it == parent.end()) break;
    cur = it->second;
  }
  std::reverse(chain.begin(), chain.end());
  const auto e = entry.find(key);
  if (e != entry.end() && (chain.empty() || e->second != chain.front())) {
    chain.insert(chain.begin(), e->second);
  }
  return chain;
}

Reachability compute_reachability(const Project& project) {
  Reachability r;
  const DefIndex defs = build_def_index(project);
  std::vector<std::string> queue;
  auto add_root = [&](const std::string& key, const std::string& label) {
    if (r.parent.count(key) != 0) return;
    r.parent[key] = "";
    r.entry[key] = label;
    queue.push_back(key);
  };

  // (b)/(c) — named seeds: MPI progress engines and Fabric serialization.
  for (const auto& tu : project.tus) {
    for (const auto& fn : tu.functions) {
      if (!fn.is_definition) continue;
      if (fn.name == "progress" || fn.owner == "Fabric") {
        add_root(fn_key(fn), fn_key(fn));
      }
    }
  }
  // (a) — callees of every event-handler lambda.
  for (const auto& tu : project.tus) {
    for (const auto& h : tu.handlers) {
      const std::string label =
          "handler@" + basename_of(tu.file) + ":" + std::to_string(h.line);
      for (const auto& fn : tu.functions) {
        for (const auto& c : fn.calls) {
          if (c.tok < h.begin || c.tok >= h.end) continue;
          for (const auto& target :
               resolve_call_targets(project, h.owner, c)) {
            if (defs.count(target) != 0) add_root(target, label);
          }
        }
      }
    }
  }
  // BFS over the call graph (definitions only — an undefined callee has no
  // body to write anything from).
  for (std::size_t q = 0; q < queue.size(); ++q) {
    const std::string cur = queue[q];
    const auto it = project.call_graph.find(cur);
    if (it == project.call_graph.end()) continue;
    for (const auto& next : it->second) {
      if (r.parent.count(next) != 0 || defs.count(next) == 0) continue;
      r.parent[next] = cur;
      r.entry[next] = r.entry[cur];
      queue.push_back(next);
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// shared-state pass

namespace {

struct SharedVar {
  const TranslationUnit* tu;
  const VarDecl* var;
};

bool shared_mutable(const VarDecl& v) {
  if (v.is_const || v.is_thread_local || v.is_sync_primitive) return false;
  switch (v.var_scope) {
    case VarScope::namespace_scope: return true;
    case VarScope::class_member: return v.is_static;
    case VarScope::static_local: return true;
  }
  return false;
}

const char* var_kind(const VarDecl& v) {
  switch (v.var_scope) {
    case VarScope::namespace_scope: return "namespace-scope";
    case VarScope::class_member: return "static-member";
    case VarScope::static_local: return "static-local";
  }
  return "?";
}

/// Does this write site refer to this shared variable?  Name match plus a
/// scope filter: static locals bind within their function, namespace-scope
/// variables within their TU (or a sibling header/impl pair), static members
/// to methods of the owning class or `Owner::name` qualified writes.
bool write_matches(const Def& d, const WriteSite& w, const SharedVar& sv) {
  const VarDecl& v = *sv.var;
  if (w.name != v.name) return false;
  switch (v.var_scope) {
    case VarScope::static_local:
      return sv.tu == d.tu && v.func == d.fn->name && v.owner == d.fn->owner;
    case VarScope::namespace_scope:
      return sv.tu == d.tu || stem_of(sv.tu->file) == stem_of(d.tu->file);
    case VarScope::class_member:
      if (!w.owner.empty()) return w.owner == v.owner;
      return d.fn->owner == v.owner;
  }
  return false;
}

bool model_visible_type(const VarDecl& v) {
  for (const char* name : {"Time", "Bandwidth", "Rng", "Fnv1a", "Engine"}) {
    if (type_has(v, name)) return true;
  }
  return false;
}

int severity(PartitionClass c) {
  switch (c) {
    case PartitionClass::lock: return 0;
    case PartitionClass::shard: return 1;
    case PartitionClass::forbid: return 2;
  }
  return 0;
}

PartitionClass classify_write(const Def& d, const WriteSite& w,
                              const VarDecl& v) {
  if (in_handler_range(*d.tu, w.tok) || model_visible_type(v)) {
    return PartitionClass::forbid;
  }
  if (d.fn->body_has_lock) return PartitionClass::lock;
  return PartitionClass::shard;
}

void shared_state_pass(const Project& project, const Reachability& reach,
                       std::vector<Diagnostic>& diags,
                       std::vector<ManifestSite>& manifest) {
  // Deterministic variable order: file, then declaration line.
  std::vector<SharedVar> vars;
  for (const auto& tu : project.tus) {
    for (const auto& v : tu.vars) {
      if (shared_mutable(v)) vars.push_back({&tu, &v});
    }
  }
  std::sort(vars.begin(), vars.end(), [](const SharedVar& a, const SharedVar& b) {
    if (a.tu->file != b.tu->file) return a.tu->file < b.tu->file;
    if (a.var->line != b.var->line) return a.var->line < b.var->line;
    return a.var->name < b.var->name;
  });

  for (const auto& sv : vars) {
    const VarDecl& v = *sv.var;
    ManifestSite site;
    site.variable = v.name;
    site.var_kind = var_kind(v);
    site.type = joined_type(v);
    site.file = sv.tu->file;
    site.line = v.line;
    site.cls = PartitionClass::lock;  // weakest; writes raise it
    bool any_write = false;

    for (const auto& tu : project.tus) {
      for (const auto& fn : tu.functions) {
        if (!fn.is_definition) continue;
        const Def d{&tu, &fn};
        const std::string key = fn_key(fn);
        for (const auto& w : fn.writes) {
          if (!write_matches(d, w, sv)) continue;
          any_write = true;
          const PartitionClass cls = classify_write(d, w, v);
          const bool direct_handler = in_handler_range(tu, w.tok);
          const bool reachable = direct_handler || reach.contains(key);
          if (severity(cls) > severity(site.cls)) site.cls = cls;
          if (reachable) {
            std::vector<std::string> path =
                direct_handler && !reach.contains(key)
                    ? std::vector<std::string>{
                          "handler@" + basename_of(tu.file) + ":" +
                              std::to_string(w.line),
                          key}
                    : reach.path_to(key);
            if (!site.reachable || severity(cls) >= severity(site.cls)) {
              site.call_path = path;
            }
            site.reachable = true;
            // In the partitioned tier a shard-classified site written
            // through a single executing-partition subscript IS the
            // per-partition instance realized; cross-shard-conformance
            // polices the index, so the blanket finding would be noise.
            const bool sharded_access =
                cls == PartitionClass::shard && partition_tier(tu) &&
                write_index_shape(tu, w) == IndexShape::simple;
            if (cls != PartitionClass::lock && !sharded_access) {
              report(diags, tu, w.line, "shared-state", v.name,
                     "'" + v.name + "' (" + var_kind(v) + ", " +
                         basename_of(sv.tu->file) + ":" +
                         std::to_string(v.line) +
                         ") is mutable shared state " + w.how +
                         " on the event/fiber path [" + join_path(path) +
                         "]; partition-safety: " + to_string(cls) +
                         (cls == PartitionClass::forbid
                              ? " — the value can reach model behavior; the "
                                "parallel engine must not share it at all"
                              : " — give each partition (or Engine) its own "
                                "instance, or guard it with a mutex and "
                                "justify the ordering"));
            }
          }
        }
      }
    }

    if (!any_write) {
      // Never observed being written: default to shard (per-partition
      // copies are always sound) rather than claiming a lock exists.
      site.cls = PartitionClass::shard;
      site.reason =
          "no write site observed by the analyzer; per-partition copies are "
          "the safe default";
      manifest.push_back(site);
      continue;
    }
    switch (site.cls) {
      case PartitionClass::lock:
        site.reason =
            "every observed write is mutex-guarded and the value never "
            "reaches model behavior";
        break;
      case PartitionClass::shard:
        site.reason =
            "plain mutable shared state; the partitioned engine must give "
            "each partition its own instance";
        break;
      case PartitionClass::forbid:
        site.reason =
            "written on the event path or model-visible type; must not be "
            "shared across partitions in any form";
        break;
    }
    manifest.push_back(site);
  }
}

// ---------------------------------------------------------------------------
// determinism-taint pass

const std::set<std::string>& host_entropy_names() {
  static const std::set<std::string> names = {
      "steady_clock",  "system_clock", "high_resolution_clock",
      "gettimeofday",  "clock_gettime", "rdtsc",
      "__rdtsc",       "random_device"};
  return names;
}

bool integral_type_name(const std::string& name) {
  static const std::set<std::string> names = {
      "uintptr_t", "intptr_t", "size_t",    "uint64_t", "int64_t",
      "uint32_t",  "int32_t",  "ptrdiff_t", "long",     "int",
      "unsigned",  "short"};
  return names.count(name) != 0;
}

bool scalar_type_name(const std::string& name) {
  static const std::set<std::string> names = {
      "int",      "long",     "short",    "unsigned", "double",   "float",
      "bool",     "size_t",   "uint8_t",  "uint16_t", "uint32_t", "uint64_t",
      "int8_t",   "int16_t",  "int32_t",  "int64_t",  "uintptr_t",
      "intptr_t", "ptrdiff_t"};
  return names.count(name) != 0;
}

/// Monotone interprocedural facts.  All provenance strings are first-wins:
/// once a fact is recorded its chain never changes, which makes the fixpoint
/// terminate and keeps diagnostics stable.
struct TaintState {
  std::map<std::string, std::string> returns;  ///< fn_key -> provenance
  std::map<std::string, std::map<std::size_t, std::string>> params;
  std::map<std::string, std::string> vars;  ///< shared/member name -> prov
  bool grew = false;

  void add_return(const std::string& key, const std::string& prov) {
    if (returns.emplace(key, prov).second) grew = true;
  }
  void add_param(const std::string& key, std::size_t idx,
                 const std::string& prov) {
    if (params[key].emplace(idx, prov).second) grew = true;
  }
  void add_var(const std::string& name, const std::string& prov) {
    if (vars.emplace(name, prov).second) grew = true;
  }
};

struct SinkHit {
  const TranslationUnit* tu;
  int line;
  std::string symbol;
  std::string message;
};

/// What a tainted expression carries: the provenance chain and the source
/// anchor (the identifier or cast that made it tainted) for the diagnostic
/// symbol.
struct TaintEval {
  std::string prov;
  std::string anchor;
  [[nodiscard]] bool tainted() const { return !prov.empty(); }
};

class FnTaint {
 public:
  FnTaint(const Project& p, const DefIndex& defs, const TranslationUnit& tu,
          const FunctionDecl& fn, TaintState& st,
          const std::set<std::string>& unordered_names,
          const std::set<std::string>& member_names,
          std::map<std::string, SinkHit>& sinks)
      : p_(p),
        defs_(defs),
        tu_(tu),
        fn_(fn),
        st_(st),
        unordered_(unordered_names),
        members_(member_names),
        sinks_(sinks),
        t_(tu.lex.tokens),
        key_(fn_key(fn)) {}

  void run() {
    seed_params();
    // Two forward passes per round pick up simple loop-carried flows
    // (assigned late in the body, read earlier on the next iteration).
    for (int pass = 0; pass < 2; ++pass) {
      uninit_.clear();
      scan();
    }
  }

 private:
  [[nodiscard]] std::string text(std::size_t i) const {
    return i < t_.size() ? t_[i].text : "";
  }
  [[nodiscard]] bool is_ident(std::size_t i) const {
    return i < t_.size() && t_[i].kind == TokKind::identifier;
  }

  std::size_t skip_balanced(std::size_t i, const char* open,
                            const char* close) const {
    int depth = 0;
    for (; i < t_.size(); ++i) {
      if (t_[i].text == open) ++depth;
      else if (t_[i].text == close) {
        --depth;
        if (depth == 0) return i + 1;
      }
    }
    return t_.size();
  }

  /// End of the statement starting at i: the `;` at balance zero.
  std::size_t statement_end(std::size_t i) const {
    int paren = 0, brace = 0, bracket = 0;
    for (; i < fn_.body_end && i < t_.size(); ++i) {
      const std::string& x = t_[i].text;
      if (x == "(") ++paren;
      else if (x == ")") --paren;
      else if (x == "{") ++brace;
      else if (x == "}") { if (brace == 0) return i; --brace; }
      else if (x == "[") ++bracket;
      else if (x == "]") --bracket;
      else if (x == ";" && paren == 0 && brace == 0 && bracket == 0) return i;
    }
    return std::min(fn_.body_end, t_.size());
  }

  void seed_params() {
    const auto it = st_.params.find(key_);
    if (it == st_.params.end()) return;
    for (const auto& [idx, prov] : it->second) {
      if (idx >= fn_.params.size()) continue;
      const std::string& name = fn_.params[idx].name;
      if (!name.empty()) local_.emplace(name, prov);
    }
  }

  /// Taint of the expression tokens [b, e): first tainted thing wins.
  TaintEval eval(std::size_t b, std::size_t e) {
    for (std::size_t j = b; j < e && j < t_.size(); ++j) {
      if (!is_ident(j)) continue;
      const std::string& x = t_[j].text;
      const int line = t_[j].line;
      if (const auto it = local_.find(x); it != local_.end()) {
        return {it->second, x};
      }
      if (const auto it = st_.vars.find(x); it != st_.vars.end()) {
        return {it->second, x};
      }
      if (uninit_.count(x) != 0) {
        return {"read of uninitialized local '" + x + "' (" +
                    basename_of(tu_.file) + ":" + std::to_string(line) + ")",
                x};
      }
      if (host_entropy_names().count(x) != 0) {
        return {"host clock/entropy '" + x + "' (" + basename_of(tu_.file) +
                    ":" + std::to_string(line) + ")",
                x};
      }
      if ((x == "reinterpret_cast" || x == "bit_cast") && text(j + 1) == "<") {
        std::string last_ident;
        bool to_pointer = false;
        int depth = 0;
        for (std::size_t k = j + 1; k < e; ++k) {
          if (t_[k].text == "<") { ++depth; continue; }
          if (t_[k].text == ">") { if (--depth == 0) break; continue; }
          if (is_ident(k)) last_ident = t_[k].text;
          if (t_[k].text == "*") to_pointer = true;
        }
        if (!to_pointer && integral_type_name(last_ident)) {
          return {"host pointer materialized as integer via " + x + "<" +
                      last_ident + "> (" + basename_of(tu_.file) + ":" +
                      std::to_string(line) + ")",
                  x + "<" + last_ident + ">"};
        }
      }
      if (x == "hash" && text(j + 1) == "<") {
        bool ptr = false;
        int depth = 0;
        for (std::size_t k = j + 1; k < e; ++k) {
          if (t_[k].text == "<") { ++depth; continue; }
          if (t_[k].text == ">") { if (--depth == 0) break; continue; }
          if (t_[k].text == "*") ptr = true;
        }
        if (ptr) {
          return {"std::hash of a host pointer (" + basename_of(tu_.file) +
                      ":" + std::to_string(line) + ")",
                  "hash<*>"};
        }
      }
      if (text(j + 1) == "(") {
        CallSite cs;
        cs.callee = x;
        cs.line = line;
        cs.tok = j;
        cs.member = j > 0 && (t_[j - 1].text == "." || t_[j - 1].text == "->");
        cs.qualified = j > 0 && t_[j - 1].text == "::";
        for (const auto& target : resolve_call_targets(p_, fn_.owner, cs)) {
          if (const auto it = st_.returns.find(target);
              it != st_.returns.end()) {
            return {it->second + " -> via " + x + "() (" +
                        basename_of(tu_.file) + ":" + std::to_string(line) +
                        ")",
                    x};
          }
        }
      }
    }
    return {};
  }

  void add_sink(int line, const std::string& symbol,
                const std::string& message) {
    const std::string k =
        tu_.file + ":" + std::to_string(line) + ":" + symbol;
    sinks_.emplace(k, SinkHit{&tu_, line, symbol, message});
  }

  /// Argument token ranges of the call whose `(` is at open_paren.
  std::vector<std::pair<std::size_t, std::size_t>> arg_ranges(
      std::size_t open_paren) const {
    std::vector<std::pair<std::size_t, std::size_t>> out;
    int paren = 0, bracket = 0, brace = 0;
    std::size_t start = open_paren + 1;
    for (std::size_t k = open_paren; k < t_.size(); ++k) {
      const std::string& x = t_[k].text;
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

  void handle_call(std::size_t j) {
    const std::string& callee = t_[j].text;
    const int line = t_[j].line;
    const auto args = arg_ranges(j + 1);
    std::vector<TaintEval> evals;
    evals.reserve(args.size());
    bool any = false;
    for (const auto& [b, e] : args) {
      evals.push_back(eval(b, e));
      any = any || evals.back().tainted();
    }
    if (!any) return;
    const TaintEval* first = nullptr;
    std::size_t first_idx = 0;
    for (std::size_t i = 0; i < evals.size(); ++i) {
      if (evals[i].tainted()) { first = &evals[i]; first_idx = i; break; }
    }

    static const std::set<std::string> kSchedulers = {
        "post_at", "post_in", "schedule_at", "schedule_in"};
    static const std::set<std::string> kTimeFactories = {"ns", "us", "ms",
                                                         "sec"};
    static const std::set<std::string> kRngSinks = {"seed", "fork"};
    static const std::set<std::string> kDigestSinks = {"fold", "mix",
                                                       "hash_combine"};

    if (kSchedulers.count(callee) != 0 && evals[0].tainted()) {
      add_sink(line, evals[0].anchor,
               "host-nondeterministic value determines an event time: " +
                   callee + "() receives [" + evals[0].prov +
                   "]; simulated time must be a pure function of "
                   "(scenario, seed)");
    } else if (kTimeFactories.count(callee) != 0 && j >= 2 &&
               t_[j - 1].text == "::" && t_[j - 2].text == "Time") {
      add_sink(line, first->anchor,
               "host-nondeterministic value feeds sim::Time::" + callee +
                   "(): [" + first->prov + "]");
    } else if (kRngSinks.count(callee) != 0 || callee == "Rng") {
      add_sink(line, first->anchor,
               "host-nondeterministic value seeds the deterministic RNG via " +
                   callee + "(): [" + first->prov + "]");
    } else if (kDigestSinks.count(callee) != 0) {
      add_sink(line, first->anchor,
               "host-nondeterministic value folded into a digest via " +
                   callee + "(): [" + first->prov + "]");
    }

    // Propagate into callee parameters.
    CallSite cs;
    cs.callee = callee;
    cs.line = line;
    cs.tok = j;
    cs.member = j > 0 && (t_[j - 1].text == "." || t_[j - 1].text == "->");
    cs.qualified = j > 0 && t_[j - 1].text == "::";
    for (const auto& target : resolve_call_targets(p_, fn_.owner, cs)) {
      if (defs_.count(target) == 0) continue;
      for (std::size_t i = 0; i < evals.size(); ++i) {
        if (!evals[i].tainted()) continue;
        st_.add_param(target, i,
                      evals[i].prov + " -> argument " + std::to_string(i) +
                          " of " + target + "() (" + basename_of(tu_.file) +
                          ":" + std::to_string(line) + ")");
      }
    }
    (void)first_idx;
  }

  void handle_branch(std::size_t j) {
    // j is `if` or `while`; condition is the balanced paren group after it.
    const std::size_t close = skip_balanced(j + 1, "(", ")");
    const TaintEval cond = eval(j + 2, close > 0 ? close - 1 : j + 2);
    if (!cond.tainted()) return;
    // Guarded region: `{...}` block or single statement.
    std::size_t rb = close, re = close;
    if (text(close) == "{") {
      rb = close + 1;
      re = skip_balanced(close, "{", "}") - 1;
    } else {
      re = statement_end(close);
    }
    bool time_relevant = false;
    bool has_return = false;
    static const std::set<std::string> kSchedulers = {
        "post_at", "post_in", "schedule_at", "schedule_in"};
    for (std::size_t k = rb; k < re && k < t_.size(); ++k) {
      if (!is_ident(k)) continue;
      if (t_[k].text == "Time" || kSchedulers.count(t_[k].text) != 0) {
        time_relevant = true;
        break;
      }
      if (t_[k].text == "return") has_return = true;
    }
    const bool returns_time =
        std::find(fn_.return_type.begin(), fn_.return_type.end(), "Time") !=
        fn_.return_type.end();
    if (time_relevant || (returns_time && has_return)) {
      add_sink(t_[j].line, cond.anchor,
               "branch on a host-nondeterministic value selects "
               "simulated-time behavior (the reg-cache hit/miss shape): "
               "condition tainted by [" +
                   cond.prov + "]");
    }
  }

  void handle_return(std::size_t j) {
    const std::size_t end = statement_end(j + 1);
    const TaintEval v = eval(j + 1, end);
    if (!v.tainted()) return;
    st_.add_return(key_, v.prov + " -> returned from " + key_ + "()");
    const bool returns_time =
        std::find(fn_.return_type.begin(), fn_.return_type.end(), "Time") !=
        fn_.return_type.end();
    if (returns_time) {
      add_sink(t_[j].line, fn_.name,
               "host-nondeterministic value returned as sim::Time from " +
                   key_ + "(): [" + v.prov + "]");
    }
  }

  void handle_range_for(std::size_t j) {
    // `for ( decl : container )` — `::` is a single lexer token, so a bare
    // `:` here is the range-for separator.
    const std::size_t close = skip_balanced(j + 1, "(", ")");
    std::size_t colon = 0;
    int depth = 0;
    for (std::size_t k = j + 1; k < close; ++k) {
      const std::string& x = t_[k].text;
      if (x == "(") { ++depth; continue; }
      if (x == ")") { --depth; continue; }
      if (x == ":" && depth == 1) { colon = k; break; }
    }
    if (colon == 0) return;
    std::string loop_var;
    for (std::size_t k = colon; k-- > j + 2;) {
      if (is_ident(k)) { loop_var = t_[k].text; break; }
    }
    if (loop_var.empty()) return;
    // Tainted container (or any unordered container): the iteration order
    // itself is host state.
    for (std::size_t k = colon + 1; k < close - 1; ++k) {
      if (!is_ident(k)) continue;
      const std::string& c = t_[k].text;
      if (unordered_.count(c) != 0) {
        local_.emplace(loop_var, "iteration order of unordered container '" +
                                     c + "' (" + basename_of(tu_.file) + ":" +
                                     std::to_string(t_[k].line) + ")");
        return;
      }
      if (const auto it = local_.find(c); it != local_.end()) {
        local_.emplace(loop_var, it->second);
        return;
      }
    }
  }

  void handle_assignment(std::size_t j) {
    const std::string& name = t_[j].text;
    std::size_t m = j + 1;
    while (m < fn_.body_end && text(m) == "[") m = skip_balanced(m, "[", "]");
    bool is_assign = false;
    std::size_t rhs_begin = 0;
    if (text(m) == "=" && text(m + 1) != "=") {
      is_assign = true;
      rhs_begin = m + 1;
    } else {
      static const std::set<std::string> kCompound = {"+", "-", "*", "/",
                                                      "%", "&", "|", "^"};
      if (kCompound.count(text(m)) != 0 && text(m + 1) == "=" &&
          text(m + 2) != "=") {
        is_assign = true;
        rhs_begin = m + 2;
      }
    }
    if (!is_assign) return;
    uninit_.erase(name);
    const std::size_t rhs_end = statement_end(rhs_begin);
    const TaintEval v = eval(rhs_begin, rhs_end);
    if (!v.tainted()) return;
    local_.emplace(name, v.prov);
    // Cross-function propagation through member ("name_") and shared
    // variables.
    if (members_.count(name) != 0) {
      st_.add_var(name, v.prov + " -> stored in '" + name + "' (" +
                            basename_of(tu_.file) + ":" +
                            std::to_string(t_[j].line) + ")");
    }
  }

  void scan() {
    static const std::set<std::string> kNotValue = {
        "if",     "for",   "while",  "switch", "return", "sizeof",
        "catch",  "new",   "delete", "throw",  "else",   "do",
        "case",   "break", "continue"};
    for (std::size_t j = fn_.body_begin;
         j < fn_.body_end && j < t_.size(); ++j) {
      if (!is_ident(j)) continue;
      const std::string& x = t_[j].text;
      if (x == "for" && text(j + 1) == "(") {
        handle_range_for(j);
        continue;
      }
      if ((x == "if" || x == "while") && text(j + 1) == "(") {
        handle_branch(j);
        continue;
      }
      if (x == "return") {
        handle_return(j);
        continue;
      }
      // Uninitialized scalar local: `double x;`
      if (scalar_type_name(x) && is_ident(j + 1) && text(j + 2) == ";") {
        uninit_.insert(t_[j + 1].text);
        j += 2;
        continue;
      }
      if (kNotValue.count(x) != 0) continue;
      if (text(j + 1) == "(") {
        handle_call(j);
        continue;
      }
      handle_assignment(j);
    }
  }

  const Project& p_;
  const DefIndex& defs_;
  const TranslationUnit& tu_;
  const FunctionDecl& fn_;
  TaintState& st_;
  const std::set<std::string>& unordered_;
  const std::set<std::string>& members_;
  std::map<std::string, SinkHit>& sinks_;
  const std::vector<Token>& t_;
  const std::string key_;
  std::map<std::string, std::string> local_;
  std::set<std::string> uninit_;
};

void taint_pass(const Project& project, const DefIndex& defs,
                std::vector<Diagnostic>& diags) {
  // Names of unordered containers (declared anywhere) and of member/shared
  // variables that carry taint across function boundaries.  Members follow
  // the repo's trailing-underscore convention, which keeps a tainted member
  // name from colliding with unrelated locals.
  std::set<std::string> unordered_names;
  std::set<std::string> member_names;
  for (const auto& tu : project.tus) {
    const auto uv = unordered_vars(tu.lex);
    unordered_names.insert(uv.begin(), uv.end());
    for (const auto& v : tu.vars) {
      for (const auto& tok : v.type) {
        if (tok.rfind("unordered_", 0) == 0) unordered_names.insert(v.name);
      }
      const bool member_like =
          v.var_scope != VarScope::class_member ||
          (!v.name.empty() && v.name.back() == '_');
      if (member_like) member_names.insert(v.name);
    }
  }

  TaintState st;
  std::map<std::string, SinkHit> sinks;
  for (int round = 0; round < 30; ++round) {
    st.grew = false;
    for (const auto& tu : project.tus) {
      for (const auto& fn : tu.functions) {
        if (!fn.is_definition) continue;
        FnTaint(project, defs, tu, fn, st, unordered_names, member_names,
                sinks)
            .run();
      }
    }
    if (!st.grew) break;
  }
  for (const auto& [k, hit] : sinks) {
    (void)k;
    report(diags, *hit.tu, hit.line, "determinism-taint", hit.symbol,
           hit.message);
  }
}

}  // namespace

const char* to_string(PartitionClass c) {
  switch (c) {
    case PartitionClass::shard: return "shard";
    case PartitionClass::lock: return "lock";
    case PartitionClass::forbid: return "forbid";
  }
  return "?";
}

void run_partition_rules(const Project& project, std::vector<Diagnostic>& diags,
                         std::vector<ManifestSite>& manifest) {
  const DefIndex defs = build_def_index(project);
  const Reachability reach = compute_reachability(project);
  shared_state_pass(project, reach, diags, manifest);
  taint_pass(project, defs, diags);
}

}  // namespace icsim_lint
