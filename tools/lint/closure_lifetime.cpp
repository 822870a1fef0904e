// closure-lifetime pass — lambda captures flowing into deferred-execution
// sinks.
//
// A DES closure runs when the engine reaches its timestamp, long after the
// frame that armed it has returned.  The classic bug class is a lambda that
// captures a stack variable by reference (or materializes a pointer to one)
// and is then handed to Engine::post_at / post_in / schedule_at /
// schedule_in, ParEngine::post_cross, a resource-acquire callback, or a
// fiber spawn.  ASan only sees the paths a given scenario exercises; this
// pass sees every arming site.
//
// Capture classification (docs/MODEL.md §15 has the full table):
//   [x], [x = expr]    by value — clean (the closure owns its copy);
//   [&x]               error: aliases the enclosing frame.  When `x` is
//                      itself a reference the frame slot is not the hazard,
//                      but the capture silently aliases a caller-owned
//                      object with no lifetime tie to the deferred event —
//                      init-capture the address by value (`p = &x`) so the
//                      aliasing is explicit and audited;
//   [p = &x]           error when `x` is a by-value local/parameter (a
//                      pointer to the dying frame); clean when `x` is a
//                      reference (pointer to the caller-owned referent —
//                      the sanctioned fix idiom);
//   [&]                error when the lambda body uses an enclosing
//                      local/parameter (reported per offending name);
//   [this]             clean at fire-and-forget sinks (post_at / post_in /
//                      post_cross / acquire: ownership convention — handler
//                      objects outlive the drain); at cancellable sinks
//                      (schedule_at / schedule_in) it is a finding unless
//                      the arming frame cancels the returned EventHandle
//                      before returning or ~Owner() cancels its handles;
//   [*this]            by-value copy — clean.
//
// Lambdas are found both as direct sink arguments and as named locals
// (`auto cont = [...]; ... post_cross(p, q, t, std::move(cont));` — the
// partitioned net::Fabric::forward shape), also after a move into another
// local (`sim::EventFn fn = std::move(cont);`).

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "rules.hpp"

namespace icsim_lint {

namespace {

/// Sinks whose callable argument runs after the enclosing frame returned.
/// `acquire` is the FifoResource completion callback, and `transfer*`,
/// `dma`, `host_copy_async` and `pcix_ordered` forward theirs to it;
/// `Fiber` / `spawn` cover fiber bodies (resumed from the scheduler, never
/// from the arming frame).
const std::set<std::string>& deferred_sinks() {
  static const std::set<std::string> sinks = {
      "post_at",  "post_in",          "schedule_at",     "schedule_in",
      "post_cross", "acquire",        "transfer",        "transfer_ordered",
      "dma",      "host_copy_async",  "pcix_ordered",    "spawn",
      "Fiber"};
  return sinks;
}

bool cancellable_sink(const std::string& s) {
  return s == "schedule_at" || s == "schedule_in";
}

struct Capture {
  enum Kind {
    by_value,       // [x], [x = expr]
    by_ref,         // [&x]
    ref_init,       // [&x = expr] — reference into the initializer
    ptr_init,       // [p = &x]
    this_ptr,       // [this]
    star_this,      // [*this]
    default_ref,    // [&]
    default_value,  // [=]
  } kind = by_value;
  std::string name;  // captured name; for ptr_init/ref_init the referent
  int line = 0;
};

struct Lambda {
  std::vector<Capture> captures;
  std::size_t intro = 0;       // index of `[`
  std::size_t body_begin = 0;  // first token inside `{`
  std::size_t body_end = 0;    // index of the closing `}`
  int line = 0;
};

/// An enclosing-frame variable (parameter or detected local).
struct FrameVar {
  bool is_ref = false;  // declared `T&` — the referent is caller-owned
  bool is_param = false;
};

const std::set<std::string>& keyword_like() {
  static const std::set<std::string> kw = {
      "if",     "for",      "while",  "switch",   "return", "sizeof",
      "catch",  "new",      "delete", "throw",    "else",   "do",
      "case",   "break",    "continue", "goto",   "struct", "class",
      "const",  "constexpr", "static", "auto",    "using",  "typedef",
      "public", "private",  "protected", "template", "typename", "operator",
      "true",   "false",    "nullptr", "this",    "void"};
  return kw;
}

class FnScan {
 public:
  FnScan(const Project& project, const TranslationUnit& tu,
         const FunctionDecl& fn, std::vector<Diagnostic>& diags)
      : p_(project), tu_(tu), fn_(fn), diags_(diags), t_(tu.lex.tokens) {}

  void run() {
    collect_frame_vars();
    collect_lambdas();
    collect_aliases();
    scan_sinks();
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

  [[nodiscard]] std::string base() const {
    const auto slash = tu_.file.rfind('/');
    return slash == std::string::npos ? tu_.file : tu_.file.substr(slash + 1);
  }
  [[nodiscard]] std::string key() const { return fn_key(fn_); }

  // -- frame variables ------------------------------------------------------

  void collect_frame_vars() {
    for (const auto& prm : fn_.params) {
      if (prm.name.empty()) continue;
      FrameVar v;
      v.is_param = true;
      v.is_ref = std::find(prm.type.begin(), prm.type.end(), "&") !=
                 prm.type.end();
      frame_.emplace(prm.name, v);
    }
    // Locals, by the two-token declaration heuristic: `Type name =/;/{`,
    // `Type & name =`, `Type * name =/;`.  Misses are fine — an unknown
    // name in a by-ref capture is still an enclosing-frame variable by
    // language rules; this table only refines the message and classifies
    // `p = &x` init-captures.
    for (std::size_t k = fn_.body_begin;
         k + 2 < fn_.body_end && k + 2 < t_.size(); ++k) {
      if (!is_ident(k) || keyword_like().count(t_[k].text) != 0) continue;
      if (k > 0 && (t_[k - 1].text == "." || t_[k - 1].text == "->" ||
                    t_[k - 1].text == "::")) {
        continue;  // member/qualified chain, not a declaration head
      }
      const std::string& nx = text(k + 1);
      if (is_ident(k + 1) && keyword_like().count(nx) == 0) {
        const std::string& after = text(k + 2);
        if (after == "=" || after == ";" || after == "{") {
          frame_.emplace(t_[k + 1].text, FrameVar{});
        }
        continue;
      }
      if ((nx == "&" || nx == "*") && is_ident(k + 2)) {
        const std::string& after = text(k + 3);
        if (after == "=" || after == ";" || after == "{" || after == ")") {
          FrameVar v;
          v.is_ref = nx == "&";
          frame_.emplace(t_[k + 2].text, v);
        }
      }
    }
  }

  // -- lambda collection ----------------------------------------------------

  /// `[` at i opens a lambda (not a subscript, not an attribute).
  [[nodiscard]] bool lambda_intro(std::size_t i) const {
    if (text(i) != "[") return false;
    if (i == 0) return false;
    const Token& prev = t_[i - 1];
    return !(prev.kind == TokKind::identifier ||
             prev.kind == TokKind::number || prev.kind == TokKind::string ||
             prev.text == ")" || prev.text == "]");
  }

  void collect_lambdas() {
    for (std::size_t j = fn_.body_begin;
         j < fn_.body_end && j < t_.size(); ++j) {
      if (!lambda_intro(j)) continue;
      Lambda lam;
      lam.intro = j;
      lam.line = t_[j].line;
      const std::size_t close = skip_balanced(j, "[", "]");  // past `]`
      parse_captures(j + 1, close > 0 ? close - 1 : j + 1, lam.captures);
      std::size_t k = close;
      if (k < t_.size() && text(k) == "(") k = skip_balanced(k, "(", ")");
      while (k < t_.size() && text(k) != "{" && text(k) != ")" &&
             text(k) != "," && text(k) != ";") {
        ++k;
      }
      if (k >= t_.size() || text(k) != "{") continue;
      const std::size_t body_close = skip_balanced(k, "{", "}");
      lam.body_begin = k + 1;
      lam.body_end = body_close > 0 ? body_close - 1 : k + 1;
      by_intro_[lam.intro] = lambdas_.size();
      // `auto cont = [...]` — remember the variable so a later
      // `post_cross(..., std::move(cont))` resolves to this lambda.
      if (j >= 2 && t_[j - 1].text == "=" && is_ident(j - 2)) {
        by_name_[t_[j - 2].text] = lambdas_.size();
      }
      lambdas_.push_back(lam);
    }
  }

  /// `sim::EventFn fn = std::move(cont);` (or `= cont`) re-homes a named
  /// lambda in another local; a sink handed `fn` defers the same captures.
  void collect_aliases() {
    for (std::size_t j = fn_.body_begin + 1;
         j + 1 < fn_.body_end && j + 1 < t_.size(); ++j) {
      if (!is_ident(j) || text(j + 1) != "=") continue;
      std::size_t k = j + 2;
      std::vector<std::size_t> idents;
      for (; k < fn_.body_end && k < t_.size() && text(k) != ";"; ++k) {
        const std::string& x = text(k);
        if (x == "std" || x == "move" || x == "::" || x == "(" || x == ")") {
          continue;
        }
        if (!is_ident(k)) break;
        idents.push_back(k);
      }
      if (text(k) != ";" || idents.size() != 1) continue;
      const auto it = by_name_.find(t_[idents[0]].text);
      if (it != by_name_.end()) by_name_[t_[j].text] = it->second;
    }
  }

  void parse_captures(std::size_t b, std::size_t e,
                      std::vector<Capture>& out) const {
    std::vector<std::vector<std::size_t>> pieces(1);
    int depth = 0;
    for (std::size_t j = b; j < e && j < t_.size(); ++j) {
      const std::string& x = t_[j].text;
      if (x == "(" || x == "{" || x == "[") ++depth;
      else if (x == ")" || x == "}" || x == "]") --depth;
      if (x == "," && depth == 0) {
        pieces.emplace_back();
        continue;
      }
      pieces.back().push_back(j);
    }
    for (const auto& piece : pieces) {
      if (piece.empty()) continue;
      Capture c;
      c.line = t_[piece.front()].line;
      const std::string& first = t_[piece.front()].text;
      if (piece.size() == 1) {
        if (first == "&") c.kind = Capture::default_ref;
        else if (first == "=") c.kind = Capture::default_value;
        else if (first == "this") c.kind = Capture::this_ptr;
        else if (t_[piece[0]].kind == TokKind::identifier) {
          c.kind = Capture::by_value;
          c.name = first;
        } else {
          continue;
        }
        out.push_back(c);
        continue;
      }
      if (first == "*" && text(piece[1]) == "this") {
        c.kind = Capture::star_this;
        out.push_back(c);
        continue;
      }
      if (first == "&") {
        if (piece.size() == 2 && is_ident(piece[1])) {
          c.kind = Capture::by_ref;
          c.name = t_[piece[1]].text;
          c.line = t_[piece[1]].line;
          out.push_back(c);
          continue;
        }
        if (piece.size() >= 3 && is_ident(piece[1]) &&
            text(piece[2]) == "=") {
          // `&x = expr` — a reference into the initializer expression.
          c.kind = Capture::ref_init;
          for (std::size_t m = 3; m < piece.size(); ++m) {
            if (is_ident(piece[m])) { c.name = t_[piece[m]].text; break; }
          }
          out.push_back(c);
          continue;
        }
        continue;
      }
      if (is_ident(piece[0]) && piece.size() >= 3 && text(piece[1]) == "=") {
        // Init-capture: `x = expr`.  Only `x = &name` (or addressof) turns
        // into a pointer classification; everything else copies by value.
        c.kind = Capture::by_value;
        c.name = first;
        if (text(piece[2]) == "&" && piece.size() >= 4 && is_ident(piece[3])) {
          c.kind = Capture::ptr_init;
          c.name = t_[piece[3]].text;
        } else if (text(piece[2]) == "addressof" ||
                   (piece.size() >= 6 && text(piece[4]) == "addressof")) {
          for (std::size_t m = 2; m < piece.size(); ++m) {
            if (text(piece[m]) == "(" && m + 1 < piece.size() &&
                is_ident(piece[m + 1])) {
              c.kind = Capture::ptr_init;
              c.name = t_[piece[m + 1]].text;
              break;
            }
          }
        }
        out.push_back(c);
        continue;
      }
      if (is_ident(piece[0])) {
        c.kind = Capture::by_value;
        c.name = first;
        out.push_back(c);
      }
    }
  }

  // -- sink calls -----------------------------------------------------------

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

  void scan_sinks() {
    for (std::size_t j = fn_.body_begin;
         j < fn_.body_end && j < t_.size(); ++j) {
      if (!is_ident(j) || text(j + 1) != "(") continue;
      const std::string& sink = t_[j].text;
      if (deferred_sinks().count(sink) == 0) continue;
      if (sink == "Fiber" && j > 0 && t_[j - 1].text == "~") continue;
      const auto args = arg_ranges(j + 1);
      for (const auto& [b, e] : args) {
        const Lambda* lam = arg_lambda(b, e);
        if (lam != nullptr) classify(*lam, sink, j);
      }
    }
    // make_unique<...Fiber...>(lambda, ...) — the fiber body outlives the
    // arming frame exactly like a posted closure.
    for (std::size_t j = fn_.body_begin;
         j < fn_.body_end && j < t_.size(); ++j) {
      if (!is_ident(j) || t_[j].text != "make_unique" || text(j + 1) != "<") {
        continue;
      }
      bool fiber = false;
      int depth = 0;
      std::size_t k = j + 1;
      for (; k < t_.size(); ++k) {
        if (t_[k].text == "<") { ++depth; continue; }
        if (t_[k].text == ">") { if (--depth == 0) { ++k; break; } continue; }
        if (t_[k].text == "Fiber") fiber = true;
      }
      if (!fiber || text(k) != "(") continue;
      for (const auto& [b, e] : arg_ranges(k)) {
        const Lambda* lam = arg_lambda(b, e);
        if (lam != nullptr) classify(*lam, "Fiber", j);
      }
    }
  }

  /// The lambda an argument range passes: a literal at the argument's top
  /// level, or a named lambda local (`cont` / `std::move(cont)`).
  const Lambda* arg_lambda(std::size_t b, std::size_t e) const {
    int depth = 0;
    for (std::size_t k = b; k < e && k < t_.size(); ++k) {
      const std::string& x = t_[k].text;
      if (x == "(" || x == "{") { ++depth; continue; }
      if (x == ")" || x == "}") { --depth; continue; }
      if (x == "[" && depth == 0) {
        const auto it = by_intro_.find(k);
        if (it != by_intro_.end()) return &lambdas_[it->second];
        ++depth;  // a subscript — balanced by its `]`
        continue;
      }
      if (x == "]") { --depth; continue; }
    }
    // `name` or `std::move(name)` where name is a recorded lambda local.
    std::vector<std::size_t> idents;
    for (std::size_t k = b; k < e && k < t_.size(); ++k) {
      if (is_ident(k) && t_[k].text != "std" && t_[k].text != "move") {
        idents.push_back(k);
      }
    }
    if (idents.size() == 1) {
      const auto it = by_name_.find(t_[idents[0]].text);
      if (it != by_name_.end()) return &lambdas_[it->second];
    }
    return nullptr;
  }

  // -- classification -------------------------------------------------------

  void classify(const Lambda& lam, const std::string& sink,
                std::size_t sink_tok) {
    const int sink_line = t_[sink_tok].line;
    for (const auto& c : lam.captures) {
      switch (c.kind) {
        case Capture::by_value:
        case Capture::star_this:
          break;
        case Capture::by_ref:
        case Capture::ref_init:
          report_by_ref(c, sink, sink_line, lam.line);
          break;
        case Capture::ptr_init: {
          const auto it = frame_.find(c.name);
          if (it != frame_.end() && !it->second.is_ref) {
            report(diags_, tu_, c.line, "closure-lifetime", c.name,
                   "init-capture materializes a pointer to stack " +
                       std::string(it->second.is_param ? "parameter"
                                                       : "local") +
                       " '" + c.name + "' of " + key() +
                       "() in a closure deferred via " + sink +
                       "() [capture '= &" + c.name + "' (" + base() + ":" +
                       std::to_string(c.line) + ") -> " + sink + "() at " +
                       base() + ":" + std::to_string(sink_line) +
                       " -> fires after " + key() +
                       "() returns]; copy the value, or point at a "
                       "caller-owned object");
          }
          break;
        }
        case Capture::default_ref: {
          // Evidence-based: report each enclosing local/parameter the
          // lambda body actually touches.
          std::set<std::string> seen;
          for (std::size_t m = lam.body_begin;
               m < lam.body_end && m < t_.size(); ++m) {
            if (!is_ident(m)) continue;
            const auto it = frame_.find(t_[m].text);
            if (it == frame_.end() || !seen.insert(t_[m].text).second) {
              continue;
            }
            Capture implied;
            implied.kind = Capture::by_ref;
            implied.name = t_[m].text;
            implied.line = lam.line;
            report_by_ref(implied, sink, sink_line, lam.line,
                          /*via_default=*/true);
          }
          break;
        }
        case Capture::this_ptr:
        case Capture::default_value:
          if (c.kind == Capture::default_value && fn_.owner.empty()) break;
          if (!cancellable_sink(sink)) break;  // ownership convention
          if (!receiver_cancelled(sink_tok) && !dtor_cancels(fn_.owner)) {
            const std::string how =
                c.kind == Capture::this_ptr ? "'this' captured"
                                            : "default '=' capture (implicit "
                                              "this) flows";
            report(diags_, tu_, c.line, "closure-lifetime", "this",
                   how + " into a cancellable event armed via " + sink +
                       "() but never cancelled: " + key() +
                       "() does not cancel the returned EventHandle before "
                       "returning and " +
                       (fn_.owner.empty() ? "no destructor"
                                          : "~" + fn_.owner + "()") +
                       " cancels no handles [arm at " + base() + ":" +
                       std::to_string(sink_line) +
                       "]; a destroyed owner leaves a live event with a "
                       "dangling this — cancel in the destructor or before "
                       "the frame returns");
          }
          break;
      }
    }
  }

  void report_by_ref(const Capture& c, const std::string& sink, int sink_line,
                     int lam_line, bool via_default = false) {
    const auto it = frame_.find(c.name);
    const bool known = it != frame_.end();
    const bool is_ref = known && it->second.is_ref;
    const bool is_param = known && it->second.is_param;
    const std::string how =
        via_default ? "default '&' capture pulls in '" + c.name + "'"
                    : "'&" + c.name + "' captured by reference";
    const std::string chain =
        " [lambda at " + base() + ":" + std::to_string(lam_line) + " -> " +
        sink + "() at " + base() + ":" + std::to_string(sink_line) +
        " -> fires after " + key() + "() returns]";
    if (is_ref) {
      report(diags_, tu_, c.line, "closure-lifetime", c.name,
             how + " in a closure deferred via " + sink + "(): '" + c.name +
                 "' is a reference " +
                 (is_param ? "parameter" : "binding") + " of " + key() +
                 "(), so the capture silently aliases a caller-owned object "
                 "with no lifetime tie to the deferred event" +
                 chain +
                 "; init-capture the address by value ('p = &" + c.name +
                 "') to make the aliasing explicit, and cancel the event "
                 "when the referent dies");
    } else {
      report(diags_, tu_, c.line, "closure-lifetime", c.name,
             how + " in a closure deferred via " + sink + "(): '" + c.name +
                 "' is a " +
                 (is_param ? "parameter" : "stack local") + " of " + key() +
                 "() and is destroyed when the frame returns, before the "
                 "event can fire" +
                 chain + "; capture by value instead");
    }
  }

  /// The arming frame cancels the handle it received: `h = ...sink(...)`
  /// followed by `h.cancel()` later in the same body.
  bool receiver_cancelled(std::size_t sink_tok) const {
    std::size_t i = sink_tok;
    while (i >= 2 && (t_[i - 1].text == "." || t_[i - 1].text == "->") &&
           is_ident(i - 2)) {
      i -= 2;
    }
    if (i < 2 || t_[i - 1].text != "=" || !is_ident(i - 2)) return false;
    if (i >= 3 && t_[i - 3].text == "=") return false;  // `==`
    const std::string recv = t_[i - 2].text;
    for (std::size_t m = fn_.body_begin;
         m + 3 < fn_.body_end && m + 3 < t_.size(); ++m) {
      if (t_[m].text == recv &&
          (t_[m + 1].text == "." || t_[m + 1].text == "->") &&
          t_[m + 2].text == "cancel" && t_[m + 3].text == "(") {
        return true;
      }
    }
    return false;
  }

  /// ~Owner() (anywhere in the project) cancels at least one EventHandle.
  bool dtor_cancels(const std::string& owner) const {
    if (owner.empty()) return false;
    const std::string dtor = "~" + owner;
    for (const auto& tu : p_.tus) {
      for (const auto& fn : tu.functions) {
        if (!fn.is_definition || fn.name != dtor || fn.owner != owner) {
          continue;
        }
        for (const auto& call : fn.calls) {
          if (call.callee == "cancel") return true;
        }
      }
    }
    return false;
  }

  const Project& p_;
  const TranslationUnit& tu_;
  const FunctionDecl& fn_;
  std::vector<Diagnostic>& diags_;
  const std::vector<Token>& t_;
  std::map<std::string, FrameVar> frame_;
  std::vector<Lambda> lambdas_;
  std::map<std::size_t, std::size_t> by_intro_;  // `[` token -> lambda index
  std::map<std::string, std::size_t> by_name_;   // local name -> lambda index
};

}  // namespace

void run_closure_rules(const Project& project,
                       std::vector<Diagnostic>& diags) {
  for (const auto& tu : project.tus) {
    for (const auto& fn : tu.functions) {
      if (!fn.is_definition) continue;
      FnScan(project, tu, fn, diags).run();
    }
  }
}

}  // namespace icsim_lint
