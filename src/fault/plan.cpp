#include "fault/plan.hpp"

#include <cctype>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace icsim::fault {

namespace {

[[noreturn]] void bad(const std::string& what, const std::string& where) {
  throw std::invalid_argument("FaultPlan::parse: " + what + " in '" + where +
                              "'");
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : s) {
    if (c == sep) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  out.push_back(cur);
  return out;
}

std::vector<std::string> tokens_of(const std::string& clause) {
  std::vector<std::string> out;
  std::istringstream in(clause);
  std::string tok;
  while (in >> tok) out.push_back(tok);
  return out;
}

double parse_real(const std::string& tok) {
  std::size_t pos = 0;
  double v = 0.0;
  try {
    v = std::stod(tok, &pos);
  } catch (const std::exception&) {
    bad("expected a number", tok);
  }
  if (pos != tok.size()) bad("trailing characters after number", tok);
  return v;
}

std::uint64_t parse_u64(const std::string& tok) {
  std::size_t pos = 0;
  std::uint64_t v = 0;
  try {
    v = std::stoull(tok, &pos);
  } catch (const std::exception&) {
    bad("expected an integer", tok);
  }
  if (pos != tok.size()) bad("trailing characters after integer", tok);
  return v;
}

int parse_int(const std::string& tok) {
  return static_cast<int>(parse_u64(tok));
}

[[nodiscard]] sim::Time parse_time(const std::string& tok) {
  std::size_t pos = 0;
  double v = 0.0;
  try {
    v = std::stod(tok, &pos);
  } catch (const std::exception&) {
    bad("expected a time like 50us", tok);
  }
  const std::string unit = tok.substr(pos);
  if (unit == "ns") return sim::Time::ns(v);
  if (unit == "us") return sim::Time::us(v);
  if (unit == "ms") return sim::Time::ms(v);
  if (unit == "s") return sim::Time::sec(v);
  bad("unknown time unit (want ns/us/ms/s)", tok);
}

/// LINK := nNODE | sL.W-L.W
LinkRef parse_link(const std::string& tok) {
  if (tok.size() < 2) bad("link too short", tok);
  if (tok[0] == 'n') return LinkRef::endpoint(parse_int(tok.substr(1)));
  if (tok[0] != 's') bad("link must start with 'n' or 's'", tok);
  const auto sides = split(tok.substr(1), '-');
  if (sides.size() != 2) bad("switch link needs exactly one '-'", tok);
  net::SwitchCoord coord[2];
  for (int i = 0; i < 2; ++i) {
    const auto parts = split(sides[static_cast<std::size_t>(i)], '.');
    if (parts.size() != 2) bad("switch coordinate must be LEVEL.WORD", tok);
    coord[i].level = parse_int(parts[0]);
    coord[i].word = static_cast<std::uint32_t>(parse_u64(parts[1]));
  }
  return LinkRef::between(coord[0], coord[1]);
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  for (const std::string& clause : split(spec, ';')) {
    const auto toks = tokens_of(clause);
    if (toks.empty()) continue;  // tolerate empty / trailing clauses
    const std::string& head = toks[0];

    if (head.rfind("ber=", 0) == 0 && toks.size() == 1) {
      plan.ber = parse_real(head.substr(4));
      if (plan.ber < 0.0 || plan.ber >= 1.0) bad("ber must be in [0, 1)", head);
    } else if (head.rfind("seed=", 0) == 0 && toks.size() == 1) {
      plan.seed = parse_u64(head.substr(5));
    } else if (head.rfind("watchdog=", 0) == 0 && toks.size() == 1) {
      plan.watchdog = parse_time(head.substr(9));
    } else if (head == "link") {
      if (toks.size() < 3) bad("link clause needs a LINK and an action", clause);
      const LinkRef link = parse_link(toks[1]);
      for (std::size_t i = 2; i < toks.size(); ++i) {
        const std::string& f = toks[i];
        if (f.rfind("down@", 0) == 0) {
          LinkDownWindow w;
          w.link = link;
          const auto times = split(f.substr(5), ':');
          if (times.size() > 2) bad("down@ takes at most T1:T2", f);
          w.down = parse_time(times[0]);
          if (times.size() == 2) {
            w.up = parse_time(times[1]);
            if (w.up <= w.down) bad("up time must follow down time", f);
          }
          plan.link_windows.push_back(w);
        } else if (f.rfind("ber=", 0) == 0) {
          LinkBerOverride o;
          o.link = link;
          o.ber = parse_real(f.substr(4));
          if (o.ber < 0.0 || o.ber >= 1.0) bad("ber must be in [0, 1)", f);
          plan.link_ber.push_back(o);
        } else {
          bad("unknown link field (want down@T[:T] or ber=R)", f);
        }
      }
    } else if (head == "stall") {
      if (toks.size() != 2) bad("stall clause is 'stall NODE@T1+DUR'", clause);
      const auto at = split(toks[1], '@');
      if (at.size() != 2) bad("stall needs NODE@T1+DUR", toks[1]);
      const auto dur = split(at[1], '+');
      if (dur.size() != 2) bad("stall needs T1+DUR", toks[1]);
      NodeStallWindow w;
      w.node = parse_int(at[0]);
      w.start = parse_time(dur[0]);
      w.duration = parse_time(dur[1]);
      if (w.duration <= sim::Time::zero()) bad("stall duration must be > 0", toks[1]);
      plan.stalls.push_back(w);
    } else {
      bad("unknown clause", clause);
    }
  }
  return plan;
}

}  // namespace icsim::fault
