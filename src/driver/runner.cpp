#include "driver/runner.hpp"

#include <atomic>
#include <chrono>  // host wall clock only; simulated time is sim::Time
#include <cstdio>
#include <mutex>
#include <thread>

#include "sim/check.hpp"
#include "sim/concurrency.hpp"

namespace icsim::driver {

namespace {

// Host wall clock for perf bookkeeping.  Never feeds the simulation or the
// deterministic serializations, so the determinism lint's wall-clock rule
// does not apply to these two readings.
double now_ms() {
  // icsim-lint: allow(wall-clock)
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double, std::milli>(t).count();
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Full round-trip precision; %.17g prints the shortest-ish exact form and
/// is byte-stable for identical doubles, which is all the diff needs.
std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string fixed(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::size_t SweepReport::total_points() const {
  std::size_t n = 0;
  for (const auto& g : groups) n += g.points.size();
  return n;
}

std::size_t SweepReport::total_errors() const {
  std::size_t n = 0;
  for (const auto& g : groups) {
    for (const auto& p : g.points) {
      if (!p.error.empty()) ++n;
    }
  }
  return n;
}

SweepReport run_sweep(const Registry& registry,
                      const std::vector<std::string>& group_names,
                      const SweepOptions& options) {
  const std::vector<std::size_t> selected = registry.select(group_names);
  const auto& scenarios = registry.scenarios();

  unsigned jobs = options.jobs > 0 ? static_cast<unsigned>(options.jobs)
                                   : std::thread::hardware_concurrency();
  if (jobs == 0) jobs = 1;
  if (jobs > selected.size() && !selected.empty()) {
    jobs = static_cast<unsigned>(selected.size());
  }

  const double t_start = now_ms();
  std::vector<PointResult> results(selected.size());
  std::atomic<std::size_t> next{0};
  std::mutex progress_mu;

  auto worker = [&] {
    for (;;) {
      const std::size_t slot = next.fetch_add(1);
      if (slot >= selected.size()) return;
      const Scenario& sc = scenarios[selected[slot]];
      PointResult r;
      const double t0 = now_ms();
      try {
        r = sc.run();
      } catch (const std::exception& e) {
        r = PointResult{};
        r.error = e.what();
      } catch (...) {
        r = PointResult{};
        r.error = "unknown exception";
      }
      r.wall_ms = now_ms() - t0;
      if (options.progress) {
        const std::lock_guard<std::mutex> lock(progress_mu);
        std::fprintf(stderr, "[sweep] %s/%s: %.0f ms, %llu events%s%s\n",
                     sc.group.c_str(), sc.name.c_str(), r.wall_ms,
                     static_cast<unsigned long long>(r.events),
                     r.error.empty() ? "" : ", ERROR: ",
                     r.error.c_str());
      }
      results[slot] = std::move(r);
    }
  };

  // Nested-parallelism guard: announce the pool width so scenarios that
  // build an intra-run parallel engine (par::ParCluster) clamp their own
  // thread count — host scheduling only, never simulated results (see
  // sim/concurrency.hpp).
  sim::set_external_workers(static_cast<int>(jobs));
  if (jobs <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (unsigned i = 0; i < jobs; ++i) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }
  sim::set_external_workers(1);

  // Aggregation: registry order throughout, never completion order.
  SweepReport report;
  report.jobs = static_cast<int>(jobs);
  sim::check::Fnv1a all;
  for (const auto& g : registry.groups()) {
    GroupReport gr;
    gr.name = g.name;
    gr.title = g.title;
    for (std::size_t slot = 0; slot < selected.size(); ++slot) {
      const Scenario& sc = scenarios[selected[slot]];
      if (sc.group != g.name) continue;
      gr.point_names.push_back(sc.name);
      gr.points.push_back(std::move(results[slot]));
    }
    if (gr.points.empty()) continue;  // group not selected
    if (g.finalize) gr.summary = g.finalize(gr.points);
    sim::check::Fnv1a gd;
    for (const auto& p : gr.points) gd.fold(p.digest);
    gr.digest = gd.value();
    all.fold(gr.digest);
    report.groups.push_back(std::move(gr));
  }
  report.digest = all.value();
  report.wall_ms = now_ms() - t_start;
  return report;
}

std::string SweepReport::to_json() const {
  std::string out;
  out.reserve(4096);
  out += "{\n  \"groups\": [";
  bool first_g = true;
  for (const auto& g : groups) {
    out += first_g ? "\n" : ",\n";
    first_g = false;
    out += "    {\"name\": \"";
    out += json_escape(g.name);
    out += "\", \"title\": \"";
    out += json_escape(g.title);
    out += "\",\n     \"points\": [";
    for (std::size_t i = 0; i < g.points.size(); ++i) {
      const PointResult& p = g.points[i];
      out += i == 0 ? "\n" : ",\n";
      out += "      {\"name\": \"";
      out += json_escape(g.point_names[i]);
      out += '"';
      if (!p.error.empty()) {
        out += ", \"error\": \"";
        out += json_escape(p.error);
        out += "\"}";
        continue;
      }
      out += ", \"events\": ";
      out += std::to_string(p.events);
      out += ", \"digest\": \"";
      out += hex64(p.digest);
      out += "\", \"metrics\": {";
      for (std::size_t m = 0; m < p.metrics.size(); ++m) {
        if (m != 0) out += ", ";
        out += '"';
        out += json_escape(p.metrics[m].name);
        out += "\": ";
        out += num(p.metrics[m].value);
      }
      out += "}}";
    }
    out += "\n     ],\n     \"summary\": [";
    for (std::size_t s = 0; s < g.summary.size(); ++s) {
      if (s != 0) out += ", ";
      out += '"';
      out += json_escape(g.summary[s]);
      out += '"';
    }
    out += "],\n     \"digest\": \"";
    out += hex64(g.digest);
    out += "\"}";
  }
  out += "\n  ],\n  \"digest\": \"";
  out += hex64(digest);
  out += "\"\n}\n";
  return out;
}

std::string SweepReport::to_csv() const {
  std::string out = "group,point,metric,value\n";
  for (const auto& g : groups) {
    for (std::size_t i = 0; i < g.points.size(); ++i) {
      const PointResult& p = g.points[i];
      const std::string prefix =
          csv_escape(g.name) + "," + csv_escape(g.point_names[i]) + ",";
      if (!p.error.empty()) {
        out += prefix + "error," + csv_escape(p.error) + "\n";
        continue;
      }
      for (const auto& m : p.metrics) {
        out += prefix + csv_escape(m.name) + "," + num(m.value) + "\n";
      }
      out += prefix + "events," + std::to_string(p.events) + "\n";
      out += prefix + "digest," + hex64(p.digest) + "\n";
    }
  }
  return out;
}

void SweepReport::print(std::FILE* out) const {
  constexpr int kWidth = 14;
  for (const auto& g : groups) {
    std::fprintf(out, "%s\n\n",
                 g.title.empty() ? g.name.c_str() : g.title.c_str());
    // Column set: union of the group's metric names, first-appearance order.
    std::vector<const Metric*> cols;  // representative (for precision)
    std::vector<std::string> names;
    for (const auto& p : g.points) {
      for (const auto& m : p.metrics) {
        bool known = false;
        for (const auto& n : names) {
          if (n == m.name) { known = true; break; }
        }
        if (!known) {
          names.push_back(m.name);
          cols.push_back(&m);
        }
      }
    }
    std::fprintf(out, "%*s", kWidth, "point");
    for (const auto& n : names) std::fprintf(out, "%*s", kWidth, n.c_str());
    std::fprintf(out, "\n");
    for (std::size_t i = 0; i < names.size() + 1; ++i) {
      for (int j = 0; j < kWidth; ++j) std::fprintf(out, "-");
    }
    std::fprintf(out, "\n");
    for (std::size_t i = 0; i < g.points.size(); ++i) {
      const PointResult& p = g.points[i];
      std::fprintf(out, "%*s", kWidth, g.point_names[i].c_str());
      if (!p.error.empty()) {
        std::fprintf(out, "  ERROR: %s\n", p.error.c_str());
        continue;
      }
      for (std::size_t c = 0; c < names.size(); ++c) {
        const Metric* m = p.find(names[c]);
        if (m == nullptr) {
          std::fprintf(out, "%*s", kWidth, "-");
        } else {
          std::fprintf(out, "%*s", kWidth,
                       fixed(m->value, m->precision).c_str());
        }
      }
      std::fprintf(out, "\n");
    }
    for (const auto& s : g.summary) std::fprintf(out, "%s\n", s.c_str());
    std::fprintf(out, "group digest: %s=%s\n\n", g.name.c_str(),
                 hex64(g.digest).c_str());
  }
  std::fprintf(out, "event digests (reruns must match): all=%s\n",
               hex64(digest).c_str());
}

void SweepReport::publish_metrics(trace::MetricsRegistry& m) const {
  m.counter("driver.points") = total_points();
  m.counter("driver.errors") = total_errors();
  m.counter("driver.jobs") = static_cast<std::uint64_t>(jobs);
  auto& wall = m.stat("driver.point_wall_ms");
  auto& rate = m.stat("driver.events_per_sec");
  std::uint64_t events = 0;
  for (const auto& g : groups) {
    for (const auto& p : g.points) {
      if (!p.error.empty()) continue;
      wall.add(p.wall_ms);
      events += p.events;
      if (p.wall_ms > 0.0) {
        rate.add(static_cast<double>(p.events) / (p.wall_ms / 1e3));
      }
    }
  }
  m.counter("driver.events_total") = events;
  m.stat("driver.sweep_wall_ms").add(wall_ms);
}

}  // namespace icsim::driver
