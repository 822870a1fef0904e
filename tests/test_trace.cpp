// Tracing & metrics subsystem: ring-buffer recorder, zero-overhead disabled
// path, Chrome-trace JSON well-formedness, metrics registry serialization,
// and the end-to-end Cluster trace/metrics file emission.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "scoped_env.hpp"
#include "trace/export.hpp"
#include "trace/metrics.hpp"
#include "trace/sink.hpp"
#include "trace/trace.hpp"
#include "trace/tracer.hpp"

namespace icsim {
namespace {

// ------------------------------------------------------------ JSON checker
//
// A minimal recursive-descent validator: enough to assert the exporters emit
// structurally well-formed JSON (balanced, quoted, comma-separated) without
// pulling in a JSON library the container doesn't have.

class JsonChecker {
 public:
  explicit JsonChecker(std::string text) : s_(std::move(text)) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* word) {
    const std::string w(word);
    if (s_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }

  [[nodiscard]] char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  std::string s_;
  std::size_t pos_ = 0;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

trace::Event span_event(std::int64_t t_ps, const char* name = "work") {
  trace::Event e;
  e.kind = trace::Event::Kind::span;
  e.cat = trace::Category::engine;
  e.component = 1;
  e.name = name;
  e.t_ps = t_ps;
  e.dur_ps = 1000;
  return e;
}

// ------------------------------------------------------------- ring buffer

TEST(RingBufferSink, RoundsCapacityUpToPowerOfTwo) {
  EXPECT_EQ(trace::RingBufferSink(1).capacity(), 64u);    // minimum
  EXPECT_EQ(trace::RingBufferSink(64).capacity(), 64u);
  EXPECT_EQ(trace::RingBufferSink(65).capacity(), 128u);
  EXPECT_EQ(trace::RingBufferSink(1000).capacity(), 1024u);
}

TEST(RingBufferSink, RejectsCapacityNoPowerOfTwoHolds) {
  // Rounding SIZE_MAX up would overflow to 0 and never end.
  EXPECT_THROW(trace::RingBufferSink(SIZE_MAX), std::length_error);
  EXPECT_THROW(trace::RingBufferSink(trace::RingBufferSink::kMaxCapacity + 1),
               std::length_error);
}

TEST(ClusterTrace, TraceEventsEnvMustBePositiveInt) {
  const std::string path = ::testing::TempDir() + "test_trace_events.json";
  const ScopedEnv trace_env("ICSIM_TRACE", path.c_str());
  core::ClusterConfig cfg = core::elan_cluster(2, 1);
  for (const char* bad : {"-1", "abc", "", "0", "64x",
                          "18446744073709551615", "18446744073709551616"}) {
    const ScopedEnv env("ICSIM_TRACE_EVENTS", bad);
    try {
      core::Cluster cluster(cfg);
      ADD_FAILURE() << "accepted ICSIM_TRACE_EVENTS='" << bad << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("ICSIM_TRACE_EVENTS"),
                std::string::npos);
    }
  }
}

TEST(RingBufferSink, KeepsAllEventsBeforeWrap) {
  trace::RingBufferSink sink(64);
  for (int i = 0; i < 10; ++i) sink.record(span_event(i));
  EXPECT_EQ(sink.recorded(), 10u);
  EXPECT_EQ(sink.dropped(), 0u);
  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(events[static_cast<std::size_t>(i)].t_ps, i);
}

TEST(RingBufferSink, WraparoundKeepsNewestAndCountsDropped) {
  trace::RingBufferSink sink(64);  // capacity exactly 64
  for (int i = 0; i < 150; ++i) sink.record(span_event(i));
  EXPECT_EQ(sink.recorded(), 150u);
  EXPECT_EQ(sink.dropped(), 150u - 64u);
  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(), 64u);
  // Oldest-first window of the most recent 64 events: 86..149.
  EXPECT_EQ(events.front().t_ps, 150 - 64);
  EXPECT_EQ(events.back().t_ps, 149);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].t_ps, events[i - 1].t_ps + 1);
  }
}

// -------------------------------------------------------------- disabled

TEST(Tracer, DisabledByDefaultAndLazyComponentTable) {
  sim::Engine e;
  EXPECT_FALSE(e.tracer().enabled());
  // A full simulation with tracing off must register no components and
  // record no events (instrumentation is behind one branch).
  core::Cluster cluster(core::ib_cluster(2, 1));
  cluster.run([](mpi::Mpi& mpi) {
    double v = 1.0;
    (void)mpi.allreduce(v, mpi::ReduceOp::sum);
  });
  EXPECT_FALSE(cluster.engine().tracer().enabled());
  EXPECT_TRUE(cluster.engine().tracer().components().empty());
}

TEST(Tracer, EnableDisableGateRecording) {
  trace::RingBufferSink sink(64);
  trace::Tracer tr;
  tr.enable(sink);
  EXPECT_TRUE(tr.enabled());
  tr.span(trace::Category::engine, 1, "a", sim::Time::ps(0), sim::Time::ps(10));
  tr.disable();
  EXPECT_FALSE(tr.enabled());
  EXPECT_EQ(sink.recorded(), 1u);
}

// ------------------------------------------------------------- exporters

TEST(ChromeTrace, WellFormedJsonWithMetadataAndEvents) {
  trace::RingBufferSink sink(256);
  trace::Tracer tr;
  tr.enable(sink);
  const auto link = tr.register_component(trace::Category::link, "node0->sw");
  const auto rank = tr.register_component(trace::Category::mpi, "rank0");
  tr.span(trace::Category::mpi, rank, "send \"x\"\\n", sim::Time::us(1),
          sim::Time::us(3));
  tr.instant(trace::Category::mpi, rank, "pin.miss", sim::Time::us(2), 1.5);
  tr.counter(trace::Category::link, link, "queue_depth", sim::Time::us(2.5),
             3.0);

  std::ostringstream os;
  trace::write_chrome_trace(os, tr, sink.snapshot());
  const std::string json = os.str();

  JsonChecker checker(json);
  EXPECT_TRUE(checker.valid()) << json;
  // Structure: trace-event envelope, thread metadata, all three event types.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("node0->sw"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  // 1 us simulated = 1 trace us: the span starts at ts 1.000000.
  EXPECT_NE(json.find("\"ts\":1.000000"), std::string::npos);
}

TEST(ChromeTrace, EmptyTraceIsStillValidJson) {
  trace::Tracer tr;
  std::ostringstream os;
  trace::write_chrome_trace(os, tr, {});
  JsonChecker checker(os.str());
  EXPECT_TRUE(checker.valid()) << os.str();
}

TEST(CountersCsv, OneRowPerCounterEvent) {
  trace::RingBufferSink sink(64);
  trace::Tracer tr;
  tr.enable(sink);
  const auto c = tr.register_component(trace::Category::tports, "elan0");
  tr.counter(trace::Category::tports, c, "unexpected_depth", sim::Time::us(1),
             2.0);
  tr.counter(trace::Category::tports, c, "unexpected_depth", sim::Time::us(2),
             3.0);
  tr.span(trace::Category::tports, c, "match", sim::Time::ps(0),
          sim::Time::ps(10));  // not a counter: skipped

  std::ostringstream os;
  trace::write_counters_csv(os, tr, sink.snapshot());
  const std::string csv = os.str();
  std::size_t rows = 0;
  for (char ch : csv) rows += ch == '\n' ? 1u : 0u;
  EXPECT_EQ(rows, 3u);  // header + 2 counter rows
  EXPECT_NE(csv.find("t_us,category,component,name,value"), std::string::npos);
  EXPECT_NE(csv.find("elan.tports,elan0,unexpected_depth"), std::string::npos);
}

TEST(MetricsRegistry, JsonHasAllSections) {
  trace::MetricsRegistry m;
  m.counter("sim.events") = 42;
  m.stat("latency_us").add(1.5);
  m.stat("latency_us").add(2.5);
  m.histogram("dist", 0.0, 10.0, 4).add(3.0);
  const std::string json = m.to_json();
  JsonChecker checker(json);
  EXPECT_TRUE(checker.valid()) << json;
  EXPECT_NE(json.find("\"sim.events\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"latency_us\""), std::string::npos);
  EXPECT_NE(json.find("\"mean\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
}

// ---------------------------------------------------- end-to-end Cluster

TEST(ClusterTrace, IbRunEmitsTraceAndMetricsFiles) {
  core::ClusterConfig cfg = core::ib_cluster(2, 1);
  cfg.trace_path = "test_trace_ib.json";
  core::Cluster cluster(cfg);
  cluster.run([](mpi::Mpi& mpi) {
    std::vector<char> buf(8192, 'x');
    if (mpi.rank() == 0) {
      mpi.send(buf.data(), buf.size(), 1, 7);
      mpi.recv(buf.data(), buf.size(), 1, 7);
    } else {
      mpi.recv(buf.data(), buf.size(), 0, 7);
      mpi.send(buf.data(), buf.size(), 0, 7);
    }
  });

  const std::string trace_json = slurp("test_trace_ib.json");
  ASSERT_FALSE(trace_json.empty());
  JsonChecker checker(trace_json);
  EXPECT_TRUE(checker.valid());
  // The per-layer spans the acceptance asks for: MPI post -> HCA pipeline
  // -> per-hop link -> delivery.
  EXPECT_NE(trace_json.find("send.rndv"), std::string::npos);  // 8 KB > eager
  EXPECT_NE(trace_json.find("rdma_write"), std::string::npos);
  EXPECT_NE(trace_json.find("\"pkt\""), std::string::npos);
  EXPECT_NE(trace_json.find("rank0"), std::string::npos);
  EXPECT_NE(trace_json.find("hca0"), std::string::npos);

  const std::string metrics = slurp("test_trace_ib.metrics.json");
  ASSERT_FALSE(metrics.empty());
  JsonChecker mchecker(metrics);
  EXPECT_TRUE(mchecker.valid()) << metrics;
  EXPECT_NE(metrics.find("net.link_utilization"), std::string::npos);
  EXPECT_NE(metrics.find("ib.regcache.hits"), std::string::npos);
  EXPECT_NE(metrics.find("ib.regcache.hit_rate"), std::string::npos);
  EXPECT_NE(metrics.find("mpi.max_unexpected_depth"), std::string::npos);
  EXPECT_NE(metrics.find("sim.events_processed"), std::string::npos);

  const std::string csv = slurp("test_trace_ib.counters.csv");
  EXPECT_NE(csv.find("t_us,category,component,name,value"), std::string::npos);

  std::remove("test_trace_ib.json");
  std::remove("test_trace_ib.metrics.json");
  std::remove("test_trace_ib.counters.csv");
}

TEST(ClusterTrace, ElanRunEmitsTportsSpansAndQueueStats) {
  core::ClusterConfig cfg = core::elan_cluster(2, 1);
  cfg.trace_path = "test_trace_elan.json";
  core::Cluster cluster(cfg);
  cluster.run([](mpi::Mpi& mpi) {
    std::vector<char> buf(4096, 'q');
    if (mpi.rank() == 0) {
      mpi.send(buf.data(), buf.size(), 1, 3);
    } else {
      mpi.compute(sim::Time::sec(5e-6));  // rank 1 posts late -> unexpected-queue traffic
      mpi.recv(buf.data(), buf.size(), 0, 3);
    }
  });

  const std::string trace_json = slurp("test_trace_elan.json");
  ASSERT_FALSE(trace_json.empty());
  JsonChecker checker(trace_json);
  EXPECT_TRUE(checker.valid());
  EXPECT_NE(trace_json.find("\"match\""), std::string::npos);
  EXPECT_NE(trace_json.find("\"rx\""), std::string::npos);
  EXPECT_NE(trace_json.find("\"tx\""), std::string::npos);
  EXPECT_NE(trace_json.find("elan0"), std::string::npos);

  const std::string metrics = slurp("test_trace_elan.metrics.json");
  ASSERT_FALSE(metrics.empty());
  EXPECT_NE(metrics.find("elan.unexpected_depth"), std::string::npos);
  EXPECT_NE(metrics.find("elan.max_unexpected_depth"), std::string::npos);
  EXPECT_NE(metrics.find("net.link_utilization"), std::string::npos);

  std::remove("test_trace_elan.json");
  std::remove("test_trace_elan.metrics.json");
  std::remove("test_trace_elan.counters.csv");
}

TEST(ClusterTrace, SecondTracingClusterGetsNumberedFiles) {
  core::ClusterConfig cfg = core::elan_cluster(2, 1);
  cfg.trace_path = "test_trace_multi.json";
  auto pingpong = [](mpi::Mpi& mpi) {
    char b[64] = {};
    if (mpi.rank() == 0) {
      mpi.send(b, sizeof b, 1, 1);
    } else {
      mpi.recv(b, sizeof b, 0, 1);
    }
  };
  std::string first, second;
  {
    core::Cluster c1(cfg);
    c1.run(pingpong);
  }
  {
    core::Cluster c2(cfg);
    c2.run(pingpong);
  }
  // The process-wide instance counter has advanced an unknown amount by the
  // earlier tests; just assert both runs produced distinct non-empty files.
  int found = 0;
  for (int n = 1; n < 20; ++n) {
    const std::string path =
        n == 1 ? "test_trace_multi.json"
               : "test_trace_multi." + std::to_string(n) + ".json";
    const std::string body = slurp(path);
    if (!body.empty()) {
      ++found;
      std::remove(path.c_str());
      std::remove((n == 1 ? std::string("test_trace_multi")
                          : "test_trace_multi." + std::to_string(n))
                      .append(".metrics.json")
                      .c_str());
      std::remove((n == 1 ? std::string("test_trace_multi")
                          : "test_trace_multi." + std::to_string(n))
                      .append(".counters.csv")
                      .c_str());
    }
  }
  EXPECT_EQ(found, 2);
}

}  // namespace
}  // namespace icsim
