// Unit tests for the discrete-event engine: ordering, determinism,
// cancellation, and the run/run_until contracts.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "sim/engine.hpp"
#include "trace/sink.hpp"

namespace icsim::sim {
namespace {

TEST(Time, UnitConversionsRoundTrip) {
  EXPECT_EQ(Time::us(1).picoseconds(), 1'000'000);
  EXPECT_EQ(Time::ns(2.5).picoseconds(), 2'500);
  EXPECT_DOUBLE_EQ(Time::sec(1.5).to_seconds(), 1.5);
  EXPECT_DOUBLE_EQ(Time::ms(3).to_us(), 3000.0);
  EXPECT_EQ(Time::zero().picoseconds(), 0);
}

TEST(Time, ArithmeticAndComparison) {
  const Time a = Time::us(2);
  const Time b = Time::us(3);
  EXPECT_EQ((a + b).to_us(), 5.0);
  EXPECT_EQ((b - a).to_us(), 1.0);
  EXPECT_LT(a, b);
  EXPECT_EQ(a * 3, Time::us(6));
}

TEST(Bandwidth, TransferTime) {
  const auto bw = Bandwidth::gb_per_sec(1.0);
  EXPECT_EQ(bw.transfer_time(1000).picoseconds(), Time::us(1).picoseconds());
  EXPECT_EQ(Bandwidth::mb_per_sec(1.0).transfer_time(1).picoseconds(),
            Time::us(1).picoseconds());
  // 10 Gbit/s of data = 1.25 GB/s.
  EXPECT_NEAR(Bandwidth::gbit_per_sec(10).bytes_per_second(), 1.25e9, 1.0);
}

TEST(Engine, FiresEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(Time::us(3), [&] { order.push_back(3); });
  e.schedule_at(Time::us(1), [&] { order.push_back(1); });
  e.schedule_at(Time::us(2), [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), Time::us(3));
}

TEST(Engine, EqualTimesFireInSchedulingOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    e.schedule_at(Time::us(5), [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, EventsMayScheduleMoreEvents) {
  Engine e;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 10) e.schedule_in(Time::us(1), chain);
  };
  e.schedule_in(Time::us(1), chain);
  e.run();
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(e.now(), Time::us(10));
}

TEST(Engine, SchedulingInThePastClampsToNowAndCounts) {
  // Clamp-and-count is the lenient mode: under ICSIM_CHECK a past schedule
  // hard-fails instead (see test_check.cpp), so disarm the auditor here.
  const bool was = check::enabled();
  check::set_enabled(false);
  Engine e;
  e.schedule_at(Time::us(2), [] {});
  e.run();
  EXPECT_EQ(e.past_schedules_clamped(), 0u);
  bool fired = false;
  Time fired_at = Time::zero();
  e.schedule_at(Time::us(1), [&] {
    fired = true;
    fired_at = e.now();
  });
  e.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(fired_at, Time::us(2));  // clamped to now(), not back in time
  EXPECT_EQ(e.past_schedules_clamped(), 1u);
  EXPECT_EQ(e.tracer().metrics().counter("sim.schedule_past_clamped"), 1u);

  e.post_at(Time::us(1), [] {});  // fast path clamps and counts too
  e.run();
  EXPECT_EQ(e.past_schedules_clamped(), 2u);
  check::set_enabled(was);
}

TEST(Engine, PostedEventsInterleaveWithScheduledInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(Time::us(3), [&] { order.push_back(3); });
  e.post_at(Time::us(1), [&] { order.push_back(1); });
  e.post_in(Time::us(2), [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.events_processed(), 3u);
}

TEST(Engine, CancelledEventDoesNotFire) {
  Engine e;
  bool fired = false;
  EventHandle h = e.schedule_at(Time::us(1), [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  e.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine e;
  int fired = 0;
  e.schedule_at(Time::us(1), [&] { ++fired; });
  e.schedule_at(Time::us(10), [&] { ++fired; });
  e.run_until(Time::us(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.now(), Time::us(5));
  e.run();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, RunUntilIncludesEventsAtDeadline) {
  Engine e;
  bool fired = false;
  e.schedule_at(Time::us(5), [&] { fired = true; });
  e.run_until(Time::us(5));
  EXPECT_TRUE(fired);
}

TEST(Engine, CountsProcessedEvents) {
  Engine e;
  for (int i = 0; i < 7; ++i) e.schedule_at(Time::us(i + 1), [] {});
  e.run();
  EXPECT_EQ(e.events_processed(), 7u);
  EXPECT_EQ(e.events_pending(), 0u);
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = [] {
    Engine e;
    // Unsigned, so the multiply wraps instead of overflowing.
    std::uint64_t checksum = 0;
    for (int i = 0; i < 100; ++i) {
      e.schedule_at(Time::us((i * 37) % 50), [&checksum, &e, i] {
        checksum = checksum * 31 + static_cast<std::uint64_t>(i) +
                   static_cast<std::uint64_t>(e.now().picoseconds() % 1000);
      });
    }
    e.run();
    return checksum;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, RunUntilSkipsCancelledHeadWithoutOverrunningDeadline) {
  // Regression: a cancelled tombstone at the queue head used to pass the
  // deadline guard (its timestamp was <= deadline), after which step()
  // discarded it and executed the next *live* event — even when that event
  // lay past the deadline.
  Engine e;
  bool late_fired = false;
  EventHandle h = e.schedule_at(Time::us(1), [] {});
  e.schedule_at(Time::us(10), [&] { late_fired = true; });
  h.cancel();
  e.run_until(Time::us(5));
  EXPECT_FALSE(late_fired);
  EXPECT_EQ(e.now(), Time::us(5));
  e.run();
  EXPECT_TRUE(late_fired);
}

TEST(Engine, RunUntilDrainsConsecutiveTombstones) {
  Engine e;
  int fired = 0;
  std::vector<EventHandle> dead;
  for (int i = 1; i <= 3; ++i) {
    dead.push_back(e.schedule_at(Time::us(i), [] {}));
  }
  e.schedule_at(Time::us(4), [&] { ++fired; });
  e.schedule_at(Time::us(9), [&] { ++fired; });
  for (auto& h : dead) h.cancel();
  e.run_until(Time::us(5));
  EXPECT_EQ(fired, 1);  // only the live event inside the window
  EXPECT_EQ(e.now(), Time::us(5));
}

TEST(Engine, PendingFlipsFalseWhenTheEventFires) {
  // Regression: the tombstone used to stay true forever after the event
  // executed, so pending() lied and a late cancel() "cancelled" an event
  // that had already run.
  Engine e;
  EventHandle h;
  bool pending_inside = true;
  h = e.schedule_at(Time::us(1), [&] { pending_inside = h.pending(); });
  EXPECT_TRUE(h.pending());
  e.run();
  EXPECT_FALSE(pending_inside);  // already not-pending while the closure runs
  EXPECT_FALSE(h.pending());
  // A late cancel is a no-op: nothing left to drop, nothing counted.
  h.cancel();
  e.schedule_at(Time::us(2), [] {});
  e.run();
  EXPECT_EQ(e.events_cancelled_dropped(), 0u);
}

TEST(Engine, CancelledDropsAreCountedOnBothDrainPaths) {
  Engine e;
  // Path 1: step() reaches the tombstone when its time arrives.
  EventHandle a = e.schedule_at(Time::us(1), [] {});
  a.cancel();
  e.schedule_at(Time::us(2), [] {});
  e.run();
  EXPECT_EQ(e.events_cancelled_dropped(), 1u);
  // Path 2: run_until()'s deadline guard drains tombstoned heads.
  EventHandle b = e.schedule_at(Time::us(3), [] {});
  EventHandle c = e.schedule_at(Time::us(4), [] {});
  b.cancel();
  c.cancel();
  e.run_until(Time::us(10));
  EXPECT_EQ(e.events_cancelled_dropped(), 3u);
  // The metrics registry mirrors the authoritative member.
  EXPECT_EQ(e.tracer().metrics().counter("sim.cancelled_dropped"), 3u);
  // Accounting reconciles: scheduled == processed + dropped + pending.
  EXPECT_EQ(e.events_processed() + e.events_cancelled_dropped(), 4u);
  EXPECT_EQ(e.events_pending(), 0u);
}

TEST(Engine, NextEventTimeSkipsAndCountsTombstones) {
  Engine e;
  EventHandle dead = e.schedule_at(Time::us(1), [] {});
  e.schedule_at(Time::us(5), [] {});
  dead.cancel();
  const std::optional<Time> next = e.next_event_time();
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(*next, Time::us(5));
  EXPECT_EQ(e.events_cancelled_dropped(), 1u);
  e.run();
  EXPECT_FALSE(e.next_event_time().has_value());
}

TEST(Engine, StaleHandleDoesNotReachTheSlotsNextEvent) {
  // Generation ABA: a freed slot is reused last-in first-out, so the event
  // scheduled right after a fire or a drop takes the finished event's slot.
  // The old handle's generation no longer matches: it must neither report
  // the new event pending nor cancel it.
  Engine e;
  int fired = 0;
  EventHandle done = e.schedule_at(Time::us(1), [&] { ++fired; });
  e.run();
  EventHandle next = e.schedule_at(Time::us(2), [&] { fired += 10; });
  EXPECT_FALSE(done.pending());
  EXPECT_TRUE(next.pending());
  done.cancel();
  EXPECT_TRUE(next.pending());
  e.run();
  EXPECT_EQ(fired, 11);

  EventHandle dropped = e.schedule_at(Time::us(3), [&] { fired += 100; });
  dropped.cancel();
  e.run();  // drops the cancelled key and frees its slot
  EventHandle reused = e.schedule_at(Time::us(4), [&] { fired += 1000; });
  dropped.cancel();
  EXPECT_FALSE(dropped.pending());
  EXPECT_TRUE(reused.pending());
  e.run();
  EXPECT_EQ(fired, 1011);
  EXPECT_EQ(e.events_cancelled_dropped(), 1u);
}

TEST(Engine, PendingClosuresAreDestroyedOnceWithTheEngine) {
  auto token = std::make_shared<int>(0);
  {
    Engine e;
    e.post_at(Time::us(1), [token] {});
    e.post_at(Time::us(5), [token] {});
    EventHandle h = e.schedule_at(Time::us(6), [token] {});
    e.schedule_at(Time::us(7), [token] {});
    EXPECT_EQ(token.use_count(), 5);
    e.run_until(Time::us(2));  // the first closure fires and is destroyed
    EXPECT_EQ(token.use_count(), 4);
    h.cancel();  // cancelled but still queued: the engine still owns it
    EXPECT_EQ(token.use_count(), 4);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Engine, ClosureMayPostMoreThanAChunkWhileItRuns) {
  // A running closure lives in its slot; the events it posts grow the slab
  // by several chunks, and its own captures must stay valid throughout
  // (ASan/UBSan CI runs this case).
  Engine e;
  std::vector<int> order;
  auto payload = std::make_shared<std::vector<int>>(std::vector<int>{7, 8, 9});
  int seen = 0;
  e.post_at(Time::us(1), [&, payload, tag = 42] {
    for (int i = 0; i < 5000; ++i) {
      e.post_in(Time::ns(i % 7), [&order, i] { order.push_back(i); });
    }
    seen = tag + payload->at(2);
  });
  e.run();
  EXPECT_EQ(seen, 51);
  ASSERT_EQ(order.size(), 5000u);
  // Ties keep posting order: all i with the same i % 7, ascending.
  std::vector<int> expect;
  for (int r = 0; r < 7; ++r) {
    for (int i = r; i < 5000; i += 7) expect.push_back(i);
  }
  EXPECT_EQ(order, expect);
  EXPECT_EQ(payload.use_count(), 1);
}

TEST(Engine, MoveOnlyCapturesAreAccepted) {
  Engine e;
  int out = 0;
  auto a = std::make_unique<int>(1);
  e.post_at(Time::us(1), [p = std::move(a), &out] { out += *p; });
  auto b = std::make_unique<int>(20);
  EventHandle h = e.schedule_in(Time::us(2), [p = std::move(b), &out] { out += *p; });
  // An EventFn (the cross-partition carrier) moves into a slot as well.
  EventFn carried = [p = std::make_unique<int>(300), &out] { out += *p; };
  e.post_at(Time::us(3), std::move(carried));
  EXPECT_TRUE(h.pending());
  e.run();
  EXPECT_EQ(out, 321);
}

TEST(Engine, MixedTiesCancelsAndSchedulesKeepThePinnedDigest) {
  // Equal timestamps, cancellable and fire-and-forget events, cancels from
  // inside a running event, and slot reuse.  The order and digest were
  // recorded with the std::priority_queue engine this one replaced; (t, seq)
  // is a total order, so the heap layout cannot move them.
  Engine e;
  std::vector<int> order;
  std::vector<EventHandle> hs;
  auto log = [&order](int id) { return [&order, id] { order.push_back(id); }; };
  // Phase 1: 24 events on three shared timestamps, every fourth cancellable.
  for (int i = 0; i < 24; ++i) {
    const Time t = Time::us(1 + i % 3);
    if (i % 4 == 0) {
      hs.push_back(e.schedule_at(t, log(i)));
    } else {
      e.post_at(t, log(i));
    }
  }
  hs[1].cancel();  // event 4
  hs[4].cancel();  // event 16
  // An event that posts at its own timestamp and cancels a tied sibling.
  e.post_at(Time::us(2), [&] {
    order.push_back(100);
    e.post_in(Time::zero(), log(101));
    hs[5].cancel();  // event 20, due at 3 us
    hs.push_back(e.schedule_in(Time::zero(), log(102)));
  });
  e.run_until(Time::us(2));
  // Phase 2: freed slots are taken again; a stale handle must not reach them.
  hs[0].cancel();  // fired already: a no-op
  for (int i = 0; i < 6; ++i) {
    hs.push_back(e.schedule_at(Time::us(3), log(200 + i)));
    e.post_at(Time::us(4), log(300 + i));
  }
  hs[hs.size() - 2].cancel();  // event 204
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0,   3,   6,   9,   12,  15,  18,  21,  1,
                                           7,   10,  13,  19,  22,  100, 101, 102, 2,
                                           5,   8,   11,  14,  17,  23,  200, 201, 202,
                                           203, 205, 300, 301, 302, 303, 304, 305}));
  EXPECT_EQ(e.event_digest(), 0xda4d904b35103bebull);
  EXPECT_EQ(e.events_cancelled_dropped(), 4u);
}

TEST(Engine, QueueDepthSamplingRegistersOneEngineComponent) {
  // Regression: sample_queue_depth() used a component id of 0 as "not
  // registered yet", but register_component legitimately hands out ids
  // starting at 1 — the sentinel scheme re-registered "engine" every 1024
  // events once anything else had claimed an id.  The bound state is now an
  // explicit std::optional.
  Engine e;
  trace::RingBufferSink sink(1 << 12);
  e.tracer().enable(sink);
  for (int i = 0; i < 3000; ++i) {
    e.post_at(Time::ns(i), [] {});  // crosses the 1024-event sample mark 2x
  }
  e.run();
  int engine_components = 0;
  for (const auto& c : e.tracer().components()) {
    if (c.name == "engine") ++engine_components;
  }
  EXPECT_EQ(engine_components, 1);
  e.tracer().disable();
}

TEST(Engine, PastClampCountSurvivesLazyMetricBinding) {
  // Regression: the clamp counter lived only in the metrics registry behind
  // a zero-value sentinel id, so counts before the lazy bind (or a
  // legitimately-zero binding) were conflated with "not bound yet".
  const bool was = check::enabled();
  check::set_enabled(false);
  Engine e;
  e.post_at(Time::us(5), [] {});
  e.run();
  EXPECT_EQ(e.past_schedules_clamped(), 0u);
  e.post_at(Time::us(1), [] {});  // 4 us in the past: clamped to now
  e.post_at(Time::us(2), [] {});
  e.run();
  EXPECT_EQ(e.past_schedules_clamped(), 2u);
  EXPECT_EQ(e.tracer().metrics().counter("sim.schedule_past_clamped"), 2u);
  check::set_enabled(was);
}

}  // namespace
}  // namespace icsim::sim
