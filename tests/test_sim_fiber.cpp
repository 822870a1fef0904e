// Fiber semantics: resume/yield control transfer, blocking helpers, and
// interaction with the event engine.

#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/blocking.hpp"
#include "sim/engine.hpp"
#include "sim/fiber.hpp"

namespace icsim::sim {
namespace {

TEST(Fiber, RunsToCompletionOnResume) {
  bool ran = false;
  Fiber f([&] { ran = true; });
  EXPECT_FALSE(f.finished());
  f.resume();
  EXPECT_TRUE(ran);
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, YieldSuspendsAndResumeContinues) {
  std::vector<int> order;
  Fiber f([&] {
    order.push_back(1);
    Fiber::yield();
    order.push_back(3);
  });
  f.resume();
  order.push_back(2);
  EXPECT_FALSE(f.finished());
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Fiber, CurrentTracksExecutingFiber) {
  EXPECT_EQ(Fiber::current(), nullptr);
  Fiber* seen = nullptr;
  Fiber f([&] { seen = Fiber::current(); });
  f.resume();
  EXPECT_EQ(seen, &f);
  EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, NestedResume) {
  std::vector<int> order;
  Fiber inner([&] {
    order.push_back(2);
    Fiber::yield();
    order.push_back(4);
  });
  Fiber outer([&] {
    order.push_back(1);
    inner.resume();  // runs inner until its yield, then returns here
    order.push_back(3);
    inner.resume();
    order.push_back(5);
  });
  outer.resume();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_TRUE(outer.finished());
  EXPECT_TRUE(inner.finished());
}

TEST(Fiber, ManyFibersInterleave) {
  constexpr int kFibers = 64;
  std::vector<std::unique_ptr<Fiber>> fibers;
  int alive = 0;
  for (int i = 0; i < kFibers; ++i) {
    fibers.push_back(std::make_unique<Fiber>([&alive] {
      ++alive;
      Fiber::yield();
      --alive;
    }));
  }
  for (auto& f : fibers) f->resume();
  EXPECT_EQ(alive, kFibers);
  for (auto& f : fibers) f->resume();
  EXPECT_EQ(alive, 0);
}

TEST(Fiber, DeepStackUsageWorks) {
  // Recursion that needs a good chunk of the 256 KB default stack.
  bool done = false;
  Fiber f([&] {
    struct R {
      static int go(int depth) {
        char pad[1024];
        pad[0] = static_cast<char>(depth);
        if (depth == 0) return pad[0];
        return go(depth - 1) + (pad[0] != 0 ? 1 : 0);
      }
    };
    (void)R::go(150);
    done = true;
  });
  f.resume();
  EXPECT_TRUE(done);
}

TEST(Fiber, ExceptionAfterYieldPropagatesOutOfResume) {
  Fiber f([] {
    Fiber::yield();
    throw std::runtime_error("after yield");
  });
  f.resume();
  EXPECT_FALSE(f.finished());
  EXPECT_THROW(f.resume(), std::runtime_error);
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(Fiber::current(), nullptr);
}

// 1/3 rounded under the active SSE rounding mode; volatile keeps the
// division at run time.
double third() {
  volatile double one = 1.0;
  volatile double three = 3.0;
  return one / three;
}

TEST(Fiber, RoundingModeStaysWithTheFiber) {
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  const double nearest = third();
  int mode_before_yield = -1;
  int mode_after_yield = -1;
  double up_after_yield = 0.0;
  Fiber f([&] {
    std::fesetround(FE_UPWARD);
    mode_before_yield = std::fegetround();
    Fiber::yield();
    mode_after_yield = std::fegetround();
    up_after_yield = third();
    std::fesetround(FE_TONEAREST);
  });
  f.resume();
  const int resumer_mode = std::fegetround();
  const double resumer_third = third();
  f.resume();
  std::fesetround(FE_TONEAREST);  // in case the mode leaked after all
  EXPECT_EQ(mode_before_yield, FE_UPWARD);
  EXPECT_EQ(resumer_mode, FE_TONEAREST);
  EXPECT_EQ(resumer_third, nearest);
  EXPECT_EQ(mode_after_yield, FE_UPWARD);
  EXPECT_GT(up_after_yield, nearest);
}

// A misaligned first frame breaks alignas(16) locals and the movaps that
// printf-family code uses for floating-point arguments.
[[gnu::noinline]] bool aligned_local_and_snprintf(std::string& printed) {
  alignas(16) volatile char probe[16] = {};
  char buf[32];
  std::snprintf(buf, sizeof buf, "%f", 2.5);
  printed = buf;
  return reinterpret_cast<std::uintptr_t>(&probe[0]) % 16 == 0;
}

TEST(Fiber, FirstFrameIsSixteenByteAligned) {
  bool aligned = false;
  std::string printed;
  Fiber f([&] { aligned = aligned_local_and_snprintf(printed); });
  f.resume();
  EXPECT_TRUE(aligned);
  EXPECT_EQ(printed, "2.500000");
}

TEST(Fiber, SuspendedUnfinishedFiberCanBeDestroyed) {
  int steps = 0;
  auto f = std::make_unique<Fiber>([&steps] {
    for (;;) {
      ++steps;
      Fiber::yield();
    }
  });
  f->resume();
  f->resume();
  EXPECT_FALSE(f->finished());
  f.reset();
  EXPECT_EQ(steps, 2);
  // A fiber created afterwards (possibly on the same addresses) still runs.
  bool ran = false;
  Fiber g([&ran] {
    Fiber::yield();
    ran = true;
  });
  g.resume();
  g.resume();
  EXPECT_TRUE(ran);
}

TEST(Fiber, NestedResumeWithExceptionInInnerFiber) {
  std::vector<int> order;
  std::string caught;
  Fiber inner([&] {
    order.push_back(2);
    Fiber::yield();
    throw std::runtime_error("inner");
  });
  Fiber outer([&] {
    order.push_back(1);
    inner.resume();
    order.push_back(3);
    try {
      inner.resume();
    } catch (const std::runtime_error& e) {
      caught = e.what();
    }
    EXPECT_EQ(Fiber::current(), &outer);
    order.push_back(4);
    Fiber::yield();
    throw std::logic_error("outer");
  });
  outer.resume();
  EXPECT_EQ(caught, "inner");
  EXPECT_TRUE(inner.finished());
  EXPECT_FALSE(outer.finished());
  EXPECT_THROW(outer.resume(), std::logic_error);
  EXPECT_TRUE(outer.finished());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Blocking, SleepForAdvancesSimTime) {
  Engine e;
  Time woke = Time::zero();
  Fiber f([&] {
    sleep_for(e, Time::us(7));
    woke = e.now();
  });
  f.resume();
  e.run();
  EXPECT_EQ(woke, Time::us(7));
  EXPECT_TRUE(f.finished());
}

TEST(Blocking, SleepUntilPastInstantReturnsImmediately) {
  Engine e;
  e.schedule_at(Time::us(5), [] {});
  e.run();
  bool done = false;
  Fiber f([&] {
    sleep_until(e, Time::us(3));  // already past
    done = true;
  });
  f.resume();
  e.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(e.now(), Time::us(5));
}

TEST(Blocking, SleepersWakeInTimeOrder) {
  Engine e;
  std::vector<int> order;
  Fiber a([&] {
    sleep_for(e, Time::us(2));
    order.push_back(2);
  });
  Fiber b([&] {
    sleep_for(e, Time::us(1));
    order.push_back(1);
  });
  a.resume();
  b.resume();
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Trigger, WaitBlocksUntilFire) {
  Engine e;
  Trigger t(e);
  std::vector<int> order;
  Fiber f([&] {
    order.push_back(1);
    t.wait();
    order.push_back(3);
  });
  f.resume();
  order.push_back(2);
  e.schedule_at(Time::us(4), [&] { t.fire(); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(t.fired());
}

TEST(Trigger, WaitAfterFireReturnsImmediately) {
  Engine e;
  Trigger t(e);
  t.fire();
  bool done = false;
  Fiber f([&] {
    t.wait();
    done = true;
  });
  f.resume();
  EXPECT_TRUE(done);
}

TEST(Trigger, MultipleWaitersAllWake) {
  Engine e;
  Trigger t(e);
  int woke = 0;
  std::vector<std::unique_ptr<Fiber>> fs;
  for (int i = 0; i < 5; ++i) {
    fs.push_back(std::make_unique<Fiber>([&] {
      t.wait();
      ++woke;
    }));
    fs.back()->resume();
  }
  t.fire();
  e.run();
  EXPECT_EQ(woke, 5);
}

}  // namespace
}  // namespace icsim::sim
