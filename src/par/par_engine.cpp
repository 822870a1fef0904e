#include "par/par_engine.hpp"

#include <algorithm>
#include <barrier>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "sim/check.hpp"
#include "sim/concurrency.hpp"

namespace icsim::par {

ParEngine::ParEngine(const ParConfig& config) : lookahead_(config.lookahead) {
  if (config.partitions < 1) {
    throw std::invalid_argument("ParEngine: need at least one partition");
  }
  if (config.lookahead <= sim::Time::zero()) {
    throw std::invalid_argument("ParEngine: lookahead must be positive");
  }
  shards_.reserve(static_cast<std::size_t>(config.partitions));
  for (int p = 0; p < config.partitions; ++p) {
    shards_.push_back(std::make_unique<Shard>());
  }
  // Host policy: yield threads to the sweep pool, and never run more
  // workers than there are shards to drive.
  threads_ = sim::clamp_intra_run_threads(config.threads);
  if (threads_ > config.partitions) threads_ = config.partitions;
}

void ParEngine::post_cross(int from, int to, sim::Time t, sim::EventFn&& fn) {
  // The conservative contract: nothing may cross a partition boundary with
  // less than the declared lookahead of simulated delay.  A violation here
  // is a modeling bug (the hand-off would have to be delivered into a
  // window that may already be running elsewhere).
  ICSIM_CHECK(t >= window_end_,
              "cross-partition post inside the current window (lookahead "
              "violation)");
  Shard& src = *shards_[static_cast<std::size_t>(from)];
  src.outbox.emplace_back(t, to, src.out_seq++, std::move(fn));
}

void ParEngine::run_window(int p) {
  shards_[static_cast<std::size_t>(p)]->engine.run_until(window_end_ -
                                                         sim::Time::ps(1));
}

void ParEngine::coordinate() {
  // Deliver every buffered cross-post in canonical order.  (t, src, seq) is
  // a total order — per-source sequence numbers are unique — so the
  // sequence numbers the destination engines hand out are independent of
  // worker scheduling, which is what keeps the merged digest thread-count
  // invariant.
  refs_.clear();
  for (int p = 0; p < partitions(); ++p) {
    for (CrossMsg& m : shards_[static_cast<std::size_t>(p)]->outbox) {
      refs_.push_back(CrossRef{m.t, p, m.seq, &m});
    }
  }
  std::sort(refs_.begin(), refs_.end(),
            [](const CrossRef& a, const CrossRef& b) {
              if (a.t != b.t) return a.t < b.t;
              if (a.src != b.src) return a.src < b.src;
              return a.seq < b.seq;
            });
  for (CrossRef& r : refs_) {
    shard(r.msg->to).post_at(r.t, std::move(r.msg->fn));
  }
  cross_posts_ += refs_.size();
  for (auto& sh : shards_) sh->outbox.clear();

  // Open the next window at the earliest live event anywhere; quiesce when
  // every shard has drained.  next_event_time() drops (and counts) any
  // cancelled keys at the heads, so the window start is the time of
  // the next event that will actually execute.
  std::optional<sim::Time> start;
  for (auto& sh : shards_) {
    const std::optional<sim::Time> t = sh->engine.next_event_time();
    if (t.has_value() && (!start.has_value() || *t < *start)) start = t;
  }
  if (!start.has_value()) {
    done_ = true;
    return;
  }
  window_end_ = *start + lookahead_;
  ++windows_;
}

void ParEngine::run() {
  coordinate();  // open the first window from the initially scheduled events
  if (done_) return;

  if (threads_ <= 1) {
    // Same protocol, inline: identical window schedule, identical event
    // order, identical digest — single-threaded execution is just the
    // T == 1 point of the same algorithm.
    while (!done_) {
      for (int p = 0; p < partitions(); ++p) run_window(p);
      coordinate();
    }
    return;
  }

  // T workers drive a static round-robin slice of the shards each window;
  // the barrier's completion step is the single-threaded coordinator.  The
  // barrier provides the happens-before edges: outboxes written inside a
  // window are read by the coordinator only after every worker arrives, and
  // window_end_/done_ written by the coordinator are read by workers only
  // after it completes.
  std::barrier bar(threads_, [this]() noexcept { coordinate(); });
  auto worker = [this, &bar](int k) {
    for (;;) {
      for (int p = k; p < partitions(); p += threads_) run_window(p);
      bar.arrive_and_wait();
      if (done_) return;
    }
  };
  std::vector<std::thread> extra;
  extra.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int k = 1; k < threads_; ++k) extra.emplace_back(worker, k);
  worker(0);
  for (std::thread& t : extra) t.join();
}

std::uint64_t ParEngine::event_digest() const {
  // Canonical partition merge: fold per-shard (digest, processed) in
  // partition index order.  Any reordering, extra, or missing event in any
  // shard changes the result.
  sim::check::Fnv1a f;
  for (const auto& sh : shards_) {
    f.fold(sh->engine.event_digest());
    f.fold(sh->engine.events_processed());
  }
  return f.value();
}

std::uint64_t ParEngine::events_processed() const {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) total += sh->engine.events_processed();
  return total;
}

}  // namespace icsim::par
