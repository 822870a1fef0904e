#include "par/collective.hpp"

#include <stdexcept>
#include <utility>

namespace icsim::par {

namespace {
[[nodiscard]] int floor_log2(int n) {
  int r = 0;
  while ((1 << (r + 1)) <= n) ++r;
  return r;
}
[[nodiscard]] int ceil_log2(int n) {
  int r = floor_log2(n);
  return (1 << r) == n ? r : r + 1;
}
}  // namespace

CollectiveWorld::CollectiveWorld(ParEngine& engine, net::Fabric& fabric,
                                 const ParNetParams& params)
    : par_(engine), fabric_(fabric), prm_(params) {
  ranks_ = fabric.num_nodes();
  for (int i = 0; i < ranks_; ++i) {
    if (i % kRankBlock == 0) blocks_.emplace_back().reserve(kRankBlock);
    const int part = fabric.partitioning().of_node(i);
    blocks_.back().emplace_back(i, part, par_.shard(part));
  }
}

void CollectiveWorld::start(const CollectiveSpec& spec) {
  spec_ = spec;
  if (spec_.iterations < 1) spec_.iterations = 1;
  const int n = ranks();
  pow2_ranks_ = n < 1 ? 1 : (1 << floor_log2(n));
  rounds_ = spec_.op == Collective::barrier ? ceil_log2(n < 1 ? 1 : n)
                                            : floor_log2(n < 1 ? 1 : n);
  for (std::vector<Rank>& block : blocks_) {
    for (Rank& r : block) {
      Rank* rank = &r;
      par_.shard(rank->part).post_at(sim::Time::zero(),
                                     [this, rank] { begin_iteration(*rank); });
    }
  }
}

void CollectiveWorld::send(Rank& from, int to, int iter, int phase, int round,
                           std::uint32_t bytes) {
  ++from.sent;
  const std::uint32_t payload = bytes > 0 ? bytes : prm_.ctrl_bytes;
  const std::uint32_t nchunks =
      (payload + prm_.chunk_bytes - 1) / prm_.chunk_bytes;
  const std::uint64_t key = key_of(iter, phase, round);
  const int src = from.id;
  // The send occupies the rank's CPU/NIC for send_overhead, then the
  // chunk(s) enter the fabric back to back (the link FIFO serializes them).
  from.cpu.acquire(
      prm_.send_overhead,
      [this, src, to, key, payload, nchunks, phase]() {
        std::uint32_t left = payload;
        for (std::uint32_t c = 0; c < nchunks; ++c) {
          const std::uint32_t sz =
              left > prm_.chunk_bytes ? prm_.chunk_bytes : left;
          left -= sz;
          // Lost chunks are only counted: this tier has no retry, so a
          // plan that partitions the fabric ends in a detected deadlock.
          (void)fabric_.inject(
              src, to, sz,
              [this, to, key, nchunks, phase](net::DeliveryStatus st) {
                if (st != net::DeliveryStatus::delivered) return;
                on_chunk(to, key, nchunks, phase);
              });
        }
      });
}

void CollectiveWorld::on_chunk(int dst, std::uint64_t key,
                               std::uint32_t nchunks, int phase) {
  // Runs in dst's partition (net::Fabric delivers there).
  Rank& r = rank(dst);
  std::uint32_t& got = r.chunks_got[key];
  ++got;
  if (got < nchunks) return;
  r.chunks_got.erase(key);
  // Message complete: the receiver spends recv_overhead taking it off the
  // wire, plus the combining cost when this message carries a vector to
  // reduce (allreduce fold-in and doubling rounds; the fold-out result in
  // phase 2 is just copied).
  sim::Time cost = prm_.recv_overhead;
  if (spec_.op == Collective::allreduce && phase != 2) cost += prm_.reduce_cost;
  r.cpu.acquire(cost, [this, dst, key] {
    on_message(rank(dst), key);
  });
}

void CollectiveWorld::on_message(Rank& r, std::uint64_t key) {
  ++r.arrived[key];
  advance(r);
}

bool CollectiveWorld::take(Rank& r, int phase, int round) {
  const auto it = r.arrived.find(key_of(r.iter, phase, round));
  if (it == r.arrived.end() || it->second < 1) return false;
  if (--it->second == 0) r.arrived.erase(it);
  return true;
}

void CollectiveWorld::begin_iteration(Rank& r) {
  r.phase = 0;
  r.round = 0;
  const int n = ranks();
  if (spec_.op == Collective::barrier) {
    if (rounds_ > 0) {
      send(r, (r.id + 1) % n, r.iter, 0, 0, 0);  // round 0 distance is 2^0
    }
  } else if (r.id >= pow2_ranks_) {
    // Remainder rank: fold the value in, then wait for the fold-out result.
    send(r, r.id - pow2_ranks_, r.iter, 0, 0, spec_.bytes);
    r.phase = 2;
  }
  advance(r);
}

void CollectiveWorld::finish_iteration(Rank& r) {
  ++r.iter;
  if (r.iter >= spec_.iterations) {
    r.done = true;
    r.finished = par_.shard(r.part).now();
    return;
  }
  // Next iteration via a fresh event rather than recursion: with n == 1 (or
  // a degenerate op) an iteration completes synchronously and direct
  // recursion would be iterations deep.
  Rank* rank = &r;
  par_.shard(r.part).post_in(sim::Time::zero(),
                             [this, rank] { begin_iteration(*rank); });
}

void CollectiveWorld::advance(Rank& r) {
  const int n = ranks();
  if (spec_.op == Collective::barrier) {
    // Dissemination: consume round messages in order; entering round k
    // sends the distance-2^k message.
    while (r.round < rounds_ && take(r, 0, r.round)) {
      ++r.round;
      if (r.round < rounds_) {
        send(r, (r.id + (1 << r.round)) % n, r.iter, 0, r.round, 0);
      }
    }
    if (r.round >= rounds_) finish_iteration(r);
    return;
  }
  // Allreduce.
  const int rem = n - pow2_ranks_;
  for (;;) {
    if (r.phase == 0) {
      // Block rank: absorb the remainder rank's fold-in (if one maps here),
      // then enter the doubling rounds.
      if (r.id < rem && !take(r, 0, 0)) return;
      r.phase = 1;
      r.round = 0;
      if (rounds_ > 0) {
        send(r, r.id ^ 1, r.iter, 1, 0, spec_.bytes);  // round 0 partner
      }
      continue;
    }
    if (r.phase == 1) {
      while (r.round < rounds_ && take(r, 1, r.round)) {
        ++r.round;
        if (r.round < rounds_) {
          send(r, r.id ^ (1 << r.round), r.iter, 1, r.round, spec_.bytes);
        }
      }
      if (r.round < rounds_) return;  // waiting on the current partner
      r.phase = 2;
      continue;
    }
    // Phase 2: fold the result out to the remainder ranks.
    if (r.id < pow2_ranks_) {
      if (r.id < rem) send(r, r.id + pow2_ranks_, r.iter, 2, 0, spec_.bytes);
    } else if (!take(r, 2, 0)) {
      return;
    }
    finish_iteration(r);
    return;
  }
}

bool CollectiveWorld::all_done() const { return ranks_done() == ranks(); }

int CollectiveWorld::ranks_done() const {
  int n = 0;
  for (const std::vector<Rank>& block : blocks_) {
    for (const Rank& r : block) n += r.done ? 1 : 0;
  }
  return n;
}

sim::Time CollectiveWorld::completion_time() const {
  sim::Time t = sim::Time::zero();
  for (const std::vector<Rank>& block : blocks_) {
    for (const Rank& r : block) {
      if (r.finished > t) t = r.finished;
    }
  }
  return t;
}

std::uint64_t CollectiveWorld::messages_sent() const {
  std::uint64_t v = 0;
  for (const std::vector<Rank>& block : blocks_) {
    for (const Rank& r : block) v += r.sent;
  }
  return v;
}

}  // namespace icsim::par
