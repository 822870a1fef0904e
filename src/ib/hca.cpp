#include "ib/hca.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/check.hpp"
#include "trace/trace.hpp"

namespace icsim::ib {

namespace {
std::uint64_t qp_key(int local_ep, int remote_ep) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(local_ep)) << 32) |
         static_cast<std::uint32_t>(remote_ep);
}
}  // namespace

Hca::Hca(sim::Engine& engine, node::Node& host, net::Fabric* fabric,
         const HcaConfig& config)
    : engine_(engine),
      host_(host),
      fabric_(fabric),
      cfg_(config),
      processor_(engine, "hca-proc"),
      reg_cache_(config.reg_cache_capacity, config.page_bytes,
                 config.reg_base_cost, config.reg_per_page,
                 config.dereg_base_cost, config.dereg_per_page) {}

void Hca::attach(int endpoint, Handler handler) {
  handlers_[endpoint] = std::move(handler);
}

void Hca::attach_error(int endpoint, Handler handler) {
  error_handlers_[endpoint] = std::move(handler);
}

sim::Time Hca::connect(int local_ep, const Hca* remote_hca, int remote_ep) {
  (void)remote_hca;
  qp_up_[qp_key(local_ep, remote_ep)] = true;
  return cfg_.qp_connect_cost;
}

void Hca::rdma_write(int src_ep, Hca& dst, int dst_ep, std::uint64_t bytes,
                     std::shared_ptr<void> cargo,
                     std::function<void()> on_local_complete) {
  if (!qp_up_.count(qp_key(src_ep, dst_ep))) {
    throw std::logic_error("Hca::rdma_write: queue pair not connected");
  }
  ++writes_;
  auto msg = std::make_shared<InFlight>();
  msg->delivery = Delivery{src_ep, dst_ep, bytes, std::move(cargo)};
  msg->src = this;
  msg->dst = &dst;
  msg->t_post = engine_.now();
  msg->remaining_chunks =
      bytes == 0 ? 1 : (bytes + cfg_.chunk_bytes - 1) / cfg_.chunk_bytes;

  // WQE fetch/execute on the HCA processor, then the DMA pipeline.
  processor_.acquire(cfg_.send_wqe_cost,
                     [this, msg, bytes,
                      cb = std::move(on_local_complete)]() mutable {
                       start_dma_chain(msg, bytes, std::move(cb));
                     });
}

void Hca::start_dma_chain(const std::shared_ptr<InFlight>& msg,
                          std::uint64_t bytes,
                          std::function<void()> on_local_complete) {
  const std::uint64_t nchunks = msg->remaining_chunks;
  std::uint64_t remaining = bytes;
  for (std::uint64_t i = 0; i < nchunks; ++i) {
    const auto chunk = static_cast<std::uint32_t>(
        remaining > cfg_.chunk_bytes ? cfg_.chunk_bytes
                                     : (nchunks == 1 && bytes == 0 ? 0 : remaining));
    remaining -= chunk;
    const bool last = (i + 1 == nchunks);

    // DMA the chunk out of host memory, then hand it to the wire.
    host_.dma(chunk, [this, msg, chunk, last,
                      cb = last ? std::move(on_local_complete)
                                : std::function<void()>{}]() mutable {
      send_chunk_to_wire(msg, chunk, /*attempt=*/0);
      if (last && cb) {
        // Send buffer is reusable once the last byte left host memory;
        // completion surfaces after CQE processing on the HCA.  (A lossy
        // fabric may still be retransmitting from the HCA's retry state at
        // this point; we do not model the extra buffer hold.)
        ICSIM_TRACE_WITH(engine_, tr) {
          tr.span(trace::Category::hca, trace_component(), "dma_out",
                  msg->t_post, engine_.now());
        }
        processor_.acquire(cfg_.send_cqe_cost, std::move(cb));
      }
    });
  }
}

void Hca::send_chunk_to_wire(const std::shared_ptr<InFlight>& msg,
                             std::uint32_t chunk_bytes, int attempt) {
  Hca& dst = *msg->dst;
  if (&dst == this) {
    // Loopback: HCA turns the data around; it re-crosses PCI-X on the
    // way back into host memory.  Never touches the fabric, never fails.
    engine_.post_in(cfg_.loopback_latency, [this, msg, chunk_bytes] {
      chunk_arrived_at_dst(msg, chunk_bytes);
    });
    return;
  }
  fabric_->inject(host_.id(), dst.host_.id(), chunk_bytes,
                  [this, msg, chunk_bytes, attempt](net::DeliveryStatus st) {
                    if (st == net::DeliveryStatus::delivered) {
                      msg->dst->chunk_arrived_at_dst(msg, chunk_bytes);
                    } else {
                      retry_chunk(msg, chunk_bytes, attempt);
                    }
                  });
}

void Hca::retry_chunk(const std::shared_ptr<InFlight>& msg,
                      std::uint32_t chunk_bytes, int attempt) {
  // The requester never hears an ACK for the dropped packets; its transport
  // timer expires and it retransmits the chunk, backing off exponentially.
  if (attempt >= cfg_.rc_retry_limit) {
    ++rc_exhausted_;
    ICSIM_TRACE_WITH(engine_, tr) {
      tr.instant(trace::Category::hca, trace_component(), "rc_retry_exhausted",
                 engine_.now());
    }
    auto it = error_handlers_.find(msg->delivery.src_ep);
    if (it != error_handlers_.end()) it->second(msg->delivery);
    return;
  }
  ++rc_retries_;
  retransmitted_bytes_ += chunk_bytes;
  const sim::Time wait = cfg_.rc_timeout * std::pow(cfg_.rc_backoff, attempt);
  ICSIM_TRACE_WITH(engine_, tr) {
    tr.instant(trace::Category::hca, trace_component(), "rc_retry",
               engine_.now(), static_cast<double>(attempt + 1));
  }
  engine_.post_in(wait, [this, msg, chunk_bytes, attempt] {
    // Retransmission re-reads the chunk from host memory over PCI-X.
    host_.dma(chunk_bytes, [this, msg, chunk_bytes, attempt] {
      send_chunk_to_wire(msg, chunk_bytes, attempt + 1);
    });
  });
}

void Hca::chunk_arrived_at_dst(const std::shared_ptr<InFlight>& msg,
                               std::uint32_t chunk_bytes) {
  // This runs on the destination HCA: DMA the chunk into host memory.
  Hca& dst = *msg->dst;
  dst.host_.dma(chunk_bytes, [msg, hca = &dst] {
    Hca& self = *hca;
    assert(msg->remaining_chunks > 0);
    ICSIM_CHECK(msg->remaining_chunks > 0,
                "HCA write completed with more chunks than were posted");
    if (--msg->remaining_chunks == 0) {
      // Doorbell -> last byte visible in remote host memory, on the source
      // HCA's track: the full one-sided write pipeline.
      ICSIM_TRACE_WITH(self.engine_, tr) {
        tr.span(trace::Category::hca, msg->src->trace_component(),
                "rdma_write", msg->t_post,
                self.engine_.now());
      }
      auto it = self.handlers_.find(msg->delivery.dst_ep);
      if (it == self.handlers_.end()) {
        throw std::logic_error("Hca: delivery to unattached endpoint");
      }
      it->second(msg->delivery);
    }
  });
}

std::uint32_t Hca::trace_component() {
  if (trace_id_ == 0) {
    trace_id_ = engine_.tracer().register_component(
        trace::Category::hca, "hca" + std::to_string(host_.id()));
  }
  return trace_id_;
}

}  // namespace icsim::ib
