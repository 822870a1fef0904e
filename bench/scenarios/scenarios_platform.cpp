// Table 1 scenario group: the evaluated platform — compute node, both
// interconnects and their MPI stacks — as configured in this
// reproduction's calibration (core/calibration.hpp; provenance of each
// constant is documented there and in ib/config.hpp, elan/config.hpp).
//
// Configuration data, not a measurement: each point is one model
// constant per network, so events and digest stay zero (constant, hence
// still deterministic), as in fig7_cost.

#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "scenarios.hpp"

namespace icsim::bench {

namespace {

/// One Table 1 parameter; a stack without the parameter leaves it unset.
struct PlatformRow {
  const char* name;
  std::optional<double> ib;
  std::optional<double> elan;
  int precision;
};

[[nodiscard]] std::vector<PlatformRow> platform_rows() {
  constexpr int kNodes = 32;  // the paper's largest Elan-4 partition
  const auto node = core::poweredge1750();
  const auto ibf = core::ib_fabric(kNodes);
  const auto elf = core::elan_fabric(kNodes);
  const auto hca = core::voltaire_hca400();
  const auto elan = core::elan4_qm500();
  const auto mv = core::mvapich_092();
  // Node rows: both clusters are built from the same node model.
  return {
      {"CPUs/node", node.cpus, node.cpus, 0},
      {"PCI-X MB/s", node.pcix_bandwidth.mb_per_second(),
       node.pcix_bandwidth.mb_per_second(), 0},
      {"PCI-X ns/burst", node.pcix_dma_overhead.to_ns(),
       node.pcix_dma_overhead.to_ns(), 0},
      {"copy GB/s", node.memory_copy_bandwidth.bytes_per_second() / 1e9,
       node.memory_copy_bandwidth.bytes_per_second() / 1e9, 1},
      {"SMP slowdown", node.smp_compute_slowdown, node.smp_compute_slowdown,
       2},
      {"link GB/s", ibf.link_bandwidth.bytes_per_second() / 1e9,
       elf.link_bandwidth.bytes_per_second() / 1e9, 2},
      {"hop ns", ibf.switch_latency.to_ns(), elf.switch_latency.to_ns(), 0},
      {"tree radix", ibf.radix_down, elf.radix_down, 0},
      {"tree levels", ibf.levels, elf.levels, 0},
      {"MTU B", ibf.mtu_bytes, std::nullopt, 0},
      {"WQE us", hca.send_wqe_cost.to_us(), std::nullopt, 2},
      {"reg us", hca.reg_base_cost.to_us(), std::nullopt, 0},
      {"reg us/page", hca.reg_per_page.to_us(), std::nullopt, 2},
      {"pin cache MB", static_cast<double>(hca.reg_cache_capacity) / 1e6,
       std::nullopt, 1},
      {"QP connect us", hca.qp_connect_cost.to_us(), std::nullopt, 0},
      {"eager max B", static_cast<double>(mv.eager_threshold), std::nullopt,
       0},
      {"ring slots", mv.ring_slots, std::nullopt, 0},
      {"vbuf B", mv.vbuf_bytes, std::nullopt, 0},
      {"NIC tx us", std::nullopt, elan.nic_tx_cost.to_us(), 2},
      {"NIC rx us", std::nullopt, elan.nic_rx_base.to_us(), 2},
      {"match ns/entry", std::nullopt, elan.match_per_entry.to_ns(), 0},
      {"inline B", std::nullopt, elan.inline_bytes, 0},
      {"get thresh B", std::nullopt, elan.get_threshold, 0},
  };
}

}  // namespace

void register_table1_platform(driver::Registry& reg) {
  auto& g = reg.group("table1_platform",
                      "Table 1: evaluated platform (simulated, 32 nodes)");
  g.finalize = [](std::vector<driver::PointResult>&) {
    return std::vector<std::string>{
        "Node: Dell PowerEdge 1750 class (both clusters)",
        "InfiniBand: Voltaire HCA 400 + ISR 9600 class fabric; MPI: "
        "MVAPICH 0.9.2 model — eager RDMA rings per peer, progress only "
        "inside MPI calls",
        "Elan-4: QM-500 + QS5A class fabric, no registration; MPI: Quadrics "
        "Tports model — NIC matching, independent progress, connectionless"};
  };
  for (const PlatformRow& row : platform_rows()) {
    reg.add("table1_platform", row.name, [row]() {
      driver::PointResult r;
      if (row.ib) r.add("InfiniBand", *row.ib, row.precision);
      if (row.elan) r.add("Elan-4", *row.elan, row.precision);
      return r;
    });
  }
}

}  // namespace icsim::bench
