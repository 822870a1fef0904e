#pragma once
// Fault plans: a declarative, seed-reproducible description of what goes
// wrong with the fabric and when.
//
// A FaultPlan names links (endpoint links by node, switch-to-switch links
// by their two SwitchCoords — always undirected: a failed cable kills both
// directions), gives them scheduled down/up windows and bit-error rates,
// and adds node stall windows.  Plans are pure data: nothing happens until
// a fault::FaultInjector installs one into a fabric (see injector.hpp).
//
// Plans come from two places: built programmatically by benches/tests, or
// parsed from the ICSIM_FAULTS environment variable so any existing binary
// can run on a degraded fabric without a rebuild.  Spec grammar (clauses
// separated by ';', fields inside a clause by whitespace):
//
//   ber=REAL                    global per-link bit-error rate
//   seed=INT                    corruption-draw seed (default: cluster seed)
//   watchdog=TIME               arm the transport watchdogs with this budget
//   link LINK [down@T1[:T2]] [ber=REAL]
//                               down at T1 (up again at T2 if given), and/or
//                               a per-link BER override
//   stall NODE@T1+DUR           node NODE serves no DMA/memory traffic in
//                               [T1, T1+DUR)
//   LINK := nNODE               both endpoint links of node NODE
//         | sL.W-L.W            switch (level L, word W) <-> (level L, word W)
//   TIME := REAL('ns'|'us'|'ms'|'s')
//
// Example:
//   ICSIM_FAULTS="ber=1e-7; link s1.0-2.0 down@50us:150us; link n3 ber=1e-5;
//                 stall 2@20us+5us; watchdog=10ms"

#include <cstdint>
#include <string>
#include <vector>

#include "net/fabric.hpp"
#include "sim/time.hpp"

namespace icsim::fault {

/// Links and down windows are the fabric's own vocabulary: the fabric
/// evaluates a plan's windows at simulated time (net/fabric.hpp).
using LinkRef = net::LinkRef;
using LinkDownWindow = net::LinkDownWindow;

struct LinkBerOverride {
  LinkRef link;
  double ber = 0.0;
};

/// The node's DMA engines and memory bus serve nothing during the window
/// (OS pause, thermal throttle, failing-and-rebooting service processor).
struct NodeStallWindow {
  int node = -1;
  sim::Time start = sim::Time::zero();
  sim::Time duration = sim::Time::zero();
};

struct FaultPlan {
  /// Global per-link bit-error rate: each wire packet of b bits is
  /// independently corrupted with probability 1 - (1-ber)^b.
  double ber = 0.0;
  std::vector<LinkBerOverride> link_ber;
  std::vector<LinkDownWindow> link_windows;
  std::vector<NodeStallWindow> stalls;
  /// Seed for the corruption draws; 0 means "derive from the cluster seed".
  std::uint64_t seed = 0;
  /// When nonzero, core::Cluster arms both transports' watchdog timeouts
  /// with this budget so a lost-and-never-retried message surfaces as a
  /// counted error instead of a stuck fiber.
  sim::Time watchdog = sim::Time::zero();

  /// True when installing this plan would change nothing.
  [[nodiscard]] bool empty() const {
    return ber == 0.0 && link_ber.empty() && link_windows.empty() &&
           stalls.empty() && watchdog == sim::Time::zero();
  }

  /// Parse the ICSIM_FAULTS grammar above; throws std::invalid_argument
  /// with a position hint on malformed input.
  [[nodiscard]] static FaultPlan parse(const std::string& spec);
};

}  // namespace icsim::fault
