#pragma once
// Scenario registration for every table, figure, ablation and extension
// study of the reproduction.  Each register_* call adds one output group
// (two for the fault and traffic studies) of self-contained sweep points
// to the registry; icsim_sweep calls register_all() and runs the groups
// named on its command line.  Registration order is fixed here — it
// defines the aggregated output order (see driver/scenario.hpp).
//
// Registration functions read ICSIM_FAST at registration time to pick
// reduced problem sizes where a group is slow at full size.

#include "driver/scenario.hpp"

namespace icsim::bench {

void register_table1_platform(driver::Registry& r);
void register_fig1_latency(driver::Registry& r);
void register_fig1_bandwidth(driver::Registry& r);
void register_fig1_beff(driver::Registry& r);
void register_fig2_ljs(driver::Registry& r);
void register_fig3_membrane(driver::Registry& r);
void register_fig4_sweep3d(driver::Registry& r);
void register_fig5_sweep3d_inputs(driver::Registry& r);
void register_fig6_npb_cg(driver::Registry& r);
void register_fig7_cost(driver::Registry& r);
void register_fig8_extrapolation(driver::Registry& r);
void register_fig8_simulated(driver::Registry& r);  // parallel engine (src/par/)
void register_ablation_progress(driver::Registry& r);
void register_ablation_eager(driver::Registry& r);
void register_ablation_regcache(driver::Registry& r);
void register_ablation_offload(driver::Registry& r);
void register_ext_threeway(driver::Registry& r);
void register_ext_npb_suite(driver::Registry& r);
void register_ext_scale(driver::Registry& r);
void register_ext_loggp(driver::Registry& r);
void register_ext_collectives(driver::Registry& r);
void register_ext_faults(driver::Registry& r);  // ext_faults_ber + _spine
void register_replay(driver::Registry& r);      // examples/traces/* x fabrics
void register_traffic(driver::Registry& r);     // traffic + traffic_degraded

/// Everything above, in paper order: Table 1, the figures, the
/// ablations, then the extensions.
void register_all(driver::Registry& r);

}  // namespace icsim::bench
