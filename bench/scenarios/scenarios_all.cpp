#include "scenarios.hpp"

namespace icsim::bench {

void register_all(driver::Registry& r) {
  register_table1_platform(r);
  register_fig1_latency(r);
  register_fig1_bandwidth(r);
  register_fig1_beff(r);
  register_fig2_ljs(r);
  register_fig3_membrane(r);
  register_fig4_sweep3d(r);
  register_fig5_sweep3d_inputs(r);
  register_fig6_npb_cg(r);
  register_fig7_cost(r);
  register_fig8_extrapolation(r);
  register_fig8_simulated(r);
  register_ablation_progress(r);
  register_ablation_eager(r);
  register_ablation_regcache(r);
  register_ablation_offload(r);
  register_ext_threeway(r);
  register_ext_npb_suite(r);
  register_ext_scale(r);
  register_ext_loggp(r);
  register_ext_collectives(r);
  register_ext_faults(r);
  register_replay(r);
  register_traffic(r);
}

}  // namespace icsim::bench
