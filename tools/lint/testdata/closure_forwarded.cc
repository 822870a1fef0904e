// Detection fixture for the closure-lifetime pass: closures that reach the
// engine indirectly still defer their by-reference captures — a named
// lambda moved into a sim::EventFn local (the inline closure carrier), and
// a lambda handed to a node resource that forwards it to the engine.
// Never compiled — it exists for the `lint_detects_closure_via_event_fn`
// and `lint_detects_closure_via_dma` ctest cases.
#include <utility>

#include "node/node.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace fixture {

void arm_carried(icsim::sim::Engine& engine) {
  int credits = 4;
  auto cont = [&credits] { credits -= 1; };
  icsim::sim::EventFn carried = std::move(cont);
  engine.post_in(icsim::sim::Time::us(1), std::move(carried));
}

void arm_dma(icsim::node::Node& host) {
  int landed = 0;
  (void)host.dma(4096, [&landed] { landed += 1; });
}

}  // namespace fixture
