#pragma once
// Span recorder of the traced perfbench runner (spans.cpp).
//
// The traced binary is linked with -Wl,--wrap=<symbol> for each layer entry
// point listed in CMakeLists.txt; every call that crosses a translation-unit
// boundary then passes through a wrapper here that records a span: layer
// name, start, end, parent span, point id and phase.  Calls made inside the
// defining file, and inline functions, bypass the wrappers; their time stays
// in the caller's self time (see METRICS.md, "Uncovered paths").
//
// Only the main thread records.  Calls from the parallel tier's worker
// threads pass straight through.

#include <string>

namespace perf {

/// Start the set-up (`setup` = true) or the simulation phase of point
/// `point`.  Starting a set-up phase forgets per-fiber state left by the
/// previous point's clusters.
void trace_phase(int point, bool setup);

/// Per-layer totals since the last call, as a JSON object
/// {"setup": {...}, "run": {...}, "spans_dropped": n}; each layer maps to
/// [calls, inclusive seconds, self seconds].  Resets the totals.
[[nodiscard]] std::string trace_take_point();

/// Write the spans kept in memory as CSV.  Returns false on an I/O error.
bool trace_write_spans(const std::string& path);

}  // namespace perf
