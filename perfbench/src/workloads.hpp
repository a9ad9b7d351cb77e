#pragma once

// The benchmark's three workloads (README.md says why each exists).

#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

Outcome run_fig10_sweep(const Config& cfg);
Outcome run_long_phase(const Config& cfg);
Outcome run_session_host(const Config& cfg);

/// Every per-layer metric with its unit, in print order, all zero. A
/// traced run prints each of them on every workload; a layer the
/// workload does not exercise reads 0.
std::vector<Metric> per_layer_template();

/// Set a metric of the per-layer template by name (aborts on a name not
/// in the template, so a typo cannot drop a metric silently).
void set_metric(std::vector<Metric>* metrics, const std::string& name,
                double value);

}  // namespace perfbench
