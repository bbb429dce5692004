// Entry point of the benchmark's workloads (paper_trace, sharded_reuse,
// tcp_flood); see workloads.cpp and ../README.md.
#pragma once

#include "bench.hpp"

namespace perfbench {

/// Runs one workload as `opt` asks and prints its report. Returns the
/// process exit code (2 for an unknown workload).
int run(const Options& opt);

}  // namespace perfbench
