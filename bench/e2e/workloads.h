// The four eebench workloads. Each runs in its own process, sets the
// platform up several times (setup_s is the median), then measures for
// about `seconds`, then verifies its own outputs untimed.
//
//   ingest      closed loop: 3 ingest workers + 1 publisher over a fixed
//               product count, then a leader-crash drill and recovery
//   serve_hot   open loop over a store whose index and query results fit
//               the pool and the result cache
//   serve_cold  open loop over a store larger than the pool, with query
//               boxes that never repeat
//   mixed       serve_hot's query stream beside a 20 products/s ingest
//               thread, publishing every second of schedule

#ifndef EEBENCH_WORKLOADS_H_
#define EEBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace eebench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10.0;
  /// Tiny sizes for the ctest smoke run; every verification still runs.
  bool smoke = false;
  bool traced = false;
  /// Every data directory is a mkdtemp under this root.
  std::string tmp_root;
};

const std::vector<std::string>& WorkloadNames();

/// Fixed parameters of a workload, printed in the run header.
std::string WorkloadConfigJson(const RunConfig& config);

/// Runs one workload to completion.
Report RunWorkload(const RunConfig& config);

}  // namespace eebench

#endif  // EEBENCH_WORKLOADS_H_
