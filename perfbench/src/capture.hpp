/**
 * @file
 * Trace capture for the replaying workload. capture.cpp is the only
 * benchmark file that includes the simulator's trace writer.
 */

#ifndef COP_PERFBENCH_CAPTURE_HPP
#define COP_PERFBENCH_CAPTURE_HPP

#include <string>
#include <vector>

#include "workloads/profile.hpp"

namespace cop::perfbench {

/**
 * Write @p epochs epochs of each of @p cores synthetic cores of
 * @p profile, under @p seed_salt, to "<prefix>.c<core>.trace"; returns
 * the paths in core order. Replaying them with the profile that
 * captured them is byte-identical to the synthetic run.
 */
std::vector<std::string> captureCoreTraces(const WorkloadProfile &profile,
                                           unsigned cores, u64 epochs,
                                           u64 seed_salt,
                                           const std::string &prefix);

} // namespace cop::perfbench

#endif // COP_PERFBENCH_CAPTURE_HPP
