/**
 * @file
 * The benchmark's four workloads: which Systems each runs, under which
 * configuration, and how its LLC starts. Every configuration takes the
 * workload seed as SystemConfig::seedSalt (and FaultConfig::seed).
 */

#ifndef COP_PERFBENCH_WORKLOADS_HPP
#define COP_PERFBENCH_WORKLOADS_HPP

#include <string>
#include <vector>

#include "sim/system.hpp"

namespace cop::perfbench {

/**
 * Shards of the fast_timing workload. A constant, so its results (and
 * their pinned digests) do not depend on the host; two, so that on a
 * 4-CPU host two CPUs stay free. With four shards on four shared
 * virtual CPUs, every quantum barrier waited for whichever CPU the
 * hypervisor had taken away, and the epochs/s of ten runs ranged 3.5x.
 */
inline constexpr unsigned kFastShards = 2;

/**
 * Quantum of the fast_timing workload, in epochs per core. Every quantum
 * ends in two barrier crossings, and a crossing waits for a sleeping
 * shard thread to be woken on another virtual CPU, which takes as long
 * as the shared host makes it take. At the default 64 epochs a pass
 * crosses ~940 barriers; on a 4-vCPU KVM guest two sets of eight runs
 * spread by 0.43 and 0.18 of their median (quartile distance), against
 * 0.07 at 512 epochs, where the IPC divergence is 0.339 instead of
 * 0.330.
 */
inline constexpr u64 kFastQuantumEpochs = 512;

/** One System of a workload. */
struct SystemSpec
{
    std::string label; ///< "<benchmark>/<scheme>".
    WorkloadProfile profile;
    SystemConfig cfg;
};

/** How a workload's Systems are run. */
enum class WorkloadKind
{
    Grid,   ///< serial-oracle cells on the experiment runner
    Serial, ///< serial Systems, one after another
    Fast,   ///< fast-timing Systems, one after another
};

struct Workload
{
    std::string name;
    WorkloadKind kind = WorkloadKind::Serial;
    /**
     * Built once and never resized: Systems and replay factories keep
     * references to the profiles.
     */
    std::vector<SystemSpec> systems;

    u64 totalEpochs() const;
};

/** Names accepted by makeWorkload, in benchmark order. */
const std::vector<std::string> &workloadNames();

/**
 * Build workload @p name for @p seed (profile lookup included). A
 * replaying workload captures its traces under @p work_dir here, so
 * the capture counts as set-up.
 */
Workload makeWorkload(const std::string &name, u64 seed,
                      const std::string &work_dir);

/** The serial oracle of a fast-timing configuration. */
SystemConfig serialOracle(const SystemConfig &fast);

} // namespace cop::perfbench

#endif // COP_PERFBENCH_WORKLOADS_HPP
