// Kernel-timer reference arm (run on demand, never gated): the rpc schedule
// served by one thread whose every timer is a kernel timer - one timerfd per
// connection's RTO and one for the next packet arrival, multiplexed by
// epoll. It restates the paper's soft-timer vs interrupt-driven-timer
// comparison (Figs 2/3, Table 3) against a modern kernel on this host.

#ifndef PERFBENCH_KERNEL_ARM_H_
#define PERFBENCH_KERNEL_ARM_H_

#include "perfbench/stack.h"

namespace perfbench {

// Prints human-readable lines and one JSON line; returns the exit code.
int RunKernelArm(const Params& p);

}  // namespace perfbench

#endif  // PERFBENCH_KERNEL_ARM_H_
