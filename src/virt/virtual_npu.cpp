#include "virt/virtual_npu.h"

#include "sim/log.h"

namespace vnpu::virt {

VirtualNpu::VirtualNpu(VmId vm, std::vector<CoreId> cores,
                       graph::Graph vtopo, RoutingTable rt)
    : vm_(vm), cores_(std::move(cores)), vtopo_(std::move(vtopo)),
      rt_(std::move(rt))
{
    if (cores_.empty())
        fatal("virtual NPU needs at least one core");
    if (vtopo_.num_nodes() != static_cast<int>(cores_.size()))
        fatal("virtual topology size (", vtopo_.num_nodes(),
              ") != core count (", cores_.size(), ")");
    // The routing table must agree with the core list.
    for (int v = 0; v < num_cores(); ++v) {
        if (rt_.lookup(v) != cores_[v])
            fatal("routing table disagrees with core list at vcore ", v);
    }
    mask_ = CoreSet::from_range(cores_);
}

CoreId
VirtualNpu::phys_of(CoreId vcore) const
{
    if (vcore < 0 || vcore >= num_cores())
        fatal("virtual core ", vcore, " out of range for vm ", vm_);
    return cores_[vcore];
}

void
VirtualNpu::set_range_table(mem::RangeTable rtt)
{
    if (!rtt.finalized())
        fatal("range table must be finalized before attachment");
    rtt_ = std::move(rtt);
}

std::uint64_t
VirtualNpu::memory_bytes() const
{
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < rtt_.size(); ++i)
        total += rtt_.entry(i).size;
    return total;
}

} // namespace vnpu::virt
