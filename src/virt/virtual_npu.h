/**
 * @file
 * The virtual NPU abstraction: virtual cores + virtual topology +
 * virtual memory, assembled by the hypervisor (paper §5.2).
 */

#ifndef VNPU_VIRT_VIRTUAL_NPU_H
#define VNPU_VIRT_VIRTUAL_NPU_H

#include <optional>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "mem/range_table.h"
#include "noc/network.h"
#include "sim/types.h"
#include "virt/routing_table.h"
#include "virt/vchunk.h"
#include "virt/vrouter.h"

namespace vnpu::virt {

/** A fully provisioned virtual NPU. */
class VirtualNpu {
  public:
    VirtualNpu(VmId vm, std::vector<CoreId> cores, graph::Graph vtopo,
               RoutingTable rt);

    VmId vm() const { return vm_; }

    /** Number of virtual cores. */
    int num_cores() const { return static_cast<int>(cores_.size()); }

    /** Physical core hosting virtual core `vcore`. */
    CoreId phys_of(CoreId vcore) const;

    /** All physical cores in virtual-id order. */
    const std::vector<CoreId>& cores() const { return cores_; }

    /** Set of occupied physical cores. */
    const CoreSet& mask() const { return mask_; }

    /** The virtual topology the tenant sees. */
    const graph::Graph& vtopo() const { return vtopo_; }

    const RoutingTable& routing_table() const { return rt_; }

    // ---- NoC isolation -------------------------------------------------
    /** Install confined routing directions (hypervisor). The vNPU owns
     *  its region-local table. */
    void set_confined_routes(noc::RouteOverride r)
    {
        confined_ = std::move(r);
    }
    /** Confined routes or nullptr (default DOR); stable for the vNPU's
     *  lifetime, so the vRouter and launcher may hold it. */
    const noc::RouteOverride* confined_routes() const
    {
        return confined_ ? &*confined_ : nullptr;
    }
    bool isolated() const { return confined_.has_value(); }

    // ---- Memory ----------------------------------------------------------
    /** Attach the VM-level RTT image (must be finalized). */
    void set_range_table(mem::RangeTable rtt);
    const mem::RangeTable& range_table() const { return rtt_; }
    bool has_memory() const { return rtt_.size() > 0; }

    /** Total mapped global-memory bytes. */
    std::uint64_t memory_bytes() const;

    // ---- Bandwidth / interfaces ------------------------------------------
    void set_bandwidth_cap(double bytes_per_cycle) { bw_cap_ = bytes_per_cycle; }
    double bandwidth_cap() const { return bw_cap_; }
    void set_interfaces(int n) { interfaces_ = n; }
    /** Memory interfaces reachable from this vNPU's region. */
    int interfaces() const { return interfaces_; }

    // ---- TDM (MIG baseline) ----------------------------------------------
    /**
     * Number of virtual cores multiplexed onto one physical core
     * (1 = pure spatial sharing; >1 only under the MIG baseline when a
     * partition is smaller than the request).
     */
    void set_tdm_factor(int f) { tdm_factor_ = f; }
    int tdm_factor() const { return tdm_factor_; }

    // ---- Mapping quality (reporting) ---------------------------------------
    void set_mapping_ted(double ted) { mapping_ted_ = ted; }
    /** Topology edit distance of the realized mapping vs the request. */
    double mapping_ted() const { return mapping_ted_; }

    // ---- Telemetry ---------------------------------------------------------
    /** Sweep this vNPU's provisioning gauges into `out`. */
    void
    collect_stats(StatSet& out, const std::string& prefix) const
    {
        out.set(prefix + "cores", num_cores());
        out.set(prefix + "mapping_ted", mapping_ted_);
        out.set(prefix + "interfaces", interfaces_);
        out.set(prefix + "bw_cap", bw_cap_);
        out.set(prefix + "tdm_factor", tdm_factor_);
        out.set(prefix + "isolated", isolated() ? 1.0 : 0.0);
        out.set(prefix + "memory_bytes",
                static_cast<double>(memory_bytes()));
        out.set(prefix + "rtt_entries", static_cast<double>(rtt_.size()));
    }

  private:
    VmId vm_;
    std::vector<CoreId> cores_;
    CoreSet mask_; ///< cores_ as a set.
    graph::Graph vtopo_;
    RoutingTable rt_;
    std::optional<noc::RouteOverride> confined_;
    mem::RangeTable rtt_;
    double bw_cap_ = 0.0;
    int interfaces_ = 0;
    int tdm_factor_ = 1;
    double mapping_ted_ = 0.0;
};

} // namespace vnpu::virt

#endif // VNPU_VIRT_VIRTUAL_NPU_H
