/**
 * @file
 * The vNPU hypervisor (paper §5.2): virtual-NPU lifecycle, core
 * allocation through the topology mapper, HBM allocation through the
 * buddy system, and meta-table construction/deployment.
 */

#ifndef VNPU_HYP_HYPERVISOR_H
#define VNPU_HYP_HYPERVISOR_H

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/controller.h"
#include "hyp/topology_mapper.h"
#include "mem/buddy_allocator.h"
#include "sim/config.h"
#include "sim/stats.h"
#include "virt/virtual_npu.h"
#include "virt/vrouter.h"

namespace vnpu::hyp {

/** What the user asks for when creating a VM's virtual NPU. */
struct VnpuSpec {
    /** Core count in [1, kMaxCores]; ignored when `topo` is given. */
    int num_cores = 0;
    /** Requested virtual topology; default: snake mesh of num_cores. */
    std::optional<graph::Graph> topo;
    /** Global (HBM) memory to map for this VM. */
    std::uint64_t memory_bytes = 0;
    MappingStrategy strategy = MappingStrategy::kSimilarTopology;
    /** Confine NoC routes to the region (non-interference guarantee). */
    bool noc_isolation = true;
    /** Memory-bandwidth cap (bytes/cycle); 0 = proportional share by
     *  reachable memory interfaces (paper §6.3.4). */
    double bw_cap = 0.0;
    /** Candidate budget forwarded to the topology mapper. */
    std::uint64_t max_candidates = 400;
    /** Step budget for the exact-isomorphism search (kExact only). */
    std::uint64_t exact_search_budget = graph::kDefaultIsoSearchBudget;
    /** Edit-cost customization for heterogeneous topologies. */
    graph::GedOptions ged;
};

/** Hypervisor bookkeeping statistics. */
struct HypervisorStats {
    Counter vnpus_created;
    Counter vnpus_destroyed;
    Counter allocation_failures;
    Counter setup_cycles;       ///< Accumulated meta-table config cost.
    Counter mapper_search_steps;    ///< Exact-search placements attempted.
    Counter mapper_budget_exhausted; ///< Exact searches that gave up.
    FunnelCounters funnel; ///< Summed over every create()'s mapping.
};

/**
 * The mapper request a spec asks for: `topo` (default: snake mesh of
 * `num_cores`), strategy, budgets and edit costs; NoC isolation
 * requires a connected region. An exact request also carries its
 * recognised `grid_width`, so the mapper need not re-recognise the
 * grid on every probe.
 * @throws SimFatal when `num_cores` contradicts the size of `topo`, or
 *         is outside [1, kMaxCores] with no `topo`.
 */
MappingRequest request_for(const VnpuSpec& spec);

/** Manages all virtual NPUs of one physical chip. */
class Hypervisor {
  public:
    Hypervisor(const SocConfig& cfg, const noc::MeshTopology& topo,
               core::NpuController& ctrl);
    ~Hypervisor();

    /**
     * Create a virtual NPU per `spec`: `admit` of the mapper's answer
     * for `request_for(spec)` on the live free set.
     * @throws SimFatal when allocation fails (caller may retry with a
     *         different strategy or size).
     */
    virt::VirtualNpu& create(const VnpuSpec& spec);

    /**
     * Provision the region `m` that the mapper returned for `req` on
     * the live free set (`try_map`, or a plan replayed against exactly
     * that set): the vNPU's topology is `req.vtopo`, NoC isolation
     * follows `req.require_connected`, and `m`'s search effort and
     * funnel counters join the stats. `bw_cap` 0 is the proportional
     * share, as in VnpuSpec.
     * @throws SimFatal when `m` failed or is not `req.vtopo` many
     *         distinct free cores (nothing is allocated), or when
     *         provisioning fails.
     */
    virt::VirtualNpu& admit(const MappingRequest& req, const MappingResult& m,
                            std::uint64_t memory_bytes = 0,
                            double bw_cap = 0.0);

    /** Tear down a VM: release cores, memory, and meta tables. */
    void destroy(VmId vm);

    virt::VirtualNpu* find(VmId vm);
    const virt::VirtualNpu* find(VmId vm) const;

    const CoreSet& free_cores() const { return free_; }
    int num_free_cores() const { return free_.count(); }
    /** Fraction of physical cores currently allocated. */
    double core_utilization() const;

    /** Setup cost (cycles) of the most recent create(). */
    Cycles last_setup_cost() const { return last_setup_cost_; }

    const HypervisorStats& stats() const { return stats_; }

    /** Telemetry sweep: lifecycle, mapper and funnel counters. */
    void collect_stats(StatSet& out, const std::string& prefix) const;
    /** Sweep under the installed stats prefix (default "hyp."). */
    void collect_stats(StatSet& out) const
    {
        collect_stats(out, stats_prefix_);
    }

    /**
     * Prefix for this hypervisor's metrics-timeline columns. A fleet of
     * devices installs distinct prefixes ("fleet.dev3.hyp.") so N
     * hypervisors can ride one MetricsSampler without gauge collisions.
     */
    void set_stats_prefix(std::string prefix)
    {
        stats_prefix_ = std::move(prefix);
    }
    const std::string& stats_prefix() const { return stats_prefix_; }

    virt::InstVRouter& inst_vrouter() { return ivr_; }
    const TopologyMapper& mapper() const { return mapper_; }

    /** Dry-run the mapper against the live free set (fleet placement,
     *  examples, benches); nothing is allocated. */
    MappingResult try_map(const MappingRequest& req) const
    {
        return mapper_.map(req, free_);
    }

  private:
    /** Detect a compact mesh2d routing-table encoding, if possible. */
    std::optional<virt::RoutingTable>
    try_compact_rt(VmId vm, const std::vector<CoreId>& assignment) const;

    /**
     * Region-local confined routes for `region`, built per vNPU (the
     * table is k x k in the region's k cores; nothing is shared).
     * @throws SimFatal when `region` is disconnected.
     */
    noc::RouteOverride confined_routes_for(const CoreSet& region) const;

    mem::RangeTable build_range_table(VmId vm, std::uint64_t bytes);

    /** admit() without its profiler scope, so create() and admit()
     *  share one `hyp.create` row: validate `m`, then provision it. */
    virt::VirtualNpu& commit(const MappingRequest& req,
                             const MappingResult& m,
                             std::uint64_t memory_bytes, double bw_cap);

    /** Steps 3-8 of commit(): provision the mapped region. Split out so
     *  commit() can trace setup failures uniformly. */
    virt::VirtualNpu& provision(const MappingRequest& req,
                                const MappingResult& m, VmId vm,
                                std::uint64_t memory_bytes, double bw_cap);

    const SocConfig& cfg_;
    const noc::MeshTopology& topo_;
    core::NpuController& ctrl_;
    TopologyMapper mapper_;
    virt::InstVRouter ivr_;
    mem::BuddyAllocator hbm_;
    CoreSet free_;
    VmId next_vm_ = 1;
    Cycles last_setup_cost_ = 0;
    std::string stats_prefix_ = "hyp.";
    HypervisorStats stats_;
    std::map<VmId, std::unique_ptr<virt::VirtualNpu>> vnpus_;
    std::map<VmId, std::vector<Addr>> blocks_; ///< buddy blocks per VM
};

} // namespace vnpu::hyp

#endif // VNPU_HYP_HYPERVISOR_H
