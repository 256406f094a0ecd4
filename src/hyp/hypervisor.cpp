#include "hyp/hypervisor.h"

#include <algorithm>
#include <array>

#include "check/checks.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "sim/log.h"

namespace vnpu::hyp {

namespace {

/** Virtual address where a VM's mapped memory begins. */
constexpr Addr kVaBase = 0x10000;
/** Largest single buddy block mapped into one RTT entry. */
constexpr std::uint64_t kMaxBlock = 16ull << 20;
/** Smallest buddy block. */
constexpr std::uint64_t kMinBlock = 64ull << 10;

std::uint64_t
round_up(std::uint64_t v, std::uint64_t align)
{
    return (v + align - 1) / align * align;
}

#if VNPU_SANITIZE_ENABLED
/** Sweep the live-VM partition invariant after every create/destroy. */
void
audit_partition(
    const CoreSet& free_cores,
    const std::map<VmId, std::unique_ptr<virt::VirtualNpu>>& vms,
    int num_nodes)
{
    std::vector<CoreSet> regions;
    regions.reserve(vms.size());
    for (const auto& [id, v] : vms)
        regions.push_back(v->mask());
    check::verify_vm_partition(free_cores, regions, num_nodes);
}
#endif

/**
 * Emit one admission decision as an `admission` span at `t0`, lasting
 * the modelled meta-table deployment cost (the sim clock itself does
 * not advance inside create()). `error` is null for an admission and
 * the failure reason otherwise.
 */
void
trace_admission(Tick t0, const MappingRequest& req, const MappingResult& m,
                VmId vm, Cycles setup_cycles, const char* error)
{
    if (!obs::enabled())
        return;
    std::array<obs::TraceArg, 7 + kFunnelFields.size()> args{
        obs::arg("vm", vm), obs::arg("cores", req.vtopo.num_nodes()),
        obs::arg("strategy", to_string(req.strategy)),
        obs::arg("ok", error == nullptr ? 1 : 0), obs::arg("ted", m.ted),
        obs::arg("search_steps", m.search_steps)};
    std::size_t n = 6;
    for (const auto& [name, field] : kFunnelFields)
        args[n++] = obs::arg(name, m.funnel.*field);
    if (error != nullptr)
        args[n++] = obs::arg("error", error);
    obs::emit(obs::TraceEvent{"admission", "hyp", 'X', t0, setup_cycles,
                              obs::kTrackHyp, args.data(),
                              static_cast<int>(n)});
}

} // namespace

Hypervisor::Hypervisor(const SocConfig& cfg, const noc::MeshTopology& topo,
                       core::NpuController& ctrl)
    : cfg_(cfg), topo_(topo), ctrl_(ctrl), mapper_(topo), ivr_(ctrl),
      hbm_(0, cfg.hbm_bytes, kMinBlock),
      free_(CoreSet::first_n(topo.num_nodes()))
{
    ctrl_.set_hyper_mode(true);
    // Contribute hyp.* to the metrics timeline when a sampler is
    // installed (the Machine only sweeps its own layers).
    if (auto* m = obs::metrics())
        m->add_collector(this,
                         [this](StatSet& out) { collect_stats(out); });
}

Hypervisor::~Hypervisor()
{
    if (auto* m = obs::metrics())
        m->remove_collector(this);
}

double
Hypervisor::core_utilization() const
{
    int total = topo_.num_nodes();
    return static_cast<double>(total - num_free_cores()) / total;
}

std::optional<virt::RoutingTable>
Hypervisor::try_compact_rt(VmId vm,
                           const std::vector<CoreId>& assignment) const
{
    const int n = static_cast<int>(assignment.size());
    // Try every factorization n = vw * vh and test whether the
    // assignment is row-major from an anchor with the mesh stride.
    for (int vw = 1; vw <= n; ++vw) {
        if (n % vw != 0)
            continue;
        int vh = n / vw;
        CoreId anchor = assignment[0];
        bool match = true;
        for (int v = 0; v < n && match; ++v) {
            int r = v / vw, c = v % vw;
            if (assignment[v] != anchor + r * topo_.width() + c)
                match = false;
        }
        if (!match)
            continue;
        // The rectangle must not wrap around a mesh row.
        int ax = topo_.x_of(anchor);
        int ay = topo_.y_of(anchor);
        if (ax + vw <= topo_.width() && ay + vh <= topo_.height())
            return virt::RoutingTable::mesh2d(vm, vw, vh, anchor,
                                              topo_.width());
    }
    return std::nullopt;
}

noc::RouteOverride
Hypervisor::confined_routes_for(const CoreSet& region) const
{
    VNPU_PROF("hyp.routes");
    noc::RouteOverride routes =
        noc::RouteOverride::build_confined(topo_, region);
    // Every table is containment-verified before any VM can route
    // over it.
    VNPU_SANITIZE_BLOCK(
        check::verify_confined_route(topo_, region, routes);)
    return routes;
}

mem::RangeTable
Hypervisor::build_range_table(VmId vm, std::uint64_t bytes)
{
    mem::RangeTable rtt;
    if (bytes == 0) {
        rtt.finalize();
        return rtt;
    }
    std::uint64_t remain = round_up(bytes, kMinBlock);
    Addr va = kVaBase;
    std::vector<Addr>& owned = blocks_[vm];
    // Scale the block size so large VMs stay within the 256-entry RTT
    // (the 8-bit last_v index bounds the table).
    std::uint64_t max_block = kMaxBlock;
    while (remain / max_block > 128)
        max_block <<= 1;
    while (remain > 0) {
        std::uint64_t chunk = std::min(remain, max_block);
        std::optional<Addr> pa = hbm_.alloc(chunk);
        if (!pa) {
            // Roll back partial allocation before failing.
            for (Addr a : owned)
                hbm_.free(a);
            blocks_.erase(vm);
            fatal("hypervisor: out of HBM while mapping ", bytes,
                  " bytes for vm ", vm);
        }
        owned.push_back(*pa);
        std::uint64_t got = hbm_.block_size(*pa);
        rtt.add(va, *pa, got, mem::kPermRead | mem::kPermWrite);
        va += got;
        remain -= std::min(remain, got);
    }
    rtt.finalize();
    return rtt;
}

MappingRequest
request_for(const VnpuSpec& spec)
{
    if (spec.topo && spec.num_cores > 0 &&
        spec.topo->num_nodes() != spec.num_cores) {
        fatal("spec.num_cores (", spec.num_cores,
              ") contradicts spec.topo size (", spec.topo->num_nodes(), ")");
    }
    if (!spec.topo && (spec.num_cores <= 0 || spec.num_cores > kMaxCores))
        fatal("spec.num_cores (", spec.num_cores, ") must be in [1, ",
              kMaxCores, "] when no topo is given");
    MappingRequest req;
    req.vtopo =
        spec.topo ? *spec.topo : TopologyMapper::snake_topology(spec.num_cores);
    req.strategy = spec.strategy;
    req.require_connected = spec.noc_isolation;
    req.max_candidates = spec.max_candidates;
    req.exact_search_budget = spec.exact_search_budget;
    req.ged = spec.ged;
    if (req.strategy == MappingStrategy::kExact)
        req.grid_width = row_major_grid_width(req.vtopo);
    return req;
}

virt::VirtualNpu&
Hypervisor::create(const VnpuSpec& spec)
{
    VNPU_PROF("hyp.create");
    const MappingRequest req = request_for(spec);
    return commit(req, mapper_.map(req, free_), spec.memory_bytes,
                  spec.bw_cap);
}

virt::VirtualNpu&
Hypervisor::admit(const MappingRequest& req, const MappingResult& m,
                  std::uint64_t memory_bytes, double bw_cap)
{
    VNPU_PROF("hyp.create");
    return commit(req, m, memory_bytes, bw_cap);
}

virt::VirtualNpu&
Hypervisor::commit(const MappingRequest& req, const MappingResult& m,
                   std::uint64_t memory_bytes, double bw_cap)
{
    const Tick t0 = obs::sim_now();
    const int k = req.vtopo.num_nodes();

    // 1-2. The mapping: its search effort counts whether or not it is
    //      admitted; a failed or off-free-set mapping allocates nothing.
    stats_.mapper_search_steps += m.search_steps;
    if (m.budget_exhausted)
        ++stats_.mapper_budget_exhausted;
    stats_.funnel += m.funnel;
    bool fits = static_cast<int>(m.assignment.size()) == k;
    CoreSet region;
    for (std::size_t v = 0; fits && v < m.assignment.size(); ++v) {
        const CoreId c = m.assignment[v];
        fits = c >= 0 && c < topo_.num_nodes() && free_.test(c) &&
               !region.test(c);
        if (fits)
            region.set(c);
    }
    const char* error = !m.ok ? m.error.c_str()
                        : fits ? nullptr
                               : "mapping is not k distinct free cores";
    if (error != nullptr) {
        ++stats_.allocation_failures;
        trace_admission(t0, req, m, kNoVm, 0, error);
        fatal("vNPU allocation failed (", to_string(req.strategy), ", ", k,
              " cores): ", error);
    }
    // The caller's decision is the one the mapper makes on the live
    // free set now: a stale plan cannot slip a different region in.
    VNPU_SANITIZE_BLOCK({
        const MappingResult fresh = mapper_.map(req, free_);
        VNPU_INVARIANT(fresh.ok && fresh.assignment == m.assignment &&
                           fresh.ted == m.ted,
                       "admitted mapping differs from a fresh map on the "
                       "live free set (",
                       to_string(req.strategy), ", ", k, " cores)");
    })

    VmId vm = next_vm_++;

    // Setup failures past this point (disconnected-region isolation,
    // HBM exhaustion, meta-zone overflow) must reach the trace too, so
    // the whole provisioning path is wrapped.
    try {
        virt::VirtualNpu& ref = provision(req, m, vm, memory_bytes, bw_cap);
        trace_admission(t0, req, m, vm, last_setup_cost_, nullptr);
        return ref;
    } catch (const std::exception& e) {
        trace_admission(t0, req, m, vm, 0, e.what());
        throw;
    }
}

virt::VirtualNpu&
Hypervisor::provision(const MappingRequest& req, const MappingResult& m,
                      VmId vm, std::uint64_t memory_bytes, double bw_cap)
{
    // 3. Routing table: compact mesh2d encoding when the region is a
    //    row-major rectangle, standard entries otherwise.
    std::optional<virt::RoutingTable> rt = try_compact_rt(vm, m.assignment);
    if (!rt)
        rt = virt::RoutingTable::standard(vm, m.assignment);

    auto vnpu = std::make_unique<virt::VirtualNpu>(vm, m.assignment,
                                                   req.vtopo, *rt);
    vnpu->set_mapping_ted(m.ted);

    // 4. NoC isolation: predefine confining directions when isolation
    //    was requested (the build rejects a disconnected region).
    CoreSet mask = vnpu->mask();
    if (req.require_connected)
        vnpu->set_confined_routes(confined_routes_for(mask));

    // 5. Memory: buddy blocks -> RTT entries.
    vnpu->set_range_table(build_range_table(vm, memory_bytes));

    // 6. Bandwidth share proportional to reachable memory interfaces.
    int ifaces = topo_.interfaces_of(mask, cfg_.hbm_channels);
    vnpu->set_interfaces(ifaces);
    double cap = bw_cap > 0.0
                     ? bw_cap
                     : cfg_.hbm_bytes_per_cycle * ifaces / cfg_.hbm_channels;
    vnpu->set_bandwidth_cap(cap);

    // 7. Deploy meta tables (hyper-mode controller) and account cost.
    Cycles cost = ctrl_.configure_routing_table(vm, vnpu->num_cores());
    cost += static_cast<Cycles>(vnpu->range_table().size()) *
            cfg_.rt_config_write_cycles;
    if (vnpu->confined_routes()) {
        cost += static_cast<Cycles>(vnpu->confined_routes()->size()) *
                cfg_.rt_config_write_cycles / 4;
    }
    std::uint64_t meta_bytes =
        vnpu->routing_table().storage_bits() / 8 +
        vnpu->range_table().footprint_bytes() +
        (vnpu->confined_routes() ? vnpu->confined_routes()->size() * 2 : 0);
    if (meta_bytes > cfg_.meta_zone_bytes) {
        fatal("meta tables (", meta_bytes, " B) exceed the per-core ",
              cfg_.meta_zone_bytes, "-byte meta-zone");
    }
    ctrl_.deploy_meta_bytes(vm, meta_bytes);
    ivr_.install(&vnpu->routing_table());

    last_setup_cost_ = cost;
    stats_.setup_cycles += cost;
    ++stats_.vnpus_created;

    // 8. Commit the core allocation.
    free_ = free_.andnot(mask);
    virt::VirtualNpu& ref = *vnpu;
    vnpus_[vm] = std::move(vnpu);
    VNPU_SANITIZE_BLOCK(
        audit_partition(free_, vnpus_, topo_.num_nodes());)
    return ref;
}

void
Hypervisor::collect_stats(StatSet& out, const std::string& prefix) const
{
    out.add(prefix + "vnpus_created",
            static_cast<double>(stats_.vnpus_created.value()));
    out.add(prefix + "vnpus_destroyed",
            static_cast<double>(stats_.vnpus_destroyed.value()));
    out.add(prefix + "allocation_failures",
            static_cast<double>(stats_.allocation_failures.value()));
    out.add(prefix + "setup_cycles",
            static_cast<double>(stats_.setup_cycles.value()));
    out.add(prefix + "mapper.search_steps",
            static_cast<double>(stats_.mapper_search_steps.value()));
    out.add(prefix + "mapper.budget_exhausted",
            static_cast<double>(stats_.mapper_budget_exhausted.value()));
    for (const auto& [name, field] : kFunnelFields)
        out.add(prefix + "funnel." + name,
                static_cast<double>(stats_.funnel.*field));
    out.set(prefix + "free_cores", num_free_cores());
    out.set(prefix + "core_utilization", core_utilization());
}

void
Hypervisor::destroy(VmId vm)
{
    VNPU_PROF("hyp.destroy");
    auto it = vnpus_.find(vm);
    if (it == vnpus_.end())
        fatal("destroy of unknown vm ", vm);
    free_ |= it->second->mask();
    ivr_.remove(vm);
    ctrl_.teardown_tables(vm);
    auto bit = blocks_.find(vm);
    if (bit != blocks_.end()) {
        for (Addr a : bit->second)
            hbm_.free(a);
        blocks_.erase(bit);
    }
    vnpus_.erase(it);
    ++stats_.vnpus_destroyed;
    VNPU_SANITIZE_BLOCK(
        audit_partition(free_, vnpus_, topo_.num_nodes());)
    VNPU_TRACE(emit_instant("destroy", "hyp", obs::sim_now(),
                            obs::kTrackHyp, {obs::arg("vm", vm)}));
}

virt::VirtualNpu*
Hypervisor::find(VmId vm)
{
    auto it = vnpus_.find(vm);
    return it == vnpus_.end() ? nullptr : it->second.get();
}

const virt::VirtualNpu*
Hypervisor::find(VmId vm) const
{
    auto it = vnpus_.find(vm);
    return it == vnpus_.end() ? nullptr : it->second.get();
}

} // namespace vnpu::hyp
