/**
 * @file
 * Tests for the hypervisor (vNPU lifecycle) and the MIG baseline.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "capture_sink.h"
#include "check/checks.h"
#include "hyp/hypervisor.h"
#include "hyp/mig.h"
#include "runtime/machine.h"
#include "sim/log.h"

namespace vnpu::hyp {
namespace {

using runtime::Machine;

SocConfig
sim_cfg()
{
    return SocConfig::Sim(); // 6x6
}

TEST(HypervisorTest, CreatesVnpuWithAllResources)
{
    Machine m(sim_cfg());
    Hypervisor hv(m.config(), m.topology(), m.controller());

    VnpuSpec spec;
    spec.num_cores = 6;
    spec.memory_bytes = 64ull << 20;
    virt::VirtualNpu& v = hv.create(spec);

    EXPECT_EQ(v.num_cores(), 6);
    EXPECT_TRUE(v.has_memory());
    EXPECT_GE(v.memory_bytes(), 64ull << 20);
    EXPECT_TRUE(v.isolated());
    EXPECT_GT(v.interfaces(), 0);
    EXPECT_GT(v.bandwidth_cap(), 0.0);
    EXPECT_GT(hv.last_setup_cost(), 0u);
    EXPECT_EQ(hv.num_free_cores(), 30);
    EXPECT_TRUE(hv.inst_vrouter().has_vm(v.vm()));
    // Routing table agrees with the core list.
    for (int i = 0; i < v.num_cores(); ++i)
        EXPECT_EQ(v.routing_table().lookup(i), v.cores()[i]);
}

TEST(HypervisorTest, RequestForRecordsExactGridWidth)
{
    auto width_of = [](graph::Graph g, MappingStrategy s) {
        VnpuSpec spec;
        spec.topo = std::move(g);
        spec.strategy = s;
        return request_for(spec).grid_width;
    };
    EXPECT_EQ(width_of(graph::Graph::mesh(4, 2), MappingStrategy::kExact),
              4);
    EXPECT_EQ(width_of(graph::Graph::mesh(5, 1), MappingStrategy::kExact),
              1);
    EXPECT_EQ(width_of(TopologyMapper::snake_topology(6),
                       MappingStrategy::kExact),
              0);
    // Only the exact strategy reads it; the others leave it unset.
    EXPECT_EQ(width_of(graph::Graph::mesh(4, 2),
                       MappingStrategy::kSimilarTopology),
              -1);
}

TEST(HypervisorTest, RequestForRejectsCoreCountOutOfRange)
{
    // With no topo, num_cores sizes the snake request: a core count
    // outside [1, kMaxCores] is a config error, not a 1-core VM or a
    // simulator panic.
    for (int n : {0, -1, kMaxCores + 1}) {
        VnpuSpec spec;
        spec.num_cores = n;
        EXPECT_THROW(request_for(spec), SimFatal) << "num_cores=" << n;
    }
    VnpuSpec max;
    max.num_cores = kMaxCores;
    EXPECT_EQ(request_for(max).vtopo.num_nodes(), kMaxCores);
}

TEST(HypervisorTest, RectangularRegionsGetCompactTables)
{
    Machine m(sim_cfg());
    Hypervisor hv(m.config(), m.topology(), m.controller());
    VnpuSpec spec;
    spec.topo = graph::Graph::mesh(3, 2);
    virt::VirtualNpu& v = hv.create(spec);
    // A 3x2 request on an empty mesh maps exactly -> compact form.
    EXPECT_EQ(v.mapping_ted(), 0.0);
    EXPECT_EQ(v.routing_table().type(), virt::RtType::kMesh2D);
    EXPECT_EQ(v.routing_table().num_entries(), 1);
}

TEST(HypervisorTest, MetaZoneChargesEveryConfinedPair)
{
    // A rectangular region's confined routes take O(1) host memory, but
    // admission must still charge the meta zone 2 bytes for each of the
    // k(k-1) (cur, dst) direction entries the hardware stores.
    VnpuSpec spec;
    spec.topo = graph::Graph::mesh(4, 4);
    spec.strategy = MappingStrategy::kExact;
    spec.memory_bytes = 64ull << 20;

    std::uint64_t required = 0;
    {
        Machine m(sim_cfg());
        Hypervisor hv(m.config(), m.topology(), m.controller());
        virt::VirtualNpu& v = hv.create(spec);
        ASSERT_NE(v.confined_routes(), nullptr);
        EXPECT_EQ(v.confined_routes()->size(), 240u);
        required = m.controller().meta_bytes(v.vm());
        EXPECT_EQ(required, v.routing_table().storage_bits() / 8 +
                                v.range_table().footprint_bytes() +
                                240u * 2);
    }

    SocConfig cfg = sim_cfg();
    cfg.meta_zone_bytes = required - 1;
    {
        Machine m(cfg);
        Hypervisor hv(m.config(), m.topology(), m.controller());
        EXPECT_THROW(hv.create(spec), SimFatal);
        EXPECT_EQ(hv.num_free_cores(), m.topology().num_nodes());
    }
    cfg.meta_zone_bytes = required;
    {
        Machine m(cfg);
        Hypervisor hv(m.config(), m.topology(), m.controller());
        EXPECT_EQ(hv.create(spec).num_cores(), 16);
    }
}

TEST(HypervisorTest, DestroyReleasesEverything)
{
    Machine m(sim_cfg());
    Hypervisor hv(m.config(), m.topology(), m.controller());
    VnpuSpec spec;
    spec.num_cores = 9;
    spec.memory_bytes = 32ull << 20;
    virt::VirtualNpu& v = hv.create(spec);
    VmId vm = v.vm();
    EXPECT_EQ(hv.num_free_cores(), 27);
    hv.destroy(vm);
    EXPECT_EQ(hv.num_free_cores(), 36);
    EXPECT_EQ(hv.find(vm), nullptr);
    EXPECT_FALSE(hv.inst_vrouter().has_vm(vm));
    EXPECT_THROW(hv.destroy(vm), SimFatal);
}

TEST(HypervisorTest, MultiTenantAllocationsAreDisjoint)
{
    Machine m(sim_cfg());
    Hypervisor hv(m.config(), m.topology(), m.controller());
    VnpuSpec spec;
    spec.num_cores = 12;
    spec.memory_bytes = 16ull << 20;
    virt::VirtualNpu& a = hv.create(spec);
    virt::VirtualNpu& b = hv.create(spec);
    EXPECT_TRUE((a.mask() & b.mask()).none());
    EXPECT_NE(a.vm(), b.vm());
    EXPECT_EQ(hv.num_free_cores(), 12);
    EXPECT_NEAR(hv.core_utilization(), 24.0 / 36.0, 1e-9);
    // Disjoint physical memory too.
    std::set<Addr> pas;
    for (std::size_t i = 0; i < a.range_table().size(); ++i)
        pas.insert(a.range_table().entry(i).pa);
    for (std::size_t i = 0; i < b.range_table().size(); ++i)
        EXPECT_EQ(pas.count(b.range_table().entry(i).pa), 0u);
}

TEST(HypervisorTest, FailsWhenOutOfCores)
{
    Machine m(sim_cfg());
    Hypervisor hv(m.config(), m.topology(), m.controller());
    VnpuSpec spec;
    spec.num_cores = 30;
    hv.create(spec);
    VnpuSpec spec2;
    spec2.num_cores = 12;
    EXPECT_THROW(hv.create(spec2), SimFatal);
    EXPECT_EQ(hv.stats().allocation_failures.value(), 1u);
}

TEST(HypervisorTest, AdmitRejectsMappingOffTheFreeSet)
{
    Machine m(sim_cfg());
    Hypervisor hv(m.config(), m.topology(), m.controller());
    VnpuSpec spec;
    spec.topo = graph::Graph::mesh(2, 2);
    spec.strategy = MappingStrategy::kExact;
    const CoreId busy = hv.create(spec).cores().front();
    const MappingRequest req = request_for(spec);
    const MappingResult good = hv.try_map(req);
    ASSERT_TRUE(good.ok);

    MappingResult occupied = good;
    occupied.assignment[0] = busy;
    MappingResult duplicated = good;
    duplicated.assignment[1] = duplicated.assignment[0];
    MappingResult short_by_one = good;
    short_by_one.assignment.pop_back();
    MappingResult off_mesh = good;
    off_mesh.assignment[2] = m.topology().num_nodes();
    MappingResult failed = good;
    failed.ok = false;
    failed.error = "no region";

    const CoreSet free_before = hv.free_cores();
    for (const MappingResult* bad :
         {&occupied, &duplicated, &short_by_one, &off_mesh, &failed})
        EXPECT_THROW(hv.admit(req, *bad), SimFatal);
    EXPECT_EQ(hv.free_cores(), free_before);
    EXPECT_EQ(hv.stats().vnpus_created.value(), 1u);
    EXPECT_EQ(hv.stats().allocation_failures.value(), 5u);
    // No VM id was spent on a rejected mapping.
    EXPECT_EQ(hv.admit(req, good).vm(), 2u);
}

TEST(HypervisorTest, CreateEqualsAdmitOfTryMap)
{
    Machine ma(sim_cfg());
    Machine mb(sim_cfg());
    Hypervisor a(ma.config(), ma.topology(), ma.controller());
    Hypervisor b(mb.config(), mb.topology(), mb.controller());

    VnpuSpec exact;
    exact.topo = graph::Graph::mesh(3, 2);
    exact.strategy = MappingStrategy::kExact;
    exact.memory_bytes = 8ull << 20;
    VnpuSpec similar;
    similar.num_cores = 7;
    similar.strategy = MappingStrategy::kSimilarTopology;
    similar.memory_bytes = 32ull << 20;
    VnpuSpec plain;
    plain.num_cores = 4;
    plain.strategy = MappingStrategy::kStraightforward;
    plain.noc_isolation = false;
    plain.bw_cap = 3.5;

    // Twice round, so the later requests land on a fragmented mesh.
    for (int round = 0; round < 2; ++round) {
        for (const VnpuSpec* spec : {&exact, &similar, &plain}) {
            const virt::VirtualNpu& va = a.create(*spec);
            const MappingRequest req = request_for(*spec);
            const virt::VirtualNpu& vb = b.admit(
                req, b.try_map(req), spec->memory_bytes, spec->bw_cap);
            EXPECT_EQ(va.vm(), vb.vm());
            EXPECT_EQ(va.cores(), vb.cores());
            EXPECT_EQ(va.mapping_ted(), vb.mapping_ted());
            EXPECT_EQ(va.isolated(), vb.isolated());
            EXPECT_EQ(va.bandwidth_cap(), vb.bandwidth_cap());
            EXPECT_EQ(a.last_setup_cost(), b.last_setup_cost());
            EXPECT_EQ(ma.controller().meta_bytes(va.vm()),
                      mb.controller().meta_bytes(vb.vm()));
        }
    }
    EXPECT_EQ(a.free_cores(), b.free_cores());
    EXPECT_EQ(a.stats().setup_cycles.value(), b.stats().setup_cycles.value());
    EXPECT_EQ(a.stats().mapper_search_steps.value(),
              b.stats().mapper_search_steps.value());
    EXPECT_EQ(a.stats().funnel.candidates, b.stats().funnel.candidates);
}

TEST(HypervisorTest, BestEffortUsesLeftoverCores)
{
    // The lock-in scenario of §4.3: after one 3x3 exact allocation on
    // 5x5, a second 3x3 succeeds with a similar topology.
    SocConfig cfg = sim_cfg();
    cfg.mesh_x = 5;
    cfg.mesh_y = 5;
    Machine m(cfg);
    Hypervisor hv(m.config(), m.topology(), m.controller());
    VnpuSpec spec;
    spec.topo = graph::Graph::mesh(3, 3);
    spec.strategy = MappingStrategy::kExact;
    hv.create(spec);
    spec.strategy = MappingStrategy::kSimilarTopology;
    virt::VirtualNpu& second = hv.create(spec);
    EXPECT_GT(second.mapping_ted(), 0.0);
    EXPECT_EQ(hv.num_free_cores(), 7);
}

TEST(HypervisorTest, ConfinedRoutesStayInRegion)
{
    Machine m(sim_cfg());
    Hypervisor hv(m.config(), m.topology(), m.controller());
    VnpuSpec spec;
    spec.num_cores = 7; // irregular shape likely
    virt::VirtualNpu& v = hv.create(spec);
    ASSERT_TRUE(v.isolated());
    // Every pair routes inside the region.
    for (CoreId a : v.cores()) {
        for (CoreId b : v.cores()) {
            if (a == b)
                continue;
            int cur = a;
            int guard = 0;
            while (cur != b) {
                cur = v.confined_routes()->next_hop(cur, b);
                ASSERT_NE(cur, kInvalidCore);
                EXPECT_TRUE(v.mask().test(cur));
                ASSERT_LT(++guard, 64);
            }
        }
    }
}

TEST(HypervisorTest, MemoryRoundTripThroughBuddy)
{
    Machine m(sim_cfg());
    Hypervisor hv(m.config(), m.topology(), m.controller());
    VnpuSpec spec;
    spec.num_cores = 4;
    spec.memory_bytes = 100ull << 20; // not a power of two
    virt::VirtualNpu& v = hv.create(spec);
    // Mapped memory covers the request with contiguous VAs.
    EXPECT_GE(v.memory_bytes(), 100ull << 20);
    const mem::RangeTable& rtt = v.range_table();
    for (std::size_t i = 1; i < rtt.size(); ++i) {
        EXPECT_EQ(rtt.entry(i).va,
                  rtt.entry(i - 1).va + rtt.entry(i - 1).size);
    }
    VmId vm = v.vm();
    hv.destroy(vm);
    // All HBM is reusable afterwards.
    VnpuSpec big;
    big.num_cores = 4;
    big.memory_bytes = 1ull << 30;
    EXPECT_NO_THROW(hv.create(big));
}

// ---- Beyond 64 cores ---------------------------------------------------------

/** A Sim-flavoured config resized to `w` x `h` tiles. */
SocConfig
mesh_cfg(int w, int h)
{
    SocConfig c = SocConfig::Sim();
    c.mesh_x = w;
    c.mesh_y = h;
    c.hbm_channels = std::min(h, 64);
    return c;
}

TEST(HypervisorTest, EightyNodeMeshHasExactFreeMask)
{
    // Regression: the free-mask used to be built by `1 << num_nodes`,
    // undefined for meshes above 64 nodes. 80 nodes exercises the
    // word-crossing path (UBSan-clean by construction now).
    Machine m(mesh_cfg(16, 5));
    Hypervisor hv(m.config(), m.topology(), m.controller());
    EXPECT_EQ(hv.num_free_cores(), 80);
    EXPECT_EQ(hv.free_cores(), CoreSet::first_n(80));

    VnpuSpec spec;
    spec.num_cores = 24;
    virt::VirtualNpu& v = hv.create(spec);
    EXPECT_EQ(hv.num_free_cores(), 56);
    EXPECT_TRUE(v.mask().andnot(CoreSet::first_n(80)).none());
    hv.destroy(v.vm());
    EXPECT_EQ(hv.free_cores(), CoreSet::first_n(80));
}

TEST(HypervisorTest, AllPoliciesOn256CoreMesh)
{
    // A 16x16 (DCRA-scale) chip: exact, similar-topology and
    // fragmented requests must allocate, confine routes, and tear
    // down cleanly.
    Machine m(mesh_cfg(16, 16));
    Hypervisor hv(m.config(), m.topology(), m.controller());
    EXPECT_EQ(hv.num_free_cores(), 256);

    VnpuSpec exact;
    exact.topo = graph::Graph::mesh(6, 6);
    exact.strategy = MappingStrategy::kExact;
    virt::VirtualNpu& ve = hv.create(exact);
    EXPECT_EQ(ve.mapping_ted(), 0.0);
    ASSERT_TRUE(ve.isolated());

    VnpuSpec similar;
    similar.num_cores = 40;
    similar.strategy = MappingStrategy::kSimilarTopology;
    virt::VirtualNpu& vs = hv.create(similar);
    ASSERT_TRUE(vs.isolated());
    EXPECT_TRUE((ve.mask() & vs.mask()).none());

    VnpuSpec frag;
    frag.num_cores = 30;
    frag.strategy = MappingStrategy::kFragmented;
    virt::VirtualNpu& vf = hv.create(frag);
    EXPECT_EQ(hv.num_free_cores(), 256 - 36 - 40 - 30);

    // Confined routes of each isolated vNPU stay inside its region;
    // regions legitimately span core ids above 64.
    for (const virt::VirtualNpu* v : {&ve, &vs}) {
        CoreSet region = v->mask();
        const noc::RouteOverride* ov = v->confined_routes();
        ASSERT_NE(ov, nullptr);
        for (CoreId a : v->cores()) {
            for (CoreId b : v->cores()) {
                if (a == b)
                    continue;
                int cur = a, guard = 0;
                while (cur != b) {
                    cur = ov->next_hop(cur, b);
                    ASSERT_NE(cur, kInvalidCore);
                    ASSERT_TRUE(region.test(cur));
                    ASSERT_LT(++guard, 256);
                }
            }
        }
    }
    // 106 allocated cores cannot fit below id 64: the wide half of the
    // set is genuinely exercised.
    CoreSet all_used = ve.mask() | vs.mask() | vf.mask();
    EXPECT_TRUE(all_used.andnot(CoreSet::first_n(256)).none());
    EXPECT_LT(all_used.next(64), 256);

    VmId vms[] = {ve.vm(), vs.vm(), vf.vm()};
    for (VmId vm : vms)
        hv.destroy(vm);
    EXPECT_EQ(hv.free_cores(), CoreSet::first_n(256));
}

TEST(HypervisorTest, FragmentationSweepOn1024CoreMesh)
{
    // 32x32 chip: an allocate/destroy churn that fragments the free
    // set, then a fragmented request that must still succeed. This is
    // the scale the old u64 regions could not even represent.
    Machine m(mesh_cfg(32, 32));
    Hypervisor hv(m.config(), m.topology(), m.controller());
    EXPECT_EQ(hv.num_free_cores(), 1024);

    std::vector<VmId> vms;
    VnpuSpec spec;
    spec.num_cores = 48;
    spec.max_candidates = 64; // keep the sweep quick
    for (int i = 0; i < 8; ++i)
        vms.push_back(hv.create(spec).vm());
    EXPECT_EQ(hv.num_free_cores(), 1024 - 8 * 48);

    // Punch holes: destroy every other vNPU.
    for (std::size_t i = 0; i < vms.size(); i += 2)
        hv.destroy(vms[i]);
    EXPECT_EQ(hv.num_free_cores(), 1024 - 4 * 48);

    VnpuSpec frag;
    frag.num_cores = 60;
    frag.strategy = MappingStrategy::kFragmented;
    frag.max_candidates = 64;
    virt::VirtualNpu& vf = hv.create(frag);
    EXPECT_EQ(vf.num_cores(), 60);
    // Still disjoint from the surviving tenants.
    for (std::size_t i = 1; i < vms.size(); i += 2) {
        const virt::VirtualNpu* other = hv.find(vms[i]);
        ASSERT_NE(other, nullptr);
        EXPECT_TRUE((vf.mask() & other->mask()).none());
    }
}

// Every (cur, dst) next hop of `t` equals that of `want`.
void expect_same_hops(const noc::MeshTopology& topo,
                      const noc::RouteOverride& t,
                      const noc::RouteOverride& want)
{
    EXPECT_EQ(t.size(), want.size());
    const int n = topo.num_nodes();
    for (int cur = 0; cur < n; ++cur)
        for (int dst = 0; dst < n; ++dst)
            ASSERT_EQ(t.next_hop(cur, dst), want.next_hop(cur, dst))
                << "cur=" << cur << " dst=" << dst;
}

TEST(HypervisorTest, RouteCacheServesRegionTablesAcrossVmIdentities)
{
    // Each vNPU owns its region-local confined-route table. Fleet churn
    // re-creates the *same region* under a *different VM id*: the fresh
    // table must pass containment verification and route hop for hop
    // like its predecessor's.
    Machine m(sim_cfg());
    Hypervisor hv(m.config(), m.topology(), m.controller());

    VnpuSpec spec;
    spec.num_cores = 12;
    virt::VirtualNpu& v1 = hv.create(spec);
    const VmId id1 = v1.vm();
    const CoreSet region = v1.mask();
    ASSERT_NE(v1.confined_routes(), nullptr);
    const noc::RouteOverride before = *v1.confined_routes();
    hv.destroy(id1);

    virt::VirtualNpu& v2 = hv.create(spec);
    EXPECT_NE(v2.vm(), id1);
    EXPECT_EQ(v2.mask(), region);
    ASSERT_NE(v2.confined_routes(), nullptr);
    check::verify_confined_route(m.topology(), v2.mask(),
                                 *v2.confined_routes());
    expect_same_hops(m.topology(), *v2.confined_routes(), before);
    hv.destroy(v2.vm());
}

TEST(HypervisorTest, RouteCacheNeverEvictsLiveTables)
{
    // A live VM's table (the pointer the vRouter and launcher hold, and
    // its contents) must survive other tenants' creates and destroys.
    Machine m(sim_cfg());
    Hypervisor hv(m.config(), m.topology(), m.controller());

    VnpuSpec spec;
    spec.num_cores = 12;
    virt::VirtualNpu& v = hv.create(spec);
    const noc::RouteOverride* live = v.confined_routes();
    ASSERT_NE(live, nullptr);
    const noc::RouteOverride before = *live;

    std::vector<VmId> others;
    for (int k : {2, 5, 3}) {
        VnpuSpec s;
        s.num_cores = k;
        others.push_back(hv.create(s).vm());
    }
    for (VmId vm : others)
        hv.destroy(vm);
    ASSERT_EQ(hv.find(v.vm()), &v);
    EXPECT_EQ(v.confined_routes(), live);
    check::verify_confined_route(m.topology(), v.mask(), *live);
    expect_same_hops(m.topology(), *live, before);
    hv.destroy(v.vm());
}

TEST(HypervisorTest, DisconnectedIsolatedRegionIsRejectedAndAudited)
{
    // Straightforward placement takes the lowest-id free cores whether
    // or not they touch. On a checkerboard free set an isolated 2-core
    // request lands on two non-adjacent cores, and the confined-route
    // build must reject it: SimFatal, a failed admission span carrying
    // the reason, and no change to the free set or the live VMs.
    Machine m(sim_cfg());
    Hypervisor hv(m.config(), m.topology(), m.controller());
    const noc::MeshTopology& topo = m.topology();
    std::vector<VmId> vms;
    for (int id = 0; id < topo.num_nodes(); ++id) {
        VnpuSpec one;
        one.num_cores = 1;
        one.strategy = MappingStrategy::kStraightforward;
        virt::VirtualNpu& v = hv.create(one);
        ASSERT_EQ(v.cores()[0], id);
        vms.push_back(v.vm());
    }
    std::vector<VmId> live;
    for (int id = 0; id < topo.num_nodes(); ++id) {
        if ((topo.x_of(id) + topo.y_of(id)) % 2 == 0)
            hv.destroy(vms[id]);
        else
            live.push_back(vms[id]);
    }
    const int free_before = hv.num_free_cores();
    ASSERT_EQ(free_before, topo.num_nodes() / 2);

    VnpuSpec pair;
    pair.num_cores = 2;
    pair.strategy = MappingStrategy::kStraightforward;
    pair.noc_isolation = true;
    testutil::CaptureSink sink;
    {
        testutil::SinkGuard guard(&sink);
        EXPECT_THROW(hv.create(pair), SimFatal);
    }

    const std::vector<testutil::CapturedEvent> spans =
        sink.named("admission");
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].num.at("ok"), 0.0);
    EXPECT_EQ(spans[0].num.at("cores"), 2.0);
    const std::string& error = spans[0].str.at("error");
    EXPECT_NE(error.find("disconnected"), std::string::npos) << error;
    EXPECT_EQ(hv.num_free_cores(), free_before);
    EXPECT_EQ(hv.stats().vnpus_created.value() -
                  hv.stats().vnpus_destroyed.value(),
              live.size());
    for (VmId vm : live)
        EXPECT_NE(hv.find(vm), nullptr);
}

// ---- MIG baseline ------------------------------------------------------------

TEST(MigTest, DefaultHalvesAndExactFit)
{
    Machine m(sim_cfg());
    MigPartitioner mig(m.config(), m.topology(), m.controller());
    ASSERT_EQ(mig.partitions().size(), 2u);
    EXPECT_EQ(mig.partitions()[0].num_cores(), 18);
    EXPECT_EQ(mig.partitions()[1].num_cores(), 18);

    virt::VirtualNpu& v = mig.create(12, 1 << 20);
    EXPECT_EQ(v.num_cores(), 12);
    EXPECT_EQ(v.tdm_factor(), 1);
    // 12 distinct physical cores out of the 18-core partition.
    EXPECT_EQ(mask_count(v.mask()), 12);
    EXPECT_EQ(mig.wasted_cores(), 6);
}

TEST(MigTest, OversizedRequestUsesTdm)
{
    Machine m(sim_cfg());
    MigPartitioner mig(m.config(), m.topology(), m.controller());
    virt::VirtualNpu& v = mig.create(24, 1 << 20);
    EXPECT_EQ(v.num_cores(), 24);
    EXPECT_EQ(v.tdm_factor(), 2);
    EXPECT_EQ(mask_count(v.mask()), 18); // all partition cores, doubled up
}

TEST(MigTest, PartitionExhaustion)
{
    Machine m(sim_cfg());
    MigPartitioner mig(m.config(), m.topology(), m.controller());
    mig.create(12, 0);
    mig.create(12, 0);
    EXPECT_THROW(mig.create(4, 0), SimFatal);
}

TEST(MigTest, DestroyFreesPartition)
{
    Machine m(sim_cfg());
    MigPartitioner mig(m.config(), m.topology(), m.controller());
    virt::VirtualNpu& v = mig.create(12, 1 << 20);
    VmId vm = v.vm();
    mig.destroy(vm);
    EXPECT_NO_THROW(mig.create(18, 0));
    EXPECT_NO_THROW(mig.create(18, 0));
}

TEST(MigTest, CustomPartitions)
{
    Machine m(SocConfig::Sim48()); // 8x6
    MigPartitioner mig(m.config(), m.topology(), m.controller());
    EXPECT_EQ(mig.partitions()[0].num_cores(), 24);
    std::vector<MigPartition> parts{{0, 0, 2, 6}, {2, 0, 6, 6}};
    mig.set_partitions(parts);
    virt::VirtualNpu& v = mig.create(10, 0);
    EXPECT_EQ(mask_count(v.mask()), 10);
    // Out-of-bounds partitions rejected.
    EXPECT_THROW(mig.set_partitions({{7, 0, 2, 6}}), SimFatal);
}

TEST(MigTest, PartitionsOn256CoreMesh)
{
    // MIG halves a 16x16 chip into two 8x16 partitions whose core ids
    // reach past 64; snake order, TDM, and interface accounting must
    // all survive the wide masks.
    SocConfig cfg = SocConfig::Sim();
    cfg.mesh_x = 16;
    cfg.mesh_y = 16;
    cfg.hbm_channels = 16;
    Machine m(cfg);
    MigPartitioner mig(m.config(), m.topology(), m.controller());
    ASSERT_EQ(mig.partitions().size(), 2u);
    EXPECT_EQ(mig.partitions()[0].num_cores(), 128);

    virt::VirtualNpu& a = mig.create(100, 1 << 20);
    EXPECT_EQ(a.tdm_factor(), 1);
    EXPECT_EQ(mask_count(a.mask()), 100);
    EXPECT_EQ(mig.wasted_cores(), 28);

    virt::VirtualNpu& b = mig.create(200, 1 << 20); // TDM on 128 cores
    EXPECT_EQ(b.tdm_factor(), 2);
    EXPECT_EQ(mask_count(b.mask()), 128);
    EXPECT_TRUE((a.mask() & b.mask()).none());
    EXPECT_GT(b.interfaces(), 0);

    mig.destroy(a.vm());
    mig.destroy(b.vm());
    EXPECT_NO_THROW(mig.create(128, 0));
}

} // namespace
} // namespace vnpu::hyp
