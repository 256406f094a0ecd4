/**
 * @file
 * Tests for the runtime invariant sanitizer (src/check/).
 *
 * The verification routines are compiled in every build, so the
 * negative cases (deliberately broken inputs must panic) run in all
 * flavors; the "checks are live" cases only assert counter movement
 * when the build was configured with -DVNPU_SANITIZE=ON.
 */

#include <gtest/gtest.h>

#include <vector>

#include "check/check.h"
#include "check/checks.h"
#include "fleet/scheduler.h"
#include "noc/network.h"
#include "sim/config.h"
#include "sim/event_queue.h"
#include "sim/log.h"

namespace vnpu::check {
namespace {

noc::MeshTopology
mesh4x4()
{
    return noc::MeshTopology(4, 4);
}

// ---- Confined-route containment --------------------------------------

TEST(ConfinedRouteCheck, AcceptsFreshlyBuiltTable)
{
    const noc::MeshTopology topo = mesh4x4();
    // 2x2 block {0, 1, 4, 5}.
    const CoreSet region = CoreSet::from_word(0b110011);
    const noc::RouteOverride ov =
        noc::RouteOverride::build_confined(topo, region);
    EXPECT_NO_THROW(verify_confined_route(topo, region, ov));
}

TEST(ConfinedRouteCheck, RejectsMissingNextHop)
{
    const noc::MeshTopology topo = mesh4x4();
    const CoreSet region = CoreSet::from_word(0b110011);
    const noc::RouteOverride ov =
        noc::RouteOverride::build_confined(topo, region);
    // Verify against a larger region: pairs involving core 2 have no
    // table entry.
    const CoreSet bigger = CoreSet::from_word(0b110111);
    EXPECT_THROW(verify_confined_route(topo, bigger, ov), SimPanic);
}

TEST(ConfinedRouteCheck, RejectsRouteLeavingRegion)
{
    const noc::MeshTopology topo = mesh4x4();
    // L-shape {0, 1, 5}: the 0 <-> 5 route relays through core 1.
    const CoreSet built_for = CoreSet::from_word(0b100011);
    const noc::RouteOverride ov =
        noc::RouteOverride::build_confined(topo, built_for);
    // Claiming the region is only {0, 5} must trip containment: the
    // stored next hop (core 1) is outside it.
    const CoreSet claimed = CoreSet::from_word(0b100001);
    EXPECT_THROW(verify_confined_route(topo, claimed, ov), SimPanic);
}

// ---- Live-VM partition ------------------------------------------------

TEST(VmPartitionCheck, AcceptsDisjointCover)
{
    const int n = 16;
    const CoreSet a = CoreSet::from_word(0b110011);          // 2x2 block
    const CoreSet b = CoreSet::from_word(0b1100110000000000); // another
    CoreSet free = CoreSet::first_n(n).andnot(a).andnot(b);
    EXPECT_NO_THROW(verify_vm_partition(free, {a, b}, n));
}

TEST(VmPartitionCheck, RejectsOverlappingRegions)
{
    const int n = 16;
    const CoreSet a = CoreSet::from_word(0b110011);
    const CoreSet b = CoreSet::from_word(0b100001); // subset of a
    const CoreSet free = CoreSet::first_n(n).andnot(a);
    EXPECT_THROW(verify_vm_partition(free, {a, b}, n), SimPanic);
}

TEST(VmPartitionCheck, RejectsRegionOverlappingFreeSet)
{
    const int n = 16;
    const CoreSet a = CoreSet::from_word(0b110011);
    const CoreSet free = CoreSet::first_n(n); // forgot to subtract a
    EXPECT_THROW(verify_vm_partition(free, {a}, n), SimPanic);
}

TEST(VmPartitionCheck, RejectsCoverageGap)
{
    const int n = 16;
    const CoreSet a = CoreSet::from_word(0b110011);
    // Free set lost core 15: a leak, neither free nor owned.
    const CoreSet free =
        CoreSet::first_n(n).andnot(a).andnot(CoreSet::from_word(1ull << 15));
    EXPECT_THROW(verify_vm_partition(free, {a}, n), SimPanic);
}

TEST(VmPartitionCheck, RejectsOutOfMeshCores)
{
    const int n = 16;
    const CoreSet a = CoreSet::from_word(0b110011 | (1ull << 20));
    const CoreSet free = CoreSet::first_n(n).andnot(a);
    EXPECT_THROW(verify_vm_partition(free, {a}, n), SimPanic);
}

TEST(VmPartitionCheck, RejectsEmptyRegion)
{
    const int n = 16;
    EXPECT_THROW(verify_vm_partition(CoreSet::first_n(n), {CoreSet{}}, n),
                 SimPanic);
}

// ---- Reference wormhole model vs. the closed-form send path ----------

struct InvariantNetFixture : public ::testing::Test {
    InvariantNetFixture()
        : cfg(make_cfg()), topo(cfg.mesh_x, cfg.mesh_y), net(cfg, topo, eq)
    {
    }

    static SocConfig
    make_cfg()
    {
        SocConfig c = SocConfig::Fpga();
        c.mesh_x = 4;
        c.mesh_y = 4;
        c.noc_relay_store_forward = false; // exercise the wormhole path
        return c;
    }

    /** Prior per-link busy along src->dst's XY route. */
    std::vector<Tick>
    prior_busy(int src, int dst) const
    {
        const std::vector<int> path = net.route_path(src, dst);
        std::vector<Tick> busy;
        for (std::size_t i = 0; i + 1 < path.size(); ++i)
            busy.push_back(net.link_busy_until(path[i], path[i + 1]));
        return busy;
    }

    SocConfig cfg;
    EventQueue eq;
    noc::MeshTopology topo;
    noc::Network net;
};

TEST_F(InvariantNetFixture, ReferenceMatchesQuietWormholeSend)
{
    const std::uint64_t bytes = 3 * cfg.packet_bytes + 100;
    const std::vector<Tick> prior = prior_busy(0, 15);
    const Cycles ser_full = static_cast<Cycles>(cfg.packet_bytes /
                                                cfg.link_bytes_per_cycle);
    const Cycles ser_tail =
        static_cast<Cycles>((100 + cfg.link_bytes_per_cycle - 1) /
                            cfg.link_bytes_per_cycle);
    const WormholeRef ref =
        wormhole_reference(cfg.router_delay, ser_full, ser_tail, 4,
                           cfg.noc_handshake_cycles, prior);
    const noc::SendResult r = net.send(0, 0, 15, bytes, kNoVm, 0);
    EXPECT_EQ(ref.delivered, r.delivered);
    EXPECT_EQ(ref.sender_free, r.sender_free);
    const std::vector<int> path = net.route_path(0, 15);
    ASSERT_EQ(ref.link_busy.size(), path.size() - 1);
    for (std::size_t i = 0; i + 1 < path.size(); ++i)
        EXPECT_EQ(ref.link_busy[i],
                  net.link_busy_until(path[i], path[i + 1]))
            << "hop " << i;
}

TEST_F(InvariantNetFixture, ReferenceMatchesContendedSend)
{
    // First send occupies the shared prefix of the path; the second
    // send's reference model starts from the contended busy state.
    net.send(0, 0, 3, 5 * cfg.packet_bytes, kNoVm, 0);
    const std::uint64_t bytes = 2 * cfg.packet_bytes;
    const std::vector<Tick> prior = prior_busy(0, 7);
    const Cycles ser = static_cast<Cycles>(cfg.packet_bytes /
                                           cfg.link_bytes_per_cycle);
    const WormholeRef ref =
        wormhole_reference(cfg.router_delay, ser, ser, 2,
                           10 + cfg.noc_handshake_cycles, prior);
    const noc::SendResult r = net.send(10, 0, 7, bytes, kNoVm, 0);
    EXPECT_EQ(ref.delivered, r.delivered);
    EXPECT_EQ(ref.sender_free, r.sender_free);
}

TEST_F(InvariantNetFixture, ReferenceMatchesRelaySend)
{
    cfg.noc_relay_store_forward = true;
    noc::Network relay_net(cfg, topo, eq);
    const std::uint64_t bytes = 3 * cfg.packet_bytes;
    // Store-and-forward is the recurrence with one whole-message packet.
    const Cycles ser =
        static_cast<Cycles>(bytes / cfg.link_bytes_per_cycle);
    const WormholeRef ref = wormhole_reference(
        cfg.router_delay, ser, ser, 1, cfg.noc_handshake_cycles,
        std::vector<Tick>(6, 0));
    const noc::SendResult r = relay_net.send(0, 0, 15, bytes, kNoVm, 0);
    EXPECT_EQ(ref.delivered, r.delivered);
    EXPECT_EQ(ref.sender_free, r.sender_free);
}

// ---- Sanitize builds: the gated call sites are actually live ----------

TEST(SanitizeMode, GatedCallSitesIncrementCounters)
{
    if (!sanitize_enabled())
        GTEST_SKIP() << "build configured without -DVNPU_SANITIZE=ON";
    reset_counters();

    SocConfig cfg = SocConfig::Fpga();
    cfg.mesh_x = 4;
    cfg.mesh_y = 4;
    EventQueue eq;
    noc::MeshTopology topo(cfg.mesh_x, cfg.mesh_y);
    noc::Network net(cfg, topo, eq);

    net.send(0, 0, 5, 4096, kNoVm, 0);
    eq.schedule(100, [] {});
    eq.schedule(100, [] {});
    eq.run();

    EXPECT_GE(counters().noc_sends, 1u);
    EXPECT_GE(counters().event_queue_events, 2u);

    fleet::FleetConfig fc;
    fc.num_devices = 2;
    fc.device = SocConfig::Sim();
    fc.mix = {{"mobilenet", 2, 2, 1.0, 3'000}};
    fc.arrival.mean_gap = 500;
    fc.max_arrivals = 20;
    fleet::FleetSimulator sim(fc);
    sim.run();
    EXPECT_GT(counters().fleet_passes, 0u);
}

} // namespace
} // namespace vnpu::check
