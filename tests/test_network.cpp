/**
 * @file
 * Tests for the packet-level NoC: routing, pipelining, contention,
 * confined routes and interference accounting.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>

#include "noc/network.h"
#include "obs/metrics.h"
#include "sim/config.h"
#include "sim/event_queue.h"

namespace vnpu::noc {
namespace {

struct NetFixture : public ::testing::Test {
    NetFixture()
        : cfg(make_cfg()), topo(cfg.mesh_x, cfg.mesh_y), net(cfg, topo, eq)
    {
    }

    static SocConfig
    make_cfg()
    {
        SocConfig c = SocConfig::Fpga();
        c.mesh_x = 4;
        c.mesh_y = 4;
        return c;
    }

    SocConfig cfg;
    EventQueue eq;
    MeshTopology topo;
    Network net;
};

TEST_F(NetFixture, RoutePathFollowsXy)
{
    EXPECT_EQ(net.route_path(0, 15),
              (std::vector<int>{0, 1, 2, 3, 7, 11, 15}));
    EXPECT_EQ(net.route_path(5, 6), (std::vector<int>{5, 6}));
}

TEST_F(NetFixture, SingleMessageTiming)
{
    // One 2048-byte packet over one hop:
    // handshake(20) + router(2) + 2048/16 = 128 -> done at 150.
    SendResult r = net.send(0, 0, 1, 2048, kNoVm, 0);
    EXPECT_EQ(r.hops, 1);
    EXPECT_EQ(r.delivered, 20u + 2u + 128u);
    // The sender frees once the packet leaves the first (only) link.
    EXPECT_EQ(r.sender_free, r.delivered);
}

TEST_F(NetFixture, RelayStoreAndForwardChargesPerHop)
{
    // Default relay mode (Figure 5): every hop re-serializes the whole
    // message, so a 3-hop transfer costs ~3x the 1-hop transfer.
    SendResult near = net.send(0, 0, 1, 4096, kNoVm, 0);
    EXPECT_EQ(near.delivered, 20u + 2u + 256u);
    net.reset();
    SendResult far = net.send(0, 0, 3, 4096, kNoVm, 0);
    EXPECT_EQ(far.delivered, 20u + 3u * (2u + 256u));
}

TEST_F(NetFixture, WormholeModePipelinesPackets)
{
    SocConfig wcfg = make_cfg();
    wcfg.noc_relay_store_forward = false;
    EventQueue weq;
    Network wnet(wcfg, topo, weq);

    // Two packets over one hop: the second serializes after the first.
    SendResult two = wnet.send(0, 0, 1, 4096, kNoVm, 0);
    EXPECT_EQ(two.delivered, 20u + 2u * (2 + 128));

    // Over 3 hops, packets pipeline: doubling the payload adds only
    // one link-time, not three.
    wnet.reset();
    SendResult far1 = wnet.send(0, 0, 3, 2048, kNoVm, 0);
    wnet.reset();
    SendResult far2 = wnet.send(0, 0, 3, 4096, kNoVm, 0);
    EXPECT_EQ(far2.delivered - far1.delivered, 130u);
}

TEST_F(NetFixture, DeliveryCallbackFiresAtArrival)
{
    Tick delivered_at = 0;
    int got_tag = -1;
    net.set_deliver_callback([&](int dst, int src, std::uint64_t bytes,
                                 int tag, VmId vm, bool credit) {
        EXPECT_EQ(dst, 5);
        EXPECT_EQ(src, 0);
        EXPECT_EQ(bytes, 2048u);
        EXPECT_EQ(vm, 3);
        EXPECT_FALSE(credit);
        got_tag = tag;
        delivered_at = eq.now();
    });
    SendResult r = net.send(0, 0, 5, 2048, 3, 42);
    eq.run();
    EXPECT_EQ(got_tag, 42);
    EXPECT_EQ(delivered_at, r.delivered);
}

TEST_F(NetFixture, LocalLoopbackSkipsLinks)
{
    // No links are reserved, but the 1 MiB payload still serializes
    // through the send/receive engine at link bandwidth and the packet
    // counter sees the message (Fig. 3/13 local-traffic accounting).
    SendResult r = net.send(100, 7, 7, 1 << 20, kNoVm, 0);
    EXPECT_EQ(r.hops, 0);
    Cycles ser = (1 << 20) / 16; // 65536 cycles at 16 B/cycle
    EXPECT_EQ(r.delivered, 100u + cfg.noc_handshake_cycles + ser);
    EXPECT_EQ(r.sender_free, r.delivered);
    EXPECT_EQ(net.stats().local_deliveries.value(), 1u);
    EXPECT_EQ(net.stats().packets.value(), (1u << 20) / 2048);
    // Links stay idle: a later remote message sees no contention.
    EXPECT_EQ(net.link_busy_until(7, 6), 0u);
}

TEST_F(NetFixture, LoopbackDeliveryCallbackFires)
{
    Tick delivered_at = 0;
    net.set_deliver_callback([&](int dst, int src, std::uint64_t bytes,
                                 int, VmId, bool) {
        EXPECT_EQ(dst, 3);
        EXPECT_EQ(src, 3);
        EXPECT_EQ(bytes, 4096u);
        delivered_at = eq.now();
    });
    SendResult r = net.send(0, 3, 3, 4096, kNoVm, 0);
    eq.run();
    EXPECT_EQ(delivered_at, r.delivered);
    EXPECT_EQ(r.delivered, cfg.noc_handshake_cycles + 4096u / 16u);
}

TEST_F(NetFixture, ContentionSerializesSharedLink)
{
    // Two flows share link 0->1.
    SendResult a = net.send(0, 0, 1, 2048, 1, 0);
    SendResult b = net.send(0, 0, 1, 2048, 2, 1);
    EXPECT_GT(b.delivered, a.delivered);
    EXPECT_GE(b.delivered, a.delivered + 128);
}

TEST_F(NetFixture, DisjointFlowsDoNotContend)
{
    SendResult a = net.send(0, 0, 1, 2048, 1, 0);
    SendResult b = net.send(0, 14, 15, 2048, 2, 1);
    EXPECT_EQ(a.delivered, b.delivered);
}

TEST_F(NetFixture, InterferenceAccounting)
{
    // Default DOR: vm 1 and vm 2 share the 1->2 link.
    net.send(0, 1, 2, 2048, 1, 0);
    net.send(0, 1, 2, 2048, 2, 1);
    EXPECT_EQ(net.interference_links(), 1);
    net.reset();
    EXPECT_EQ(net.interference_links(), 0);
}

TEST_F(NetFixture, InterferenceTellsApartAnyVmIds)
{
    // Hypervisor VM ids only grow, so ids of 64 and up share links too.
    net.send(0, 1, 2, 2048, 64, 0);
    net.send(0, 1, 2, 2048, 65, 1);
    EXPECT_EQ(net.interference_links(), 1);
    net.reset();
    net.send(0, 1, 2, 2048, 3, 0);
    net.send(0, 1, 2, 2048, 67, 1);
    EXPECT_EQ(net.interference_links(), 1);
    net.reset();
    net.send(0, 1, 2, 2048, 70, 0);
    net.send(0, 1, 2, 2048, 70, 1);
    EXPECT_EQ(net.interference_links(), 0);
}

TEST_F(NetFixture, ConfinedRoutingStaysInsideRegion)
{
    // L-shaped region: 0, 4, 8, 9, 10. XY routing 0->10 would go
    // through 1, 2 (outside); the override must stay inside.
    CoreSet region = core_bit(0) | core_bit(4) | core_bit(8) |
                     core_bit(9) | core_bit(10);
    RouteOverride ov = RouteOverride::build_confined(topo, region);
    std::vector<int> path = net.route_path(0, 10, &ov);
    EXPECT_EQ(path, (std::vector<int>{0, 4, 8, 9, 10}));
    for (int node : path)
        EXPECT_TRUE(region.test(node)) << "node " << node;

    // Without the override, XY leaves the region.
    std::vector<int> dor = net.route_path(0, 10, nullptr);
    bool leaves = false;
    for (int node : dor)
        if (!region.test(node))
            leaves = true;
    EXPECT_TRUE(leaves);
}

TEST_F(NetFixture, ConfinedRoutingEliminatesInterference)
{
    // vm1 owns the left 2 columns, vm2 the right 2 columns.
    CoreSet left, right;
    for (int y = 0; y < 4; ++y) {
        left |= core_bit(topo.id_of(0, y)) | core_bit(topo.id_of(1, y));
        right |= core_bit(topo.id_of(2, y)) | core_bit(topo.id_of(3, y));
    }
    RouteOverride ov_l = RouteOverride::build_confined(topo, left);
    RouteOverride ov_r = RouteOverride::build_confined(topo, right);
    // Both VMs send column-spanning traffic within their own halves.
    net.send(0, topo.id_of(0, 0), topo.id_of(1, 3), 8192, 1, 0, &ov_l);
    net.send(0, topo.id_of(3, 0), topo.id_of(2, 3), 8192, 2, 1, &ov_r);
    EXPECT_EQ(net.interference_links(), 0);
    EXPECT_EQ(net.stats().confined_messages.value(), 2u);
}

TEST_F(NetFixture, ZeroByteSendFollowsConfinedRoute)
{
    // Zero-byte wormhole messages occupy no links but must still
    // report the confined route's hop count, not Manhattan distance.
    SocConfig wcfg = make_cfg();
    wcfg.noc_relay_store_forward = false;
    EventQueue weq;
    Network wnet(wcfg, topo, weq);
    CoreSet region = core_bit(0) | core_bit(4) | core_bit(8) |
                     core_bit(9) | core_bit(10);
    RouteOverride ov = RouteOverride::build_confined(topo, region);
    SendResult r = wnet.send(0, 0, 10, 0, 1, 0, &ov);
    EXPECT_EQ(r.hops, 4);               // 0->4->8->9->10, not 3 (Manhattan)
    EXPECT_EQ(r.delivered, 0u);         // no packets, instant
    EXPECT_EQ(wnet.link_busy_until(0, 4), 0u); // no link reserved
}

TEST_F(NetFixture, OverrideRequiresConnectedRegion)
{
    CoreSet split = core_bit(0) | core_bit(15);
    EXPECT_THROW(RouteOverride::build_confined(topo, split), SimFatal);
}

TEST_F(NetFixture, StatsCountMessagesAndBytes)
{
    net.send(0, 0, 1, 5000, kNoVm, 0);
    EXPECT_EQ(net.stats().messages.value(), 1u);
    EXPECT_EQ(net.stats().bytes.value(), 5000u);
    EXPECT_EQ(net.stats().packets.value(), 3u); // ceil(5000/2048)
}

/** Sum an integer field over every `"field": N` occurrence in `json`. */
static std::uint64_t
sum_json_field(const std::string& json, const std::string& field)
{
    const std::string key = "\"" + field + "\": ";
    std::uint64_t sum = 0;
    for (std::size_t pos = json.find(key); pos != std::string::npos;
         pos = json.find(key, pos + key.size())) {
        sum += std::strtoull(json.c_str() + pos + key.size(), nullptr, 10);
    }
    return sum;
}

TEST_F(NetFixture, LinkHeatmapJsonIsStructuredAndConservesFlits)
{
    net.send(0, 0, 5, 4096, kNoVm, 1);
    net.send(0, 3, 12, 2048, kNoVm, 2);
    net.send(5, 2, 2, 512, kNoVm, 3); // loopback: no link traffic
    eq.run();

    std::ostringstream os;
    net.write_link_heatmap(os, 1000);
    const std::string j = os.str();

    // Structure: a JSON array whose entries carry all four fields.
    ASSERT_FALSE(j.empty());
    EXPECT_EQ(j.front(), '[');
    EXPECT_EQ(j.substr(j.size() - 3), "\n]\n");
    EXPECT_NE(j.find("\"from\": "), std::string::npos);
    EXPECT_NE(j.find("\"to\": "), std::string::npos);
    EXPECT_NE(j.find("\"flits\": "), std::string::npos);
    EXPECT_NE(j.find("\"busy_ticks\": "), std::string::npos);
    EXPECT_NE(j.find("\"utilization\": "), std::string::npos);

    // Conservation: the JSON's flit total equals both the raw link
    // counters and the neutral obs records the sampler consumes.
    std::uint64_t counter_flits = 0;
    for (const LinkCounters& c : net.link_counters())
        counter_flits += c.flits;
    ASSERT_GT(counter_flits, 0u);
    EXPECT_EQ(sum_json_field(j, "flits"), counter_flits);

    std::vector<obs::LinkRecord> recs;
    net.append_link_records(recs);
    std::uint64_t rec_flits = 0;
    for (const obs::LinkRecord& r : recs)
        rec_flits += r.flits;
    EXPECT_EQ(rec_flits, counter_flits);
    // Records cover EVERY valid directed link (stable index order for
    // window diffing): 2 * (2 * 3 * 4) directed links on a 4x4 mesh.
    EXPECT_EQ(recs.size(), 48u);
}

TEST_F(NetFixture, LinkHeatmapOfIdleNetworkIsAnEmptyArray)
{
    std::ostringstream os;
    net.write_link_heatmap(os, 0);
    EXPECT_EQ(os.str(), "[\n]\n");
    // Zero-traffic export parses as an (empty) array and stays stable
    // with a nonzero elapsed argument too.
    std::ostringstream os2;
    net.write_link_heatmap(os2, 1234);
    EXPECT_EQ(os2.str(), "[\n]\n");
}

} // namespace
} // namespace vnpu::noc
