/**
 * @file
 * Unit tests for the 2D mesh topology.
 */

#include <gtest/gtest.h>

#include <vector>

#include "noc/topology.h"
#include "sim/log.h"
#include "sim/rng.h"

namespace vnpu::noc {
namespace {

TEST(TopologyTest, CoordinateMapping)
{
    MeshTopology t(4, 3);
    EXPECT_EQ(t.num_nodes(), 12);
    EXPECT_EQ(t.id_of(2, 1), 6);
    EXPECT_EQ(t.x_of(6), 2);
    EXPECT_EQ(t.y_of(6), 1);
    EXPECT_TRUE(t.valid(0));
    EXPECT_TRUE(t.valid(11));
    EXPECT_FALSE(t.valid(12));
    EXPECT_FALSE(t.valid(-1));
}

TEST(TopologyTest, HopDistanceIsManhattan)
{
    MeshTopology t(4, 4);
    EXPECT_EQ(t.hop_distance(0, 0), 0);
    EXPECT_EQ(t.hop_distance(0, 3), 3);
    EXPECT_EQ(t.hop_distance(0, 15), 6);
    EXPECT_EQ(t.hop_distance(5, 10), 2);
}

TEST(TopologyTest, NeighborsAndDirections)
{
    MeshTopology t(3, 3);
    EXPECT_EQ(t.neighbor(4, Direction::kEast), 5);
    EXPECT_EQ(t.neighbor(4, Direction::kWest), 3);
    EXPECT_EQ(t.neighbor(4, Direction::kNorth), 1);
    EXPECT_EQ(t.neighbor(4, Direction::kSouth), 7);
    EXPECT_EQ(t.neighbor(4, Direction::kLocal), 4);
    // Mesh boundary.
    EXPECT_EQ(t.neighbor(0, Direction::kWest), kInvalidCore);
    EXPECT_EQ(t.neighbor(0, Direction::kNorth), kInvalidCore);
    EXPECT_EQ(t.neighbor(8, Direction::kEast), kInvalidCore);
    EXPECT_EQ(t.neighbor(8, Direction::kSouth), kInvalidCore);

    EXPECT_EQ(t.dir_to(4, 5), Direction::kEast);
    EXPECT_EQ(t.dir_to(4, 1), Direction::kNorth);
}

TEST(TopologyTest, XyRoutingGoesXFirst)
{
    MeshTopology t(4, 4);
    // 0 -> 15: east first.
    int cur = 0;
    std::vector<int> path;
    while (cur != 15) {
        cur = t.xy_next_hop(cur, 15);
        path.push_back(cur);
    }
    EXPECT_EQ(path, (std::vector<int>{1, 2, 3, 7, 11, 15}));
    // Same column: straight south.
    EXPECT_EQ(t.xy_next_hop(1, 13), 5);
    // West movement.
    EXPECT_EQ(t.xy_next_hop(3, 0), 2);
}

TEST(TopologyTest, ChannelAssignmentByRow)
{
    MeshTopology t(6, 6);
    EXPECT_EQ(t.channel_of(0, 6), 0);
    EXPECT_EQ(t.channel_of(6, 6), 1);   // row 1
    EXPECT_EQ(t.channel_of(35, 6), 5);  // row 5
    // Fewer channels than rows: striped.
    EXPECT_EQ(t.channel_of(35, 2), 1);
}

TEST(TopologyTest, InterfaceCountOfRegions)
{
    MeshTopology t(6, 6);
    // One full row touches exactly one channel.
    CoreSet row0;
    for (int x = 0; x < 6; ++x)
        row0.set(t.id_of(x, 0));
    EXPECT_EQ(t.interfaces_of(row0, 6), 1);
    // A 2x2 block spans two rows -> two interfaces.
    CoreSet block = core_bit(t.id_of(0, 0)) | core_bit(t.id_of(1, 0)) |
                    core_bit(t.id_of(0, 1)) | core_bit(t.id_of(1, 1));
    EXPECT_EQ(t.interfaces_of(block, 6), 2);
    // The whole chip reaches all channels.
    CoreSet all = CoreSet::first_n(36);
    EXPECT_EQ(t.interfaces_of(all, 6), 6);
}

TEST(TopologyTest, InterfaceCountBeyond32Channels)
{
    // Regression: the channel accumulator was 32-bit, so `1u << ch`
    // silently wrapped (or worse) for 33+ channels. A 40-row mesh
    // with one core per row must now report every channel.
    MeshTopology t(2, 40);
    CoreSet col;
    for (int y = 0; y < 40; ++y)
        col.set(t.id_of(0, y));
    EXPECT_EQ(t.interfaces_of(col, 40), 40);
    EXPECT_EQ(t.interfaces_of(col, 33), 33);
    EXPECT_EQ(t.interfaces_of(col, 64), 40);
    // A single high-row core maps to a channel index above 31.
    EXPECT_EQ(t.interfaces_of(core_bit(t.id_of(1, 39)), 64), 1);
    // Channel counts past the 64-bit accumulator are rejected.
    EXPECT_THROW(t.interfaces_of(col, 65), SimFatal);
}

TEST(TopologyTest, MemoryDistanceLabels)
{
    MeshTopology t(4, 2);
    auto labels = t.memory_distance_labels();
    EXPECT_EQ(labels[0], 0);
    EXPECT_EQ(labels[3], 3);
    EXPECT_EQ(labels[4], 0);
    EXPECT_EQ(labels[7], 3);
}

TEST(TopologyTest, ToGraphMatchesMesh)
{
    MeshTopology t(3, 2);
    graph::Graph g = t.to_graph();
    EXPECT_EQ(g.num_nodes(), 6);
    EXPECT_EQ(g.num_edges(), 7);
    EXPECT_TRUE(g.has_edge(0, 1));
    EXPECT_TRUE(g.has_edge(2, 5));
}

TEST(TopologyTest, InducedMatchesFullMeshInduced)
{
    struct Dims {
        int w, h;
    };
    for (Dims d : {Dims{1, 16}, Dims{16, 1}, Dims{5, 7}, Dims{12, 10},
                   Dims{32, 32}}) {
        MeshTopology t(d.w, d.h);
        const graph::Graph mesh = t.to_graph();
        Rng rng(0x1d0c + static_cast<std::uint64_t>(t.num_nodes()));
        for (int keep_pct : {5, 50, 90, 100}) {
            std::vector<int> ids;
            for (int id = 0; id < t.num_nodes(); ++id)
                if (static_cast<int>(rng.next_below(100)) < keep_pct)
                    ids.push_back(id);
            EXPECT_EQ(t.induced(ids), mesh.induced(ids))
                << d.w << "x" << d.h << " keeping " << keep_pct << "%";
        }
    }
    EXPECT_EQ(MeshTopology(4, 4).induced({}).num_nodes(), 0);
}

TEST(TopologyTest, RejectsOversizedMesh)
{
    // Pure-topology meshes may exceed kMaxCores (large-mesh golden
    // traces), but not the kMaxMeshNodes routing-model limit.
    EXPECT_NO_THROW(MeshTopology(16, 16));
    EXPECT_THROW(MeshTopology(40, 40), SimFatal);
    EXPECT_THROW(MeshTopology(0, 4), SimFatal);
}

TEST(TopologyTest, LargeMeshRoutesXy)
{
    MeshTopology t(16, 16);
    EXPECT_EQ(t.num_nodes(), 256);
    // XY: east along row 0, then south down column 15.
    int cur = 0;
    int hops = 0;
    while (cur != 255) {
        cur = t.xy_next_hop(cur, 255);
        ++hops;
    }
    EXPECT_EQ(hops, t.hop_distance(0, 255));
    EXPECT_EQ(hops, 30);
}

} // namespace
} // namespace vnpu::noc
