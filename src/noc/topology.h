/**
 * @file
 * 2D mesh topology: coordinates, dimension-order (XY) routing, memory
 * interface placement, and conversion to the generic graph type.
 */

#ifndef VNPU_NOC_TOPOLOGY_H
#define VNPU_NOC_TOPOLOGY_H

#include <vector>

#include "graph/graph.h"
#include "sim/types.h"

namespace vnpu::noc {

/** Mesh link directions (kLocal = ejection to the attached core). */
enum class Direction : std::uint8_t {
    kEast = 0,
    kWest = 1,
    kNorth = 2,
    kSouth = 3,
    kLocal = 4,
};

/** Printable name for a direction. */
const char* to_string(Direction d);

/**
 * Largest mesh the model supports, end to end: routing, link timing,
 * and every `CoreSet` region API (confined routes, interface counting,
 * the virtualization stack) all handle meshes up to this size.
 */
inline constexpr int kMaxMeshNodes = CoreSet::kCapacity;

/**
 * A W x H 2D mesh of NPU cores. Node (x, y) has id y*W + x; row 0 is the
 * "north" edge. HBM memory interfaces sit on the west edge, one per row,
 * striped across the configured number of HBM channels.
 */
class MeshTopology {
  public:
    MeshTopology(int w, int h);

    int width() const { return w_; }
    int height() const { return h_; }
    int num_nodes() const { return w_ * h_; }

    int x_of(int id) const { return id % w_; }
    int y_of(int id) const { return id / w_; }
    int id_of(int x, int y) const { return y * w_ + x; }
    bool valid(int id) const { return id >= 0 && id < num_nodes(); }

    /** Manhattan hop distance. */
    int hop_distance(int a, int b) const;

    /** True when a and b share a mesh link. */
    bool adjacent(int a, int b) const;

    /** Direction of the link from `from` to adjacent node `to`. */
    Direction dir_to(int from, int to) const;

    /** Neighbor of `id` in direction `d`, or kInvalidCore off-mesh. */
    int neighbor(int id, Direction d) const;

    /**
     * Next hop under deterministic dimension-order routing: route along
     * X first, then Y (deadlock-free on meshes). @pre cur != dst
     */
    int xy_next_hop(int cur, int dst) const;

    /** The whole mesh as a generic graph. */
    graph::Graph to_graph() const;

    /**
     * `to_graph().induced(ids)` from mesh coordinates alone, in
     * O(k log k) and without building the whole mesh: node i is
     * ids[i], linked to its east and south mesh neighbours among ids.
     * @pre ids ascending, each valid
     */
    graph::Graph induced(const std::vector<int>& ids) const;

    /**
     * HBM channel serving node `id` when the chip has `channels`
     * channels: interfaces are on the west edge, one per row.
     */
    int channel_of(int id, int channels) const;

    /**
     * Number of distinct HBM channels reachable by the given core set —
     * the paper allocates bandwidth proportional to the number of
     * memory interfaces associated with a virtual NPU.
     */
    int interfaces_of(const CoreSet& cores, int channels) const;

    /**
     * Per-node "distance to nearest memory interface" labels, used as
     * heterogeneity labels for the topology mapper's node-match penalty.
     */
    std::vector<int> memory_distance_labels() const;

  private:
    int w_;
    int h_;
};

} // namespace vnpu::noc

#endif // VNPU_NOC_TOPOLOGY_H
