#include "noc/topology.h"

#include <algorithm>
#include <cstdlib>

#include "sim/log.h"

namespace vnpu::noc {

const char*
to_string(Direction d)
{
    switch (d) {
      case Direction::kEast:  return "E";
      case Direction::kWest:  return "W";
      case Direction::kNorth: return "N";
      case Direction::kSouth: return "S";
      case Direction::kLocal: return "L";
    }
    return "?";
}

MeshTopology::MeshTopology(int w, int h) : w_(w), h_(h)
{
    if (w <= 0 || h <= 0 || w * h > kMaxMeshNodes)
        fatal("invalid mesh dimensions ", w, "x", h);
}

int
MeshTopology::hop_distance(int a, int b) const
{
    VNPU_ASSERT(valid(a) && valid(b));
    return std::abs(x_of(a) - x_of(b)) + std::abs(y_of(a) - y_of(b));
}

bool
MeshTopology::adjacent(int a, int b) const
{
    return hop_distance(a, b) == 1;
}

Direction
MeshTopology::dir_to(int from, int to) const
{
    VNPU_ASSERT(adjacent(from, to));
    if (to == from + 1)
        return Direction::kEast;
    if (to == from - 1)
        return Direction::kWest;
    if (to == from - w_)
        return Direction::kNorth;
    return Direction::kSouth;
}

int
MeshTopology::neighbor(int id, Direction d) const
{
    VNPU_ASSERT(valid(id));
    int x = x_of(id), y = y_of(id);
    switch (d) {
      case Direction::kEast:  return x + 1 < w_ ? id + 1 : kInvalidCore;
      case Direction::kWest:  return x > 0 ? id - 1 : kInvalidCore;
      case Direction::kNorth: return y > 0 ? id - w_ : kInvalidCore;
      case Direction::kSouth: return y + 1 < h_ ? id + w_ : kInvalidCore;
      case Direction::kLocal: return id;
    }
    return kInvalidCore;
}

int
MeshTopology::xy_next_hop(int cur, int dst) const
{
    VNPU_ASSERT(valid(cur) && valid(dst) && cur != dst);
    if (x_of(cur) < x_of(dst))
        return cur + 1;
    if (x_of(cur) > x_of(dst))
        return cur - 1;
    return y_of(cur) < y_of(dst) ? cur + w_ : cur - w_;
}

graph::Graph
MeshTopology::to_graph() const
{
    return graph::Graph::mesh(w_, h_);
}

graph::Graph
MeshTopology::induced(const std::vector<int>& ids) const
{
    const int k = static_cast<int>(ids.size());
    auto rank_of = [&ids](int id) {
        auto it = std::lower_bound(ids.begin(), ids.end(), id);
        return it != ids.end() && *it == id
                   ? static_cast<int>(it - ids.begin())
                   : -1;
    };
    graph::Graph g(k);
    for (int i = 0; i < k; ++i) {
        VNPU_ASSERT(valid(ids[i]) && (i == 0 || ids[i - 1] < ids[i]));
        const int east = x_of(ids[i]) + 1 < w_ ? rank_of(ids[i] + 1) : -1;
        const int south = rank_of(ids[i] + w_);
        if (east >= 0)
            g.add_edge(i, east);
        if (south >= 0)
            g.add_edge(i, south);
    }
    return g;
}

int
MeshTopology::channel_of(int id, int channels) const
{
    VNPU_ASSERT(valid(id) && channels > 0);
    return y_of(id) % channels;
}

int
MeshTopology::interfaces_of(const CoreSet& cores, int channels) const
{
    // One bit per channel in the u64 accumulator; channel counts
    // beyond 64 would alias silently, so reject them outright.
    if (channels <= 0 || channels > 64)
        fatal("interfaces_of supports 1..64 channels, got ", channels);
    std::uint64_t seen = 0;
    for (int id : cores)
        seen |= std::uint64_t{1} << channel_of(id, channels);
    return __builtin_popcountll(seen);
}

std::vector<int>
MeshTopology::memory_distance_labels() const
{
    // Interfaces are on the west edge: distance is simply the x coord.
    std::vector<int> labels(num_nodes());
    for (int id = 0; id < num_nodes(); ++id)
        labels[id] = x_of(id);
    return labels;
}

} // namespace vnpu::noc
