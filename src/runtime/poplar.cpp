#include "runtime/poplar.h"

#include <map>
#include <set>
#include <utility>

#include "core/isa.h"
#include "sim/log.h"

namespace vnpu::runtime::poplar {

std::uint64_t
type_bytes(Type t)
{
    return t == Type::FLOAT ? 4 : 2;
}

Graph::Graph(Machine& machine, const virt::VirtualNpu* vnpu)
    : machine_(machine), vnpu_(vnpu)
{
}

Tensor
Graph::addVariable(Type type, const std::vector<std::size_t>& shape,
                   const std::string& name)
{
    TensorInfo info;
    info.name = name;
    info.elems = 1;
    for (std::size_t d : shape)
        info.elems *= d;
    info.bytes = info.elems * type_bytes(type);
    tensors_.push_back(info);
    return Tensor{static_cast<int>(tensors_.size()) - 1};
}

Tensor
Graph::addConstant(Type type, const std::vector<std::size_t>& shape,
                   const std::string& name)
{
    Tensor t = addVariable(type, shape, name);
    tensors_[t.id].host = true;
    return t;
}

void
Graph::setTileMapping(Tensor t, int tile)
{
    VNPU_ASSERT(t.valid() && t.id < static_cast<int>(tensors_.size()));
    tensors_[t.id].tile = tile;
}

ComputeSet
Graph::addComputeSet(const std::string&)
{
    return ComputeSet{num_compute_sets_++};
}

VertexRef
Graph::addVertex(ComputeSet cs, const std::string& codelet)
{
    VertexInfo v;
    v.codelet = codelet;
    v.cs = cs.id;
    vertices_.push_back(v);
    return VertexRef{static_cast<int>(vertices_.size()) - 1};
}

void
Graph::connect(VertexRef v, const std::string& field, Tensor t)
{
    VNPU_ASSERT(v.id >= 0 && v.id < static_cast<int>(vertices_.size()));
    if (field.rfind("out", 0) == 0)
        vertices_[v.id].out_tensors.push_back(t.id);
    else
        vertices_[v.id].in_tensors.push_back(t.id);
}

void
Graph::setTileMapping(VertexRef v, int tile)
{
    VNPU_ASSERT(v.id >= 0 && v.id < static_cast<int>(vertices_.size()));
    vertices_[v.id].tile = tile;
}

void
Graph::setPerfEstimate(VertexRef v, Cycles cycles)
{
    vertices_[v.id].perf_estimate = cycles;
}

Engine::Engine(Graph& graph, Sequence prog)
    : graph_(graph), prog_(std::move(prog))
{
}

RunStats
Engine::run(int iterations)
{
    Machine& m = graph_.machine();
    const SocConfig& cfg = m.config();
    const virt::VirtualNpu* vnpu = graph_.vnpu();

    // Resolve tiles used by the program.
    std::set<int> tiles;
    for (const auto& t : graph_.tensors_)
        if (!t.host && t.tile >= 0)
            tiles.insert(t.tile);
    for (const auto& v : graph_.vertices_)
        if (v.tile >= 0)
            tiles.insert(v.tile);
    if (tiles.empty())
        fatal("poplar program uses no tiles");

    auto phys_of = [&](int tile) -> CoreId {
        if (!vnpu)
            return tile;
        return vnpu->phys_of(tile);
    };

    // Per-tile instruction streams (virtual peer ids in send/recv).
    std::map<int, core::Program> progs;
    for (int t : tiles)
        progs[t] = {};

    // Tensor VA layout for host constants.
    Addr va = 0x10000;
    if (vnpu && vnpu->has_memory())
        va = vnpu->range_table().entry(0).va;
    std::map<int, Addr> tensor_va;
    for (std::size_t i = 0; i < graph_.tensors_.size(); ++i) {
        if (graph_.tensors_[i].host) {
            tensor_va[static_cast<int>(i)] = va;
            va += (graph_.tensors_[i].bytes + 63) / 64 * 64;
        }
    }

    int tag = 0;
    auto lower_once = [&]() {
        for (const Sequence::Step& step : prog_.steps()) {
            if (std::holds_alternative<Copy>(step)) {
                const Copy& c = std::get<Copy>(step);
                const auto& src = graph_.tensors_[c.src.id];
                const auto& dst = graph_.tensors_[c.dst.id];
                if (dst.tile < 0)
                    fatal("Copy destination '", dst.name, "' has no tile");
                if (src.host) {
                    progs[dst.tile].push_back(core::Instr::load_global(
                        tensor_va.at(c.src.id), src.bytes));
                } else if (src.tile == dst.tile) {
                    progs[dst.tile].push_back(
                        core::Instr::vector_op(
                            static_cast<std::int64_t>(src.elems)));
                } else {
                    progs[src.tile].push_back(
                        core::Instr::send(dst.tile, src.bytes, tag));
                    progs[dst.tile].push_back(
                        core::Instr::recv(src.tile, src.bytes, tag));
                    ++tag;
                }
            } else {
                const Execute& e = std::get<Execute>(step);
                for (const auto& v : graph_.vertices_) {
                    if (v.cs != e.cs.id)
                        continue;
                    if (v.tile < 0)
                        fatal("vertex of codelet ", v.codelet,
                              " has no tile mapping");
                    // Fetch remote inputs first.
                    for (int tid : v.in_tensors) {
                        const auto& t = graph_.tensors_[tid];
                        if (t.host) {
                            progs[v.tile].push_back(
                                core::Instr::load_global(tensor_va.at(tid),
                                                         t.bytes));
                        } else if (t.tile != v.tile) {
                            progs[t.tile].push_back(core::Instr::send(
                                v.tile, t.bytes, tag));
                            progs[v.tile].push_back(core::Instr::recv(
                                t.tile, t.bytes, tag));
                            ++tag;
                        }
                    }
                    // The vertex body.
                    if (v.perf_estimate > 0) {
                        progs[v.tile].push_back(core::Instr::vector_op(
                            static_cast<std::int64_t>(v.perf_estimate) *
                            cfg.vector_lanes));
                    } else {
                        std::int64_t elems = 0;
                        for (int tid : v.in_tensors)
                            elems += static_cast<std::int64_t>(
                                graph_.tensors_[tid].elems);
                        progs[v.tile].push_back(
                            core::Instr::vector_op(std::max<std::int64_t>(
                                1, elems)));
                    }
                }
            }
        }
    };

    for (int it = 0; it < iterations; ++it) {
        for (auto& [tile, prog] : progs)
            prog.push_back(core::Instr::iter_begin());
        lower_once();
    }
    for (auto& [tile, prog] : progs)
        prog.push_back(core::Instr::halt());

    // Install contexts with the appropriate virtualization hooks.
    std::vector<std::pair<CoreId, int>> ctxs;
    for (auto& [tile, prog] : progs) {
        core::ContextConfig ccfg;
        ccfg.vm = vnpu ? vnpu->vm() : kNoVm;
        if (vnpu) {
            vrouters_.push_back(std::make_unique<virt::NocVRouter>(
                cfg, vnpu->routing_table(), vnpu->confined_routes()));
            ccfg.vrouter = vrouters_.back().get();
            if (vnpu->has_memory()) {
                vchunks_.push_back(std::make_unique<virt::VChunk>(
                    cfg, vnpu->range_table(), 4));
                ccfg.translator = vchunks_.back()->translator();
            }
        }
        CoreId pcore = phys_of(tile);
        ctxs.emplace_back(pcore,
                          m.core(pcore).add_context(std::move(prog), ccfg));
    }

    Tick end = m.run();

    RunStats stats;
    stats.cycles = end;
    stats.noc_bytes = m.network().stats().bytes.value();
    stats.dma_bytes = m.dram().total_bytes();
    for (auto [pcore, ctx] : ctxs)
        stats.flops += m.core(pcore).context_stats(ctx).flops;
    return stats;
}

} // namespace vnpu::runtime::poplar
