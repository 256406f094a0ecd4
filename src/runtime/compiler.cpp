#include "runtime/compiler.h"

#include <algorithm>

#include "sim/log.h"

namespace vnpu::runtime {

namespace {

using workload::Model;
using workload::PipelinePlan;
using workload::StageSlice;

/** Emit one load of [va, va+bytes) that the core issues in chunks. */
void
emit_chunked_load(core::Program& prog, core::Opcode op, Addr va,
                  std::uint64_t bytes, std::uint64_t chunk_bytes)
{
    if (bytes == 0)
        return;
    const auto chunk =
        static_cast<std::uint32_t>(std::min(chunk_bytes, bytes));
    if (op == core::Opcode::kLoadWeight)
        prog.push_back(core::Instr::load_weight(va, bytes, chunk));
    else
        prog.push_back(core::Instr::load_global(va, bytes, chunk));
}

} // namespace

CompiledWorkload
compile_pipeline(const Model& model, const PipelinePlan& plan,
                 const CompileOptions& opt, Addr va_base,
                 std::uint64_t va_limit)
{
    if (opt.iterations < 1)
        fatal("need at least one iteration");
    if (opt.chunk_bytes == 0 || opt.chunk_bytes > UINT32_MAX) {
        fatal("DMA chunk size must be in [1, ", UINT32_MAX, "] bytes, got ",
              opt.chunk_bytes);
    }

    const int n = plan.num_stages;
    CompiledWorkload out;
    out.programs.resize(n);
    out.weight_bytes.resize(n, 0);

    // ---- Virtual address layout -------------------------------------
    // [weights stage 0..n-1][inputs][edge buffers][final output]
    Addr cursor = va_base;
    std::vector<Addr> weight_va(n);
    for (int s = 0; s < n; ++s) {
        weight_va[s] = cursor;
        std::uint64_t wb = plan.stage_weight_bytes(model, s);
        out.weight_bytes[s] = wb;
        cursor += (wb + 63) / 64 * 64;
    }
    // Model-input buffers, one per stage that hosts an input layer.
    std::vector<Addr> input_va(n, 0);
    std::vector<std::uint64_t> input_bytes(n, 0);
    for (int s = 0; s < n; ++s) {
        std::uint64_t bytes = 0;
        for (const StageSlice& sl : plan.stages[s].slices) {
            if (model.layers[sl.layer].inputs.empty())
                bytes += model.layers[sl.layer].in_bytes(model.batch);
        }
        if (bytes > 0) {
            input_va[s] = cursor;
            input_bytes[s] = bytes;
            cursor += (bytes + 63) / 64 * 64;
        }
    }
    // Edge staging buffers (used by the UVM lowering only, but laid out
    // unconditionally so both modes see identical address maps).
    std::vector<Addr> edge_va(plan.edges.size());
    for (std::size_t e = 0; e < plan.edges.size(); ++e) {
        edge_va[e] = cursor;
        cursor += (plan.edges[e].bytes + 63) / 64 * 64;
    }
    // Final output buffer.
    const workload::Layer& last = model.layers.back();
    Addr out_va = cursor;
    std::uint64_t out_bytes = last.out_bytes(model.batch);
    cursor += (out_bytes + 63) / 64 * 64;

    out.va_used = cursor - va_base;
    if (out.va_used > va_limit) {
        fatal("compiled VA span (", out.va_used,
              " bytes) exceeds the VM's mapped memory (", va_limit,
              " bytes) for model ", model.name);
    }

    // The stage hosting the final layer emits the result.
    int last_stage = -1;
    for (int s = 0; s < n && last_stage < 0; ++s)
        for (const StageSlice& sl : plan.stages[s].slices)
            if (sl.layer == static_cast<int>(model.layers.size()) - 1)
                last_stage = s;

    // Completion-token edge for single-stream serving.
    const int done_tag = static_cast<int>(plan.edges.size());
    const bool gate = opt.single_stream && n > 1 && last_stage != 0;

    // ---- Per-stage programs -------------------------------------------
    for (int s = 0; s < n; ++s) {
        core::Program& prog = out.programs[s];
        std::uint64_t wb = out.weight_bytes[s];

        // Warm-up: resident weights load once before the first iteration.
        if (!opt.stream_weights && wb > 0) {
            emit_chunked_load(prog, core::Opcode::kLoadWeight, weight_va[s],
                              wb, opt.chunk_bytes);
        }

        for (int it = 0; it < opt.iterations; ++it) {
            prog.push_back(core::Instr::iter_begin());

            // Wait for the previous inference to drain (latency mode).
            if (gate && s == 0 && it > 0) {
                prog.push_back(core::Instr::recv(last_stage, kUvmFlagBytes,
                                                 done_tag));
            }

            if (opt.stream_weights && wb > 0) {
                emit_chunked_load(prog, core::Opcode::kLoadWeight,
                                  weight_va[s], wb, opt.chunk_bytes);
            }
            if (input_bytes[s] > 0) {
                emit_chunked_load(prog, core::Opcode::kLoadGlobal,
                                  input_va[s], input_bytes[s],
                                  opt.chunk_bytes);
            }

            // Incoming edges.
            for (std::size_t e = 0; e < plan.edges.size(); ++e) {
                const workload::CommEdge& edge = plan.edges[e];
                if (edge.dst_stage != s)
                    continue;
                if (opt.comm == CommMode::kDataflow) {
                    prog.push_back(core::Instr::recv(
                        edge.src_stage, edge.bytes, edge.tag));
                } else {
                    prog.push_back(core::Instr::recv(
                        edge.src_stage, kUvmFlagBytes, edge.tag));
                    prog.push_back(core::Instr::load_global(edge_va[e],
                                                            edge.bytes));
                }
            }

            // Compute.
            for (const StageSlice& sl : plan.stages[s].slices) {
                prog.push_back(core::Instr{});
                prog.back().op = core::Opcode::kCompute;
                prog.back().dims = model.layers[sl.layer].lowered(
                    model.batch, sl.fraction);
            }

            // Outgoing edges.
            for (std::size_t e = 0; e < plan.edges.size(); ++e) {
                const workload::CommEdge& edge = plan.edges[e];
                if (edge.src_stage != s)
                    continue;
                if (opt.comm == CommMode::kDataflow) {
                    prog.push_back(core::Instr::send(
                        edge.dst_stage, edge.bytes, edge.tag));
                } else {
                    prog.push_back(core::Instr::store_global(edge_va[e],
                                                             edge.bytes));
                    prog.push_back(core::Instr::send(
                        edge.dst_stage, kUvmFlagBytes, edge.tag));
                }
            }

            // Final result leaves through global memory in both modes.
            if (s == last_stage && out_bytes > 0)
                prog.push_back(core::Instr::store_global(out_va, out_bytes));

            // Completion token back to stage 0 (latency mode).
            if (gate && s == last_stage && it + 1 < opt.iterations)
                prog.push_back(core::Instr::send(0, kUvmFlagBytes,
                                                 done_tag));
        }
        prog.push_back(core::Instr::halt());
    }
    return out;
}

} // namespace vnpu::runtime
