/**
 * @file
 * Pipeline compiler: lowers a partitioned model to per-virtual-core
 * instruction programs.
 *
 * Two communication lowerings exist:
 *  - kDataflow (inter-core connected NPU): stage edges become
 *    kSend/kRecv over the NoC — intermediate results never touch
 *    global memory.
 *  - kUvmSync (monolithic-NPU baseline): the producer stores the
 *    activation to global memory and raises a 64-byte flag; the
 *    consumer waits on the flag and loads the activation back. This
 *    charges HBM bandwidth for every edge and serializes on memory.
 */

#ifndef VNPU_RUNTIME_COMPILER_H
#define VNPU_RUNTIME_COMPILER_H

#include <cstdint>
#include <vector>

#include "core/isa.h"
#include "workload/partitioner.h"

namespace vnpu::runtime {

/** Dataflow edge lowering mode. */
enum class CommMode { kDataflow, kUvmSync };

/** DMA chunk granularity for weight/input streaming: each load
 *  instruction carries it, and the core issues one transfer per chunk. */
inline constexpr std::uint32_t kDmaChunkBytes = 64 * 1024;

/** Compilation knobs. */
struct CompileOptions {
    int iterations = 4;
    CommMode comm = CommMode::kDataflow;
    /** Reload weights from HBM every iteration (set when the stage's
     *  weights exceed the scratchpad weight-zone). */
    bool stream_weights = false;
    /**
     * Latency-critical serving: at most one inference in flight. The
     * last stage returns a completion token that gates the next
     * iteration of stage 0, so per-hop latency lands on the critical
     * path instead of being hidden by pipelining.
     */
    bool single_stream = false;
};

/** Compiled result: one program per virtual core. */
struct CompiledWorkload {
    std::vector<core::Program> programs;    ///< indexed by virtual core
    std::vector<std::uint64_t> weight_bytes; ///< resident per core
    std::uint64_t va_used = 0;               ///< VA span consumed
};

/**
 * Lower `plan` over `model` into per-core programs. Virtual addresses
 * are laid out from `va_base`; compilation fails (fatal) when the
 * layout exceeds `va_limit`.
 */
CompiledWorkload compile_pipeline(const workload::Model& model,
                                  const workload::PipelinePlan& plan,
                                  const CompileOptions& opt, Addr va_base,
                                  std::uint64_t va_limit);

/** UVM sync-flag payload (bytes). */
inline constexpr std::uint64_t kUvmFlagBytes = 64;

} // namespace vnpu::runtime

#endif // VNPU_RUNTIME_COMPILER_H
